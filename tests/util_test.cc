// Unit tests for src/util: rng, stats, options, formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/common.h"
#include "util/options.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace chaos {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  std::vector<uint64_t> first;
  for (int i = 0; i < 16; ++i) {
    first.push_back(a.Next());
  }
  a.Seed(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.Next(), first[static_cast<size_t>(i)]);
  }
}

TEST(RngTest, BelowIsInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Below(1), 0u);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr uint64_t kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    counts[rng.Below(kBuckets)]++;
  }
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

// UnitThreshold(p) is the integer form of NextDouble() < p: at and beside
// the threshold, at both ends of the 53-bit range, for the RMAT defaults'
// cumulative sums, an exactly representable p and the clamped cases.
TEST(RngTest, UnitThresholdMatchesNextDoubleCompare) {
  constexpr uint64_t kOne = 1ull << 53;
  for (const double p : {0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.5, 0.0, 1.0, -0.1, 1.5,
                         std::numeric_limits<double>::denorm_min()}) {
    const uint64_t t = Rng::UnitThreshold(p);
    ASSERT_LE(t, kOne) << "p=" << p;
    for (const uint64_t x : {uint64_t{0}, t - 1, t, t + 1, kOne - 1}) {
      if (x >= kOne) {
        continue;  // t - 1 at t == 0, or t and t + 1 at t == 2^53
      }
      EXPECT_EQ(x < t, static_cast<double>(x) * 0x1p-53 < p) << "p=" << p << " x=" << x;
    }
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.Shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(RngTest, PermutationCoversAllValues) {
  Rng rng(23);
  auto p = rng.Permutation(100);
  std::set<uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RngTest, Mix64IsStable) {
  // Pinned values guard against accidental algorithm changes that would
  // silently change chunk placement of existing runs.
  EXPECT_EQ(Mix64(0), 16294208416658607535ULL);
  EXPECT_NE(Mix64(1), Mix64(2));
}

TEST(RngTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ---------------------------------------------------------------- stats

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(ExactQuantileTest, KnownValues) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.25), 2.0);
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(FormatBytes(4ull << 20), "4.00 MiB");
  EXPECT_EQ(FormatBytes(16ull << 40), "16.00 TiB");
}

TEST(FormatTest, Seconds) {
  EXPECT_EQ(FormatSeconds(0.5e-9 * 500), "250 ns");
  EXPECT_EQ(FormatSeconds(1.5), "1.50 s");
  EXPECT_EQ(FormatSeconds(600.0), "10.0 min");
  EXPECT_EQ(FormatSeconds(9.0 * 3600.0), "9.00 h");
}

TEST(FormatTest, Bandwidth) {
  EXPECT_EQ(FormatBandwidth(400e6), "400.00 MB/s");
  EXPECT_EQ(FormatBandwidth(7e9), "7.00 GB/s");
}

// ---------------------------------------------------------------- options

TEST(OptionsTest, DefaultsAndTypes) {
  Options opt;
  opt.AddInt("machines", 4, "machine count");
  opt.AddDouble("alpha", 1.0, "steal bias");
  opt.AddBool("steal", true, "enable stealing");
  opt.AddString("algo", "pagerank", "algorithm");
  EXPECT_EQ(opt.GetInt("machines"), 4);
  EXPECT_DOUBLE_EQ(opt.GetDouble("alpha"), 1.0);
  EXPECT_TRUE(opt.GetBool("steal"));
  EXPECT_EQ(opt.GetString("algo"), "pagerank");
}

TEST(OptionsTest, ParseEqualsForm) {
  Options opt;
  opt.AddInt("machines", 4, "");
  opt.AddDouble("alpha", 1.0, "");
  char arg0[] = "--machines=32";
  char arg1[] = "--alpha=0.8";
  char* argv[] = {arg0, arg1};
  EXPECT_FALSE(opt.Parse(2, argv).has_value());
  EXPECT_EQ(opt.GetInt("machines"), 32);
  EXPECT_DOUBLE_EQ(opt.GetDouble("alpha"), 0.8);
}

TEST(OptionsTest, ParseSpaceForm) {
  Options opt;
  opt.AddString("algo", "", "");
  char arg0[] = "--algo";
  char arg1[] = "bfs";
  char* argv[] = {arg0, arg1};
  EXPECT_FALSE(opt.Parse(2, argv).has_value());
  EXPECT_EQ(opt.GetString("algo"), "bfs");
}

TEST(OptionsTest, BoolForms) {
  Options opt;
  opt.AddBool("steal", false, "");
  opt.AddBool("checkpoint", true, "");
  char arg0[] = "--steal";
  char arg1[] = "--no-checkpoint";
  char* argv[] = {arg0, arg1};
  EXPECT_FALSE(opt.Parse(2, argv).has_value());
  EXPECT_TRUE(opt.GetBool("steal"));
  EXPECT_FALSE(opt.GetBool("checkpoint"));
}

TEST(OptionsTest, UnknownFlagIsError) {
  Options opt;
  char arg0[] = "--bogus=1";
  char* argv[] = {arg0};
  const auto err = opt.Parse(1, argv);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("bogus"), std::string::npos);
}

TEST(OptionsTest, BadIntIsError) {
  Options opt;
  opt.AddInt("n", 0, "");
  char arg0[] = "--n=abc";
  char* argv[] = {arg0};
  EXPECT_TRUE(opt.Parse(1, argv).has_value());
}

// A declared range is inclusive at both ends, and a value past it (or past
// int64) is refused with the range in the message.
TEST(OptionsTest, IntRangeIsEnforced) {
  const auto parse = [](const char* text) {
    Options opt;
    opt.AddInt("machines", 4, "", 1, 64);
    std::string arg = text;
    char* argv[] = {arg.data()};
    const auto err = opt.Parse(1, argv);
    return err.has_value() ? *err : "ok " + std::to_string(opt.GetInt("machines"));
  };
  EXPECT_EQ(parse("--machines=1"), "ok 1");
  EXPECT_EQ(parse("--machines=64"), "ok 64");
  EXPECT_EQ(parse("--machines=010"), "ok 10");
  EXPECT_EQ(parse("--machines=08"), "ok 8");
  EXPECT_EQ(parse("--machines=0"), "flag --machines must be in [1, 64], got 0");
  EXPECT_EQ(parse("--machines=-3"), "flag --machines must be in [1, 64], got -3");
  EXPECT_EQ(parse("--machines=65"), "flag --machines must be in [1, 64], got 65");
  EXPECT_EQ(parse("--machines=99999999999999999999"),
            "flag --machines must be in [1, 64], got 99999999999999999999");
  Options unbounded;
  unbounded.AddInt("n", 0, "");
  char arg0[] = "--n=-99999999999999999999";
  char* argv[] = {arg0};
  EXPECT_TRUE(unbounded.Parse(1, argv).has_value());
}

// Parses one `--name=value` argument; returns the error text, or "ok".
std::string ParseOne(Options& opt, const std::string& arg) {
  std::string text = arg;
  char* argv[] = {text.data()};
  return opt.Parse(1, argv).value_or("ok");
}

// Both bounds are inclusive; NaN is always refused, and infinity past a
// finite bound.
TEST(OptionsTest, DoubleRangeIsEnforced) {
  Options opt;
  opt.AddDouble("rate", 0.5, "", 0.0, 1.0);
  opt.AddDouble("alpha", 1.0, "", 0.0, Options::kInf);
  EXPECT_EQ(ParseOne(opt, "--rate=0"), "ok");
  EXPECT_EQ(ParseOne(opt, "--rate=1"), "ok");
  EXPECT_DOUBLE_EQ(opt.GetDouble("rate"), 1.0);
  EXPECT_EQ(ParseOne(opt, "--rate=1.0001"), "flag --rate must be in [0, 1], got 1.0001");
  EXPECT_EQ(ParseOne(opt, "--rate=-0.1"), "flag --rate must be in [0, 1], got -0.1");
  EXPECT_EQ(ParseOne(opt, "--rate=nan"), "flag --rate must be in [0, 1], got nan");
  EXPECT_EQ(ParseOne(opt, "--rate=inf"), "flag --rate must be in [0, 1], got inf");
  EXPECT_EQ(ParseOne(opt, "--alpha=inf"), "ok");
  EXPECT_EQ(opt.GetDouble("alpha"), Options::kInf);
  EXPECT_EQ(ParseOne(opt, "--alpha=nan"), "flag --alpha must be in [0, inf], got nan");
  EXPECT_EQ(ParseOne(opt, "--alpha=-inf"), "flag --alpha must be in [0, inf], got -inf");
  Options unbounded;
  unbounded.AddDouble("x", 0.0, "");
  EXPECT_EQ(ParseOne(unbounded, "--x=-inf"), "ok");
  EXPECT_EQ(ParseOne(unbounded, "--x=nan"), "flag --x must be in [-inf, inf], got nan");
}

// A default outside the declared values is a sentinel that stays valid.
TEST(OptionsTest, DefaultOutsideTheRangeIsASentinel) {
  Options opt;
  opt.AddDouble("bw", 0.0, "0 = profile default", 1.0, 100.0);
  opt.AddInt("victim", -1, "-1 = none", 0, 7);
  opt.AddString("preset", "", "empty = off", {"uniform", "bursty"});
  EXPECT_EQ(ParseOne(opt, "--bw=0"), "ok");
  EXPECT_EQ(ParseOne(opt, "--bw=0.5"), "flag --bw must be in [1, 100], got 0.5");
  EXPECT_EQ(ParseOne(opt, "--victim=-1"), "ok");
  EXPECT_EQ(ParseOne(opt, "--victim=-2"), "flag --victim must be in [0, 7], got -2");
  EXPECT_EQ(ParseOne(opt, "--preset="), "ok");
}

TEST(OptionsTest, ChoicesAreEnforced) {
  Options opt;
  opt.AddString("mode", "steal_one", "", {"steal_one", "steal_half"});
  EXPECT_EQ(ParseOne(opt, "--mode=steal_half"), "ok");
  EXPECT_EQ(opt.GetString("mode"), "steal_half");
  EXPECT_EQ(ParseOne(opt, "--mode=steal_two"),
            "flag --mode must be one of steal_one|steal_half, got 'steal_two'");
}

// A list flag checks every item like its scalar flag; empty items drop,
// but a non-empty value must list one.
TEST(OptionsTest, ListItemsAreChecked) {
  Options opt;
  opt.AddIntList("machines", "4,32", "", 1, 64);
  opt.AddStringList("algos", "", "", {"bfs", "wcc"});
  EXPECT_EQ(opt.GetIntList("machines"), (std::vector<int64_t>{4, 32}));
  EXPECT_TRUE(opt.GetStringList("algos").empty());
  EXPECT_EQ(ParseOne(opt, "--machines=2,,8,"), "ok");
  EXPECT_EQ(opt.GetIntList("machines"), (std::vector<int64_t>{2, 8}));
  EXPECT_EQ(ParseOne(opt, "--machines=4.7"), "flag --machines expects an integer, got '4.7'");
  EXPECT_EQ(ParseOne(opt, "--machines=8,0"), "flag --machines must be in [1, 64], got 0");
  EXPECT_EQ(opt.GetIntList("machines"), (std::vector<int64_t>{2, 8}));  // refused: unchanged
  EXPECT_EQ(ParseOne(opt, "--machines=abc"), "flag --machines expects an integer, got 'abc'");
  EXPECT_EQ(ParseOne(opt, "--algos=wcc,bfs"), "ok");
  EXPECT_EQ(opt.GetStringList("algos"), (std::vector<std::string>{"wcc", "bfs"}));
  EXPECT_EQ(ParseOne(opt, "--algos=bfs,nosuch"),
            "flag --algos must be one of bfs|wcc, got 'nosuch'");
  EXPECT_EQ(ParseOne(opt, "--algos=,"), "flag --algos lists no items, got ','");
  EXPECT_EQ(ParseOne(opt, "--algos="), "ok");
  EXPECT_TRUE(opt.GetStringList("algos").empty());
}

// With an `unknown` list, unregistered flags and positional arguments are
// collected in order instead of refused; registered ones still parse.
TEST(OptionsTest, UnknownArgumentsCanBeCollected) {
  Options opt;
  opt.AddInt("trials", 1, "", 1, 10);
  opt.AddBool("list", false, "");
  std::string args[] = {"--scale", "10", "--trials=3", "--min-ms=5", "--list"};
  char* argv[] = {args[0].data(), args[1].data(), args[2].data(), args[3].data(),
                  args[4].data()};
  std::vector<std::string> unknown;
  EXPECT_FALSE(opt.Parse(5, argv, &unknown).has_value());
  EXPECT_EQ(unknown, (std::vector<std::string>{"--scale", "10", "--min-ms=5"}));
  EXPECT_EQ(opt.GetInt("trials"), 3);
  EXPECT_TRUE(opt.GetBool("list"));
  char bad[] = "--trials=0";
  char* bad_argv[] = {bad};
  EXPECT_EQ(opt.Parse(1, bad_argv, &unknown).value_or("ok"),
            "flag --trials must be in [1, 10], got 0");
}

TEST(OptionsTest, HelpRequested) {
  Options opt;
  char arg0[] = "--help";
  char* argv[] = {arg0};
  EXPECT_FALSE(opt.Parse(1, argv).has_value());
  EXPECT_TRUE(opt.help_requested());
}

TEST(OptionsTest, MissingValueIsError) {
  Options opt;
  opt.AddInt("n", 0, "");
  char arg0[] = "--n";
  char* argv[] = {arg0};
  EXPECT_TRUE(opt.Parse(1, argv).has_value());
}

TEST(SplitListTest, DropsEmptyItemsAtAnySeparator) {
  using List = std::vector<std::string>;
  EXPECT_EQ(SplitList("bfs,,wcc,"), (List{"bfs", "wcc"}));
  EXPECT_EQ(SplitList(",,"), List{});
  EXPECT_EQ(SplitList(" --algo\tbfs  --scale 8 ", " \t"), (List{"--algo", "bfs", "--scale", "8"}));
}

// ---------------------------------------------------------------- parallel

TEST(SweepExecutorTest, RunsEveryIndexExactlyOnce) {
  SweepExecutor executor(4);
  EXPECT_EQ(executor.jobs(), 4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  executor.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SweepExecutorTest, ResultsIndexedInDeclarationOrder) {
  // Results must land at their point's index regardless of schedule, and be
  // identical across job counts (the determinism contract).
  auto run = [](int jobs) {
    SweepExecutor executor(jobs);
    std::vector<std::function<uint64_t()>> points;
    for (uint64_t i = 0; i < 64; ++i) {
      points.push_back([i] { return Mix64(42, i); });
    }
    return executor.RunPoints(points);
  };
  const auto sequential = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(sequential.size(), 64u);
  EXPECT_EQ(sequential, parallel);
  EXPECT_EQ(sequential[7], DeriveSeed(42, 7));
}

TEST(SweepExecutorTest, ReusableAcrossSweeps) {
  SweepExecutor executor(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<size_t> sum{0};
    executor.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u) << "round " << round;
  }
  executor.ParallelFor(0, [](size_t) { FAIL() << "no points, no calls"; });
}

TEST(SweepExecutorTest, NestedSweepFromAPointRunsInline) {
  // A point that sweeps through the same executor must not deadlock on the
  // sweep mutex its own batch holds — nested calls run inline.
  SweepExecutor executor(4);
  std::atomic<int> total{0};
  executor.ParallelFor(8, [&](size_t) {
    executor.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(SweepExecutorTest, SingleJobRunsInline) {
  SweepExecutor executor(1);
  const auto caller = std::this_thread::get_id();
  executor.ParallelFor(16, [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(SweepExecutorTest, DeriveSeedIsStableAndSpreads) {
  // The documented derivation rule: DeriveSeed == two-argument Mix64.
  EXPECT_EQ(DeriveSeed(1, 2), Mix64(1, 2));
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(DeriveSeed(12345, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions on a small grid
}

TEST(CheckTest, PassingChecksDoNotAbort) {
  CHAOS_CHECK(true);
  CHAOS_CHECK_EQ(1, 1);
  CHAOS_CHECK_LT(1, 2);
  CHAOS_CHECK_GE(2, 2);
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH({ CHAOS_CHECK_MSG(false, "boom"); }, "boom");
}

TEST(CheckDeathTest, FailingCheckOpPrintsValues) {
  EXPECT_DEATH({ CHAOS_CHECK_EQ(1 + 1, 3); }, "lhs=2");
}

}  // namespace
}  // namespace chaos
