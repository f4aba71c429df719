// Steal-protocol test battery (core/steal_policy.h + the engine's steal
// controller). Three layers:
//
//  1. pure policy math in isolation — the accept rule, grant amounts,
//     backoff windows, the adaptive escalation bit, victim order, mode
//     parsing;
//  2. small cluster runs — every mode must still absorb a straggler on the
//     acceptance-criteria 2-machine run, and runs must be deterministic;
//  3. large-N regressions — per-machine state is O(machines) by
//     construction (counted, not timed), and a 128-machine job under the
//     full adaptive runtime completes and answers correctly.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "algorithms/runner.h"
#include "core/steal_policy.h"
#include "graph/generators.h"
#include "net/network.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace chaos {
namespace {

// ------------------------------------------------------- accept rule (§5.4)

TEST(StealAcceptTest, AlphaZeroNeverAccepts) {
  EXPECT_FALSE(StealAccept(/*vertex_bytes=*/1.0, /*remaining_bytes=*/1e9,
                           /*helpers=*/1, /*alpha=*/0.0));
}

TEST(StealAcceptTest, InfiniteAlphaAcceptsWhileWorkRemains) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(StealAccept(1e12, 1.0, 100, inf));
  EXPECT_FALSE(StealAccept(1.0, 0.0, 1, inf));  // no work left
}

TEST(StealAcceptTest, DefaultAlphaTradesCopyCostAgainstSplitWork) {
  // V + D/(H+1) < D/H: with H=1 the helper pays V to halve D — worth it
  // only when V < D/2.
  EXPECT_TRUE(StealAccept(/*V=*/10.0, /*D=*/100.0, /*H=*/1, /*alpha=*/1.0));
  EXPECT_FALSE(StealAccept(/*V=*/60.0, /*D=*/100.0, /*H=*/1, /*alpha=*/1.0));
  // More helpers shrink the marginal gain: same V, same D, H=4 declines.
  EXPECT_FALSE(StealAccept(/*V=*/10.0, /*D=*/100.0, /*H=*/4, /*alpha=*/1.0));
  EXPECT_FALSE(StealAccept(1.0, 0.0, 1, 1.0));
  // helpers <= 0 is clamped to 1, not UB.
  EXPECT_TRUE(StealAccept(10.0, 100.0, 0, 1.0));
}

// ----------------------------------------------------------- grant amounts

TEST(StealGrantLimitTest, StealOneTakesExactlyOne) {
  EXPECT_EQ(StealGrantLimit(false, 0u), 0u);
  EXPECT_EQ(StealGrantLimit(false, 1u), 1u);
  EXPECT_EQ(StealGrantLimit(false, 7u), 1u);
}

TEST(StealGrantLimitTest, StealHalfTakesCeilHalf) {
  EXPECT_EQ(StealGrantLimit(true, 0u), 0u);
  EXPECT_EQ(StealGrantLimit(true, 1u), 1u);
  EXPECT_EQ(StealGrantLimit(true, 2u), 1u);
  EXPECT_EQ(StealGrantLimit(true, 3u), 2u);
  EXPECT_EQ(StealGrantLimit(true, 4u), 2u);
  EXPECT_EQ(StealGrantLimit(true, 5u), 3u);
}

// --------------------------------------------------------- backoff windows

TEST(BackoffWindowTest, DoublesUpToCapAndResets) {
  BackoffWindow w(20 * kNsPerUs, 160 * kNsPerUs);
  EXPECT_EQ(w.Next(), 20 * kNsPerUs);
  EXPECT_EQ(w.Next(), 40 * kNsPerUs);
  EXPECT_EQ(w.Next(), 80 * kNsPerUs);
  EXPECT_EQ(w.Next(), 160 * kNsPerUs);
  EXPECT_EQ(w.Next(), 160 * kNsPerUs);  // capped
  w.Reset();
  EXPECT_EQ(w.Next(), 20 * kNsPerUs);
}

TEST(BackoffWindowTest, DegenerateBoundsAreSanitized) {
  BackoffWindow w(/*initial=*/0, /*max=*/0);
  EXPECT_EQ(w.Next(), 1);  // never a zero-length park
  BackoffWindow inverted(/*initial=*/100, /*max=*/10);  // max < initial
  EXPECT_EQ(inverted.Next(), 100);
  EXPECT_EQ(inverted.Next(), 100);
}

// ---------------------------------------------- adaptive escalation (hints)

TEST(StealSweepStateTest, StealOneNeverEscalates) {
  StealSweepState s(StealMode::kStealOne);
  EXPECT_FALSE(s.steal_half());
  s.OnGrant(/*more_work=*/true);
  EXPECT_FALSE(s.steal_half());
}

TEST(StealSweepStateTest, StealHalfAlwaysHalf) {
  StealSweepState s(StealMode::kStealHalf);
  EXPECT_TRUE(s.steal_half());
  s.OnGrant(/*more_work=*/false);
  EXPECT_TRUE(s.steal_half());
}

TEST(StealSweepStateTest, AdaptiveFollowsTheVictimHint) {
  StealSweepState s(StealMode::kAdaptive);
  // Starts polite.
  EXPECT_FALSE(s.steal_half());
  // A grant whose victim still reports open work escalates to steal-half...
  s.OnGrant(/*more_work=*/true);
  EXPECT_TRUE(s.steal_half());
  // ...and a grant that exhausted its victim de-escalates.
  s.OnGrant(/*more_work=*/false);
  EXPECT_FALSE(s.steal_half());
}

// ------------------------------------------------------------ victim order

// The permutation with `self` dropped: the flat sweep.
std::vector<MachineId> FlatOrder(const std::vector<uint32_t>& perm, MachineId self) {
  std::vector<MachineId> order;
  for (const uint32_t v : perm) {
    if (static_cast<MachineId>(v) != self) {
      order.push_back(static_cast<MachineId>(v));
    }
  }
  return order;
}

// steal_one and steal_half sweep flat at any size, adaptive below 32
// machines.
TEST(StealVictimOrderTest, FlatSweepIsThePermutationWithoutSelf) {
  Rng rng(11);
  for (const int m : {2, 16, kStealDomainMinMachines - 1, kStealDomainMinMachines, 128}) {
    const std::vector<uint32_t> perm = rng.Permutation(static_cast<uint32_t>(m));
    for (const MachineId self : {0, 13 % m, m - 1}) {
      for (const StealMode mode :
           {StealMode::kStealOne, StealMode::kStealHalf, StealMode::kAdaptive}) {
        if (mode == StealMode::kAdaptive && m >= kStealDomainMinMachines) {
          continue;
        }
        EXPECT_EQ(StealVictimOrder(mode, self, perm), FlatOrder(perm, self))
            << StealModeName(mode) << " m=" << m << " self=" << self;
      }
    }
  }
}

// From 32 machines adaptive sweeps the other 7 machines of its own domain of
// 8 first, then the rest; both halves keep the permutation's order.
TEST(StealVictimOrderTest, AdaptiveSweepsItsOwnDomainFirstFrom32Machines) {
  EXPECT_EQ(kStealDomain, 8);
  EXPECT_EQ(kStealDomainMinMachines, 32);
  Rng rng(13);
  for (const int m : {kStealDomainMinMachines, 128}) {
    const std::vector<uint32_t> perm = rng.Permutation(static_cast<uint32_t>(m));
    for (const MachineId self : {0, 13, m - 1}) {
      std::vector<MachineId> expected;
      std::vector<MachineId> other_domains;
      for (const MachineId v : FlatOrder(perm, self)) {
        (v / kStealDomain == self / kStealDomain ? expected : other_domains).push_back(v);
      }
      ASSERT_EQ(expected.size(), static_cast<size_t>(kStealDomain - 1));
      expected.insert(expected.end(), other_domains.begin(), other_domains.end());
      EXPECT_EQ(StealVictimOrder(StealMode::kAdaptive, self, perm), expected)
          << "m=" << m << " self=" << self;
    }
  }
}

// ----------------------------------------------------------- mode parsing

TEST(StealModeTest, ParseRoundTripsEveryMode) {
  for (const StealMode m :
       {StealMode::kStealOne, StealMode::kStealHalf, StealMode::kAdaptive}) {
    StealMode parsed;
    ASSERT_TRUE(ParseStealMode(StealModeName(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
  StealMode parsed;
  EXPECT_FALSE(ParseStealMode("steal_two", &parsed));
  EXPECT_FALSE(ParseStealMode("", &parsed));
}

// ------------------------------------------------------------ cluster runs

// Same compute-bound miniature regime as fault_test.cc / fig21.
ClusterConfig PolicyRunConfig(int machines, double alpha, double severity) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.memory_budget_bytes = 8 << 10;
  cfg.chunk_bytes = 2 << 10;
  cfg.cost.cores = 1;
  cfg.storage.bandwidth_bps = 2e9;
  cfg.storage.access_latency = 2 * kNsPerUs;
  cfg.net.one_way_latency = kNsPerUs;
  cfg.alpha = alpha;
  cfg.seed = 5;
  if (severity > 1.0) {
    cfg.faults = FaultSchedule::Straggler(0, severity, FaultTarget::kCpu);
  }
  return cfg;
}

InputGraph PolicyRunGraph() {
  RmatOptions opt;
  opt.scale = 11;
  opt.seed = 17;
  return GenerateRmat(opt);
}

uint64_t TotalSteals(const RunMetrics& m) {
  uint64_t steals = 0;
  for (const auto& mm : m.machines) {
    steals += mm.steals_worked;
  }
  return steals;
}

// Every mode — not just the paper's steal-one — must absorb the 4x
// straggler on the acceptance-criteria 2-machine run: strictly faster than
// stealing disabled, with real stolen work on the books.
TEST(StealPolicyClusterTest, EveryModeBeatsNoStealingUnderStraggler) {
  InputGraph g = PrepareInput("pagerank", PolicyRunGraph());
  const auto without = RunJob(MakeJob("pagerank", g, PolicyRunConfig(2, 0.0, 4.0)));
  for (const StealMode mode :
       {StealMode::kStealOne, StealMode::kStealHalf, StealMode::kAdaptive}) {
    ClusterConfig cfg = PolicyRunConfig(2, 1.0, 4.0);
    cfg.steal.mode = mode;
    const auto with = RunJob(MakeJob("pagerank", g, cfg));
    EXPECT_LT(with.metrics.total_time, without.metrics.total_time)
        << StealModeName(mode) << " failed to absorb the straggler";
    EXPECT_GT(TotalSteals(with.metrics), 0u) << StealModeName(mode);
    EXPECT_GT(with.metrics.StealProposalsSent(), 0u) << StealModeName(mode);
  }
}

// Only adaptive backs off. On the 2-machine run with an 8x straggler,
// adaptive parks after dry sweeps whose victim still reported open work;
// steal_one and steal_half go to the barrier after their first dry sweep.
TEST(StealPolicyClusterTest, OnlyAdaptiveBacksOff) {
  InputGraph g = PrepareInput("pagerank", PolicyRunGraph());
  for (const StealMode mode :
       {StealMode::kStealOne, StealMode::kStealHalf, StealMode::kAdaptive}) {
    ClusterConfig cfg = PolicyRunConfig(2, 1.0, 8.0);
    cfg.steal.mode = mode;
    const uint64_t backoffs = RunJob(MakeJob("pagerank", g, cfg)).metrics.StealBackoffs();
    if (mode == StealMode::kAdaptive) {
      EXPECT_GT(backoffs, 0u);
    } else {
      EXPECT_EQ(backoffs, 0u) << StealModeName(mode);
    }
  }
}

// The quiescence exit: an adaptive helper whose victims have all said "no
// open work" this phase goes to the barrier instead of backing off. At 2
// machines a sweep makes at most one proposal, so each backoff follows a
// response that still reported open work: backoffs <= proposals - misses.
// Without the exit, a phase that drains the victim adds backoffs with no
// proposal behind them.
TEST(StealPolicyClusterTest, AdaptiveGoesToTheBarrierOnceEveryVictimIsDrained) {
  InputGraph g = PrepareInput("pagerank", PolicyRunGraph());
  ClusterConfig cfg = PolicyRunConfig(2, 1.0, 8.0);
  cfg.steal.mode = StealMode::kAdaptive;
  const RunMetrics m = RunJob(MakeJob("pagerank", g, cfg)).metrics;
  uint64_t misses = 0;
  for (const auto& mm : m.machines) {
    misses += mm.victim_misses;
  }
  // The run reaches both sides of the rule: it drains its victim and it
  // backs off.
  ASSERT_GT(misses, 0u);
  ASSERT_GT(m.StealBackoffs(), 0u);
  EXPECT_LE(m.StealBackoffs(), m.StealProposalsSent() - misses);
}

// Same seed + same policy => identical simulated trace, for every mode.
TEST(StealPolicyClusterTest, PolicyRunsAreDeterministic) {
  InputGraph g = PrepareInput("pagerank", PolicyRunGraph());
  for (const StealMode mode :
       {StealMode::kStealOne, StealMode::kStealHalf, StealMode::kAdaptive}) {
    auto run = [&] {
      ClusterConfig cfg = PolicyRunConfig(4, 1.0, 4.0);
      cfg.steal.mode = mode;
      return RunJob(MakeJob("pagerank", g, cfg));
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.metrics.total_time, b.metrics.total_time) << StealModeName(mode);
    EXPECT_EQ(a.metrics.messages, b.metrics.messages) << StealModeName(mode);
    EXPECT_EQ(a.metrics.StealProposalsSent(), b.metrics.StealProposalsSent())
        << StealModeName(mode);
    EXPECT_EQ(a.metrics.PartitionsGranted(), b.metrics.PartitionsGranted())
        << StealModeName(mode);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (size_t v = 0; v < a.values.size(); ++v) {
      ASSERT_DOUBLE_EQ(a.values[v], b.values[v]) << StealModeName(mode);
    }
  }
}

// ------------------------------------------------------- large-N regressions

// Per-machine state must stay O(machines): the network keeps one link record
// per machine and the bus one mailbox per (machine, service) — never
// per-pair state. Counted at construction, so this can't flake on timing.
TEST(LargeClusterTest, NetworkAndBusAllocationsScaleLinearly) {
  auto count = [](int machines) {
    Simulator sim;
    Network net(&sim, machines, NetworkConfig::FortyGigE());
    MessageBus bus(&sim, &net);
    return std::pair<size_t, size_t>(net.link_count(), bus.inbox_count());
  };
  const auto [links32, inboxes32] = count(32);
  const auto [links128, inboxes128] = count(128);
  EXPECT_EQ(links32, 32u);
  EXPECT_EQ(links128, 128u);
  EXPECT_EQ(links128, 4u * links32);
  EXPECT_EQ(inboxes32, 32u * kNumServices);
  EXPECT_EQ(inboxes128, 4u * inboxes32);
}

// A 128-machine job under the full adaptive runtime (domains of 8 included)
// completes, steals, and still computes the right answer (checked against
// the 1-machine run).
TEST(LargeClusterTest, AdaptiveRuntimeCompletesAt128Machines) {
  InputGraph g = PrepareInput("pagerank", PolicyRunGraph());
  const auto reference = RunJob(MakeJob("pagerank", g, PolicyRunConfig(1, 0.0, 1.0)));

  ClusterConfig cfg = PolicyRunConfig(128, 1.0, 1.0);
  // Straggler cluster in the fig21 shape: machines [0, 16) at quarter speed.
  for (int m = 0; m < 16; ++m) {
    cfg.faults.Add(FaultEvent{/*at=*/0, /*duration=*/0, /*machine=*/m,
                              FaultTarget::kCpu, /*factor=*/0.25});
  }
  cfg.steal.mode = StealMode::kAdaptive;
  const auto big = RunJob(MakeJob("pagerank", g, cfg));

  EXPECT_FALSE(big.metrics.crashed);
  EXPECT_GT(big.metrics.supersteps, 0u);
  EXPECT_GT(TotalSteals(big.metrics), 0u);
  ASSERT_EQ(big.values.size(), reference.values.size());
  for (size_t v = 0; v < reference.values.size(); ++v) {
    ASSERT_NEAR(big.values[v], reference.values[v],
                1e-4 * std::max(1.0, std::abs(reference.values[v])));
  }
}

}  // namespace
}  // namespace chaos
