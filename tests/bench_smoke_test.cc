// Smoke test for the unified bench driver: runs `chaos_bench --bench=micro
// --trials=1 --out=<tmp>` as a subprocess and validates that the emitted
// file is well-formed JSON carrying nonzero timings. The driver path is
// passed as argv[1] by ctest (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace {

std::string g_bench_path;

// Single-quote a path for /bin/sh so build trees with spaces or shell
// metacharacters in their path still run the driver correctly.
std::string ShellQuote(const std::string& s) {
  std::string quoted = "'";
  for (char c : s) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

// ------------------------------------------------------------------
// Minimal recursive-descent JSON parser: validates syntax and records the
// numeric values seen for a key of interest. No external dependencies.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Parse() {
    pos_ = 0;
    if (!ParseValue()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

  const std::vector<double>& values_for(const std::string& key) const {
    static const std::vector<double> kEmpty;
    auto it = numeric_by_key_.find(key);
    return it == numeric_by_key_.end() ? kEmpty : it->second;
  }

  const std::vector<std::string>& strings_for(const std::string& key) const {
    static const std::vector<std::string> kEmpty;
    auto it = string_by_key_.find(key);
    return it == string_by_key_.end() ? kEmpty : it->second;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
      }
      s += text_[pos_++];
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    if (out != nullptr) {
      *out = s;
    }
    return true;
  }

  bool ParseNumber(double* out) {
    SkipWs();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) {
      return false;
    }
    pos_ += static_cast<size_t>(end - start);
    if (out != nullptr) {
      *out = v;
    }
    return true;
  }

  bool ParseValue(const std::string& key = "") {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray(key);
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) {
        return false;
      }
      if (!key.empty()) {
        string_by_key_[key].push_back(s);
      }
      return true;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    double v = 0.0;
    if (!ParseNumber(&v)) {
      return false;
    }
    if (!key.empty()) {
      numeric_by_key_[key].push_back(v);
    }
    return true;
  }

  bool ParseObject() {
    if (!Consume('{')) {
      return false;
    }
    if (Consume('}')) {
      return true;
    }
    for (;;) {
      std::string key;
      if (!ParseString(&key) || !Consume(':') || !ParseValue(key)) {
        return false;
      }
      if (Consume(',')) {
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(const std::string& key) {
    if (!Consume('[')) {
      return false;
    }
    SkipWs();
    if (Consume(']')) {
      return true;
    }
    for (;;) {
      if (!ParseValue(key)) {
        return false;
      }
      if (Consume(',')) {
        continue;
      }
      return Consume(']');
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::map<std::string, std::vector<double>> numeric_by_key_;
  std::map<std::string, std::vector<std::string>> string_by_key_;
};

TEST(BenchSmokeTest, MicroEmitsValidJsonWithNonzeroTimings) {
  ASSERT_FALSE(g_bench_path.empty()) << "pass the chaos_bench path as argv[1]";

  const std::string out_path = ::testing::TempDir() + "/chaos_bench_micro.json";
  const std::string cmd = ShellQuote(g_bench_path) +
                          " --bench=micro --trials=1 --min-ms=5 --out=" + ShellQuote(out_path) +
                          " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << "bench driver failed: " << cmd;

  std::ifstream in(out_path);
  ASSERT_TRUE(in.good()) << "driver did not write " << out_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  ASSERT_FALSE(text.empty());

  JsonChecker json(text);
  ASSERT_TRUE(json.Parse()) << "emitted file is not valid JSON:\n" << text;

  const auto& schemas = json.strings_for("schema");
  ASSERT_EQ(schemas.size(), 1u);
  EXPECT_EQ(schemas[0], "chaos-bench-v1");

  const auto& benches = json.strings_for("bench");
  ASSERT_FALSE(benches.empty());
  EXPECT_EQ(benches[0], "micro");

  const auto& timings = json.values_for("wall_ms");
  ASSERT_FALSE(timings.empty()) << "no per-trial wall_ms in JSON:\n" << text;
  for (double ms : timings) {
    EXPECT_GT(ms, 0.0);
  }
  const auto& means = json.values_for("wall_ms_mean");
  ASSERT_FALSE(means.empty());
  EXPECT_GT(means[0], 0.0);
}

// ------------------------------------------------------------------
// Parallel-sweep determinism: running the same bench with --jobs=1 and
// --jobs=8 must produce byte-identical output, except for host wall-clock
// fields. stdout tables carry only simulated values, so they are compared
// verbatim; the JSON is compared after dropping wall_ms and the jobs count.

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Removes lines that legitimately differ between runs: host timings in the
// JSON and fig20's stdout line with the host-timed grid partitioner, the
// jobs count itself, and the "wrote <path>" driver line.
std::string StripVolatileLines(const std::string& text) {
  std::stringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("wall_ms") != std::string::npos ||
        line.find("on this host") != std::string::npos ||
        line.find("\"jobs\"") != std::string::npos || line.rfind("wrote ", 0) == 0) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

// Runs `bench` at --jobs=1 and --jobs=8 and expects identical output. Each
// metric in `pinned` must also read exactly its literal in the JSON.
void ExpectJobsInvariant(const std::string& bench, const std::string& extra_flags,
                         bool records_sim_s = true,
                         const std::map<std::string, double>& pinned = {}) {
  ASSERT_FALSE(g_bench_path.empty()) << "pass the chaos_bench path as argv[1]";
  const std::string base = ::testing::TempDir() + "/chaos_det_" + bench;
  struct Run {
    std::string raw_json;
    std::string json;
    std::string stdout_text;
  };
  Run runs[2];
  const int jobs[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    const std::string json_path = base + "_j" + std::to_string(jobs[i]) + ".json";
    const std::string out_path = base + "_j" + std::to_string(jobs[i]) + ".txt";
    const std::string cmd = ShellQuote(g_bench_path) + " --bench=" + bench +
                            " --trials=1 --jobs=" + std::to_string(jobs[i]) + " " +
                            extra_flags + " --out=" + ShellQuote(json_path) + " > " +
                            ShellQuote(out_path);
    ASSERT_EQ(std::system(cmd.c_str()), 0) << "bench driver failed: " << cmd;
    runs[i].raw_json = ReadWholeFile(json_path);
    runs[i].json = StripVolatileLines(runs[i].raw_json);
    runs[i].stdout_text = StripVolatileLines(ReadWholeFile(out_path));
    ASSERT_FALSE(runs[i].json.empty());
    ASSERT_FALSE(runs[i].stdout_text.empty());
  }
  EXPECT_EQ(runs[0].stdout_text, runs[1].stdout_text)
      << bench << ": stdout differs between --jobs=1 and --jobs=8";
  EXPECT_EQ(runs[0].json, runs[1].json)
      << bench << ": metric JSON differs between --jobs=1 and --jobs=8";
  // The metric JSON must actually carry simulation metrics, otherwise the
  // comparison above proves nothing.
  EXPECT_NE(runs[0].json.find("\"metrics\": {\""), std::string::npos)
      << bench << ": empty metrics map";
  if (records_sim_s) {
    EXPECT_NE(runs[0].json.find("sim_s"), std::string::npos) << bench << ": no sim_s metric";
  }
  JsonChecker json(runs[0].raw_json);
  ASSERT_TRUE(json.Parse()) << bench << ": metric JSON does not parse";
  for (const auto& [key, value] : pinned) {
    const std::vector<double>& got = json.values_for(key);
    ASSERT_EQ(got.size(), 1u) << bench << ": metric " << key;
    EXPECT_EQ(got[0], value) << bench << ": metric " << key;
  }
}

TEST(BenchDeterminismTest, Fig8IdenticalAcrossJobCounts) {
  ExpectJobsInvariant("fig8", "--scale=9");
}

TEST(BenchDeterminismTest, FigRecoveryIdenticalAcrossJobCounts) {
  ExpectJobsInvariant("fig_recovery", "--scale=10");
}

// Doubles as the 64-machine smoke: the policy matrix (off/one/half/adaptive
// with seeded victim sweeps, backoff and domain routing) must stay byte-
// identical across --jobs, at a machine count past the paper's testbed.
// severities=1 keeps the healthy column only — the straggler gates
// (severity >= 4) are exercised by the CI bench job, not this smoke. The
// cell's 14 metrics are pinned, so every build type (RelWithDebInfo, Debug,
// the sanitizer build) checks the same simulated numbers.
TEST(BenchDeterminismTest, Fig21At64MachinesIdenticalAcrossJobCounts) {
  ExpectJobsInvariant("fig21_stragglers", "--machines-list=64 --severities=1 --scale=8",
                      /*records_sim_s=*/true,
                      {
                          {"fig21.m64.sev1.adaptive.p99_superstep_s", 0.00155},
                          {"fig21.m64.sev1.adaptive.sim_s", 0.00806},
                          {"fig21.m64.sev1.adaptive.victim_miss_rate", 0.979449},
                          {"fig21.m64.sev1.adaptive.victim_steals", 0.0},
                          {"fig21.m64.sev1.off.p99_superstep_s", 0.000707},
                          {"fig21.m64.sev1.off.sim_s", 0.0039},
                          {"fig21.m64.sev1.steal_half.p99_superstep_s", 0.001532},
                          {"fig21.m64.sev1.steal_half.sim_s", 0.00794},
                          {"fig21.m64.sev1.steal_half.victim_miss_rate", 0.979985},
                          {"fig21.m64.sev1.steal_half.victim_steals", 0.0},
                          {"fig21.m64.sev1.steal_one.p99_superstep_s", 0.001532},
                          {"fig21.m64.sev1.steal_one.sim_s", 0.00794},
                          {"fig21.m64.sev1.steal_one.victim_miss_rate", 0.979985},
                          {"fig21.m64.sev1.steal_one.victim_steals", 0.0},
                      });
}

// The evolving sweep runs two cluster runs plus a golden per point; every
// value printed or recorded is simulation-derived, so the mutation planner
// (host-side seeding included) must be schedule-independent too.
TEST(BenchDeterminismTest, FigEvolvingIdenticalAcrossJobCounts) {
  ExpectJobsInvariant("fig_evolving", "--scale=9");
}

// fig12 runs in no CI step, and fig13 and fig_memory run in CI only.
// fig_memory records no sim_s.
TEST(BenchDeterminismTest, Fig12Fig13FigMemoryIdenticalAcrossJobCounts) {
  ExpectJobsInvariant("fig12", "--base-scale=5");
  ExpectJobsInvariant("fig13", "");
  ExpectJobsInvariant("fig_memory", "--scale=9", /*records_sim_s=*/false);
}

// serving's own gate (bitwise job results, priority beating FIFO) fails
// the run; it records no sim_s.
TEST(BenchDeterminismTest, ServingIdenticalAcrossJobCounts) {
  ExpectJobsInvariant("serving", "", /*records_sim_s=*/false);
}

// Every bench that no gate runs, at tiny flags. fig5, fig14, fig17 and
// fig20 record no sim_s; fig20's grid partitioner cost is pinned so its
// table is simulated only. fig14's trailing comma checks that empty list
// items drop. table1's Chaos column is pinned: its X-Stream baseline shares
// Chaos's kernels and chunking, and nothing on X-Stream's side may move it.
TEST(BenchDeterminismTest, UngatedBenchesIdenticalAcrossJobCounts) {
  struct Case {
    const char* bench;
    const char* flags;
    bool records_sim_s;
  };
  const Case cases[] = {
      {"capacity", "--scale=8 --machines=4", true},
      {"fig5", "--max-machines=4", false},
      {"fig7", "--base-scale=5 --algos=bfs,mcst,pagerank", true},
      {"fig9", "--pages-log2=9", true},
      {"fig10", "--base-scale=5", true},
      {"fig11", "--base-scale=5", true},
      {"fig14", "--base-scale=5 --algos=bfs,sssp,", false},
      {"fig15", "--base-scale=5", true},
      {"fig16", "--scale=8 --machines=4", true},
      {"fig17", "--scale=8 --machines=4", false},
      {"fig18", "--scale=8 --machines=4", true},
      {"fig19", "--scale=8", true},
      {"fig20", "--scale=8 --machines=4 --grid-ns-per-edge=5", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.bench);
    ExpectJobsInvariant(c.bench, c.flags, c.records_sim_s);
  }
  SCOPED_TRACE("table1");
  ExpectJobsInvariant("table1", "--scale=8", /*records_sim_s=*/true,
                      {
                          {"table1.bfs.chaos_sim_s", 0.03584},
                          {"table1.wcc.chaos_sim_s", 0.0524},
                          {"table1.mcst.chaos_sim_s", 0.28596},
                          {"table1.mis.chaos_sim_s", 0.10402},
                          {"table1.sssp.chaos_sim_s", 0.07966},
                          {"table1.pagerank.chaos_sim_s", 0.0309},
                          {"table1.scc.chaos_sim_s", 0.12782},
                          {"table1.conductance.chaos_sim_s", 0.00852},
                          {"table1.spmv.chaos_sim_s", 0.00896},
                          {"table1.bp.chaos_sim_s", 0.03068},
                      });
}

// A bad --algos list is refused up front with exit 1 and a message, not a
// CHECK abort inside a sweep point.
TEST(BenchSmokeTest, UnknownAlgorithmInListExitsOne) {
  ASSERT_FALSE(g_bench_path.empty());
  for (const char* flags : {"--bench=fig7 --algos=nosuch", "--bench=fig14 --algos=bfs,nosuch",
                            "--bench=fig14 --algos=,"}) {
    const std::string err_path = ::testing::TempDir() + "/chaos_bad_algos.err";
    const std::string cmd = ShellQuote(g_bench_path) + " " + flags +
                            " --trials=1 > /dev/null 2> " + ShellQuote(err_path);
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << flags;
    EXPECT_EQ(WEXITSTATUS(status), 1) << flags;
    EXPECT_NE(ReadWholeFile(err_path).find("--algos"), std::string::npos) << flags;
  }
}

// No overhead compares greater than NaN, so a non-finite fig13 gate bound
// would switch the gate off: it is refused before any point runs.
TEST(BenchSmokeTest, NonFiniteMaxOverheadExitsOne) {
  ASSERT_FALSE(g_bench_path.empty());
  for (const char* bound : {"nan", "inf"}) {
    const std::string err_path = ::testing::TempDir() + "/chaos_bad_overhead.err";
    const std::string cmd = ShellQuote(g_bench_path) + " --bench=fig13 --max-overhead-pct=" +
                            bound + " --trials=1 > /dev/null 2> " + ShellQuote(err_path);
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << bound;
    EXPECT_EQ(WEXITSTATUS(status), 1) << bound;
    EXPECT_NE(ReadWholeFile(err_path).find("--max-overhead-pct"), std::string::npos) << bound;
  }
}

// An --out the driver cannot open is refused before any bench runs.
TEST(BenchSmokeTest, UnopenableOutFailsBeforeAnyBench) {
  ASSERT_FALSE(g_bench_path.empty());
  const std::string log_path = ::testing::TempDir() + "/chaos_bad_out.log";
  const std::string cmd = ShellQuote(g_bench_path) +
                          " --bench=fig8 --scale=8 --out=/nonexistent/d/x.json > " +
                          ShellQuote(log_path) + " 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  const std::string log = ReadWholeFile(log_path);
  EXPECT_EQ(log.find("=== bench:"), std::string::npos) << log;
  EXPECT_NE(log.find("/nonexistent/d/x.json"), std::string::npos) << log;
}

// --help with a bench list prints each bench's flags once and exits 0.
// Help is not a trial: nothing runs and no JSON is written.
TEST(BenchSmokeTest, HelpWithBenchListExitsZero) {
  ASSERT_FALSE(g_bench_path.empty());
  const std::string log_path = ::testing::TempDir() + "/chaos_help.log";
  const std::string out_path = ::testing::TempDir() + "/chaos_help.json";
  std::remove(out_path.c_str());
  const std::string cmd = ShellQuote(g_bench_path) + " --bench=fig5,table1 --help --out=" +
                          ShellQuote(out_path) + " > " + ShellQuote(log_path) + " 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const std::string log = ReadWholeFile(log_path);
  for (const char* line : {"usage: fig5 [flags]", "--max-machines", "usage: table1 [flags]",
                           "--scale"}) {
    const size_t at = log.find(line);
    EXPECT_NE(at, std::string::npos) << line << " missing:\n" << log;
    EXPECT_EQ(log.find(line, at + 1), std::string::npos) << line << " repeated:\n" << log;
  }
  EXPECT_EQ(log.find("=== bench:"), std::string::npos) << log;
  EXPECT_FALSE(std::ifstream(out_path).good()) << "--help wrote " << out_path;
}

TEST(BenchSmokeTest, ListIncludesAllRegisteredBenches) {
  ASSERT_FALSE(g_bench_path.empty());
  FILE* pipe = popen((ShellQuote(g_bench_path) + " --list").c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char chunk[512];
  while (std::fgets(chunk, sizeof(chunk), pipe) != nullptr) {
    output += chunk;
  }
  ASSERT_EQ(pclose(pipe), 0);
  // All benches must be registered with the driver.
  for (const char* name :
       {"capacity", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
        "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21_stragglers",
        "fig_evolving", "fig_memory", "fig_recovery", "fig_scale", "micro", "serving",
        "table1"}) {
    EXPECT_NE(output.find(name), std::string::npos) << "missing bench: " << name;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) {
    g_bench_path = argv[1];
  }
  return RUN_ALL_TESTS();
}
