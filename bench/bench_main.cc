// Unified benchmark driver: links every bench_* translation unit behind one
// CLI and emits machine-readable results.
//
//   chaos_bench --list
//   chaos_bench --bench=fig8 --trials=3 --out=results.json
//   chaos_bench --bench=micro,fig8,fig_memory --out=baseline.json
//   chaos_bench --bench=all --out=results.json --jobs=8
//   chaos_bench --bench=fig8 --scale=14          (extra flags forwarded)
//   chaos_bench --bench=fig8,table1 --help       (each bench's flags, no run)
//
// Driver-level flags (--bench, --trials, --out, --jobs, --list, --help) are
// consumed here; everything else is forwarded verbatim to the selected
// bench, which parses it with the usual Options flag set. With a comma
// list, forwarded flags go to EVERY listed bench — a flag only one of
// them registers fails the others, so forward flags only to single-bench
// invocations. --jobs N runs
// each bench's sweep points on N host threads (default: hardware
// concurrency; --jobs 1 is fully sequential) — simulation results are
// bitwise independent of the setting, only wall_ms changes. The JSON
// schema is documented in README.md ("Benchmark JSON schema"); per-trial
// "metrics" carry simulation-derived values only and are byte-identical
// across --jobs settings.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace chaos::bench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct TrialResult {
  int trial = 0;
  int exit_code = 0;
  double wall_ms = 0.0;
  // Simulation-derived metrics recorded by the bench (RecordMetric),
  // already key-sorted; deterministic across --jobs settings.
  std::map<std::string, double> metrics;
};

struct BenchResult {
  std::string name;
  std::string description;
  std::vector<TrialResult> trials;
};

const BenchEntry* FindBench(const std::string& name) {
  for (const auto& entry : BenchRegistry()) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

std::vector<const BenchEntry*> SortedRegistry() {
  std::vector<const BenchEntry*> entries;
  for (const auto& entry : BenchRegistry()) {
    entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const BenchEntry* a, const BenchEntry* b) { return a->name < b->name; });
  return entries;
}

// Calls the bench with a rebuilt argv: argv[0] is the bench name, the rest
// are `flags`. Each call gets a fresh copy because benches may permute argv
// while parsing.
int CallBench(const BenchEntry& entry, const std::vector<std::string>& flags) {
  std::vector<std::string> args;
  args.push_back(entry.name);
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) {
    argv.push_back(a.data());
  }
  return entry.fn(static_cast<int>(argv.size()), argv.data());
}

int RunOne(const BenchEntry& entry, int trials, const std::vector<std::string>& forwarded,
           std::vector<BenchResult>* results) {
  int worst = 0;
  BenchResult result;
  result.name = entry.name;
  result.description = entry.description;
  for (int trial = 0; trial < trials; ++trial) {
    TakeRecordedMetrics();  // drop leftovers from a failed earlier trial
    const auto start = std::chrono::steady_clock::now();
    const int rc = CallBench(entry, forwarded);
    const auto end = std::chrono::steady_clock::now();
    TrialResult t;
    t.trial = trial;
    t.exit_code = rc;
    t.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
    t.metrics = TakeRecordedMetrics();
    result.trials.push_back(t);
    worst = std::max(worst, rc);
    std::fflush(stdout);
  }
  results->push_back(std::move(result));
  return worst;
}

std::string ToJson(const std::vector<BenchResult>& results, int trials, int jobs,
                   const std::vector<std::string>& forwarded) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\n";
  out << "  \"schema\": \"chaos-bench-v1\",\n";
  out << "  \"driver\": \"chaos_bench\",\n";
  out << "  \"trials\": " << trials << ",\n";
  out << "  \"jobs\": " << jobs << ",\n";
  out << "  \"forwarded_args\": [";
  for (size_t i = 0; i < forwarded.size(); ++i) {
    out << (i ? ", " : "") << '"' << JsonEscape(forwarded[i]) << '"';
  }
  out << "],\n";
  out << "  \"benches\": [\n";
  for (size_t b = 0; b < results.size(); ++b) {
    const BenchResult& r = results[b];
    double sum = 0.0, mn = 0.0, mx = 0.0;
    bool ok = true;
    for (size_t i = 0; i < r.trials.size(); ++i) {
      const double ms = r.trials[i].wall_ms;
      sum += ms;
      mn = i == 0 ? ms : std::min(mn, ms);
      mx = std::max(mx, ms);
      ok = ok && r.trials[i].exit_code == 0;
    }
    const double mean = r.trials.empty() ? 0.0 : sum / static_cast<double>(r.trials.size());
    out << "    {\n";
    out << "      \"bench\": \"" << JsonEscape(r.name) << "\",\n";
    out << "      \"description\": \"" << JsonEscape(r.description) << "\",\n";
    out << "      \"ok\": " << (ok ? "true" : "false") << ",\n";
    out << "      \"wall_ms_mean\": " << mean << ",\n";
    out << "      \"wall_ms_min\": " << mn << ",\n";
    out << "      \"wall_ms_max\": " << mx << ",\n";
    out << "      \"trials\": [\n";
    for (size_t i = 0; i < r.trials.size(); ++i) {
      const TrialResult& t = r.trials[i];
      out << "        {\"trial\": " << t.trial << ", \"exit_code\": " << t.exit_code
          << ", \"wall_ms\": " << t.wall_ms << ",\n";
      out << "         \"metrics\": {";
      size_t k = 0;
      for (const auto& [key, value] : t.metrics) {
        out << (k++ ? ", " : "") << '"' << JsonEscape(key) << "\": " << value;
      }
      out << "}}" << (i + 1 < r.trials.size() ? "," : "") << "\n";
    }
    out << "      ]\n";
    out << "    }" << (b + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

void PrintUsage(std::FILE* stream, const char* prog) {
  std::fprintf(stream,
               "usage: %s --bench=<name[,name...]|all> [--trials=N] [--jobs=N] [--out=FILE] "
               "[bench flags...]\n"
               "       %s --list\n"
               "--jobs runs sweep points on N threads (0/default: all cores; results\n"
               "are bitwise independent of the setting)\n",
               prog, prog);
}

int DriverMain(int argc, char** argv) {
  // Driver-level flags; every other argument is forwarded to the benches.
  std::vector<std::string> names = {"all"};
  for (const BenchEntry* entry : SortedRegistry()) {
    names.push_back(entry->name);
  }
  Options driver;
  driver.AddStringList("bench", "", "comma list of benches, or all", names);
  driver.AddInt("trials", 1, "trials per bench", 1, INT32_MAX);
  driver.AddInt("jobs", 0, "sweep threads (0 = all cores)", 0, INT32_MAX);
  driver.AddString("out", "", "JSON results file");
  driver.AddBool("list", false, "list the registered benches");
  std::vector<std::string> forwarded;
  if (auto err = driver.Parse(argc - 1, argv + 1, &forwarded)) {
    std::fprintf(stderr, "error: %s\n", err->c_str());
    return 2;
  }
  if (driver.GetBool("list")) {
    for (const BenchEntry* entry : SortedRegistry()) {
      std::printf("%-10s %s\n", entry->name.c_str(), entry->description.c_str());
    }
    return 0;
  }
  // --bench runs its benches in the given order; "all" is the sorted
  // registry.
  std::vector<const BenchEntry*> to_run;
  for (const std::string& name : driver.GetStringList("bench")) {
    if (name == "all") {
      const std::vector<const BenchEntry*> all = SortedRegistry();
      to_run.insert(to_run.end(), all.begin(), all.end());
    } else {
      to_run.push_back(FindBench(name));
    }
  }
  if (driver.help_requested()) {
    if (to_run.empty()) {
      PrintUsage(stdout, argv[0]);
    }
    // Each named bench prints its flags; the other flags are not parsed.
    // Help is not a trial: no JSON, and the benches' "not run" status is
    // not the driver's.
    for (const BenchEntry* entry : to_run) {
      CallBench(*entry, {"--help"});
    }
    return 0;
  }
  if (to_run.empty()) {
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  const auto trials = static_cast<int>(driver.GetInt("trials"));
  // 0 = all cores; the executor owns the normalization rule — read the
  // resolved count back for the JSON record.
  SetSweepJobs(static_cast<int>(driver.GetInt("jobs")));
  const int jobs = SharedSweepExecutor().jobs();

  // Opened before the first bench, so an unwritable path wastes no run.
  const std::string& out_path = driver.GetString("out");
  std::ofstream out;
  if (!out_path.empty()) {
    out.open(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
  }
  std::vector<BenchResult> results;
  int worst = 0;
  for (const BenchEntry* entry : to_run) {
    std::printf("=== bench: %s ===\n", entry->name.c_str());
    worst = std::max(worst, RunOne(*entry, trials, forwarded, &results));
  }

  if (out.is_open()) {
    out << ToJson(results, trials, jobs, forwarded);
    out.close();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return worst;
}

}  // namespace
}  // namespace chaos::bench

int main(int argc, char** argv) { return chaos::bench::DriverMain(argc, argv); }
