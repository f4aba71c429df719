// chaos_run: command-line driver — run any of the ten algorithms over an
// edge-list file (binary or text) or a generated graph on a configurable
// simulated cluster. The "release binary" a downstream user would reach
// for first.
//
//   chaos_run --algo pagerank --input graph.txt --machines 16
//   chaos_run --algo bfs --generate rmat --scale 18 --machines 32 --hdd
//   chaos_run --algo sssp --generate grid --scale 8 --out distances.txt
//
// Heterogeneity / fault injection (reproduces bench fig21_stragglers):
//   chaos_run --algo pagerank --scale 17 --machines 4 --cores 1
//             --storage-bw-mbps 2000 --partitions-per-machine 16
//             --straggler 0 --straggler-severity 8
//
// Machine-failure recovery (reproduces bench fig_recovery): kill machine 2
// mid-run, recover automatically from the last committed checkpoint —
// on the N-1 survivors with --rescale, on a same-size cluster without:
//   chaos_run --algo pagerank --scale 16 --machines 8
//             --checkpoint-interval 2 --kill-machine 2 --kill-at 0.08
//
// Evolving graphs (reproduces bench fig_evolving): apply seeded mutation
// batches between convergences and re-converge incrementally from the
// affected frontier (--mutate-full restarts every vertex instead):
//   chaos_run --algo bfs --scale 14 --machines 8 --mutate-batches 3
//             --mutate-rate 0.01 --mutate-preset churn
//
// Sweep mode: cross-product over comma-separated knob lists, one
// self-contained simulation per point, run in parallel under --jobs
// (results are bitwise independent of the job count — util/parallel.h):
//   chaos_run --algo pagerank --scale 14 --jobs 8
//             --sweep "machines=1,2,4,8;chunk-kb=128,256"
//
// Serving mode: submit a multi-job trace to the job scheduler
// (core/job_scheduler.h) instead of running one algorithm alone. Every
// job goes through the same flag -> JobSpec path the one-shot CLI uses:
//   chaos_run --trace jobs.txt --policy priority --serve-machines 8
//       where jobs.txt holds one chaos_run flag line per job, e.g.
//         --algo bfs --scale 12 --machines 2 --priority 2 --arrival-ms 40
//         --algo pagerank --scale 14 --machines 4 --arrival-ms 0
//   chaos_run --trace-preset bursty --trace-jobs 12 --algo wcc --scale 12
//             --machines 2 --policy priority --quantum 4
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/runner.h"
#include "core/job_trace.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "util/options.h"
#include "util/parallel.h"
#include "util/stats.h"

using namespace chaos;

namespace {

// Declared flag ranges: each integer stays inside the type it converts to,
// and each time flag's nanosecond count inside TimeNs.
constexpr int64_t kIntMax = std::numeric_limits<int>::max();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

// The largest whole number of `unit`s whose nanoseconds fit in TimeNs.
constexpr double MaxTime(TimeNs unit) {
  return static_cast<double>(std::numeric_limits<TimeNs>::max() / unit);
}

void RegisterFlags(Options& opt) {
  opt.AddString("algo", "pagerank", "algorithm", AlgorithmNames());
  opt.AddString("input", "", "edge-list file (binary or text; empty = --generate)");
  opt.AddString("generate", "rmat", "graph generator (when no --input)",
                {"rmat", "web", "grid", "uniform"});
  // 63 is web's limit; each generator's own range is checked with the graph.
  opt.AddInt("scale", 14, "generator scale (2^scale vertices)", 0, 63);
  opt.AddInt("machines", 8, "simulated machines", 1, kIntMax);
  opt.AddInt("partitions-per-machine", 4, "streaming partitions per machine", 1, kIntMax);
  opt.AddInt("mem-mb", 0,
             "enforced per-machine memory budget in MiB (buffer-pool cap; over-budget "
             "buffers spill to the machine's storage device; 0 = auto headroom)",
             0, kInt64Max >> 20);
  opt.AddInt("chunk-kb", 256, "storage chunk size in KiB (the steal granularity)", 1,
             kInt64Max >> 10);
  opt.AddBool("hdd", false, "use the HDD profile instead of SSD");
  opt.AddBool("slow-net", false, "use 1GigE instead of 40GigE");
  opt.AddInt("cores", 0, "CPU cores per machine (0 = cost-model default)", 0, kIntMax);
  // Below 1 MB/s a scan of the largest generated graph leaves TimeNs.
  opt.AddDouble("storage-bw-mbps", 0.0, "storage bandwidth MB/s (0 = profile default)", 1.0,
                std::numeric_limits<double>::max() / 1e6);
  opt.AddDouble("alpha", 1.0, "work-stealing bias (0 disables stealing, inf always steals)",
                0.0, Options::kInf);
  opt.AddString("steal-mode", "steal_one",
                "steal policy (adaptive: escalation, victim check, backoff, domains at 32+)",
                {"steal_one", "steal_half", "adaptive"});
  opt.AddInt("straggler", -1, "machine to degrade (-1 = healthy cluster)", -1, kIntMax);
  opt.AddDouble("straggler-severity", 4.0, "slowdown factor of the straggler", 1.0,
                kMaxSlowdown);
  opt.AddString("straggler-target", "cpu", "degraded resource",
                {"cpu", "storage", "nic", "machine"});
  // Halves of TimeNs, since the degradation ends at their sum.
  opt.AddDouble("fault-at-ms", 0.0, "simulated time the degradation begins", 0.0,
                MaxTime(kNsPerMs) / 2);
  opt.AddDouble("fault-duration-ms", 0.0, "degradation length (0 = permanent)", 0.0,
                MaxTime(kNsPerMs) / 2);
  opt.AddInt("checkpoint-interval", 0, "checkpoint every N supersteps (0 = off)", 0,
             std::numeric_limits<uint32_t>::max());
  opt.AddInt("kill-machine", -1, "fail-stop this machine mid-run (-1 = none)", -1, kIntMax);
  opt.AddDouble("kill-at", 0.5,
                "simulated failure time in SECONDS (note: --fault-at-ms is in ms)", 0.0,
                MaxTime(kNsPerSec));
  opt.AddBool("rescale", false, "recover on N-1 machines instead of a same-size cluster");
  // Every epoch spends at least one superstep of the run's limit.
  opt.AddInt("mutate-batches", 0,
             "evolving mode: apply N seeded mutation batches between convergences and "
             "re-converge after each (bfs/sssp/wcc only; 0 = static graph)",
             0, static_cast<int64_t>(kMaxSupersteps) - 1);
  // (0, 1]: the smallest positive double up to the whole graph.
  opt.AddDouble("mutate-rate", 0.03, "edges mutated per batch as a fraction of the graph",
                std::numeric_limits<double>::denorm_min(), 1.0);
  opt.AddString("mutate-preset", "uniform", "mutation shape", {"uniform", "hotspot", "churn"});
  opt.AddBool("mutate-full", false,
              "full-recompute baseline: reseed every vertex instead of warm-starting "
              "from the affected frontier");
  opt.AddInt("source", 0, "source vertex (bfs/sssp)", 0, kInt64Max);
  // One superstep runs per iteration.
  opt.AddInt("iterations", 5, "iterations (pagerank/bp)", 0,
             static_cast<int64_t>(kMaxSupersteps));
  opt.AddInt("seed", 1, "seed");
  opt.AddString("out", "", "write per-vertex results to this file (single run only)");
  opt.AddString("sweep", "",
                "semicolon-separated knob lists, e.g. \"machines=1,2,4;chunk-kb=128,256\":"
                " run the cross product as parallel points");
  opt.AddInt("jobs", 0, "host threads for --sweep / --trace points (0 = all cores)", 0,
             kIntMax);
  // Per-job scheduling metadata — meaningful under --trace / --trace-preset,
  // inert in a one-shot run.
  opt.AddDouble("arrival-ms", 0.0, "job arrival time in simulated ms (serving mode)", 0.0,
                MaxTime(kNsPerMs));
  opt.AddInt("priority", 0, "job priority (higher runs first under --policy priority)",
             std::numeric_limits<int>::min(), kIntMax);
  opt.AddBool("no-preempt", false, "mark this job non-preemptible");
  opt.AddString("name", "", "job name in the serving report (default: <algo>-<index>)");
  // Serving mode: many jobs on one scheduled cluster.
  opt.AddString("trace", "",
                "file with one chaos_run flag line per job; serves them through the"
                " job scheduler");
  opt.AddString("trace-preset", "",
                "synthetic arrival trace (jobs shaped by the remaining flags, seeds varied"
                " per job)",
                {"uniform", "bursty", "diurnal"});
  opt.AddInt("trace-jobs", 12, "jobs generated by --trace-preset", 1, kIntMax);
  // At least 1 ns.
  opt.AddDouble("trace-horizon-ms", 1000.0, "arrival horizon for --trace-preset", 1e-6,
                MaxTime(kNsPerMs));
  opt.AddDouble("high-fraction", 0.25,
                "--trace-preset probability a job arrives high-priority", 0.0, 1.0);
  opt.AddString("policy", "priority", "serving scheduler", {"fifo", "priority"});
  opt.AddInt("serve-machines", 8, "machines in the serving cluster", 1, kIntMax);
  opt.AddInt("serve-mem-mb", 0,
             "per-machine memory for admission control in MiB (0 = unlimited)", 0,
             kInt64Max >> 20);
  // A quantum of kMaxSupersteps already never preempts: no run gets further.
  opt.AddInt("quantum", 4, "preemption quantum in supersteps (--policy priority)", 1,
             static_cast<int64_t>(kMaxSupersteps));
  opt.AddBool("verbose", false, "print the scheduler's event log (serving mode)");
}

// A time flag given in units of `unit_ns` nanoseconds, as TimeNs (its
// declared range keeps the product inside TimeNs).
TimeNs TimeFlag(const Options& opt, const std::string& name, TimeNs unit_ns) {
  return static_cast<TimeNs>(opt.GetDouble(name) * static_cast<double>(unit_ns));
}

// Builds the JobSpec a parsed flag set describes: load or generate the
// input, size the cluster, attach fault injection and recovery. This is the
// single flag -> JobSpec path: the one-shot CLI, every --sweep point and
// every --trace line all land here. Parse has checked each flag on its own;
// what is left are the checks against another flag or the graph, which set
// `error` to one line. `serving` rejects per-cluster fault flags — a
// scheduled job cannot carry its own fault schedule.
std::optional<JobSpec> BuildJob(const Options& opt, bool quiet, bool serving,
                                std::string* error) {
  const std::string algo = opt.GetString("algo");
  const AlgorithmInfo& info = AlgorithmByName(algo);
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));

  // ---- Input.
  InputGraph raw;
  if (!opt.GetString("input").empty()) {
    std::string load_error;
    auto loaded = LoadEdgeListBinary(opt.GetString("input"), &load_error);
    if (!loaded.has_value()) {
      loaded = LoadEdgeListText(opt.GetString("input"), &load_error);
    }
    if (!loaded.has_value()) {
      *error = "cannot load " + opt.GetString("input") + ": " + load_error;
      return std::nullopt;
    }
    raw = std::move(*loaded);
    if (info.needs_weights && !raw.weighted && !quiet) {
      std::fprintf(stderr, "note: %s expects weights; using weight 1 per edge\n",
                   algo.c_str());
    }
  } else {
    // The scales each generator can represent: rmat's permutation holds
    // 32-bit ids, web needs 4 pages for its 4-host floor, and the shifts
    // of the others must stay inside their types (grid's halves are 32-bit).
    struct ScaleRange {
      const char* kind;
      int64_t min;
      int64_t max;
    };
    static constexpr ScaleRange kScaleRanges[] = {
        {"rmat", 0, 31}, {"web", 2, 63}, {"grid", 0, 62}, {"uniform", 0, 59}};
    const std::string kind = opt.GetString("generate");
    const ScaleRange& range =
        *std::find_if(std::begin(kScaleRanges), std::end(kScaleRanges),
                      [&kind](const ScaleRange& r) { return kind == r.kind; });
    const int64_t requested = opt.GetInt("scale");
    if (requested < range.min || requested > range.max) {
      *error = "--scale must be in [" + std::to_string(range.min) + ", " +
               std::to_string(range.max) + "] for --generate " + kind + " (got " +
               std::to_string(requested) + ")";
      return std::nullopt;
    }
    const auto scale = static_cast<uint32_t>(requested);
    if (kind == "rmat") {
      RmatOptions gopt;
      gopt.scale = scale;
      gopt.weighted = info.needs_weights;
      gopt.seed = seed;
      raw = GenerateRmat(gopt);
    } else if (kind == "web") {
      WebGraphOptions gopt;
      gopt.num_pages = 1ull << scale;
      gopt.num_hosts = std::max<uint64_t>(gopt.num_pages >> 8, 4);
      gopt.seed = seed;
      raw = GenerateWebGraph(gopt);
    } else if (kind == "grid") {
      GridGraphOptions gopt;
      gopt.width = 1u << (scale / 2);
      gopt.height = 1u << (scale - scale / 2);
      gopt.seed = seed;
      raw = GenerateGridGraph(gopt);
    } else {
      raw = GenerateUniformRandom(1ull << scale, 16ull << scale, info.needs_weights, seed);
    }
  }
  auto prepared = std::make_shared<const InputGraph>(PrepareInput(algo, raw));
  const auto source = static_cast<uint64_t>(opt.GetInt("source"));
  if ((algo == "bfs" || algo == "sssp") && source >= prepared->num_vertices) {
    *error = "--source must be below the vertex count " +
             std::to_string(prepared->num_vertices) + " (got " + std::to_string(source) + ")";
    return std::nullopt;
  }
  if (!quiet) {
    std::printf("%s over %llu vertices / %llu edges (%s input)\n", algo.c_str(),
                static_cast<unsigned long long>(prepared->num_vertices),
                static_cast<unsigned long long>(prepared->num_edges()),
                FormatBytes(prepared->input_wire_bytes()).c_str());
  }

  // ---- Cluster.
  ClusterConfig cfg;
  cfg.machines = static_cast<int>(opt.GetInt("machines"));
  const auto ppm = static_cast<uint64_t>(opt.GetInt("partitions-per-machine"));
  cfg.memory_budget_bytes = std::max<uint64_t>(
      prepared->num_vertices * 48 / (ppm * static_cast<uint64_t>(cfg.machines)) + 1, 4 << 10);
  cfg.chunk_bytes = static_cast<uint64_t>(opt.GetInt("chunk-kb")) << 10;
  if (opt.GetInt("mem-mb") > 0) {
    // Squeeze the enforced buffer-pool budget without touching the
    // partitioning: the record streams stay identical, pressure shows up
    // as spill I/O and stall time (see docs/REPRODUCTION.md, fig_memory).
    cfg.pool_budget_bytes = static_cast<uint64_t>(opt.GetInt("mem-mb")) << 20;
  }
  cfg.storage = opt.GetBool("hdd") ? StorageConfig::Hdd() : StorageConfig::Ssd();
  cfg.net = opt.GetBool("slow-net") ? NetworkConfig::OneGigE() : NetworkConfig::FortyGigE();
  cfg.alpha = opt.GetDouble("alpha");
  ParseStealMode(opt.GetString("steal-mode"), &cfg.steal.mode);  // a declared choice
  cfg.checkpoint_interval = static_cast<uint32_t>(opt.GetInt("checkpoint-interval"));
  cfg.seed = seed;
  if (opt.GetInt("cores") > 0) {
    cfg.cost.cores = static_cast<int>(opt.GetInt("cores"));
  }
  if (opt.GetDouble("storage-bw-mbps") > 0.0) {
    cfg.storage.bandwidth_bps = opt.GetDouble("storage-bw-mbps") * 1e6;
  }

  // ---- Fault injection.
  const auto victim = static_cast<MachineId>(opt.GetInt("straggler"));
  const auto kill_machine = static_cast<MachineId>(opt.GetInt("kill-machine"));
  if (serving && (victim >= 0 || kill_machine >= 0)) {
    *error =
        "--straggler/--kill-machine cannot be set on a scheduled job "
        "(fault injection is per-cluster; run those one-shot)";
    return std::nullopt;
  }
  if (victim >= 0) {
    if (victim >= cfg.machines) {
      *error = "--straggler must be in [0, " + std::to_string(cfg.machines) + ")";
      return std::nullopt;
    }
    const double severity = opt.GetDouble("straggler-severity");
    FaultEvent fault;
    fault.machine = victim;
    ParseFaultTarget(opt.GetString("straggler-target"), &fault.target);  // a declared choice
    fault.factor = 1.0 / severity;
    fault.at = TimeFlag(opt, "fault-at-ms", kNsPerMs);
    fault.duration = TimeFlag(opt, "fault-duration-ms", kNsPerMs);
    cfg.faults.Add(fault);
    if (!quiet) {
      std::printf("injecting: machine %d %s at %.1fx speed (%s)\n", victim,
                  FaultTargetName(fault.target), 1.0 / severity,
                  fault.permanent() ? "permanent" : "transient");
    }
  }

  // ---- Machine failure + automatic recovery.
  RecoveryOptions recovery;
  if (kill_machine >= 0) {
    if (kill_machine >= cfg.machines) {
      *error = "--kill-machine must be in [0, " + std::to_string(cfg.machines) + ")";
      return std::nullopt;
    }
    if (opt.GetBool("rescale") && cfg.machines < 2) {
      *error = "--rescale needs at least 2 machines (cannot shrink below 1)";
      return std::nullopt;
    }
    FaultEvent kill;
    kill.at = TimeFlag(opt, "kill-at", kNsPerSec);
    kill.machine = kill_machine;
    kill.target = FaultTarget::kMachine;
    kill.kind = FaultKind::kMachineCrash;
    cfg.faults.Add(kill);
    if (opt.GetBool("rescale")) {
      recovery.replacement_machines = cfg.machines - 1;
    }
    if (!quiet) {
      std::printf(
          "injecting: machine %d fails (fail-stop) at %.3fs; recovery on %d machines\n",
          kill_machine, opt.GetDouble("kill-at"),
          recovery.replacement_machines > 0 ? recovery.replacement_machines : cfg.machines);
    }
  }

  // ---- Evolving mode.
  const auto mutate_batches = static_cast<uint32_t>(opt.GetInt("mutate-batches"));
  if (mutate_batches > 0) {
    if (algo != "bfs" && algo != "sssp" && algo != "wcc") {
      *error = "--mutate-batches supports bfs/sssp/wcc, not " + algo;
      return std::nullopt;
    }
    if (!quiet) {
      std::printf("evolving: %u mutation batch(es), rate %.3f, preset %s, %s re-convergence\n",
                  mutate_batches, opt.GetDouble("mutate-rate"),
                  opt.GetString("mutate-preset").c_str(),
                  opt.GetBool("mutate-full") ? "full-recompute" : "incremental");
    }
  }

  AlgoParams params;
  params.source = source;
  params.iterations = static_cast<uint32_t>(opt.GetInt("iterations"));
  JobSpec spec = MakeJob(algo, std::move(prepared), cfg, params);
  if (mutate_batches > 0) {
    // Evolving jobs carry the RAW graph: the controller re-prepares it per
    // epoch (the prepared copy above only sized the cluster and narration).
    spec.input = std::make_shared<const InputGraph>(std::move(raw));
    spec.mutations.log.num_batches = mutate_batches;
    spec.mutations.log.rate = opt.GetDouble("mutate-rate");
    spec.mutations.log.preset = MutatePresetByName(opt.GetString("mutate-preset")).value();
    spec.mutations.log.seed = seed;
    spec.mutations.incremental = !opt.GetBool("mutate-full");
  }
  if (kill_machine >= 0) {
    spec.recover = true;
    spec.recovery = recovery;
  }
  spec.name = opt.GetString("name");
  spec.priority = static_cast<int>(opt.GetInt("priority"));
  spec.arrival = TimeFlag(opt, "arrival-ms", kNsPerMs);
  spec.preemptible = !opt.GetBool("no-preempt");
  return spec;
}

struct RunOutcome {
  int rc = 1;
  double sim_seconds = 0.0;
  double preprocess_seconds = 0.0;
  uint64_t supersteps = 0;
  uint64_t vertices = 0;
  uint64_t edges = 0;
  bool recovered = false;
};

// One complete simulation driven by a parsed flag set. `quiet` suppresses
// the detailed per-run narration (sweep points print nothing; the summary
// table is produced by the caller after the sweep joins).
RunOutcome RunOnce(const Options& opt, bool quiet) {
  RunOutcome outcome;
  std::string error;
  std::optional<JobSpec> spec = BuildJob(opt, quiet, /*serving=*/false, &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return outcome;
  }
  outcome.vertices = spec->input->num_vertices;
  outcome.edges = spec->input->num_edges();
  // Opened before the run, so an unwritable path wastes no simulation.
  const std::string& out_path = opt.GetString("out");
  std::ofstream out;
  if (!quiet && !out_path.empty()) {
    out.open(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open --out file %s\n", out_path.c_str());
      return outcome;
    }
  }

  JobResult result = RunJob(*spec);
  const RecoveryReport& recovery_report = result.recovery;
  outcome.sim_seconds = result.metrics.total_seconds();
  outcome.preprocess_seconds = ToSeconds(result.metrics.preprocess_time);
  outcome.supersteps = result.supersteps;
  outcome.recovered = recovery_report.crash_detected;
  outcome.rc = 0;

  // ---- Report.
  if (quiet) {
    return outcome;
  }
  std::printf("\n%s", result.metrics.Summary().c_str());
  if (spec->recover) {
    if (!recovery_report.crash_detected) {
      std::printf("machine failure never fired (run finished at %.3fs, before --kill-at)\n",
                  ToSeconds(result.metrics.total_time));
    } else {
      std::printf(
          "recovery: %s at superstep %llu, lost %llu superstep(s), "
          "time-to-recover %s, end-to-end %s\n",
          recovery_report.recovered_from_checkpoint ? "resumed from checkpoint"
                                                    : "restarted from input",
          static_cast<unsigned long long>(recovery_report.resume_superstep),
          static_cast<unsigned long long>(recovery_report.lost_work_supersteps),
          FormatSeconds(ToSeconds(recovery_report.time_to_recover)).c_str(),
          FormatSeconds(ToSeconds(recovery_report.end_to_end_time)).c_str());
    }
  }
  std::printf("supersteps: %llu\n", static_cast<unsigned long long>(result.supersteps));
  const std::string& algo = spec->algorithm;
  if (algo == "conductance") {
    std::printf("conductance: %.6f\n", result.scalar);
  }
  if (algo == "mcst") {
    std::printf("spanning forest: %llu edges, total weight %.2f\n",
                static_cast<unsigned long long>(result.output_records), result.scalar);
  }
  if (out.is_open()) {
    for (VertexId v = 0; v < spec->input->num_vertices; ++v) {
      out << v << ' ' << result.values[v] << '\n';
    }
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write --out file %s\n", out_path.c_str());
      outcome.rc = 1;
      return outcome;
    }
    std::printf("wrote %llu values to %s\n",
                static_cast<unsigned long long>(spec->input->num_vertices), out_path.c_str());
  }
  return outcome;
}

// ---- Serving mode (--trace / --trace-preset).

// Re-parses `tokens` on top of a copy of the base flag set, so a trace line
// inherits every flag it does not override — the exact mechanism --sweep
// points use.
std::optional<Options> ParseOverrides(const Options& base, std::vector<std::string> tokens,
                                      std::string* error) {
  Options opt = base;
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& t : tokens) {
    argv.push_back(t.data());
  }
  if (auto err = opt.Parse(static_cast<int>(argv.size()), argv.data())) {
    *error = *err;
    return std::nullopt;
  }
  return opt;
}

// Reads one JobSpec per non-empty, non-comment line of `path`; each line is
// a chaos_run flag list layered over the base flags.
bool LoadTraceFile(const Options& base, const std::string& path,
                   std::vector<JobSpec>* specs) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open --trace file %s\n", path.c_str());
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::vector<std::string> tokens = SplitList(line, " \t");
    if (tokens.empty() || tokens[0][0] == '#') {
      continue;
    }
    std::string error;
    std::optional<Options> job_opt = ParseOverrides(base, std::move(tokens), &error);
    std::optional<JobSpec> spec;
    if (job_opt.has_value()) {
      spec = BuildJob(*job_opt, /*quiet=*/true, /*serving=*/true, &error);
    }
    if (!spec.has_value()) {
      std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), lineno, error.c_str());
      return false;
    }
    specs->push_back(std::move(*spec));
  }
  return true;
}

// Synthesizes a trace from a preset: arrivals and priorities from
// core/job_trace.h, job shape from the base flags with the per-entry
// derived seed layered on top (still the one flag -> JobSpec path).
bool GeneratePresetTrace(const Options& base, TracePreset preset,
                         std::vector<JobSpec>* specs) {
  TraceOptions topt;
  topt.preset = preset;
  topt.num_jobs = static_cast<int>(base.GetInt("trace-jobs"));
  topt.horizon = TimeFlag(base, "trace-horizon-ms", kNsPerMs);
  topt.seed = static_cast<uint64_t>(base.GetInt("seed"));
  topt.high_fraction = base.GetDouble("high-fraction");
  for (const TraceEntry& entry : GenerateTrace(topt)) {
    // The derived seed is folded to 31 bits so it round-trips through the
    // int flag; per-job variety is all it needs to provide.
    std::string error;
    std::optional<Options> job_opt = ParseOverrides(
        base, {"--seed=" + std::to_string(entry.seed & 0x7fffffff)}, &error);
    std::optional<JobSpec> spec;
    if (job_opt.has_value()) {
      spec = BuildJob(*job_opt, /*quiet=*/true, /*serving=*/true, &error);
    }
    if (!spec.has_value()) {
      std::fprintf(stderr, "--trace-preset: %s\n", error.c_str());
      return false;
    }
    spec->arrival = entry.arrival;
    spec->priority = entry.priority;
    specs->push_back(std::move(*spec));
  }
  return true;
}

int RunTrace(const Options& opt) {
  std::vector<JobSpec> specs;
  if (!opt.GetString("trace").empty()) {
    if (!LoadTraceFile(opt, opt.GetString("trace"), &specs)) {
      return 1;
    }
  } else if (!GeneratePresetTrace(opt, TracePresetByName(opt.GetString("trace-preset")).value(),
                                  &specs)) {
    return 1;
  }
  if (specs.empty()) {
    std::fprintf(stderr, "trace holds no jobs\n");
    return 1;
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name.empty()) {
      specs[i].name = specs[i].algorithm + "-" + std::to_string(i);
    }
  }

  ServingConfig serving;
  serving.machines = static_cast<int>(opt.GetInt("serve-machines"));
  serving.machine_memory_bytes = static_cast<uint64_t>(opt.GetInt("serve-mem-mb")) << 20;
  serving.policy = SchedPolicyByName(opt.GetString("policy")).value();
  serving.preempt_quantum = static_cast<uint64_t>(opt.GetInt("quantum"));
  serving.jobs = static_cast<int>(opt.GetInt("jobs"));

  std::printf("serving %zu job(s) on %d machines, policy %s, quantum %llu\n", specs.size(),
              serving.machines, SchedPolicyName(serving.policy),
              static_cast<unsigned long long>(serving.preempt_quantum));
  const TraceRunResult run = RunJobTrace(specs, serving);

  std::printf("%-16s %4s %10s %10s %10s %10s %7s %8s %7s\n", "job", "prio", "arrive(s)",
              "start(s)", "done(s)", "latency(s)", "slices", "preempts", "status");
  int rc = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const JobSchedStats& s = run.jobs[i].sched;
    if (!s.admitted) {
      std::printf("%-16s %4d %10.3f %10s %10s %10s %7s %8s %7s\n", specs[i].name.c_str(),
                  specs[i].priority, ToSeconds(specs[i].arrival), "-", "-", "-", "-", "-",
                  "REJECT");
      rc = 1;
      continue;
    }
    std::printf("%-16s %4d %10.3f %10.3f %10.3f %10.3f %7llu %8llu %7s\n",
                specs[i].name.c_str(), specs[i].priority, ToSeconds(s.arrival),
                ToSeconds(s.first_dispatch), ToSeconds(s.completion),
                ToSeconds(s.latency()), static_cast<unsigned long long>(s.slices),
                static_cast<unsigned long long>(s.preemptions),
                s.completed ? "ok" : "FAIL");
    rc = std::max(rc, s.completed ? 0 : 1);
  }
  std::printf(
      "\nmakespan %.3fs, utilization %.2f, %d dispatch(es), %d preemption(s), "
      "%d rejected\n",
      ToSeconds(run.metrics.makespan), run.metrics.utilization, run.metrics.dispatches,
      run.metrics.preemptions, run.metrics.rejected);
  if (opt.GetBool("verbose")) {
    for (const SchedEvent& event : run.events) {
      std::printf("  %s\n", event.ToString().c_str());
    }
  }
  return rc;
}

// ---- Sweep mode.

struct SweepKnob {
  std::string name;
  std::vector<std::string> values;
};

// Parses "machines=1,2,4;chunk-kb=128,256" into knob lists.
bool ParseSweepSpec(const std::string& spec, std::vector<SweepKnob>* knobs) {
  for (const std::string& part : SplitList(spec, ";")) {
    const size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= part.size()) {
      std::fprintf(stderr, "bad --sweep entry '%s' (want knob=v1,v2,...)\n", part.c_str());
      return false;
    }
    const std::string values = part.substr(eq + 1);
    SweepKnob knob{part.substr(0, eq), SplitList(values)};
    const auto commas = static_cast<size_t>(std::count(values.begin(), values.end(), ','));
    if (knob.values.size() != commas + 1) {  // SplitList dropped an empty value
      std::fprintf(stderr, "empty value in --sweep entry '%s'\n", part.c_str());
      return false;
    }
    knobs->push_back(std::move(knob));
  }
  if (knobs->empty()) {
    std::fprintf(stderr, "--sweep given but no knobs parsed\n");
    return false;
  }
  return true;
}

int RunSweep(const Options& base, const std::vector<SweepKnob>& knobs, int jobs) {
  // Cross product, row-major in declaration order: the last knob varies
  // fastest, matching nested for-loops.
  size_t num_points = 1;
  for (const SweepKnob& k : knobs) {
    num_points *= k.values.size();
  }
  struct Point {
    Options opt;          // base flags + this point's overrides
    std::string label;    // "machines=2 chunk-kb=128"
  };
  std::vector<Point> grid;
  grid.reserve(num_points);
  for (size_t p = 0; p < num_points; ++p) {
    size_t rem = p;
    std::vector<std::string> args;
    std::string label;
    for (size_t k = knobs.size(); k-- > 0;) {
      const SweepKnob& knob = knobs[k];
      const std::string& value = knob.values[rem % knob.values.size()];
      rem /= knob.values.size();
      args.push_back("--" + knob.name + "=" + value);
      label = knob.name + "=" + value + (label.empty() ? "" : " ") + label;
    }
    std::string error;
    std::optional<Options> parsed = ParseOverrides(base, std::move(args), &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "--sweep knob rejected: %s\n", error.c_str());
      return 1;
    }
    grid.push_back(Point{std::move(*parsed), std::move(label)});
  }

  SweepExecutor executor(jobs);  // <= 0 = all cores; executor normalizes
  std::printf("sweep: %zu points x {%s}, %d job(s)\n", grid.size(),
              base.GetString("algo").c_str(), executor.jobs());
  std::vector<RunOutcome> outcomes(grid.size());
  executor.ParallelFor(grid.size(),
                       [&](size_t i) { outcomes[i] = RunOnce(grid[i].opt, /*quiet=*/true); });

  std::printf("%-44s %14s %14s %12s %8s\n", "point", "sim-time(s)", "preproc(s)",
              "supersteps", "status");
  int rc = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    const RunOutcome& o = outcomes[i];
    std::printf("%-44s %14.4f %14.4f %12llu %8s\n", grid[i].label.c_str(), o.sim_seconds,
                o.preprocess_seconds, static_cast<unsigned long long>(o.supersteps),
                o.rc == 0 ? (o.recovered ? "recov" : "ok") : "FAIL");
    rc = std::max(rc, o.rc);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  RegisterFlags(opt);
  if (auto err = opt.Parse(argc - 1, argv + 1)) {
    std::fprintf(stderr, "error: %s (--help lists the flags)\n", err->c_str());
    return 1;
  }
  if (opt.help_requested()) {
    opt.PrintHelp(argv[0]);
    return 0;
  }
  const bool trace_mode =
      !opt.GetString("trace").empty() || !opt.GetString("trace-preset").empty();
  if (!opt.GetString("out").empty() && (trace_mode || !opt.GetString("sweep").empty())) {
    std::fprintf(stderr, "--out writes a single run's values: not with --sweep or --trace*\n");
    return 1;
  }
  if (trace_mode && !opt.GetString("sweep").empty()) {
    std::fprintf(stderr, "--sweep and --trace/--trace-preset are mutually exclusive\n");
    return 1;
  }
  if (trace_mode) {
    return RunTrace(opt);
  }
  if (!opt.GetString("sweep").empty()) {
    std::vector<SweepKnob> knobs;
    if (!ParseSweepSpec(opt.GetString("sweep"), &knobs)) {
      return 1;
    }
    return RunSweep(opt, knobs, static_cast<int>(opt.GetInt("jobs")));
  }
  return RunOnce(opt, /*quiet=*/false).rc;
}
