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
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/runner.h"
#include "core/job_trace.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "util/logging.h"
#include "util/options.h"
#include "util/parallel.h"
#include "util/stats.h"

using namespace chaos;

namespace {

void RegisterFlags(Options& opt) {
  opt.AddString("algo", "pagerank",
                "bfs|wcc|mcst|mis|sssp|pagerank|scc|conductance|spmv|bp");
  opt.AddString("input", "", "edge-list file (binary or text; empty = --generate)");
  opt.AddString("generate", "rmat", "rmat|web|grid|uniform (when no --input)");
  opt.AddInt("scale", 14, "generator scale (2^scale vertices)");
  opt.AddInt("machines", 8, "simulated machines");
  opt.AddInt("partitions-per-machine", 4, "streaming partitions per machine");
  opt.AddInt("mem-mb", 0,
             "enforced per-machine memory budget in MiB (buffer-pool cap; over-budget "
             "buffers spill to the machine's storage device; 0 = auto headroom)");
  opt.AddInt("chunk-kb", 256, "storage chunk size in KiB (the steal granularity)");
  opt.AddBool("hdd", false, "use the HDD profile instead of SSD");
  opt.AddBool("slow-net", false, "use 1GigE instead of 40GigE");
  opt.AddInt("cores", 0, "CPU cores per machine (0 = cost-model default)");
  opt.AddDouble("storage-bw-mbps", 0.0, "storage bandwidth MB/s (0 = profile default)");
  opt.AddDouble("alpha", 1.0, "work-stealing bias (0 disables stealing)");
  opt.AddString("steal-mode", "steal_one",
                "steal policy: steal_one|steal_half|adaptive (adaptive also "
                "turns on backoff + victim-check hints)");
  // The update-plane combining switches default off, as in the library's
  // ClusterConfig (src/core/config.h): the paper's protocol has neither,
  // and their effect on simulated time is mixed. Both stay opt-in.
  opt.AddString("wire-combine", "off",
                "on|off: pack outbound update batches columnar with delta-varint "
                "ids before charging the NIC (pure re-encode, same results)");
  opt.AddString("steal-combine", "off",
                "on|off: merge co-domain steal proposals queued at a victim into "
                "one control-message CPU charge");
  opt.AddInt("straggler", -1, "machine to degrade (-1 = healthy cluster)");
  opt.AddDouble("straggler-severity", 4.0, "slowdown factor of the straggler");
  opt.AddString("straggler-target", "cpu", "degraded resource: cpu|storage|nic|machine");
  opt.AddDouble("fault-at-ms", 0.0, "simulated time the degradation begins");
  opt.AddDouble("fault-duration-ms", 0.0, "degradation length (0 = permanent)");
  opt.AddInt("checkpoint-interval", 0, "checkpoint every N supersteps (0 = off)");
  opt.AddInt("kill-machine", -1, "fail-stop this machine mid-run (-1 = none)");
  opt.AddDouble("kill-at", 0.5,
                "simulated failure time in SECONDS (note: --fault-at-ms is in ms)");
  opt.AddBool("rescale", false, "recover on N-1 machines instead of a same-size cluster");
  opt.AddInt("mutate-batches", 0,
             "evolving mode: apply N seeded mutation batches between convergences and "
             "re-converge after each (bfs/sssp/wcc only; 0 = static graph)");
  opt.AddDouble("mutate-rate", 0.03, "edges mutated per batch as a fraction of the graph");
  opt.AddString("mutate-preset", "uniform", "mutation shape: uniform|hotspot|churn");
  opt.AddBool("mutate-full", false,
              "full-recompute baseline: reseed every vertex instead of warm-starting "
              "from the affected frontier");
  opt.AddInt("source", 0, "source vertex (bfs/sssp)");
  opt.AddInt("iterations", 5, "iterations (pagerank/bp)");
  opt.AddInt("seed", 1, "seed");
  opt.AddString("out", "", "write per-vertex results to this file (single run only)");
  opt.AddString("sweep", "",
                "semicolon-separated knob lists, e.g. \"machines=1,2,4;chunk-kb=128,256\":"
                " run the cross product as parallel points");
  opt.AddInt("jobs", 0, "host threads for --sweep / --trace points (0 = all cores)");
  // Per-job scheduling metadata — meaningful under --trace / --trace-preset,
  // inert in a one-shot run.
  opt.AddDouble("arrival-ms", 0.0, "job arrival time in simulated ms (serving mode)");
  opt.AddInt("priority", 0, "job priority (higher runs first under --policy priority)");
  opt.AddBool("no-preempt", false, "mark this job non-preemptible");
  opt.AddString("name", "", "job name in the serving report (default: <algo>-<index>)");
  // Serving mode: many jobs on one scheduled cluster.
  opt.AddString("trace", "",
                "file with one chaos_run flag line per job; serves them through the"
                " job scheduler");
  opt.AddString("trace-preset", "",
                "synthetic arrival trace: uniform|bursty|diurnal (jobs shaped by the"
                " remaining flags, seeds varied per job)");
  opt.AddInt("trace-jobs", 12, "jobs generated by --trace-preset");
  opt.AddDouble("trace-horizon-ms", 1000.0, "arrival horizon for --trace-preset");
  opt.AddDouble("high-fraction", 0.25,
                "--trace-preset probability a job arrives high-priority");
  opt.AddString("policy", "priority", "serving scheduler: fifo|priority");
  opt.AddInt("serve-machines", 8, "machines in the serving cluster");
  opt.AddInt("serve-mem-mb", 0,
             "per-machine memory for admission control in MiB (0 = unlimited)");
  opt.AddInt("quantum", 4, "preemption quantum in supersteps (--policy priority)");
  opt.AddBool("verbose", false, "info-level logging");
}

// Builds the JobSpec a parsed flag set describes: load or generate the
// input, size the cluster, attach fault injection and recovery. This is the
// single flag -> JobSpec path: the one-shot CLI, every --sweep point and
// every --trace line all land here. `serving` rejects per-cluster fault
// flags — a scheduled job cannot carry its own fault schedule.
std::optional<JobSpec> BuildJob(const Options& opt, bool quiet, bool serving) {
  const std::string algo = opt.GetString("algo");
  const auto& known = Algorithms();
  if (std::none_of(known.begin(), known.end(),
                   [&algo](const AlgorithmInfo& a) { return a.name == algo; })) {
    std::fprintf(stderr, "unknown --algo '%s'\n", algo.c_str());
    return std::nullopt;
  }
  if (opt.GetInt("machines") < 1) {
    std::fprintf(stderr, "--machines must be >= 1 (got %lld)\n",
                 static_cast<long long>(opt.GetInt("machines")));
    return std::nullopt;
  }
  if (!(opt.GetDouble("alpha") >= 0.0)) {
    std::fprintf(stderr, "--alpha must be >= 0 (got %g)\n", opt.GetDouble("alpha"));
    return std::nullopt;
  }
  const AlgorithmInfo& info = AlgorithmByName(algo);
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));

  // ---- Input.
  InputGraph raw;
  if (!opt.GetString("input").empty()) {
    std::string error;
    auto loaded = LoadEdgeListBinary(opt.GetString("input"), &error);
    if (!loaded.has_value()) {
      loaded = LoadEdgeListText(opt.GetString("input"), &error);
    }
    if (!loaded.has_value()) {
      std::fprintf(stderr, "cannot load %s: %s\n", opt.GetString("input").c_str(),
                   error.c_str());
      return std::nullopt;
    }
    raw = std::move(*loaded);
    if (info.needs_weights && !raw.weighted && !quiet) {
      std::fprintf(stderr, "note: %s expects weights; using weight 1 per edge\n",
                   algo.c_str());
    }
  } else {
    const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
    const std::string kind = opt.GetString("generate");
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
    } else if (kind == "uniform") {
      raw = GenerateUniformRandom(1ull << scale, 16ull << scale, info.needs_weights, seed);
    } else {
      std::fprintf(stderr, "unknown generator '%s'\n", kind.c_str());
      return std::nullopt;
    }
  }
  auto prepared = std::make_shared<const InputGraph>(PrepareInput(algo, raw));
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
  if (!ParseStealMode(opt.GetString("steal-mode"), &cfg.steal.mode)) {
    std::fprintf(stderr, "unknown --steal-mode '%s' (steal_one|steal_half|adaptive)\n",
                 opt.GetString("steal-mode").c_str());
    return std::nullopt;
  }
  if (cfg.steal.mode == StealMode::kAdaptive) {
    // The full adaptive runtime: hint-driven escalation plus backoff and
    // per-phase victim-check hints (see src/core/steal_policy.h).
    cfg.steal.backoff = true;
    cfg.steal.victim_check = true;
  }
  const auto parse_switch = [&opt](const char* flag, bool* out) {
    const std::string& v = opt.GetString(flag);
    if (v == "on") {
      *out = true;
    } else if (v == "off") {
      *out = false;
    } else {
      std::fprintf(stderr, "--%s must be on|off (got '%s')\n", flag, v.c_str());
      return false;
    }
    return true;
  };
  if (!parse_switch("wire-combine", &cfg.wire_combine) ||
      !parse_switch("steal-combine", &cfg.steal_combine)) {
    return std::nullopt;
  }
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
    std::fprintf(stderr,
                 "--straggler/--kill-machine cannot be set on a scheduled job "
                 "(fault injection is per-cluster; run those one-shot)\n");
    return std::nullopt;
  }
  if (victim >= 0) {
    if (victim >= cfg.machines) {
      std::fprintf(stderr, "--straggler must be in [0, %d)\n", cfg.machines);
      return std::nullopt;
    }
    FaultTarget target = FaultTarget::kCpu;
    if (!ParseFaultTarget(opt.GetString("straggler-target"), &target)) {
      std::fprintf(stderr, "unknown --straggler-target '%s'\n",
                   opt.GetString("straggler-target").c_str());
      return std::nullopt;
    }
    const double severity = opt.GetDouble("straggler-severity");
    if (severity < 1.0) {
      std::fprintf(stderr, "--straggler-severity must be >= 1\n");
      return std::nullopt;
    }
    FaultEvent fault;
    fault.machine = victim;
    fault.target = target;
    fault.factor = 1.0 / severity;
    fault.at = static_cast<TimeNs>(opt.GetDouble("fault-at-ms") * kNsPerMs);
    fault.duration = static_cast<TimeNs>(opt.GetDouble("fault-duration-ms") * kNsPerMs);
    cfg.faults.Add(fault);
    if (!quiet) {
      std::printf("injecting: machine %d %s at %.1fx speed (%s)\n", victim,
                  FaultTargetName(target), 1.0 / severity,
                  fault.permanent() ? "permanent" : "transient");
    }
  }

  // ---- Machine failure + automatic recovery.
  RecoveryOptions recovery;
  if (kill_machine >= 0) {
    if (kill_machine >= cfg.machines) {
      std::fprintf(stderr, "--kill-machine must be in [0, %d)\n", cfg.machines);
      return std::nullopt;
    }
    if (opt.GetBool("rescale") && cfg.machines < 2) {
      std::fprintf(stderr, "--rescale needs at least 2 machines (cannot shrink below 1)\n");
      return std::nullopt;
    }
    FaultEvent kill;
    kill.at = static_cast<TimeNs>(opt.GetDouble("kill-at") * static_cast<double>(kNsPerSec));
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
  std::optional<MutatePreset> mutate_preset;
  if (mutate_batches > 0) {
    if (algo != "bfs" && algo != "sssp" && algo != "wcc") {
      std::fprintf(stderr, "--mutate-batches supports bfs/sssp/wcc, not %s\n", algo.c_str());
      return std::nullopt;
    }
    mutate_preset = MutatePresetByName(opt.GetString("mutate-preset"));
    if (!mutate_preset.has_value()) {
      std::fprintf(stderr, "unknown --mutate-preset '%s' (uniform|hotspot|churn)\n",
                   opt.GetString("mutate-preset").c_str());
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
  params.source = static_cast<VertexId>(opt.GetInt("source"));
  params.iterations = static_cast<uint32_t>(opt.GetInt("iterations"));
  JobSpec spec = MakeJob(algo, std::move(prepared), cfg, params);
  if (mutate_batches > 0) {
    // Evolving jobs carry the RAW graph: the controller re-prepares it per
    // epoch (the prepared copy above only sized the cluster and narration).
    spec.input = std::make_shared<const InputGraph>(std::move(raw));
    spec.mutations.log.num_batches = mutate_batches;
    spec.mutations.log.rate = opt.GetDouble("mutate-rate");
    spec.mutations.log.preset = *mutate_preset;
    spec.mutations.log.seed = seed;
    spec.mutations.incremental = !opt.GetBool("mutate-full");
  }
  if (kill_machine >= 0) {
    spec.recover = true;
    spec.recovery = recovery;
  }
  spec.name = opt.GetString("name");
  spec.priority = static_cast<int>(opt.GetInt("priority"));
  spec.arrival = static_cast<TimeNs>(opt.GetDouble("arrival-ms") * kNsPerMs);
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
  std::optional<JobSpec> spec = BuildJob(opt, quiet, /*serving=*/false);
  if (!spec.has_value()) {
    return outcome;
  }
  outcome.vertices = spec->input->num_vertices;
  outcome.edges = spec->input->num_edges();

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
  if (!opt.GetString("out").empty()) {
    std::ofstream out(opt.GetString("out"), std::ios::trunc);
    for (VertexId v = 0; v < spec->input->num_vertices; ++v) {
      out << v << ' ' << result.values[v] << '\n';
    }
    std::printf("wrote %llu values to %s\n",
                static_cast<unsigned long long>(spec->input->num_vertices),
                opt.GetString("out").c_str());
  }
  return outcome;
}

// ---- Serving mode (--trace / --trace-preset).

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
      ++pos;
    }
    size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') {
      ++end;
    }
    if (end > pos) {
      tokens.push_back(line.substr(pos, end - pos));
    }
    pos = end;
  }
  return tokens;
}

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
    std::vector<std::string> tokens = SplitTokens(line);
    if (tokens.empty() || tokens[0][0] == '#') {
      continue;
    }
    std::string error;
    std::optional<Options> job_opt = ParseOverrides(base, std::move(tokens), &error);
    if (!job_opt.has_value()) {
      std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), lineno, error.c_str());
      return false;
    }
    std::optional<JobSpec> spec = BuildJob(*job_opt, /*quiet=*/true, /*serving=*/true);
    if (!spec.has_value()) {
      std::fprintf(stderr, "%s:%d: bad job spec\n", path.c_str(), lineno);
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
  topt.horizon = static_cast<TimeNs>(base.GetDouble("trace-horizon-ms") * kNsPerMs);
  topt.seed = static_cast<uint64_t>(base.GetInt("seed"));
  topt.high_fraction = base.GetDouble("high-fraction");
  for (const TraceEntry& entry : GenerateTrace(topt)) {
    // The derived seed is folded to 31 bits so it round-trips through the
    // int flag; per-job variety is all it needs to provide.
    std::string error;
    std::optional<Options> job_opt = ParseOverrides(
        base, {"--seed=" + std::to_string(entry.seed & 0x7fffffff)}, &error);
    if (!job_opt.has_value()) {
      std::fprintf(stderr, "--trace-preset: %s\n", error.c_str());
      return false;
    }
    std::optional<JobSpec> spec = BuildJob(*job_opt, /*quiet=*/true, /*serving=*/true);
    if (!spec.has_value()) {
      return false;
    }
    spec->arrival = entry.arrival;
    spec->priority = entry.priority;
    specs->push_back(std::move(*spec));
  }
  return true;
}

int RunTrace(const Options& opt) {
  const std::optional<SchedPolicy> policy = SchedPolicyByName(opt.GetString("policy"));
  if (!policy.has_value()) {
    std::fprintf(stderr, "unknown --policy '%s' (want fifo|priority)\n",
                 opt.GetString("policy").c_str());
    return 1;
  }

  std::vector<JobSpec> specs;
  if (!opt.GetString("trace").empty()) {
    if (!LoadTraceFile(opt, opt.GetString("trace"), &specs)) {
      return 1;
    }
  } else {
    const auto preset = TracePresetByName(opt.GetString("trace-preset"));
    if (!preset.has_value()) {
      std::fprintf(stderr, "unknown --trace-preset '%s' (want uniform|bursty|diurnal)\n",
                   opt.GetString("trace-preset").c_str());
      return 1;
    }
    if (!GeneratePresetTrace(opt, *preset, &specs)) {
      return 1;
    }
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
  serving.policy = *policy;
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
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) {
      semi = spec.size();
    }
    const std::string part = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (part.empty()) {
      continue;
    }
    const size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= part.size()) {
      std::fprintf(stderr, "bad --sweep entry '%s' (want knob=v1,v2,...)\n", part.c_str());
      return false;
    }
    SweepKnob knob;
    knob.name = part.substr(0, eq);
    size_t vpos = eq + 1;
    while (vpos <= part.size()) {
      size_t comma = part.find(',', vpos);
      if (comma == std::string::npos) {
        comma = part.size();
      }
      const std::string value = part.substr(vpos, comma - vpos);
      if (value.empty()) {
        std::fprintf(stderr, "empty value in --sweep entry '%s'\n", part.c_str());
        return false;
      }
      knob.values.push_back(value);
      vpos = comma + 1;
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
  if (auto err = opt.Parse(argc - 1, argv + 1); err || opt.help_requested()) {
    if (err) {
      std::fprintf(stderr, "error: %s\n", err->c_str());
    }
    opt.PrintHelp(argv[0]);
    return err ? 1 : 0;
  }
  if (opt.GetBool("verbose")) {
    SetLogLevel(LogLevel::kInfo);
  }
  const bool trace_mode =
      !opt.GetString("trace").empty() || !opt.GetString("trace-preset").empty();
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
