// Serving-layer benchmark: many concurrent graph jobs of mixed algorithms,
// sizes and priorities sharing one simulated cluster (ROADMAP item 2,
// "serve heavy traffic"). Replaces the old examples/capacity_planner what-if
// sweep with a real closed loop: a seeded arrival trace is served under
// FIFO and preemptive-priority scheduling at an under- and an overloaded
// offered load, and the bench reports per-class p50/p99 job latency,
// cluster utilization and preemption counts.
//
// Offered load is set by measuring each job's isolated service time first
// (wave 1), then compressing the trace's arrival horizon so that
// sum(service_i * machines_i) / (machines * horizon) hits the target rho.
//
// Ok-gate (exit 1 on violation):
//  * every scheduled job's values/scalar/output count are bitwise identical
//    to its isolated single-job run (preemption must not perturb results);
//  * no job is rejected (the trace is sized to fit admission);
//  * under overload, priority scheduling strictly improves high-priority
//    p99 latency over FIFO.
// All reported quantities are simulated times, so the gate is deterministic
// across hosts and across --jobs (CI byte-compares --jobs 1 vs 8).
#include "bench/bench_common.h"

#include <map>
#include <tuple>

#include "core/job_trace.h"

using namespace chaos;
using namespace chaos::bench;

namespace {

struct ScenarioStats {
  double p50_high = 0.0, p99_high = 0.0;
  double p50_low = 0.0, p99_low = 0.0;
  double utilization = 0.0;
  int preemptions = 0;
  int rejected = 0;
};

// bfs/wcc/sssp only: integer/min-fold algorithms whose values are bitwise
// stable under any superstep re-execution order.
const char* PickAlgorithm(uint64_t mix) {
  switch (mix % 3) {
    case 0:
      return "bfs";
    case 1:
      return "wcc";
    default:
      return "sssp";
  }
}

}  // namespace

CHAOS_BENCH_MAIN(serving, "Serving layer: multi-job scheduling, latency under load") {
  Options opt;
  opt.AddInt("num-jobs", 16, "jobs in the trace", 1, INT32_MAX);
  opt.AddInt("machines", 8, "serving-cluster machines", 1, kMaxBenchMachines);
  // A quantum of kMaxSupersteps already never preempts: no run gets further.
  opt.AddInt("quantum", 2, "preemption quantum (supersteps per slice)", 1,
             static_cast<int64_t>(kMaxSupersteps));
  opt.AddString("preset", "bursty", "arrival shape", {"uniform", "bursty", "diurnal"});
  opt.AddInt("seed", 1, "trace seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const int num_jobs = static_cast<int>(opt.GetInt("num-jobs"));
  const int machines = static_cast<int>(opt.GetInt("machines"));
  const auto quantum = static_cast<uint64_t>(opt.GetInt("quantum"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const auto preset = TracePresetByName(opt.GetString("preset"));

  // ---- Trace synthesis: arrivals over a normalized 1 s horizon (rescaled
  // per offered load below), job shapes drawn from each entry's seed.
  constexpr TimeNs kNormalizedHorizon = 1'000'000'000;
  TraceOptions topt;
  topt.preset = *preset;
  topt.num_jobs = num_jobs;
  topt.horizon = kNormalizedHorizon;
  topt.seed = seed;
  const std::vector<TraceEntry> entries = GenerateTrace(topt);
  // Each priority class's latency quantiles need a job of that class.
  const auto high_jobs = std::count_if(entries.begin(), entries.end(),
                                       [](const TraceEntry& e) { return e.priority > 0; });
  if (high_jobs == 0 || high_jobs == std::ssize(entries)) {
    std::fprintf(stderr, "error: the trace holds jobs of one priority only; raise --num-jobs\n");
    return 1;
  }

  // Prepared graphs shared across jobs: all three algorithms take
  // undirected inputs, so one cache entry per (weighted, scale, graph seed).
  std::map<std::tuple<bool, uint32_t, uint64_t>, std::shared_ptr<const InputGraph>> graphs;
  auto shared_graph = [&](const char* algo, bool weighted, uint32_t scale, uint64_t gseed) {
    auto& slot = graphs[{weighted, scale, gseed}];
    if (!slot) {
      slot = std::make_shared<const InputGraph>(
          PrepareInput(algo, BenchRmat(scale, weighted, gseed)));
    }
    return slot;
  };

  // Two service classes, interactive vs batch: high-priority jobs are small
  // 2-machine probes (the "millions of users" request path); low-priority
  // jobs are wide, long analytics runs that monopolize machines under FIFO.
  std::vector<JobSpec> specs;
  specs.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const TraceEntry& entry = entries[i];
    const uint64_t mix = Mix64(entry.seed);
    const bool high = entry.priority > 0;
    const char* algo = PickAlgorithm(mix);
    const bool weighted = std::string(algo) == "sssp";
    const uint32_t scale = high ? 8 : 11;
    const uint64_t gseed = 1 + (mix >> 16) % 2;  // 2 graphs per shape
    const int job_machines = high ? 2 : 4;
    auto graph = shared_graph(algo, weighted, scale, gseed);
    JobSpec spec = MakeJob(algo, graph, BenchClusterConfig(*graph, job_machines, entry.seed));
    spec.params.source = 0;
    spec.name = std::string(algo) + "-" + std::to_string(i);
    spec.priority = entry.priority;
    spec.arrival = entry.arrival;
    specs.push_back(std::move(spec));
  }

  // ---- Wave 1: isolated truth runs — bitwise baselines + service times.
  Sweep<JobResult> isolated_sweep;
  for (const JobSpec& spec : specs) {
    JobSpec alone = spec;
    alone.arrival = 0;
    isolated_sweep.Add([alone] { return RunJob(alone); });
  }
  const std::vector<JobResult> isolated = isolated_sweep.Run();

  TimeNs total_work = 0;
  uint64_t max_budget = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    total_work += isolated[i].sched.service_time * specs[i].cluster.machines;
    max_budget = std::max(max_budget, specs[i].cluster.EffectivePoolBudget());
  }

  // ---- Wave 2: serve the trace under policy x load.
  struct Scenario {
    SchedPolicy policy;
    double rho;
    const char* tag;
  };
  const std::vector<Scenario> scenarios = {
      {SchedPolicy::kFifo, 0.6, "under"},
      {SchedPolicy::kPriority, 0.6, "under"},
      {SchedPolicy::kFifo, 2.5, "over"},
      {SchedPolicy::kPriority, 2.5, "over"},
  };

  bool ok = true;
  auto fail = [&ok](const char* what) {
    std::printf("FAIL: %s\n", what);
    ok = false;
  };

  std::map<std::pair<std::string, std::string>, ScenarioStats> table;
  for (const Scenario& scenario : scenarios) {
    // Horizon for the target offered load; integer math keeps it exact.
    const TimeNs horizon = static_cast<TimeNs>(
        static_cast<double>(total_work) / (static_cast<double>(machines) * scenario.rho));
    std::vector<JobSpec> scaled = specs;
    for (JobSpec& spec : scaled) {
      spec.arrival = static_cast<TimeNs>(
          static_cast<__int128>(spec.arrival) * horizon / kNormalizedHorizon);
    }

    ServingConfig serving;
    serving.machines = machines;
    serving.machine_memory_bytes = std::max<uint64_t>(2 * max_budget, 64ull << 20);
    serving.policy = scenario.policy;
    serving.preempt_quantum = quantum;
    serving.jobs = SweepJobsSetting();
    const TraceRunResult run = RunJobTrace(scaled, serving);

    ScenarioStats stats;
    std::vector<double> lat_high;
    std::vector<double> lat_low;
    for (size_t i = 0; i < scaled.size(); ++i) {
      const JobResult& job = run.jobs[i];
      if (!job.sched.admitted || !job.sched.completed) {
        fail("job rejected or unfinished (trace is sized to fit admission)");
        continue;
      }
      const double latency_s = static_cast<double>(job.sched.latency()) * 1e-9;
      (scaled[i].priority > 0 ? lat_high : lat_low).push_back(latency_s);
      // Results must be exactly the isolated run's, whatever the schedule.
      const JobResult& truth = isolated[i];
      const bool bitwise_equal = job.values == truth.values && job.scalar == truth.scalar &&
                                 job.output_records == truth.output_records &&
                                 job.supersteps == truth.supersteps;
      if (!bitwise_equal) {
        fail("scheduled result diverged from the isolated run");
      }
    }
    stats.p50_high = ExactQuantile(lat_high, 0.5);
    stats.p99_high = ExactQuantile(lat_high, 0.99);
    stats.p50_low = ExactQuantile(lat_low, 0.5);
    stats.p99_low = ExactQuantile(lat_low, 0.99);
    stats.utilization = run.metrics.utilization;
    stats.preemptions = run.metrics.preemptions;
    stats.rejected = run.metrics.rejected;
    table[{SchedPolicyName(scenario.policy), scenario.tag}] = stats;

    const std::string prefix =
        std::string("serving.") + SchedPolicyName(scenario.policy) + "." + scenario.tag;
    RecordMetric(prefix + ".p50_high_s", stats.p50_high);
    RecordMetric(prefix + ".p99_high_s", stats.p99_high);
    RecordMetric(prefix + ".p50_low_s", stats.p50_low);
    RecordMetric(prefix + ".p99_low_s", stats.p99_low);
    RecordMetric(prefix + ".utilization", stats.utilization);
    RecordMetric(prefix + ".preemptions", stats.preemptions);
    RecordMetric(prefix + ".makespan_s", static_cast<double>(run.metrics.makespan) * 1e-9);
  }

  // ---- Report.
  std::printf("== Serving: %d jobs (%s arrivals), %d machines, quantum %llu ==\n", num_jobs,
              TracePresetName(*preset), machines, static_cast<unsigned long long>(quantum));
  PrintHeader({"policy", "load", "p50-high s", "p99-high s", "p50-low s", "p99-low s", "util",
               "preempts"});
  for (const Scenario& scenario : scenarios) {
    const ScenarioStats& stats = table[{SchedPolicyName(scenario.policy), scenario.tag}];
    PrintCell(SchedPolicyName(scenario.policy));
    PrintCell(scenario.tag);
    PrintCell(stats.p50_high, "%.4f");
    PrintCell(stats.p99_high, "%.4f");
    PrintCell(stats.p50_low, "%.4f");
    PrintCell(stats.p99_low, "%.4f");
    PrintCell(stats.utilization, "%.2f");
    PrintCell(static_cast<double>(stats.preemptions), "%.0f");
    EndRow();
  }

  // ---- Ok-gate: under overload, priority must strictly beat FIFO on the
  // high-priority tail.
  const double fifo_over = table[{"fifo", "over"}].p99_high;
  const double prio_over = table[{"priority", "over"}].p99_high;
  RecordMetric("serving.gate.p99_high_improvement",
               fifo_over > 0 ? (fifo_over - prio_over) / fifo_over : 0.0);
  if (!(prio_over < fifo_over)) {
    fail("priority p99(high) did not strictly beat FIFO under overload");
  }
  if (table[{"priority", "over"}].preemptions < 1) {
    fail("overloaded priority run never preempted — the trace exercises nothing");
  }
  std::printf("\ngate: overload p99(high) fifo %.4fs vs priority %.4fs -> %s\n", fifo_over,
              prio_over, ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}
