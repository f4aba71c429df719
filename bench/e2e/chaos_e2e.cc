// chaos_e2e: one workload of the end-to-end benchmark, run in one
// single-threaded process (one Simulator at a time, no sweep threads).
//
// The binary drives the library only through its public entry points:
// GenerateRmat, PrepareInput, RunJob(JobSpec), RunMetrics and the reference
// models in graph/ref.
//
// One run samples a workload on several graphs (--graphs, default per
// workload), each drawn from a seed derived from --seed, because a single
// RMAT draw moves simulated time by up to ~15% (superstep counts, steal
// dynamics); the means over the graphs repeat far more closely across seeds.
// Per graph, one at a time, the process
//   1. sets the workload up: input generation, PrepareInput, cluster config;
//   2. runs RunJob reps back to back (closed loop, one client), after one
//      warm-up rep on the first graph; each graph gets its share of the
//      time left, so the measured reps fill about --seconds of wall time;
//   3. checks every rep, warm-up included, against the reference model and
//      checks that every rep on a graph reproduces its simulated counters.
// Before every rep it also runs the speed probe (probe.h) once, so the
// probe samples the core's speed across the whole run, as the reps do.
// It prints its raw samples as one JSON line; host times are on the
// thread's CPU clock (with wall-clock twins) and simulated counters are
// means over the graphs. run.py turns them into the metrics BENCHMARK.json
// names.
// Exit 0 means the process ran to the end, not that every rep passed: the
// JSON carries `failed`.
//
// --trace-out FILE keeps the bench-side spans in memory and writes them at
// exit as Chrome trace-event JSON (opens in Perfetto):
//   bench.workload > bench.setup > {graph.generate, algorithms.prepare}
//   bench.workload > bench.probe, core.run_job, bench.verify > graph.ref
//                                                             (per rep)
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "graph/ref/reference.h"
#include "probe.h"

using namespace chaos;

namespace {

using Clock = std::chrono::steady_clock;

// One instant on both clocks the benchmark reads. The process does its work
// on one thread, so that thread's CPU clock measures the work; wall minus
// CPU time is time the thread was runnable but not running (on a shared VM,
// mostly hypervisor steal), which would otherwise dominate run-to-run noise.
struct Stamp {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
};

struct Elapsed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// Bench-side spans. Every scope is timed, because the timings are the
// benchmark's samples; spans are kept only when tracing is on.
class Tracer {
 public:
  struct Span {
    const char* name;
    Stamp start;
    Stamp end;
    uint32_t id;
    uint32_t parent;  // 0 = root
    int rep;          // -1 = not part of a rep; 0 = warm-up
    int graph;        // index of the graph being worked on
  };

  // Times one span from construction until Stop() or destruction. Scopes
  // nest strictly, like the calls they wrap.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int rep) : tracer_(tracer), start_(tracer->Now()) {
      if (tracer_->keep_) {
        index_ = tracer_->spans_.size();
        const uint32_t parent = tracer_->open_.empty() ? 0 : tracer_->open_.back();
        tracer_->spans_.push_back(
            {name, start_, {}, tracer_->next_id_++, parent, rep, tracer_->graph_});
        tracer_->open_.push_back(tracer_->spans_.back().id);
      }
    }
    ~Scope() { Stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Ends the span (once) and returns its duration on both clocks.
    Elapsed Stop() {
      if (!stopped_) {
        stopped_ = true;
        end_ = tracer_->Now();
        if (tracer_->keep_) {
          tracer_->spans_[index_].end = end_;
          tracer_->open_.pop_back();
        }
      }
      return {static_cast<double>(end_.wall_ns - start_.wall_ns) / 1e9,
              static_cast<double>(end_.cpu_ns - start_.cpu_ns) / 1e9};
    }

   private:
    Tracer* tracer_;
    Stamp start_;
    Stamp end_;
    bool stopped_ = false;
    size_t index_ = 0;
  };

  explicit Tracer(bool keep) : keep_(keep), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Scope Open(const char* name, int rep = -1) { return Scope(this, name, rep); }
  void set_graph(int graph) { graph_ = graph; }

  // Chrome trace-event JSON: one complete ("X") event per span on the wall
  // clock, in microseconds; span id, parent id, rep, graph and the span's
  // CPU time (cpu_us) ride in args.
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%u,\"parent_id\":%u,"
                   "\"rep\":%d,\"graph\":%d,\"cpu_us\":%.3f}}%s\n",
                   s.name, static_cast<double>(s.start.wall_ns) / 1e3,
                   static_cast<double>(s.end.wall_ns - s.start.wall_ns) / 1e3, s.id, s.parent,
                   s.rep, s.graph, static_cast<double>(s.end.cpu_ns - s.start.cpu_ns) / 1e3,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Stamp Now() const {
    timespec cpu{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
    return {std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count(),
            static_cast<int64_t>(cpu.tv_sec) * 1000000000 + cpu.tv_nsec};
  }

  bool keep_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // ids of the spans currently open
  uint32_t next_id_ = 1;
  int graph_ = 0;
};

// One set-up workload: the job every rep runs, and the prepared edge count.
struct Instance {
  JobSpec spec;
  uint64_t prepared_edges = 0;
};

constexpr uint32_t kPageRankIterations = 5;
constexpr uint32_t kEvolvingEpochs = 4;

// Each workload stresses different layers; README.md gives the reasons.
// `scale` is the full-size RMAT scale, which --scale-shift lowers for smoke
// runs. Each graph's seed drives its generator, mutation log and cluster.
// `graphs` is larger where one draw varies more.
struct Workload {
  const char* name;
  const char* algorithm;
  uint32_t scale;
  int machines;
  int graphs;
};

constexpr Workload kWorkloads[] = {
    {"pagerank_stream", "pagerank", 16, 4, 8},
    {"steal_storm32", "pagerank", 12, 32, 24},
    {"wcc_spill", "wcc", 16, 4, 12},
    {"bfs_evolving", "bfs", 14, 4, 10},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// fig21's compute-bound regime (bench_fig21_stragglers.cc): one core per
// machine, NVMe-class devices and heavy per-item CPU costs, so a CPU
// straggler binds; machines [0, 4) run 8x slower from t=0.
void MakeStealStorm(const InputGraph& g, ClusterConfig* cfg) {
  constexpr uint64_t kPartsPerMachine = 4;
  constexpr int kStragglers = 4;
  constexpr double kSeverity = 8.0;
  cfg->cost.cores = 1;
  cfg->storage.bandwidth_bps = 10e9;
  cfg->cost.ns_per_edge_scatter = 30.0;
  cfg->cost.ns_per_update_gather = 30.0;
  cfg->cost.ns_per_vertex_apply = 20.0;
  cfg->cost.ns_per_vertex_merge = 10.0;
  cfg->cost.ns_per_message = 4000.0;
  cfg->memory_budget_bytes = std::max<uint64_t>(
      g.num_vertices * 8 / (kPartsPerMachine * static_cast<uint64_t>(cfg->machines)), 1024);
  cfg->steal.backoff_initial = bench::BenchShrinkTime(*cfg, cfg->steal.backoff_initial);
  cfg->steal.backoff_max = bench::BenchShrinkTime(*cfg, cfg->steal.backoff_max);
  for (int m = 0; m < kStragglers; ++m) {
    FaultEvent e;
    e.machine = m;
    e.target = FaultTarget::kCpu;
    e.factor = 1.0 / kSeverity;
    cfg->faults.Add(e);
  }
}

// The vertex with the largest out-degree, lowest id on ties.
VertexId HubVertex(const InputGraph& g) {
  const std::vector<uint32_t> degree = OutDegrees(g);
  return static_cast<VertexId>(std::max_element(degree.begin(), degree.end()) - degree.begin());
}

Instance SetUp(const Workload& w, uint32_t scale, uint64_t seed, Tracer& tracer) {
  InputGraph raw;
  {
    auto span = tracer.Open("graph.generate");
    raw = bench::BenchRmat(scale, false, seed);
  }
  auto span = tracer.Open("algorithms.prepare");
  auto input = std::make_shared<InputGraph>(PrepareInput(w.algorithm, raw));
  Instance inst;
  inst.prepared_edges = input->num_edges();
  ClusterConfig cfg = bench::BenchClusterConfig(*input, w.machines, seed);
  AlgoParams params;
  params.iterations = kPageRankIterations;
  const std::string name = w.name;
  if (name == "steal_storm32") {
    MakeStealStorm(*input, &cfg);
  } else if (name == "wcc_spill") {
    cfg.pool_budget_bytes = cfg.EffectivePoolBudget() / 8;
  } else if (name == "bfs_evolving") {
    params.source = HubVertex(raw);
    // Evolving jobs take the raw graph; RunJob prepares it per epoch.
    input = std::make_shared<InputGraph>(std::move(raw));
  }
  inst.spec = MakeJob(w.algorithm, std::move(input), cfg, params);
  if (name == "bfs_evolving") {
    inst.spec.mutations.log.num_batches = kEvolvingEpochs;
    inst.spec.mutations.log.rate = 0.01;
    inst.spec.mutations.log.preset = MutatePreset::kUniform;
    inst.spec.mutations.log.seed = DeriveSeed(seed, 0xe2e);
  }
  return inst;
}

using Check = std::function<std::string(const AlgoResult&)>;

// Builds the reference check for `spec` with the differential suite's rules:
// PageRank within 1e-3*(1+|x|), WCC by grouping, evolving BFS bitwise
// against the fully mutated graph.
Check MakeCheck(const JobSpec& spec) {
  const InputGraph& input = *spec.input;
  if (spec.algorithm == "pagerank") {
    std::vector<double> expect =
        ref::PageRank(input, static_cast<int>(spec.params.iterations), spec.params.damping);
    return [expect = std::move(expect)](const AlgoResult& r) -> std::string {
      if (r.values.size() != expect.size()) {
        return "pagerank: wrong vertex count";
      }
      for (size_t v = 0; v < expect.size(); ++v) {
        if (!(std::abs(r.values[v] - expect[v]) <= 1e-3 * (1.0 + std::abs(expect[v])))) {
          return "pagerank mismatch at vertex " + std::to_string(v);
        }
      }
      return "";
    };
  }
  if (spec.algorithm == "wcc") {
    std::vector<VertexId> expect = ref::ComponentLabels(input);
    return [expect = std::move(expect)](const AlgoResult& r) -> std::string {
      std::vector<VertexId> got(r.values.size());
      for (size_t v = 0; v < got.size(); ++v) {
        got[v] = static_cast<VertexId>(r.values[v]);
      }
      return got.size() == expect.size() && ref::SamePartition(got, expect)
                 ? ""
                 : "wcc grouping differs from the reference";
    };
  }
  const MutationLog log(input, spec.mutations.log);
  const uint64_t epochs = spec.mutations.log.num_batches;
  std::vector<int64_t> expect =
      ref::BfsDepths(PrepareInput("bfs", log.GraphAfter(epochs)), spec.params.source);
  return [expect = std::move(expect), epochs](const AlgoResult& r) -> std::string {
    if (r.metrics.mutation_epochs.size() != epochs) {
      return "applied " + std::to_string(r.metrics.mutation_epochs.size()) + " of " +
             std::to_string(epochs) + " mutation epochs";
    }
    if (r.values.size() != expect.size()) {
      return "bfs: wrong vertex count";
    }
    for (size_t v = 0; v < expect.size(); ++v) {
      if (r.values[v] != static_cast<double>(expect[v])) {
        return "bfs depth mismatch at vertex " + std::to_string(v);
      }
    }
    return "";
  };
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Every simulated counter the benchmark reports, read from RunMetrics. All
// are deterministic for a given seed.
std::map<std::string, double> SimCounters(const AlgoResult& r) {
  const RunMetrics& m = r.metrics;
  double edges = 0, updates = 0, chunks = 0, received = 0, accepted = 0;
  for (const MachineMetrics& mm : m.machines) {
    edges += static_cast<double>(mm.edges_processed);
    updates += static_cast<double>(mm.updates_emitted);
    chunks += static_cast<double>(mm.chunks_fetched);
    received += static_cast<double>(mm.proposals_received);
    accepted += static_cast<double>(mm.proposals_accepted);
  }
  const double machine_ns =
      static_cast<double>(m.total_time) * static_cast<double>(m.machines.size());
  double read = 0, written = 0, served = 0, busy = 0;
  for (const DeviceMetrics& d : m.devices) {
    read += static_cast<double>(d.bytes_read);
    written += static_cast<double>(d.bytes_written);
    served += static_cast<double>(d.chunks_served);
    busy += ToSeconds(d.busy);
  }
  double stall = 0, acquires = 0;
  for (const PoolMetrics& p : m.pools) {
    stall += static_cast<double>(p.stall_time);
    acquires += static_cast<double>(p.acquires);
  }
  return {
      {"sim_s", m.total_seconds()},
      {"sim_superstep_max_s", ToSeconds(m.SuperstepTail(1.0))},
      {"core.edges", edges},
      {"core.updates", updates},
      {"core.updates_per_edge", Ratio(updates, edges)},
      {"core.chunks_fetched", chunks},
      {"core.gp_frac", m.BucketFraction(Bucket::kGpMaster) + m.BucketFraction(Bucket::kGpSteal)},
      {"core.barrier_frac", m.BucketFraction(Bucket::kBarrier)},
      {"core.merge_wait_frac", m.BucketFraction(Bucket::kMergeWait)},
      {"core.copy_frac", m.BucketFraction(Bucket::kCopy)},
      {"core.mutate_frac", m.BucketFraction(Bucket::kMutate)},
      {"core.preprocess_s", ToSeconds(m.preprocess_time)},
      {"core.steal.proposals", static_cast<double>(m.StealProposalsSent())},
      {"core.steal.partitions_granted", static_cast<double>(m.PartitionsGranted())},
      {"core.steal.declined", static_cast<double>(m.StealRequestsDeclined())},
      {"core.steal.victim_miss_rate", m.VictimMissRate()},
      {"core.steal.grant_rate", Ratio(accepted, received)},
      {"core.steal.backoffs", static_cast<double>(m.StealBackoffs())},
      {"core.steal.stolen_chunks", static_cast<double>(m.StolenChunks())},
      {"core.steal.proposals_combined", static_cast<double>(m.StealProposalsCombined())},
      {"core.pool.peak_mb", static_cast<double>(m.PeakMemoryBytes()) / (1 << 20)},
      {"core.pool.spill_gb", static_cast<double>(m.SpillBytesMoved()) / 1e9},
      // Spill-stall time per machine-second; concurrent stalls on one
      // machine add up, so this can exceed 1.
      {"core.pool.stall_ratio", Ratio(stall, machine_ns)},
      {"core.pool.acquires", acquires},
      {"storage.read_gb", read / 1e9},
      {"storage.write_gb", written / 1e9},
      {"storage.chunks_served", served},
      {"storage.busy_s", busy},
      {"storage.util", m.MeanDeviceUtilization()},
      {"net.messages", static_cast<double>(m.messages)},
      {"net.gb", static_cast<double>(m.network_bytes) / 1e9},
      {"net.wire_saved_gb", static_cast<double>(m.UpdateWireBytesSaved()) / 1e9},
      {"net.update_chunks_packed", static_cast<double>(m.UpdateChunksPacked())},
      {"net.incast_events", static_cast<double>(m.incast_events)},
      {"algorithms.supersteps", static_cast<double>(r.supersteps)},
      {"algorithms.mutation.edges", static_cast<double>(m.MutationEdgesApplied())},
      {"algorithms.mutation.frontier", static_cast<double>(m.MutationFrontierTotal())},
      {"algorithms.mutation.resets", static_cast<double>(m.MutationResetsTotal())},
  };
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.AddString("workload", "", "pagerank_stream|steal_storm32|wcc_spill|bfs_evolving");
  opt.AddInt("seed", 1, "workload seed; graph k is drawn from DeriveSeed(seed, k)");
  opt.AddDouble("seconds", 10.0, "wall time the measured reps should about fill");
  opt.AddInt("min-reps", 7, "measured reps at least, whatever --seconds says");
  opt.AddInt("graphs", 0, "graphs per run (0 = the workload's default)");
  opt.AddInt("scale-shift", 0, "added to every workload's RMAT scale (negative for smoke runs)");
  opt.AddString("trace-out", "", "write bench-side spans as Chrome trace-event JSON here");
  if (!bench::ParseFlags(opt, argc, argv)) {
    return 2;
  }
  const Workload* workload = FindWorkload(opt.GetString("workload"));
  const int64_t scale = static_cast<int64_t>(workload == nullptr ? 0 : workload->scale) +
                        opt.GetInt("scale-shift");
  const int64_t graphs = opt.GetInt("graphs") > 0 || workload == nullptr ? opt.GetInt("graphs")
                                                                          : workload->graphs;
  const int64_t min_reps = opt.GetInt("min-reps");
  const double seconds = opt.GetDouble("seconds");
  if (workload == nullptr || scale < 4 || scale > 30 || graphs < 1 || graphs > 64 ||
      min_reps < 1 || min_reps > 1000 || !(seconds >= 0.0 && seconds <= 3600.0) ||
      opt.GetInt("seed") < 0) {
    std::fprintf(stderr, "bad arguments: need a known --workload, --graphs in [1, 64], "
                         "--min-reps in [1, 1000], --seconds in [0, 3600], --seed >= 0 and "
                         "a scale in [4, 30]\n");
    return 2;
  }
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const std::string trace_out = opt.GetString("trace-out");
  Tracer tracer(!trace_out.empty());

  // Host times: *_s on the thread's CPU clock, *_wall_s on the wall clock.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<double> run_s;
  std::vector<double> run_wall_s;
  std::vector<double> probe_s;
  double run_first_s = 0.0;
  double prepared_edges = 0.0;  // summed over the graphs
  int attempted = 0;
  std::vector<std::string> errors;
  // Per counter: sum over the graphs that produced it, and how many did.
  std::map<std::string, std::pair<double, int>> counter_sums;
  e2e::SpeedProbe probe;
  volatile uint64_t probe_sink = probe.Run();  // warms the probe's table
  {
    auto whole = tracer.Open("bench.workload");
    int rep = 0;
    double first_wall_s = 0.0;
    double measured_wall_s = 0.0;
    for (int64_t g = 0; g < graphs; ++g) {
      tracer.set_graph(static_cast<int>(g));
      Instance inst;
      {
        auto span = tracer.Open("bench.setup");
        inst = SetUp(*workload, static_cast<uint32_t>(scale), DeriveSeed(seed, g), tracer);
        const Elapsed setup = span.Stop();
        setup_s.push_back(setup.cpu_s);
        setup_wall_s.push_back(setup.wall_s);
      }
      prepared_edges += static_cast<double>(inst.prepared_edges);

      Check check;
      std::map<std::string, double> counters;  // of this graph's first passing rep
      auto run_rep = [&]() {
        {
          auto span = tracer.Open("bench.probe", rep);
          probe_sink = probe_sink + probe.Run();
          probe_s.push_back(span.Stop().cpu_s);
        }
        AlgoResult result;
        Elapsed elapsed;
        std::string error;
        {
          auto span = tracer.Open("core.run_job", rep);
          try {
            result = RunJob(inst.spec);
          } catch (const std::exception& e) {
            error = std::string("RunJob threw: ") + e.what();
          }
          elapsed = span.Stop();
        }
        ++attempted;
        auto span = tracer.Open("bench.verify", rep);
        if (!check) {
          auto ref = tracer.Open("graph.ref", rep);
          check = MakeCheck(inst.spec);
        }
        if (error.empty()) {
          error = result.crashed ? "run crashed" : check(result);
        }
        if (error.empty()) {
          std::map<std::string, double> rep_counters = SimCounters(result);
          if (counters.empty()) {
            counters = std::move(rep_counters);
          } else if (rep_counters != counters) {
            error = "simulated counters differ from the graph's first rep";
          }
        }
        if (!error.empty()) {
          errors.push_back("graph " + std::to_string(g) + " rep " + std::to_string(rep) + ": " +
                           error);
        }
        ++rep;
        return elapsed;
      };

      if (g == 0) {
        const Elapsed first = run_rep();
        run_first_s = first.cpu_s;
        first_wall_s = first.wall_s;
      }
      // Measured reps fill about --seconds of wall time: what is left of it
      // is shared evenly by this graph and the ones after it, at the mean
      // wall time of the reps so far (the warm-up's before the first).
      const auto done = static_cast<int64_t>(run_s.size());
      const int64_t left = graphs - g;
      const double rep_wall_s = done > 0 ? measured_wall_s / static_cast<double>(done)
                                         : first_wall_s;
      const double fill = std::max(seconds - measured_wall_s, 0.0) /
                          static_cast<double>(left) / std::max(rep_wall_s, 1e-6);
      const int64_t reps = std::max({int64_t{1}, (min_reps - done + left - 1) / left,
                                     static_cast<int64_t>(std::llround(std::min(fill, 1e4)))});
      for (int64_t r = 0; r < reps; ++r) {
        const Elapsed elapsed = run_rep();
        run_s.push_back(elapsed.cpu_s);
        run_wall_s.push_back(elapsed.wall_s);
        measured_wall_s += elapsed.wall_s;
      }
      for (const auto& [name, value] : counters) {
        counter_sums[name].first += value;
        counter_sums[name].second += 1;
      }
    }
  }
  if (!trace_out.empty() && !tracer.Write(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }

  std::string sim = "{";
  char buf[128];
  for (const auto& [name, sum] : counter_sums) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", sim.size() > 1 ? "," : "", name.c_str(),
                  sum.first / sum.second);
    sim += buf;
  }
  sim += "}";
  std::string error_list = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) {
      error_list += ',';
    }
    error_list += JsonString(errors[i]);
  }
  error_list += "]";
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"scale\":%lld,\"graphs\":%lld,"
      "\"prepared_edges\":%.17g,\"setup_s\":%s,\"setup_wall_s\":%s,\"run_first_s\":%.17g,"
      "\"run_s\":%s,\"run_wall_s\":%s,\"probe_s\":%s,\"peak_rss_mb\":%.17g,"
      "\"attempted\":%d,\"failed\":%zu,\"errors\":%s,\"sim\":%s}\n",
      workload->name, static_cast<unsigned long long>(seed), static_cast<long long>(scale),
      static_cast<long long>(graphs), prepared_edges / static_cast<double>(graphs),
      JsonList(setup_s).c_str(),
      JsonList(setup_wall_s).c_str(), run_first_s, JsonList(run_s).c_str(),
      JsonList(run_wall_s).c_str(), JsonList(probe_s).c_str(), PeakRssMb(), attempted,
      errors.size(), error_list.c_str(), sim.c_str());
  return 0;
}
