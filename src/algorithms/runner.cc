#include "algorithms/runner.h"

#include <memory>
#include <utility>

#include "algorithms/basic.h"
#include "algorithms/evolving.h"
#include "algorithms/incremental.h"
#include "algorithms/mcst.h"
#include "algorithms/mis.h"
#include "algorithms/scc.h"

namespace chaos {
namespace {

template <GasProgram P>
std::shared_ptr<const ProgramKernel> Kernel(P prog) {
  return std::make_shared<GasKernel<P>>(std::move(prog));
}

// The named algorithm's program kernel: the one place a static program
// binds its GasKernel<P>, for the cluster and the X-Stream baseline alike.
std::shared_ptr<const ProgramKernel> MakeKernel(const std::string& name,
                                                const AlgoParams& params) {
  if (name == "bfs") {
    return Kernel(BfsProgram(params.source));
  }
  if (name == "wcc") {
    return Kernel(WccProgram{});
  }
  if (name == "mcst") {
    return Kernel(McstProgram{});
  }
  if (name == "mis") {
    return Kernel(MisProgram{});
  }
  if (name == "sssp") {
    return Kernel(SsspProgram(params.source));
  }
  if (name == "pagerank") {
    return Kernel(PageRankProgram(params.iterations, params.damping));
  }
  if (name == "scc") {
    return Kernel(SccProgram{});
  }
  if (name == "conductance") {
    return Kernel(ConductanceProgram{});
  }
  if (name == "spmv") {
    return Kernel(SpmvProgram{});
  }
  if (name == "bp") {
    return Kernel(BpProgram(params.iterations));
  }
  CHAOS_CHECK_MSG(false, "unknown algorithm: " + name);
  return nullptr;
}

// Evolving runs bind their own program set: BFS swaps to the warm-startable
// IncBfsProgram (the level-synchronous BfsProgram cannot resume from a
// reseeded state); SSSP and WCC warm-start natively. Extract() of the
// substitute is bitwise-compatible with the static program's.
template <typename Fn>
auto DispatchEvolving(const std::string& name, const AlgoParams& params, Fn&& fn) {
  if (name == "bfs") {
    return fn(IncBfsProgram(params.source));
  }
  if (name == "sssp") {
    return fn(SsspProgram(params.source));
  }
  if (name == "wcc") {
    return fn(WccProgram{});
  }
  CHAOS_CHECK_MSG(false, "evolving mode supports bfs/sssp/wcc, got " + name);
  return fn(IncBfsProgram(params.source));
}

}  // namespace

const std::vector<AlgorithmInfo>& Algorithms() {
  // Table 1 order: BFS, WCC, MCST, MIS, SSSP on undirected inputs; SCC, PR,
  // Cond, SpMV, BP on directed inputs (SCC additionally needs reverse
  // records for its backward phase).
  static const std::vector<AlgorithmInfo> kAlgorithms = {
      {"bfs", true, false, false},  {"wcc", true, false, false},
      {"mcst", true, false, true},  {"mis", true, false, false},
      {"sssp", true, false, true},  {"pagerank", false, false, false},
      {"scc", false, true, false},  {"conductance", false, false, false},
      {"spmv", false, false, false}, {"bp", false, false, false},
  };
  return kAlgorithms;
}

const AlgorithmInfo& AlgorithmByName(const std::string& name) {
  for (const AlgorithmInfo& info : Algorithms()) {
    if (info.name == name) {
      return info;
    }
  }
  CHAOS_CHECK_MSG(false, "unknown algorithm: " + name);
  return Algorithms().front();
}

std::vector<std::string> AlgorithmNames() {
  std::vector<std::string> names;
  for (const AlgorithmInfo& info : Algorithms()) {
    names.push_back(info.name);
  }
  return names;
}

InputGraph PrepareInput(const std::string& name, const InputGraph& raw) {
  const AlgorithmInfo& info = AlgorithmByName(name);
  if (info.needs_undirected) {
    return MakeUndirected(raw);
  }
  if (info.needs_bidirected) {
    return MakeBidirected(raw);
  }
  return raw;
}

JobResult RunJob(const JobSpec& spec) {
  std::unique_ptr<JobExecution> exec = MakeJobExecution(spec);
  while (!exec->RunSlice(-1).completed) {
    // Only a recover job's machine failure stops a slice that has no stop.
  }
  JobResult result;
  static_cast<AlgoResult&>(result) = exec->TakeResult();
  // Synthesize the trivial schedule of an isolated run: dispatched on
  // arrival, one slice, no queueing.
  result.sched.admitted = true;
  result.sched.completed = !result.crashed;
  result.sched.arrival = spec.arrival;
  result.sched.first_dispatch = spec.arrival;
  result.sched.service_time =
      spec.recover ? result.recovery.end_to_end_time : result.metrics.total_time;
  result.sched.completion = spec.arrival + result.sched.service_time;
  result.sched.supersteps = result.supersteps;
  result.sched.slices = 1;
  result.sched.machines = spec.cluster.machines;
  return result;
}

std::unique_ptr<JobExecution> MakeJobExecution(const JobSpec& spec) {
  CHAOS_CHECK_MSG(spec.input != nullptr, "JobSpec without an input graph");
  if (spec.mutations.active()) {
    // The controller (and its MutationFeed) outlives every slice, and the
    // chain's spec swaps the RAW input for the controller's epoch-0 prepared
    // graph (aliased to the same owner).
    return DispatchEvolving(
        spec.algorithm, spec.params, [&](auto prog) -> std::unique_ptr<JobExecution> {
          using P = decltype(prog);
          auto ctrl = std::make_shared<EvolvingController<P>>(prog, spec.algorithm, *spec.input,
                                                              spec.mutations);
          JobSpec prepared_spec = spec;
          prepared_spec.input =
              std::shared_ptr<const InputGraph>(ctrl, &ctrl->initial_prepared());
          return std::make_unique<JobExecution>(
              std::move(prepared_spec), Kernel(std::move(prog)),
              [ctrl](Cluster* cluster, uint64_t epoch) { ctrl->Attach(cluster, epoch); });
        });
  }
  return std::make_unique<JobExecution>(spec, MakeKernel(spec.algorithm, spec.params));
}

TraceRunResult RunJobTrace(const std::vector<JobSpec>& specs, const ServingConfig& serving) {
  std::vector<std::unique_ptr<JobExecution>> executions;
  executions.reserve(specs.size());
  std::vector<JobExecution*> handles;
  handles.reserve(specs.size());
  for (const JobSpec& spec : specs) {
    executions.push_back(MakeJobExecution(spec));
    handles.push_back(executions.back().get());
  }
  ScheduleResult schedule = RunJobSchedule(serving, handles);
  TraceRunResult out;
  out.metrics = schedule.metrics;
  out.events = std::move(schedule.events);
  out.jobs.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    out.jobs[i].sched = schedule.jobs[i];
    if (schedule.jobs[i].completed) {
      static_cast<AlgoResult&>(out.jobs[i]) = executions[i]->TakeResult();
    }
  }
  return out;
}

XStreamResult RunXStreamAlgorithm(const std::string& name, const InputGraph& prepared,
                                  const ClusterConfig& config, const AlgoParams& params) {
  return XStreamEngine(config, MakeKernel(name, params)).Run(prepared);
}

}  // namespace chaos
