#include "algorithms/runner.h"

#include <algorithm>
#include <limits>
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

// Calls `fn(prog)` with the named algorithm's program instance. Both
// type-erased entry points funnel through here.
template <typename Fn>
auto DispatchAlgorithm(const std::string& name, const AlgoParams& params, Fn&& fn) {
  if (name == "bfs") {
    return fn(BfsProgram(params.source));
  }
  if (name == "wcc") {
    return fn(WccProgram{});
  }
  if (name == "mcst") {
    return fn(McstProgram{});
  }
  if (name == "mis") {
    return fn(MisProgram{});
  }
  if (name == "sssp") {
    return fn(SsspProgram(params.source));
  }
  if (name == "pagerank") {
    return fn(PageRankProgram(params.iterations, params.damping));
  }
  if (name == "scc") {
    return fn(SccProgram{});
  }
  if (name == "conductance") {
    return fn(ConductanceProgram{});
  }
  if (name == "spmv") {
    return fn(SpmvProgram{});
  }
  if (name == "bp") {
    return fn(BpProgram(params.iterations));
  }
  CHAOS_CHECK_MSG(false, "unknown algorithm: " + name);
  return fn(BfsProgram(params.source));
}

// The program's scalar answer, from either engine's final global and
// outputs: conductance's value, the MSF's total weight, else 0.
template <GasProgram P>
double ProgramScalar(const typename P::GlobalState& global,
                     const std::vector<typename P::OutputRecord>& outputs) {
  double total = 0.0;
  if constexpr (std::is_same_v<P, ConductanceProgram>) {
    total = global.conductance;
  } else if constexpr (std::is_same_v<P, McstProgram>) {
    for (const auto& edge : outputs) {
      total += static_cast<double>(edge.w);
    }
  }
  return total;
}

template <GasProgram P>
AlgoResult ToAlgoResult(RunResult<P>&& run) {
  AlgoResult result;
  result.metrics = std::move(run.metrics);
  result.values = std::move(run.values);
  result.supersteps = run.supersteps;
  result.crashed = run.crashed;
  result.output_records = run.outputs.size();
  result.scalar = ProgramScalar<P>(run.final_global, run.outputs);
  return result;
}

// One job as a chain of cluster runs ("slices"), the one JobExecution behind
// RunJob, machine-failure recovery and scheduler preemption. Each slice
// builds a fresh Cluster<P>, attaches an evolving job's controller at the
// epoch its starting state holds, and runs from the input or resumes from
// the checkpoint the previous slice committed on its cluster (the donor,
// freed once the next slice has run). A slice ends in one of three ways:
//
//  * Complete. Without spec.recover, a run a machine failure aborted is
//    final too: the crashed run is the result.
//  * Stopped by the scheduler (preemption): a scripted crash at the stop
//    barrier, with the one checkpoint commit covering every superstep the
//    slice completed, so the resume loses none and the values stay bitwise
//    equal to an unpreempted run's (tests/scheduler_test.cc).
//  * Aborted by a machine failure, for a spec.recover job (paper §6.6): the
//    next slice runs on a healthy replacement cluster (same size, or
//    spec.recovery.replacement_machines with repartitioned vertex ranges)
//    from the last committed checkpoint, or from the input when none had
//    committed. Storage is durable, so the donor's sets are re-imported
//    host-side. One failure per run: the replacement cluster is healthy.
template <GasProgram P>
class SliceChain final : public JobExecution {
 public:
  SliceChain(JobSpec spec, P prog, std::shared_ptr<EvolvingController<P>> ctrl)
      : JobExecution(std::move(spec)),
        prog_(std::move(prog)),
        ctrl_(std::move(ctrl)),
        config_(spec_.cluster) {}

  uint64_t next_superstep() const override { return stopped_.checkpoint_superstep; }

  SliceResult RunSlice(int64_t stop_after_superstep) override {
    CHAOS_CHECK_MSG(!done_, "RunSlice on a completed job");
    const bool preempt = stop_after_superstep >= 0;
    ClusterConfig cfg = config_;
    if (preempt) {
      const auto stop = static_cast<uint64_t>(stop_after_superstep);
      CHAOS_CHECK_MSG(stop > next_superstep(),
                      "preemption point must be ahead of the resume point");
      CHAOS_CHECK(stop <= std::numeric_limits<uint32_t>::max());
      // Commit exactly once, at superstep stop-1: the engine checkpoints
      // after superstep s when (s+1) % interval == 0, so interval = stop
      // yields checkpointed_superstep == stop whatever the resume point was.
      cfg.crash_after_superstep = stop_after_superstep;
      cfg.checkpoint_interval = static_cast<uint32_t>(stop);
    }

    SliceResult out;
    out.start_superstep = next_superstep();
    auto cluster = std::make_unique<Cluster<P>>(cfg, prog_);
    if (ctrl_ != nullptr) {
      ctrl_->Attach(cluster.get(), stopped_.checkpoint_epoch);
    }
    RunResult<P> run = stopped_.has_checkpoint
                           ? cluster->Resume(*cluster_, stopped_, GraphMeta::Of(*spec_.input))
                           : cluster->Run(*spec_.input);
    cluster_ = std::move(cluster);
    out.slice_time = run.metrics.total_time;

    if (!run.crashed || (!preempt && !spec_.recover)) {
      done_ = true;
      out.completed = true;
      out.end_superstep = run.supersteps;
      if (spec_.recover) {
        FinishRecoveryReport(run.metrics);
      }
      result_ = ToAlgoResult(std::move(run));
      result_.recovery = recovery_;
      cluster_.reset();
      return out;
    }
    if (preempt) {
      // The commit at stop-1 covers every completed superstep, so nothing
      // but the aborted superstep re-runs.
      CHAOS_CHECK_MSG(run.has_checkpoint, "preempted slice has no committed checkpoint");
      CHAOS_CHECK(run.checkpoint_superstep == static_cast<uint64_t>(stop_after_superstep));
    } else {
      // A machine failure: the crashed run's half of the report, then a
      // healthy replacement for the next slice.
      RecoveryReport& rep = recovery_;
      rep.crash_detected = true;
      rep.crashed_run_time = run.metrics.total_time;
      rep.crash_superstep = run.supersteps > 0 ? run.supersteps - 1 : 0;
      rep.recovered_from_checkpoint = run.has_checkpoint;
      rep.resume_superstep = run.checkpoint_superstep;
      // A zero preprocess time marks a run that died before pre-processing
      // finished: no superstep was ever entered (the engine only records the
      // preprocess end on the healthy path).
      died_in_preprocess_ = run.metrics.preprocess_time == 0;
      rep.lost_work_supersteps =
          !died_in_preprocess_ && rep.crash_superstep >= rep.resume_superstep
              ? rep.crash_superstep - rep.resume_superstep + 1
              : 0;
      config_.faults = FaultSchedule{};
      config_.crash_after_superstep = -1;
      if (spec_.recovery.replacement_machines > 0) {
        config_.machines = spec_.recovery.replacement_machines;
      }
    }
    // Keep only what Resume reads: the committed checkpoint, if any. A slice
    // of an evolving job may have committed forced mutation checkpoints, so
    // the edge side and epoch come along with the vertex side.
    stopped_ = RunResult<P>{};
    stopped_.has_checkpoint = run.has_checkpoint;
    stopped_.checkpoint_global = run.checkpoint_global;
    stopped_.checkpoint_superstep = run.checkpoint_superstep;
    stopped_.checkpoint_side = run.checkpoint_side;
    stopped_.checkpoint_edges_kind = run.checkpoint_edges_kind;
    stopped_.checkpoint_epoch = run.checkpoint_epoch;
    out.end_superstep = next_superstep();
    return out;
  }

  AlgoResult TakeResult() override {
    CHAOS_CHECK_MSG(done_, "TakeResult before the job completed");
    return std::move(result_);
  }

 private:
  // Completes a recover job's report from its last run's metrics: the
  // replacement's after a failure, else the only run's.
  void FinishRecoveryReport(const RunMetrics& metrics) {
    RecoveryReport& rep = recovery_;
    rep.machines_after = config_.machines;
    rep.end_to_end_time = rep.crashed_run_time + metrics.total_time;
    if (!rep.crash_detected) {
      return;
    }
    // Time to recover: replacement-cluster time until the work the failure
    // destroyed has been re-done — the aborted superstep's gather barrier,
    // or the re-run pre-processing when the crash predated any superstep.
    // A crash between a checkpoint's commit and its phase-2 barrier can leave
    // resume_superstep past crash_superstep: nothing to re-execute.
    const auto& times = metrics.superstep_end_times;
    if (died_in_preprocess_) {
      rep.time_to_recover = metrics.preprocess_time;
    } else if (rep.crash_superstep < rep.resume_superstep) {
      rep.time_to_recover = 0;
    } else if (times.empty()) {
      rep.time_to_recover = metrics.total_time;
    } else {
      const uint64_t idx = rep.crash_superstep - rep.resume_superstep;
      rep.time_to_recover = times[std::min<uint64_t>(idx, times.size() - 1)];
    }
  }

  P prog_;
  std::shared_ptr<EvolvingController<P>> ctrl_;  // null for static jobs
  ClusterConfig config_;  // the next slice's: the spec's, or the replacement's
  std::unique_ptr<Cluster<P>> cluster_;  // previous slice = next slice's donor
  RunResult<P> stopped_;  // the previous slice's committed checkpoint, if any
  RecoveryReport recovery_;  // filled for spec.recover jobs only
  bool died_in_preprocess_ = false;
  bool done_ = false;
  AlgoResult result_;
};

template <GasProgram P>
XStreamRunResult RunXStreamWith(P prog, const InputGraph& input, const XStreamConfig& config) {
  XStreamEngine<P> engine(config, std::move(prog));
  XStreamResult<P> run = engine.Run(input);
  XStreamRunResult result;
  result.values = std::move(run.values);
  result.supersteps = run.supersteps;
  result.total_time = run.total_time;
  result.preprocess_time = run.preprocess_time;
  result.bytes_moved = run.bytes_read + run.bytes_written;
  result.output_records = run.outputs.size();
  result.scalar = ProgramScalar<P>(run.final_global, run.outputs);
  return result;
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
          return std::make_unique<SliceChain<P>>(std::move(prepared_spec), std::move(prog),
                                                 std::move(ctrl));
        });
  }
  return DispatchAlgorithm(spec.algorithm, spec.params,
                           [&](auto prog) -> std::unique_ptr<JobExecution> {
                             return std::make_unique<SliceChain<decltype(prog)>>(
                                 spec, std::move(prog), nullptr);
                           });
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

XStreamRunResult RunXStreamAlgorithm(const std::string& name, const InputGraph& prepared,
                                     const XStreamConfig& config, const AlgoParams& params) {
  return DispatchAlgorithm(name, params, [&](auto prog) {
    return RunXStreamWith(std::move(prog), prepared, config);
  });
}

}  // namespace chaos
