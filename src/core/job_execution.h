// Slice-wise job execution: runs one JobSpec as a chain of cluster runs,
// each stopping at a scheduler-chosen superstep barrier and resuming from
// the checkpoint that barrier committed.
//
// Preemption reuses the machinery PR 3/5 already trust, end to end:
//
//  * The stop is scripted exactly like a ClusterConfig::crash_after_superstep
//    experiment — the barrier FSM aborts the run at the stop superstep's
//    gather barrier (core/barrier_fsm.cc).
//  * The checkpoint interval is set so the 2-phase checkpoint FSM commits at
//    superstep stop-1, i.e. the commit covers every superstep the slice
//    completed: checkpointed_superstep == stop, so the resume loses zero
//    finished supersteps. The honest preemption cost is the one aborted
//    superstep's partial work plus the checkpoint write itself.
//  * The next slice re-provisions a fresh Cluster and restarts it with
//    Cluster::Resume, the call the machine-failure recovery driver
//    (core/recovery.h) makes. The resumed cluster carries the outputs its
//    donor's chain committed, so they cross every slice.
//
// Because every slice is an ordinary deterministic cluster run and the resume
// path is the recovery path, a preempted job's final values are bitwise equal
// to an unpreempted run's (tests/scheduler_test.cc holds this for BFS/WCC).
#ifndef CHAOS_CORE_JOB_EXECUTION_H_
#define CHAOS_CORE_JOB_EXECUTION_H_

#include <limits>
#include <memory>
#include <utility>

#include "core/cluster.h"
#include "core/job_spec.h"

namespace chaos {

// JobExecution for a concrete GAS program P. `Finalize` converts the typed
// RunResult<P> into the algorithm-agnostic AlgoResult — injected by the
// algorithms layer (runner.cc) so core stays ignorant of program types.
template <GasProgram P, typename Finalize>
class TypedJobExecution final : public JobExecution {
 public:
  TypedJobExecution(JobSpec spec, P prog, Finalize finalize)
      : JobExecution(std::move(spec)), prog_(std::move(prog)), finalize_(std::move(finalize)) {
    CHAOS_CHECK_MSG(spec_.input != nullptr, "JobSpec without an input graph");
    CHAOS_CHECK_MSG(spec_.cluster.faults.empty() && spec_.cluster.crash_after_superstep < 0,
                    "sliced execution owns the crash script; JobSpec must not inject faults");
    CHAOS_CHECK_MSG(!spec_.recover, "recovery mode is single-job only");
  }

  // Evolving-graph support: the hook runs after each slice's cluster is
  // built, before Run/Resume (see ClusterAttachHook in core/cluster.h).
  void set_attach_hook(ClusterAttachHook<P> hook) { attach_ = std::move(hook); }

  uint64_t next_superstep() const override { return stopped_.checkpoint_superstep; }

  SliceResult RunSlice(int64_t stop_after_superstep) override {
    CHAOS_CHECK_MSG(!done_, "RunSlice on a completed job");
    ClusterConfig cfg = spec_.cluster;
    cfg.crash_after_superstep = stop_after_superstep;
    if (stop_after_superstep >= 0) {
      const auto stop = static_cast<uint64_t>(stop_after_superstep);
      CHAOS_CHECK_MSG(stop > next_superstep(),
                      "preemption point must be ahead of the resume point");
      CHAOS_CHECK(stop <= std::numeric_limits<uint32_t>::max());
      // Commit exactly once, at superstep stop-1: the engine checkpoints
      // after superstep s when (s+1) % interval == 0, so interval = stop
      // yields checkpointed_superstep == stop whatever the resume point was.
      cfg.checkpoint_interval = static_cast<uint32_t>(stop);
    }

    SliceResult out;
    out.start_superstep = next_superstep();
    // The previous slice's cluster is this one's donor; it is freed once
    // this slice has run.
    auto cluster = std::make_unique<Cluster<P>>(cfg, prog_);
    if (attach_) {
      attach_(*cluster, stopped_.checkpoint_epoch);
    }
    RunResult<P> run = stopped_.has_checkpoint
                           ? cluster->Resume(*cluster_, stopped_, GraphMeta::Of(*spec_.input))
                           : cluster->Run(*spec_.input);
    cluster_ = std::move(cluster);
    out.slice_time = run.metrics.total_time;

    if (!run.crashed) {
      done_ = true;
      out.completed = true;
      out.end_superstep = run.supersteps;
      result_ = finalize_(std::move(run));
      cluster_.reset();
      return out;
    }

    // Preempted at the scripted barrier. The commit at stop-1 covers every
    // completed superstep, so nothing but the aborted superstep re-runs.
    CHAOS_CHECK_MSG(run.has_checkpoint, "preempted slice has no committed checkpoint");
    CHAOS_CHECK(stop_after_superstep >= 0 &&
                run.checkpoint_superstep == static_cast<uint64_t>(stop_after_superstep));
    // Keep only the committed checkpoint Resume reads. A slice of an
    // evolving job may have committed forced mutation checkpoints, so the
    // edge side and epoch come along with the vertex side.
    stopped_ = RunResult<P>{};
    stopped_.has_checkpoint = true;
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
  P prog_;
  Finalize finalize_;
  ClusterAttachHook<P> attach_;

  std::unique_ptr<Cluster<P>> cluster_;  // previous slice = next slice's donor
  RunResult<P> stopped_;  // the previous slice's committed checkpoint, if any
  bool done_ = false;
  AlgoResult result_;
};

template <GasProgram P, typename Finalize>
std::unique_ptr<JobExecution> MakeTypedJobExecution(JobSpec spec, P prog, Finalize finalize) {
  return std::make_unique<TypedJobExecution<P, Finalize>>(std::move(spec), std::move(prog),
                                                          std::move(finalize));
}

}  // namespace chaos

#endif  // CHAOS_CORE_JOB_EXECUTION_H_
