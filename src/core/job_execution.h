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
//  * The next slice re-provisions a fresh Cluster and imports the durable
//    sets exactly like the machine-failure recovery driver (core/recovery.h):
//    edges, the committed checkpoint side as the live vertex set, and the
//    commit-time update-set snapshot under the kind the resumed gather scans.
//    Outputs emitted by completed supersteps are carried across slices.
//
// Because every slice is an ordinary deterministic cluster run and the resume
// path is the recovery path, a preempted job's final values are bitwise equal
// to an unpreempted run's (tests/scheduler_test.cc holds this for BFS/WCC).
#ifndef CHAOS_CORE_JOB_EXECUTION_H_
#define CHAOS_CORE_JOB_EXECUTION_H_

#include <limits>
#include <memory>
#include <utility>
#include <vector>

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
  // built (and, on resume, after the durable sets are imported) but before
  // Run/Resume (see ClusterAttachHook in core/cluster.h).
  void set_attach_hook(ClusterAttachHook<P> hook) { attach_ = std::move(hook); }

  uint64_t next_superstep() const override { return next_superstep_; }

  SliceResult RunSlice(int64_t stop_after_superstep) override {
    CHAOS_CHECK_MSG(!done_, "RunSlice on a completed job");
    ClusterConfig cfg = spec_.cluster;
    cfg.crash_after_superstep = stop_after_superstep;
    if (stop_after_superstep >= 0) {
      const auto stop = static_cast<uint64_t>(stop_after_superstep);
      CHAOS_CHECK_MSG(stop > next_superstep_, "preemption point must be ahead of the resume point");
      CHAOS_CHECK(stop <= std::numeric_limits<uint32_t>::max());
      // Commit exactly once, at superstep stop-1: the engine checkpoints
      // after superstep s when (s+1) % interval == 0, so interval = stop
      // yields checkpointed_superstep == stop whatever the resume point was.
      cfg.checkpoint_interval = static_cast<uint32_t>(stop);
    }

    SliceResult out;
    out.start_superstep = next_superstep_;
    RunResult<P> run = next_superstep_ == 0 ? RunFirst(cfg) : RunResumed(cfg);
    out.slice_time = run.metrics.total_time;

    if (!run.crashed) {
      done_ = true;
      out.completed = true;
      out.end_superstep = run.supersteps;
      // Prepend outputs carried from earlier slices before finalizing: the
      // per-algorithm finalizer may fold outputs into the result (MSF total
      // weight sums them).
      run.outputs.insert(run.outputs.begin(), std::make_move_iterator(carried_outputs_.begin()),
                         std::make_move_iterator(carried_outputs_.end()));
      carried_outputs_.clear();
      result_ = finalize_(std::move(run));
      cluster_.reset();
      return out;
    }

    // Preempted at the scripted barrier. The commit at stop-1 covers every
    // completed superstep, so nothing but the aborted superstep re-runs.
    CHAOS_CHECK_MSG(run.has_checkpoint, "preempted slice has no committed checkpoint");
    CHAOS_CHECK(stop_after_superstep >= 0 &&
                run.checkpoint_superstep == static_cast<uint64_t>(stop_after_superstep));
    auto committed = cluster_->OutputsBefore(run.checkpoint_superstep);
    carried_outputs_.insert(carried_outputs_.end(), std::make_move_iterator(committed.begin()),
                            std::make_move_iterator(committed.end()));
    ckpt_global_ = run.checkpoint_global;
    ckpt_side_ = run.checkpoint_side;
    // A slice of an evolving job may have committed forced mutation
    // checkpoints: the next slice must import the edge side that was live
    // at the final commit and replay mutations from its epoch.
    ckpt_edges_kind_ = run.checkpoint_edges_kind;
    ckpt_epoch_ = run.checkpoint_epoch;
    next_superstep_ = run.checkpoint_superstep;
    out.end_superstep = next_superstep_;
    return out;
  }

  AlgoResult TakeResult() override {
    CHAOS_CHECK_MSG(done_, "TakeResult before the job completed");
    return std::move(result_);
  }

 private:
  RunResult<P> RunFirst(const ClusterConfig& cfg) {
    cluster_ = std::make_unique<Cluster<P>>(cfg, prog_);
    if (attach_) {
      attach_(*cluster_, 0);
    }
    return cluster_->Run(*spec_.input);
  }

  // The import/resume recipe of core/recovery.h, from the previous slice's
  // (dead) cluster.
  RunResult<P> RunResumed(ClusterConfig cfg) {
    cfg.resume = true;
    cfg.resume_superstep = next_superstep_;
    auto replacement = std::make_unique<Cluster<P>>(cfg, prog_);
    const GraphMeta meta = GraphMeta::Of(*spec_.input);
    replacement->ImportCheckpoint(*cluster_, ckpt_side_, ckpt_edges_kind_, meta);
    if (attach_) {
      attach_(*replacement, ckpt_epoch_);
    }
    RunResult<P> run = replacement->Resume(meta, ckpt_global_);
    cluster_ = std::move(replacement);  // the old donor dies here, post-import
    return run;
  }

  P prog_;
  Finalize finalize_;
  ClusterAttachHook<P> attach_;

  std::unique_ptr<Cluster<P>> cluster_;  // previous slice = next slice's donor
  uint64_t next_superstep_ = 0;
  typename P::GlobalState ckpt_global_{};
  SetKind ckpt_side_ = SetKind::kCheckpointA;
  SetKind ckpt_edges_kind_ = SetKind::kEdges;
  uint64_t ckpt_epoch_ = 0;
  std::vector<typename P::OutputRecord> carried_outputs_;
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
