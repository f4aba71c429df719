// Machine-failure recovery driver (paper §6.6): runs a workload, and if a
// fault-injected MachineCrash aborts it, re-provisions a replacement
// cluster — same size, or rescaled (e.g. the N-1 survivors) with
// repartitioned vertex ranges — imports the last committed checkpoint from
// the durable storage of the crashed cluster, and resumes. This is the
// closed loop behind the paper's "checkpointing is cheap because recovery
// is a restart from the last committed checkpoint" claim (Fig. 13): the
// recovered run must produce the same results as a fault-free one.
//
// Failure model: fail-stop machine failures (sim/fault_injector.h
// FaultKind::kMachineCrash), detected cluster-wide at the next barrier.
// Storage is durable and survives the compute engine's death (the same
// assumption the scripted ClusterConfig::crash_after_superstep experiments
// make), so checkpoint and edge sets can be re-imported host-side. One
// failure per run; the replacement cluster is healthy.
#ifndef CHAOS_CORE_RECOVERY_H_
#define CHAOS_CORE_RECOVERY_H_

#include <algorithm>
#include <utility>

#include "core/cluster.h"
#include "core/job_spec.h"  // RecoveryOptions / RecoveryReport live there now

namespace chaos {

// Runs `prog` over `input` on a cluster configured by `config`; on a
// machine-failure abort, re-provisions and resumes from the last committed
// checkpoint (or restarts from the input if no checkpoint had committed).
// Returns the completed run's result. `report`, when non-null, receives the
// recovery timeline (crash and resume supersteps, lost work, time to
// recover); the result's metrics are the replacement run's own.
//
// `attach`, when set, runs on every cluster the driver builds, before
// Run/Resume (ClusterAttachHook). Evolving jobs pass their controller's
// Attach (algorithms/evolving.h): the replacement imports the edge side
// (kEdges/kEdgesB) that was live at the checkpoint as kEdges, and the
// controller rewinds so every epoch after checkpoint_epoch replays.
template <GasProgram P>
RunResult<P> RunWithRecovery(const ClusterConfig& config, P prog, const InputGraph& input,
                             const RecoveryOptions& opts = {},
                             RecoveryReport* report = nullptr,
                             const ClusterAttachHook<P>& attach = {}) {
  RecoveryReport rep;
  rep.machines_after = config.machines;

  Cluster<P> cluster(config, prog);
  if (attach) {
    attach(cluster, 0);
  }
  RunResult<P> first = cluster.Run(input);
  rep.end_to_end_time = first.metrics.total_time;
  if (!first.crashed) {
    if (report != nullptr) {
      *report = rep;
    }
    return first;
  }

  rep.crash_detected = true;
  rep.crashed_run_time = first.metrics.total_time;
  rep.crash_superstep = first.supersteps > 0 ? first.supersteps - 1 : 0;

  // Re-provision: the replacement rack is healthy (the failure already
  // happened; scripted whole-cluster crashes do not recur either).
  ClusterConfig rcfg = config;
  rcfg.faults = FaultSchedule{};
  rcfg.crash_after_superstep = -1;
  if (opts.replacement_machines > 0) {
    rcfg.machines = opts.replacement_machines;
  }
  rep.machines_after = rcfg.machines;
  rep.recovered_from_checkpoint = first.has_checkpoint;
  rep.resume_superstep = first.checkpoint_superstep;

  Cluster<P> replacement(rcfg, std::move(prog));
  if (attach) {
    attach(replacement, first.checkpoint_epoch);
  }
  // Without a committed checkpoint (e.g. a failure during pre-processing)
  // there is nothing to resume from: the whole run restarts from the input.
  RunResult<P> second = first.has_checkpoint
                            ? replacement.Resume(cluster, first, GraphMeta::Of(input))
                            : replacement.Run(input);

  // A zero preprocess time marks a run that died before pre-processing
  // finished: no superstep was ever entered (the engine only records the
  // preprocess end on the healthy path).
  const bool died_in_preprocess = first.metrics.preprocess_time == 0;
  rep.lost_work_supersteps =
      !died_in_preprocess && rep.crash_superstep >= rep.resume_superstep
          ? rep.crash_superstep - rep.resume_superstep + 1
          : 0;
  // Time to recover: replacement-cluster time until the work the failure
  // destroyed has been re-done — the aborted superstep's gather barrier,
  // or the re-run pre-processing when the crash predated any superstep.
  // A crash between a checkpoint's commit and its phase-2 barrier can leave
  // resume_superstep past crash_superstep: nothing to re-execute.
  const auto& times = second.metrics.superstep_end_times;
  if (died_in_preprocess) {
    rep.time_to_recover = second.metrics.preprocess_time;
  } else if (rep.crash_superstep < rep.resume_superstep) {
    rep.time_to_recover = 0;
  } else if (times.empty()) {
    rep.time_to_recover = second.metrics.total_time;
  } else {
    const uint64_t idx = rep.crash_superstep - rep.resume_superstep;
    rep.time_to_recover = times[std::min<uint64_t>(idx, times.size() - 1)];
  }
  rep.end_to_end_time = rep.crashed_run_time + second.metrics.total_time;

  if (report != nullptr) {
    *report = rep;
  }
  return second;
}

}  // namespace chaos

#endif  // CHAOS_CORE_RECOVERY_H_
