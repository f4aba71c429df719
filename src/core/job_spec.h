// The unit of work the serving layer schedules: one algorithm over one
// prepared graph on one cluster configuration, plus the scheduling metadata
// (priority, arrival time, preemptibility) the job scheduler consumes.
//
// JobSpec is the single config path shared by every entry point: the
// single-job RunJob() API (algorithms/runner.h), the chaos_run CLI (both its
// per-flag single-job mode and its --trace multi-job mode), and the
// job scheduler's admission queue (core/job_scheduler.h). This header also
// owns the algorithm-agnostic result/report vocabulary those layers share —
// AlgoParams/AlgoResult and RecoveryOptions/RecoveryReport — so core code
// can name them without depending on the algorithms layer.
#ifndef CHAOS_CORE_JOB_SPEC_H_
#define CHAOS_CORE_JOB_SPEC_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "graph/mutation_log.h"
#include "graph/types.h"

namespace chaos {

// Per-algorithm knobs; unused fields are ignored.
struct AlgoParams {
  VertexId source = 0;      // bfs, sssp
  uint32_t iterations = 5;  // pagerank, bp
  float damping = 0.85f;    // pagerank
};

struct RecoveryOptions {
  // Replacement cluster size after a crash: 0 = same as the original
  // (the failed machine is swapped for a spare); otherwise the new machine
  // count, e.g. machines - 1 when the survivors absorb the work. Rescaled
  // recovery repartitions vertex ranges and re-bins edge sets.
  int replacement_machines = 0;
};

// How a recovered run unfolded, for reporting and benches. Times are
// simulated cluster times.
struct RecoveryReport {
  bool crash_detected = false;
  bool recovered_from_checkpoint = false;  // false: restarted from the input
  uint64_t crash_superstep = 0;            // superstep the failure aborted
  uint64_t resume_superstep = 0;           // checkpoint the restart used
  uint64_t lost_work_supersteps = 0;       // supersteps that had to be re-run
  TimeNs crashed_run_time = 0;   // sim time spent in the aborted run
  TimeNs time_to_recover = 0;    // takeover until the crash point re-reached
  TimeNs end_to_end_time = 0;    // aborted run + full replacement run
  int machines_after = 0;        // replacement cluster size
};

struct AlgoResult {
  RunMetrics metrics;          // the last run's: the replacement's after a failure
  std::vector<double> values;  // Extract() per vertex
  double scalar = 0.0;         // conductance value / MSF total weight
  uint64_t output_records = 0; // MSF edges emitted
  uint64_t supersteps = 0;
  bool crashed = false;
  RecoveryReport recovery;     // filled for JobSpec::recover jobs only
};

// Evolving-graph schedule (graph/mutation_log.h): when active, the job runs
// `log.num_batches` mutation epochs — each convergence applies the next
// seeded batch at the barrier and the run re-converges — and the final
// values are the fixed point of the fully mutated graph.
struct MutationSchedule {
  MutationLogOptions log;  // log.num_batches == 0 -> static (inactive)
  // Warm-start from the converged states via the incremental seeders
  // (algorithms/incremental.h); false = full-recompute baseline (fresh
  // InitVertex seeds every epoch, identical mutation-apply cost).
  bool incremental = true;

  bool active() const { return log.num_batches > 0; }
};

// One job: everything needed to run an algorithm on a cluster, plus the
// metadata the scheduler uses to place it.
struct JobSpec {
  // Algorithm name (algorithms/runner.h Algorithms() registry).
  std::string algorithm;
  // The prepared input (already through PrepareInput for `algorithm`).
  // Shared so a trace of jobs over the same graph holds one copy.
  // EXCEPTION: with mutations.active(), `input` must be the RAW graph —
  // the evolving driver prepares it per epoch (the mutation log mutates
  // raw edges, not prepared arcs).
  std::shared_ptr<const InputGraph> input;
  // Per-job cluster shape: machine count, memory budget, seed, knobs.
  // `cluster.machines` is the number of machines the scheduler reserves;
  // `cluster.EffectivePoolBudget()` is the admission-control footprint.
  ClusterConfig cluster;
  AlgoParams params;

  // Single-job mode only: restart once, on a healthy replacement cluster,
  // after a machine failure. Scheduled (trace) jobs must leave this false and
  // `cluster.faults` empty — the scheduler owns the preemption machinery.
  bool recover = false;
  RecoveryOptions recovery;

  // Evolving graphs: only bfs/sssp/wcc support mutation schedules.
  MutationSchedule mutations;

  // Scheduling metadata, ignored by single-job RunJob().
  std::string name;        // label for traces and reports
  int priority = 0;        // larger = more urgent
  TimeNs arrival = 0;      // serving-cluster submission time
  bool preemptible = true; // may be stopped at a superstep barrier
};

// Convenience builders for the common "run this algorithm on this graph with
// this config" call. The shared_ptr overload shares ownership; the reference
// overload borrows — the caller's graph must outlive every use of the spec
// (fine for the typical RunJob(MakeJob(...)) call, wrong for specs stored in
// a long-lived trace: use the owning overload there).
inline JobSpec MakeJob(std::string algorithm, std::shared_ptr<const InputGraph> prepared,
                       ClusterConfig cluster, AlgoParams params = {}) {
  JobSpec spec;
  spec.algorithm = std::move(algorithm);
  spec.input = std::move(prepared);
  spec.cluster = std::move(cluster);
  spec.params = params;
  return spec;
}

inline JobSpec MakeJob(std::string algorithm, const InputGraph& prepared, ClusterConfig cluster,
                       AlgoParams params = {}) {
  // Aliasing constructor with an empty owner: non-owning view of `prepared`.
  return MakeJob(std::move(algorithm),
                 std::shared_ptr<const InputGraph>(std::shared_ptr<const InputGraph>{}, &prepared),
                 std::move(cluster), params);
}

// Accounting for one slice of a job (JobExecution::RunSlice, cluster.h).
struct SliceResult {
  bool completed = false;       // the job finished inside this slice
  TimeNs slice_time = 0;        // sim time the slice occupied its machines
  uint64_t start_superstep = 0; // absolute superstep the slice resumed at
  uint64_t end_superstep = 0;   // resume point after preemption, or the
                                // final superstep count on completion
};

}  // namespace chaos

#endif  // CHAOS_CORE_JOB_SPEC_H_
