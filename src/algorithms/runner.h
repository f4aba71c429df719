// Type-erased entry points over the ten GAS benchmark algorithms, used by
// tests, benches and examples that sweep algorithms by name.
//
// The unified entry point is RunJob(JobSpec): one spec describes the
// algorithm, the prepared input, the cluster shape, optional recovery mode
// and the scheduling metadata — the same unit the serving layer
// (core/job_scheduler.h) enqueues, and the same struct the chaos_run CLI
// builds from its flags. Build specs with MakeJob (core/job_spec.h).
#ifndef CHAOS_ALGORITHMS_RUNNER_H_
#define CHAOS_ALGORITHMS_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/xstream.h"
#include "core/cluster.h"
#include "core/job_scheduler.h"
#include "core/job_spec.h"
#include "graph/types.h"

namespace chaos {

struct AlgorithmInfo {
  std::string name;
  bool needs_undirected = false;  // BFS, WCC, MCST, MIS, SSSP (Table 1)
  bool needs_bidirected = false;  // SCC (reverse-flagged edges)
  bool needs_weights = false;     // SSSP, MCST
};

// The paper's Table 1 set, in its order.
const std::vector<AlgorithmInfo>& Algorithms();
const AlgorithmInfo& AlgorithmByName(const std::string& name);
// The names of Algorithms(), in its order: the choices of an --algo flag.
std::vector<std::string> AlgorithmNames();

// Applies the required input transformation (undirected / bidirected) for
// the named algorithm. Weighted inputs keep their weights.
InputGraph PrepareInput(const std::string& name, const InputGraph& raw);

// Everything one job produced: the algorithm result (with the recovery
// timeline when spec.recover), plus the scheduling outcome (when the job ran
// under RunJobTrace; synthesized trivially for single-job RunJob).
struct JobResult : AlgoResult {
  JobSchedStats sched;
};

// Runs one job to completion on its own cluster. `spec.input` must already
// have gone through PrepareInput for `spec.algorithm`. Drives the job's
// MakeJobExecution chain with RunSlice(-1) until it completes: with
// spec.recover, a machine failure is followed by one restart on a healthy
// replacement and the report lands in JobResult::recovery. Without it, an
// injected machine crash returns a crashed result.
JobResult RunJob(const JobSpec& spec);

// Result of serving a multi-job trace through the job scheduler.
struct TraceRunResult {
  std::vector<JobResult> jobs;  // submission order; rejected jobs carry only
                                // sched (admitted = false)
  ServingMetrics metrics;
  std::vector<SchedEvent> events;
};

// Serves `specs` on one simulated cluster under `serving`'s policy: admission
// control, placement, priority and quantum preemption per
// core/job_scheduler.h. Scheduled specs must not set recover or inject
// faults. Deterministic: bitwise independent of serving.jobs, and each job's
// values are bitwise equal to its isolated RunJob result.
TraceRunResult RunJobTrace(const std::vector<JobSpec>& specs, const ServingConfig& serving);

// Builds `spec`'s chain of cluster runs (slices, JobExecution in
// core/cluster.h) that RunJob and the scheduler drive, binding the program
// by name: its GasKernel<P> and, for an evolving job, its
// EvolvingController<P>. RunSlice(-1) of a spec.recover job returns
// completed = false once, after a machine failure; the next slice restarts
// on the replacement cluster and completes.
std::unique_ptr<JobExecution> MakeJobExecution(const JobSpec& spec);

// Runs the named algorithm on the single-machine X-Stream baseline
// (baselines/xstream.h), which reads its device, chunking and memory budget
// from `config`.
XStreamResult RunXStreamAlgorithm(const std::string& name, const InputGraph& prepared,
                                  const ClusterConfig& config, const AlgoParams& params = {});

}  // namespace chaos

#endif  // CHAOS_ALGORITHMS_RUNNER_H_
