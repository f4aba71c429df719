// Multi-job serving layer: a deterministic job-level event loop that admits,
// places, preempts and completes JobSpecs on one simulated serving cluster.
//
// Model. The serving cluster has `machines` identical machines with
// `machine_memory_bytes` of RAM each. A job reserves `spec.cluster.machines`
// whole machines for the duration of each of its slices (machines are not
// shared between concurrent jobs — the per-job cluster simulation models a
// saturated machine, so colocation would need an interference model we do
// not have). Admission control rejects, permanently and at arrival, any job
// whose shape can never fit: more machines than the cluster has, or an
// enforced per-machine BufferPool budget (ClusterConfig::EffectivePoolBudget)
// larger than a machine's RAM.
//
// Time. Job-level time is the serving cluster's clock: arrivals happen at
// spec.arrival, and a slice dispatched at T occupies its machines until
// T + slice_sim_time, where slice_sim_time is the per-job cluster DES's own
// simulated duration for that slice. Discovering a slice's duration means
// actually simulating it; slices dispatched at the same instant are
// simulated concurrently on host threads (SweepExecutor), but every
// scheduling decision is made in submission-index order on the event loop,
// so the schedule — timings, placements, event log, metrics — is bitwise
// independent of `jobs`.
//
// Preemption. Under kPriority, a preemptible job that does not hold the
// trace's top priority runs in quantum-sized slices; each slice boundary is
// a scripted stop at a superstep barrier that commits a checkpoint
// (JobExecution::RunSlice), so a waiting higher-priority job gets the machines
// after at most one quantum. Under kFifo every job runs to completion.
#ifndef CHAOS_CORE_JOB_SCHEDULER_H_
#define CHAOS_CORE_JOB_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/job_queue.h"
#include "core/job_spec.h"

namespace chaos {

class JobExecution;  // cluster.h

// Serving-cluster shape and policy knobs.
struct ServingConfig {
  int machines = 8;
  // Per-machine RAM for admission control; 0 disables the memory gate.
  uint64_t machine_memory_bytes = 0;
  SchedPolicy policy = SchedPolicy::kFifo;
  // Supersteps per slice for preemptible jobs under kPriority; a larger
  // quantum trades preemption latency for less checkpoint/import overhead.
  uint64_t preempt_quantum = 4;
  // Host threads simulating same-instant slices; <= 0 = hardware cores.
  // Results are bitwise independent of this value.
  int jobs = 1;
};

// Per-job scheduling outcome. All times are serving-cluster times.
struct JobSchedStats {
  bool admitted = false;
  bool completed = false;
  TimeNs arrival = 0;
  TimeNs first_dispatch = 0;
  TimeNs completion = 0;   // == latency end; 0 if never completed
  TimeNs queue_wait = 0;   // total time ready-but-not-running
  TimeNs service_time = 0; // sum of slice sim times (incl. preempted work)
  uint64_t supersteps = 0; // supersteps executed across slices
  int slices = 0;
  int preemptions = 0;
  int machines = 0;        // machines the job reserves per slice

  TimeNs latency() const { return completion - arrival; }
};

enum class SchedEventKind { kArrive, kReject, kDispatch, kPreempt, kComplete };

const char* SchedEventKindName(SchedEventKind kind);

// One scheduling decision, for the event log (tests replay it to check the
// no-inversion invariant; benches fingerprint it for determinism checks).
struct SchedEvent {
  TimeNs at = 0;
  SchedEventKind kind = SchedEventKind::kArrive;
  int job = 0;
  int machine_lo = -1;  // first reserved machine id (dispatch)
  int machine_count = 0;
  uint64_t superstep = 0;  // resume/stop point where meaningful

  std::string ToString() const;
};

// Whole-schedule accounting.
struct ServingMetrics {
  TimeNs makespan = 0;           // last completion time
  TimeNs busy_machine_time = 0;  // sum over slices of slice_time * machines
  double utilization = 0.0;      // busy_machine_time / (machines * makespan)
  int dispatches = 0;
  int preemptions = 0;
  int completed = 0;
  int rejected = 0;
};

struct ScheduleResult {
  std::vector<JobSchedStats> jobs;  // parallel to the submitted executions
  ServingMetrics metrics;
  std::vector<SchedEvent> events;   // chronological; deterministic
};

// Runs the schedule to completion. `executions` is the submission order;
// each entry must outlive the call. Scheduled jobs must not request
// single-job recovery or inject faults (the scheduler owns the crash
// script used for preemption); violations CHAOS_CHECK-fail.
ScheduleResult RunJobSchedule(const ServingConfig& config,
                              const std::vector<JobExecution*>& executions);

}  // namespace chaos

#endif  // CHAOS_CORE_JOB_SCHEDULER_H_
