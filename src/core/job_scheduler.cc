#include "core/job_scheduler.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>

#include "core/cluster.h"
#include "util/parallel.h"

namespace chaos {

const char* SchedEventKindName(SchedEventKind kind) {
  switch (kind) {
    case SchedEventKind::kArrive:
      return "arrive";
    case SchedEventKind::kReject:
      return "reject";
    case SchedEventKind::kDispatch:
      return "dispatch";
    case SchedEventKind::kPreempt:
      return "preempt";
    case SchedEventKind::kComplete:
      return "complete";
  }
  return "?";
}

std::string SchedEvent::ToString() const {
  std::ostringstream os;
  os << "t=" << at << " " << SchedEventKindName(kind) << " job=" << job;
  if (machine_count > 0) {
    os << " m=" << machine_lo << "+" << machine_count;
  }
  os << " s=" << superstep;
  return os.str();
}

namespace {

// One in-flight slice.
struct Running {
  int job = 0;
  TimeNs finish = 0;
  SliceResult slice;
  std::vector<int> machines;
};

}  // namespace

ScheduleResult RunJobSchedule(const ServingConfig& config,
                              const std::vector<JobExecution*>& executions) {
  CHAOS_CHECK_MSG(config.machines >= 1, "serving cluster needs at least one machine");
  CHAOS_CHECK_MSG(config.preempt_quantum >= 1, "preempt_quantum must be >= 1");
  const int n = static_cast<int>(executions.size());

  ScheduleResult out;
  out.jobs.resize(static_cast<size_t>(n));

  // Admissibility is a static property of the job's shape; decide it (and
  // the trace's top priority, which drives the slicing rule) up front.
  std::vector<bool> admissible(static_cast<size_t>(n), false);
  int top_priority = std::numeric_limits<int>::min();
  for (int j = 0; j < n; ++j) {
    const JobSpec& spec = executions[static_cast<size_t>(j)]->spec();
    CHAOS_CHECK_MSG(spec.cluster.machines >= 1, "job needs at least one machine");
    CHAOS_CHECK_MSG(spec.arrival >= 0, "job arrival must be non-negative");
    CHAOS_CHECK_MSG(spec.cluster.faults.empty() && spec.cluster.crash_after_superstep < 0,
                    "the scheduler owns the crash script; a scheduled job must not inject faults");
    CHAOS_CHECK_MSG(!spec.recover, "recovery mode is single-job only");
    JobSchedStats& stats = out.jobs[static_cast<size_t>(j)];
    stats.arrival = spec.arrival;
    stats.machines = spec.cluster.machines;
    const bool fits_machines = spec.cluster.machines <= config.machines;
    const bool fits_memory = config.machine_memory_bytes == 0 ||
                             spec.cluster.EffectivePoolBudget() <= config.machine_memory_bytes;
    admissible[static_cast<size_t>(j)] = fits_machines && fits_memory;
    if (admissible[static_cast<size_t>(j)]) {
      top_priority = std::max(top_priority, spec.priority);
    }
  }

  // Arrival order: (arrival, submission index).
  std::vector<int> arrivals(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    arrivals[static_cast<size_t>(j)] = j;
  }
  std::sort(arrivals.begin(), arrivals.end(), [&](int a, int b) {
    const TimeNs ta = executions[static_cast<size_t>(a)]->spec().arrival;
    const TimeNs tb = executions[static_cast<size_t>(b)]->spec().arrival;
    return ta != tb ? ta < tb : a < b;
  });

  SweepExecutor executor(config.jobs);
  ReadyQueue ready(config.policy);
  MachineLedger ledger(config.machines);
  std::vector<Running> running;
  std::vector<TimeNs> ready_since(static_cast<size_t>(n), 0);
  size_t next_arrival = 0;

  while (next_arrival < arrivals.size() || !ready.empty() || !running.empty()) {
    // Next decision instant: first pending arrival or first slice finish.
    TimeNs now = std::numeric_limits<TimeNs>::max();
    if (next_arrival < arrivals.size()) {
      now = executions[static_cast<size_t>(arrivals[next_arrival])]->spec().arrival;
    }
    for (const Running& r : running) {
      now = std::min(now, r.finish);
    }
    CHAOS_CHECK_MSG(now != std::numeric_limits<TimeNs>::max(),
                    "scheduler stalled with ready jobs and no machines ever freeing");

    // Retire slices finishing now, in submission order.
    std::vector<Running> finishing;
    for (auto it = running.begin(); it != running.end();) {
      if (it->finish == now) {
        finishing.push_back(std::move(*it));
        it = running.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(finishing.begin(), finishing.end(),
              [](const Running& a, const Running& b) { return a.job < b.job; });
    for (Running& r : finishing) {
      JobExecution& exec = *executions[static_cast<size_t>(r.job)];
      JobSchedStats& stats = out.jobs[static_cast<size_t>(r.job)];
      stats.service_time += r.slice.slice_time;
      stats.supersteps += r.slice.end_superstep - r.slice.start_superstep;
      out.metrics.busy_machine_time +=
          r.slice.slice_time * static_cast<TimeNs>(r.machines.size());
      ledger.Release(r.machines);
      if (r.slice.completed) {
        stats.completed = true;
        stats.completion = now;
        ++out.metrics.completed;
        out.metrics.makespan = std::max(out.metrics.makespan, now);
        out.events.push_back(
            {now, SchedEventKind::kComplete, r.job, -1, 0, r.slice.end_superstep});
      } else {
        ++stats.preemptions;
        ++out.metrics.preemptions;
        ready_since[static_cast<size_t>(r.job)] = now;
        ready.Push({r.job, exec.spec().priority, exec.spec().arrival});
        out.events.push_back(
            {now, SchedEventKind::kPreempt, r.job, -1, 0, r.slice.end_superstep});
      }
    }

    // Admit arrivals due now.
    while (next_arrival < arrivals.size() &&
           executions[static_cast<size_t>(arrivals[next_arrival])]->spec().arrival == now) {
      const int j = arrivals[next_arrival++];
      const JobSpec& spec = executions[static_cast<size_t>(j)]->spec();
      out.events.push_back({now, SchedEventKind::kArrive, j, -1, 0, 0});
      if (!admissible[static_cast<size_t>(j)]) {
        ++out.metrics.rejected;
        out.events.push_back({now, SchedEventKind::kReject, j, -1, spec.cluster.machines, 0});
        continue;
      }
      out.jobs[static_cast<size_t>(j)].admitted = true;
      ready_since[static_cast<size_t>(j)] = now;
      ready.Push({j, spec.priority, spec.arrival});
    }

    // Dispatch in policy order; stop at the first job that does not fit so
    // nothing ranked lower can overtake it (no backfill, no inversion).
    struct Dispatch {
      int job = 0;
      int64_t stop = -1;
      std::vector<int> machines;
    };
    std::vector<Dispatch> batch;
    while (!ready.empty()) {
      const ReadyJob front = ready.Front();
      JobExecution& exec = *executions[static_cast<size_t>(front.job)];
      const JobSpec& spec = exec.spec();
      if (!ledger.Fits(spec.cluster.machines)) {
        break;
      }
      ready.PopFront();
      Dispatch d;
      d.job = front.job;
      d.machines = ledger.Claim(spec.cluster.machines);
      // Slicing rule: under priority scheduling, a preemptible job that is
      // not in the trace's top class runs one quantum at a time so a waiting
      // higher-priority job never waits longer than one quantum.
      if (config.policy == SchedPolicy::kPriority && spec.preemptible &&
          spec.priority < top_priority) {
        d.stop = static_cast<int64_t>(exec.next_superstep() + config.preempt_quantum);
      }
      JobSchedStats& stats = out.jobs[static_cast<size_t>(front.job)];
      stats.queue_wait += now - ready_since[static_cast<size_t>(front.job)];
      if (stats.slices == 0) {
        stats.first_dispatch = now;
      }
      ++stats.slices;
      ++out.metrics.dispatches;
      out.events.push_back({now, SchedEventKind::kDispatch, front.job, d.machines.front(),
                            static_cast<int>(d.machines.size()), exec.next_superstep()});
      batch.push_back(std::move(d));
    }

    // Simulate the batch's slices concurrently; all scheduling state above
    // was already updated in submission order, so results are bitwise
    // independent of the executor's thread count.
    if (!batch.empty()) {
      std::vector<std::function<SliceResult()>> points;
      points.reserve(batch.size());
      for (const Dispatch& d : batch) {
        JobExecution* exec = executions[static_cast<size_t>(d.job)];
        const int64_t stop = d.stop;
        points.emplace_back([exec, stop] { return exec->RunSlice(stop); });
      }
      std::vector<SliceResult> slices = executor.RunPoints(points);
      for (size_t i = 0; i < batch.size(); ++i) {
        CHAOS_CHECK_MSG(slices[i].slice_time > 0, "slice with zero simulated duration");
        Running r;
        r.job = batch[i].job;
        r.finish = now + slices[i].slice_time;
        r.slice = slices[i];
        r.machines = std::move(batch[i].machines);
        running.push_back(std::move(r));
      }
    }
  }

  if (out.metrics.makespan > 0) {
    out.metrics.utilization =
        static_cast<double>(out.metrics.busy_machine_time) /
        (static_cast<double>(config.machines) * static_cast<double>(out.metrics.makespan));
  }
  return out;
}

}  // namespace chaos
