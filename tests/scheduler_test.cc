// Serving-layer tests (core/job_scheduler.h + MakeJobExecution's slices):
// admission control against the enforced BufferPool budget, preempt-at-
// barrier-then-resume bitwise equality with unpreempted runs, the
// no-priority-inversion invariant, and byte-identical scheduler output
// across host thread counts.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/runner.h"
#include "core/job_queue.h"
#include "core/job_scheduler.h"
#include "core/job_trace.h"
#include "graph/generators.h"

namespace chaos {
namespace {

ClusterConfig SmallConfig(int machines, uint64_t seed = 42) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.memory_budget_bytes = 8 << 10;
  cfg.chunk_bytes = 2 << 10;
  cfg.seed = seed;
  return cfg;
}

std::shared_ptr<const InputGraph> SharedGraph(const std::string& algo, uint32_t scale,
                                              uint64_t seed, bool weighted = false) {
  RmatOptions opt;
  opt.scale = scale;
  opt.seed = seed;
  opt.weighted = weighted;
  return std::make_shared<const InputGraph>(PrepareInput(algo, GenerateRmat(opt)));
}

// A serving cluster generously sized for the test jobs' enforced budgets.
ServingConfig Serving(SchedPolicy policy, int machines = 4, int jobs = 1) {
  ServingConfig serving;
  serving.machines = machines;
  serving.machine_memory_bytes = 64 << 20;
  serving.policy = policy;
  serving.preempt_quantum = 2;
  serving.jobs = jobs;
  return serving;
}

std::string Fingerprint(const TraceRunResult& run) {
  std::ostringstream os;
  for (const SchedEvent& e : run.events) {
    os << e.ToString() << "\n";
  }
  for (const JobResult& job : run.jobs) {
    os << "job admitted=" << job.sched.admitted << " completed=" << job.sched.completed
       << " completion=" << job.sched.completion << " wait=" << job.sched.queue_wait
       << " service=" << job.sched.service_time << " slices=" << job.sched.slices
       << " preemptions=" << job.sched.preemptions << " supersteps=" << job.sched.supersteps
       << "\n";
  }
  os << "makespan=" << run.metrics.makespan << " busy=" << run.metrics.busy_machine_time
     << " dispatches=" << run.metrics.dispatches << " preemptions=" << run.metrics.preemptions
     << " completed=" << run.metrics.completed << " rejected=" << run.metrics.rejected << "\n";
  return os.str();
}

void ExpectBitwiseEqualValues(const AlgoResult& a, const AlgoResult& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (size_t v = 0; v < a.values.size(); ++v) {
    ASSERT_EQ(a.values[v], b.values[v]) << "vertex " << v;
  }
  EXPECT_EQ(a.scalar, b.scalar);
  EXPECT_EQ(a.output_records, b.output_records);
}

TEST(AdmissionTest, RejectsJobsThatCanNeverFit) {
  auto g = SharedGraph("bfs", 8, 7);
  std::vector<JobSpec> specs;

  JobSpec fits = MakeJob("bfs", g, SmallConfig(2));
  fits.arrival = 0;
  specs.push_back(fits);

  // More machines than the serving cluster has.
  JobSpec too_wide = MakeJob("bfs", g, SmallConfig(9));
  too_wide.arrival = 0;
  specs.push_back(too_wide);

  // Enforced per-machine buffer-pool budget above a machine's RAM.
  JobSpec too_fat = MakeJob("bfs", g, SmallConfig(2));
  too_fat.cluster.memory_budget_bytes = 1ull << 30;
  too_fat.arrival = 0;
  specs.push_back(too_fat);
  ASSERT_GT(too_fat.cluster.EffectivePoolBudget(), uint64_t{64} << 20);

  TraceRunResult run = RunJobTrace(specs, Serving(SchedPolicy::kFifo));
  EXPECT_TRUE(run.jobs[0].sched.admitted);
  EXPECT_TRUE(run.jobs[0].sched.completed);
  EXPECT_FALSE(run.jobs[1].sched.admitted);
  EXPECT_FALSE(run.jobs[2].sched.admitted);
  EXPECT_EQ(run.metrics.rejected, 2);
  EXPECT_EQ(run.metrics.completed, 1);
}

// The scheduler owns the crash script it preempts with, so a scheduled job
// may neither inject faults nor ask for recovery.
TEST(SchedulerDeathTest, RefusesFaultsAndRecovery) {
  auto g = SharedGraph("bfs", 8, 3);
  JobSpec faulty = MakeJob("bfs", g, SmallConfig(2));
  faulty.cluster.faults = FaultSchedule::MachineCrash(1, 1000);
  EXPECT_DEATH(RunJobTrace({faulty}, Serving(SchedPolicy::kFifo)),
               "must not inject faults");
  JobSpec recover = MakeJob("bfs", g, SmallConfig(2));
  recover.recover = true;
  EXPECT_DEATH(RunJobTrace({recover}, Serving(SchedPolicy::kFifo)),
               "recovery mode is single-job only");
}

// The heart of the preemption design: stopping a job at a superstep barrier
// (scripted crash + checkpoint commit at stop-1) and resuming it via the
// recovery import path must reproduce the unpreempted run's values exactly.
TEST(PreemptionTest, SliceChainMatchesUnpreemptedRunBitwise) {
  for (const char* algo : {"bfs", "wcc"}) {
    auto g = SharedGraph(algo, 9, 11);
    JobSpec spec = MakeJob(algo, g, SmallConfig(3));
    JobResult isolated = RunJob(spec);
    ASSERT_FALSE(isolated.crashed);
    ASSERT_GE(isolated.supersteps, 4u) << algo;

    auto exec = MakeJobExecution(spec);
    int slices = 0;
    for (;;) {
      // Quantum 2: every slice but possibly the last ends in a preemption.
      SliceResult slice = exec->RunSlice(static_cast<int64_t>(exec->next_superstep() + 2));
      ++slices;
      if (slice.completed) {
        break;
      }
      EXPECT_EQ(slice.end_superstep, slice.start_superstep + 2);
    }
    EXPECT_GE(slices, 2) << algo;
    AlgoResult sliced = exec->TakeResult();
    EXPECT_EQ(sliced.supersteps, isolated.supersteps);
    ExpectBitwiseEqualValues(sliced, isolated);
  }
}

// MCST exercises the carried-output path: forest edges emitted by completed
// supersteps must survive every preemption, exactly once.
TEST(PreemptionTest, SliceChainCarriesEmittedOutputs) {
  auto g = SharedGraph("mcst", 8, 31, /*weighted=*/true);
  JobSpec spec = MakeJob("mcst", g, SmallConfig(3));
  JobResult isolated = RunJob(spec);
  ASSERT_GT(isolated.output_records, 0u);

  auto exec = MakeJobExecution(spec);
  int slices = 1;
  while (!exec->RunSlice(static_cast<int64_t>(exec->next_superstep() + 2)).completed) {
    ++slices;
  }
  // From the third slice on, the donor is itself a resumed cluster, so the
  // outputs it carried in must pass on through Cluster::Resume again.
  EXPECT_GE(slices, 3);
  AlgoResult sliced = exec->TakeResult();
  EXPECT_EQ(sliced.output_records, isolated.output_records);
  EXPECT_EQ(sliced.scalar, isolated.scalar);
}

// End to end through the scheduler: an overloaded priority trace preempts
// the bulk job at least once, and every completed job's result is bitwise
// equal to its isolated single-job run.
TEST(SchedulerTest, PreemptedJobsMatchIsolatedRunsBitwise) {
  auto g_bulk = SharedGraph("wcc", 9, 5);
  auto g_hi = SharedGraph("bfs", 8, 6);
  std::vector<JobSpec> specs;

  JobSpec bulk = MakeJob("wcc", g_bulk, SmallConfig(4, 21));
  bulk.priority = 0;
  bulk.arrival = 0;
  specs.push_back(bulk);

  // Arrives while the bulk job holds the whole cluster.
  JobSpec hi = MakeJob("bfs", g_hi, SmallConfig(2, 22));
  hi.priority = 2;
  hi.arrival = 1;
  specs.push_back(hi);

  TraceRunResult run = RunJobTrace(specs, Serving(SchedPolicy::kPriority));
  ASSERT_TRUE(run.jobs[0].sched.completed);
  ASSERT_TRUE(run.jobs[1].sched.completed);
  EXPECT_GE(run.jobs[0].sched.preemptions, 1);
  EXPECT_EQ(run.jobs[1].sched.preemptions, 0);  // top class never sliced

  for (size_t i = 0; i < specs.size(); ++i) {
    JobResult isolated = RunJob(specs[i]);
    ExpectBitwiseEqualValues(run.jobs[i], isolated);
    EXPECT_EQ(run.jobs[i].sched.supersteps, isolated.supersteps);
  }
}

// Replay the event log and assert the dispatch invariant: whenever a job is
// dispatched, no strictly-higher-priority job is sitting in the ready queue
// (the dispatch loop stops at the first non-fitting head, so lower classes
// can never overtake — no priority inversion by construction).
TEST(SchedulerTest, NoPriorityInversionInEventLog) {
  auto g = SharedGraph("bfs", 8, 9);
  std::vector<JobSpec> specs;
  for (int i = 0; i < 6; ++i) {
    JobSpec spec = MakeJob("bfs", g, SmallConfig(2, 100 + static_cast<uint64_t>(i)));
    spec.priority = i % 3;
    spec.arrival = static_cast<TimeNs>(i);
    specs.push_back(spec);
  }

  TraceRunResult run = RunJobTrace(specs, Serving(SchedPolicy::kPriority));
  std::map<int, int> ready;  // job -> priority
  for (const SchedEvent& e : run.events) {
    switch (e.kind) {
      case SchedEventKind::kArrive:
        ready[e.job] = specs[static_cast<size_t>(e.job)].priority;
        break;
      case SchedEventKind::kReject:
      case SchedEventKind::kDispatch:
        ready.erase(e.job);
        if (e.kind == SchedEventKind::kDispatch) {
          for (const auto& [other, priority] : ready) {
            EXPECT_LE(priority, specs[static_cast<size_t>(e.job)].priority)
                << "job " << e.job << " dispatched at t=" << e.at << " while higher-priority job "
                << other << " waited";
          }
        }
        break;
      case SchedEventKind::kPreempt:
        ready[e.job] = specs[static_cast<size_t>(e.job)].priority;
        break;
      case SchedEventKind::kComplete:
        break;
    }
  }
  EXPECT_EQ(run.metrics.completed, 6);
}

// The schedule — events, per-job stats, metrics — must be bitwise
// independent of the host thread count simulating same-instant slices.
TEST(SchedulerTest, ByteIdenticalAcrossHostJobs) {
  TraceOptions topt;
  topt.preset = TracePreset::kBursty;
  topt.num_jobs = 6;
  topt.horizon = 1'000'000'000;
  topt.seed = 17;
  std::vector<TraceEntry> entries = GenerateTrace(topt);

  auto g = SharedGraph("bfs", 8, 13);
  std::vector<JobSpec> specs;
  for (const TraceEntry& entry : entries) {
    JobSpec spec = MakeJob("bfs", g, SmallConfig(2, entry.seed));
    spec.priority = entry.priority;
    spec.arrival = entry.arrival;
    specs.push_back(spec);
  }

  TraceRunResult serial = RunJobTrace(specs, Serving(SchedPolicy::kPriority, 4, 1));
  TraceRunResult parallel = RunJobTrace(specs, Serving(SchedPolicy::kPriority, 4, 8));
  EXPECT_EQ(Fingerprint(serial), Fingerprint(parallel));
  for (size_t i = 0; i < specs.size(); ++i) {
    if (serial.jobs[i].sched.completed) {
      ExpectBitwiseEqualValues(serial.jobs[i], parallel.jobs[i]);
    }
  }
}

TEST(SchedulerTest, FifoRunsInArrivalOrderWithoutPreemption) {
  auto g = SharedGraph("bfs", 8, 23);
  std::vector<JobSpec> specs;
  for (int i = 0; i < 4; ++i) {
    JobSpec spec = MakeJob("bfs", g, SmallConfig(4, 200 + static_cast<uint64_t>(i)));
    spec.priority = 3 - i;  // priority must be ignored under FIFO
    spec.arrival = static_cast<TimeNs>(i);
    specs.push_back(spec);
  }
  TraceRunResult run = RunJobTrace(specs, Serving(SchedPolicy::kFifo));
  EXPECT_EQ(run.metrics.preemptions, 0);
  TimeNs last = 0;
  for (const JobResult& job : run.jobs) {
    EXPECT_GT(job.sched.completion, last);  // full-width jobs serialize FIFO
    last = job.sched.completion;
  }
}

// Horizons of 1 and 31 ns leave bursty's jitter span (horizon / 32) at
// zero before its 1 ns floor; 32 ns is the first without the floor.
TEST(TraceTest, PresetsAreDeterministicAndInRange) {
  for (const TracePreset preset :
       {TracePreset::kUniform, TracePreset::kBursty, TracePreset::kDiurnal}) {
    for (const TimeNs horizon : {TimeNs{10'000'000'000}, TimeNs{1}, TimeNs{31}, TimeNs{32}}) {
      TraceOptions opt;
      opt.preset = preset;
      opt.num_jobs = 32;
      opt.horizon = horizon;
      opt.seed = 77;
      std::vector<TraceEntry> a = GenerateTrace(opt);
      std::vector<TraceEntry> b = GenerateTrace(opt);
      ASSERT_EQ(a.size(), 32u);
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].priority, b[i].priority);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_GE(a[i].arrival, 0);
        EXPECT_LT(a[i].arrival, opt.horizon);
        if (i > 0) {
          EXPECT_GE(a[i].arrival, a[i - 1].arrival);
        }
      }
    }
  }
}

}  // namespace
}  // namespace chaos
