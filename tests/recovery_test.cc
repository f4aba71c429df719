// Machine-failure recovery (paper §6.6): a fault-injected MachineCrash
// kills one machine's engine mid-run, the failure is detected at the next
// barrier and aborts the superstep cluster-wide, and the job's next slice
// re-provisions a cluster (same size or the N-1 survivors) that resumes
// from the last committed checkpoint. Recovered results must match the
// fault-free run: bitwise for BFS (order-independent min-folds), and to
// float rounding for PageRank (re-executed gathers fold updates in a
// different arrival order).
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/basic.h"
#include "algorithms/mcst.h"
#include "algorithms/runner.h"
#include "core/cluster.h"
#include "graph/generators.h"

namespace chaos {
namespace {

ClusterConfig BaseConfig(int machines) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.memory_budget_bytes = 8 << 10;
  cfg.chunk_bytes = 2 << 10;
  cfg.seed = 99;
  return cfg;
}

InputGraph TestGraph(uint64_t seed = 7) {
  RmatOptions opt;
  opt.scale = 9;
  opt.seed = seed;
  return GenerateRmat(opt);
}

// A kill time ~60% into the post-preprocessing computation of the
// fault-free run: late enough that checkpoints have committed, early
// enough that supersteps remain.
TimeNs MidRunKillTime(const RunMetrics& fault_free) {
  return fault_free.preprocess_time +
         static_cast<TimeNs>(0.6 * static_cast<double>(fault_free.total_time -
                                                       fault_free.preprocess_time));
}

// Runs `algo` as a recover job: after a machine failure, one restart on a
// healthy replacement of `replacement_machines` machines (0 = same size).
JobResult RunRecovered(const std::string& algo, const InputGraph& g, const ClusterConfig& cfg,
                       int replacement_machines = 0, AlgoParams params = {}) {
  JobSpec spec = MakeJob(algo, g, cfg, params);
  spec.recover = true;
  spec.recovery.replacement_machines = replacement_machines;
  return RunJob(spec);
}

TEST(MachineCrashTest, KillAbortsRunAndLeavesCommittedCheckpoint) {
  InputGraph g = TestGraph();
  ClusterConfig cfg = BaseConfig(4);
  cfg.checkpoint_interval = 1;
  Cluster healthy(cfg, PageRankProgram(6));
  auto fault_free = healthy.Run(g);
  ASSERT_FALSE(fault_free.crashed);

  cfg.faults = FaultSchedule::MachineCrash(2, MidRunKillTime(fault_free.metrics));
  Cluster cluster(cfg, PageRankProgram(6));
  auto result = cluster.Run(g);
  EXPECT_TRUE(result.crashed);
  EXPECT_TRUE(result.metrics.crashed);
  EXPECT_LE(result.supersteps, fault_free.supersteps);  // aborted early
  ASSERT_TRUE(result.has_checkpoint);
  EXPECT_GT(result.checkpoint_superstep, 0u);
  // The crash is recorded as an applied fault.
  ASSERT_EQ(result.metrics.faults.size(), 1u);
  EXPECT_EQ(result.metrics.faults[0].event.kind, FaultKind::kMachineCrash);
  EXPECT_GE(result.metrics.faults[0].applied_at, 0);
}

// Cluster::Resume restarts from a committed checkpoint only. A run stopped
// before anything committed has nothing to resume from, and the call says
// so instead of importing sets that do not exist.
TEST(ResumeDeathTest, RefusesAStopWithoutCheckpoint) {
  InputGraph g = TestGraph();
  ClusterConfig cfg = BaseConfig(4);
  cfg.crash_after_superstep = 1;  // checkpointing is off: nothing commits
  Cluster donor(cfg, PageRankProgram(6));
  const auto stopped = donor.Run(g);
  ASSERT_TRUE(stopped.crashed);
  ASSERT_FALSE(stopped.has_checkpoint);
  Cluster replacement(BaseConfig(4), PageRankProgram(6));
  EXPECT_DEATH(replacement.Resume(donor, stopped, GraphMeta::Of(g)),
               "Resume needs a stopped run with a committed checkpoint");
}

TEST(MachineCrashTest, KillAfterCompletionIsNeverReached) {
  InputGraph g = TestGraph();
  ClusterConfig cfg = BaseConfig(4);
  Cluster healthy(cfg, PageRankProgram(4));
  auto fault_free = healthy.Run(g);

  cfg.faults = FaultSchedule::MachineCrash(1, fault_free.metrics.total_time * 2);
  Cluster cluster(cfg, PageRankProgram(4));
  auto result = cluster.Run(g);
  EXPECT_FALSE(result.crashed);
  ASSERT_EQ(result.metrics.faults.size(), 1u);
  EXPECT_LT(result.metrics.faults[0].applied_at, 0);  // not reached
}

TEST(RecoveryTest, SameSizeRecoveryMatchesFaultFreeBfsBitwise) {
  InputGraph g = PrepareInput("bfs", TestGraph(13));
  ClusterConfig cfg = BaseConfig(4);
  Cluster healthy(cfg, BfsProgram(0));
  auto truth = healthy.Run(g);

  cfg.checkpoint_interval = 1;
  cfg.faults = FaultSchedule::MachineCrash(3, MidRunKillTime(truth.metrics));
  const JobResult recovered = RunRecovered("bfs", g, cfg);
  const RecoveryReport& report = recovered.recovery;

  EXPECT_TRUE(report.crash_detected);
  EXPECT_TRUE(report.recovered_from_checkpoint);
  EXPECT_FALSE(recovered.crashed);
  ASSERT_EQ(recovered.values.size(), truth.values.size());
  for (size_t v = 0; v < truth.values.size(); ++v) {
    ASSERT_EQ(recovered.values[v], truth.values[v]) << "vertex " << v;
  }
}

TEST(RecoveryTest, SameSizeRecoveryMatchesFaultFreePagerank) {
  InputGraph g = TestGraph(13);
  const uint32_t kIters = 6;
  ClusterConfig cfg = BaseConfig(4);
  Cluster healthy(cfg, PageRankProgram(kIters));
  auto truth = healthy.Run(g);

  cfg.checkpoint_interval = 1;
  cfg.faults = FaultSchedule::MachineCrash(1, MidRunKillTime(truth.metrics));
  AlgoParams params;
  params.iterations = kIters;
  const JobResult recovered = RunRecovered("pagerank", g, cfg, 0, params);
  const RecoveryReport& report = recovered.recovery;

  EXPECT_TRUE(report.crash_detected);
  EXPECT_TRUE(report.recovered_from_checkpoint);
  ASSERT_EQ(recovered.values.size(), truth.values.size());
  for (size_t v = 0; v < truth.values.size(); ++v) {
    ASSERT_NEAR(recovered.values[v], truth.values[v],
                1e-4 * (1.0 + std::abs(truth.values[v])))
        << "vertex " << v;
  }
}

TEST(RecoveryTest, RescaledRecoveryRunsOnSurvivorsAndMatches) {
  InputGraph g = PrepareInput("bfs", TestGraph(21));
  const int kMachines = 4;
  ClusterConfig cfg = BaseConfig(kMachines);
  Cluster healthy(cfg, BfsProgram(0));
  auto truth = healthy.Run(g);

  cfg.checkpoint_interval = 1;
  cfg.faults = FaultSchedule::MachineCrash(2, MidRunKillTime(truth.metrics));
  const JobResult recovered = RunRecovered("bfs", g, cfg, kMachines - 1);
  const RecoveryReport& report = recovered.recovery;

  EXPECT_TRUE(report.crash_detected);
  EXPECT_TRUE(report.recovered_from_checkpoint);
  EXPECT_EQ(report.machines_after, kMachines - 1);
  EXPECT_EQ(recovered.metrics.machines.size(), static_cast<size_t>(kMachines - 1));
  ASSERT_EQ(recovered.values.size(), truth.values.size());
  for (size_t v = 0; v < truth.values.size(); ++v) {
    ASSERT_EQ(recovered.values[v], truth.values[v]) << "vertex " << v;
  }
}

TEST(RecoveryTest, ReportRecordsTimeToRecoverAndLostWork) {
  InputGraph g = TestGraph(29);
  ClusterConfig cfg = BaseConfig(4);
  Cluster healthy(cfg, PageRankProgram(6));
  auto truth = healthy.Run(g);

  cfg.checkpoint_interval = 2;
  cfg.faults = FaultSchedule::MachineCrash(0, MidRunKillTime(truth.metrics));
  AlgoParams params;
  params.iterations = 6;
  const JobResult recovered = RunRecovered("pagerank", g, cfg, 0, params);
  const RecoveryReport& report = recovered.recovery;

  EXPECT_TRUE(report.crash_detected);
  EXPECT_GT(report.crashed_run_time, 0);
  EXPECT_GT(report.time_to_recover, 0);
  EXPECT_LE(report.time_to_recover, recovered.metrics.total_time);
  // Interval-2 checkpoints: at most 2 supersteps of work can be lost.
  EXPECT_GE(report.lost_work_supersteps, 1u);
  EXPECT_LE(report.lost_work_supersteps, 2u);
  EXPECT_EQ(report.end_to_end_time,
            report.crashed_run_time + recovered.metrics.total_time);
  // Superstep end times back the time-to-recover measurement.
  EXPECT_FALSE(recovered.metrics.superstep_end_times.empty());
}

TEST(RecoveryTest, CrashBeforeFirstCheckpointRestartsFromScratch) {
  InputGraph g = TestGraph(31);
  ClusterConfig cfg = BaseConfig(4);
  Cluster healthy(cfg, PageRankProgram(5));
  auto truth = healthy.Run(g);

  // No checkpointing at all: the only recovery is a full restart.
  cfg.faults = FaultSchedule::MachineCrash(1, MidRunKillTime(truth.metrics));
  const JobResult recovered = RunRecovered("pagerank", g, cfg);
  const RecoveryReport& report = recovered.recovery;

  EXPECT_TRUE(report.crash_detected);
  EXPECT_FALSE(report.recovered_from_checkpoint);
  EXPECT_FALSE(recovered.crashed);
  ASSERT_EQ(recovered.values.size(), truth.values.size());
  for (size_t v = 0; v < truth.values.size(); ++v) {
    // The replacement run re-executes everything from the input on a fresh
    // cluster with the same seed: identical traces, identical floats.
    ASSERT_EQ(recovered.values[v], truth.values[v]) << "vertex " << v;
  }
}

TEST(RecoveryTest, CrashDuringPreprocessingRestartsFromScratch) {
  InputGraph g = PrepareInput("bfs", TestGraph(37));
  ClusterConfig cfg = BaseConfig(4);
  cfg.checkpoint_interval = 1;
  Cluster healthy(cfg, BfsProgram(0));
  auto truth = healthy.Run(g);

  cfg.faults = FaultSchedule::MachineCrash(2, truth.metrics.preprocess_time / 2);
  const JobResult recovered = RunRecovered("bfs", g, cfg);
  const RecoveryReport& report = recovered.recovery;

  EXPECT_TRUE(report.crash_detected);
  EXPECT_FALSE(report.recovered_from_checkpoint);  // nothing had committed
  // No superstep ever ran: the lost work is the partial pre-processing,
  // not a superstep; time-to-recover is the re-run pre-processing.
  EXPECT_EQ(report.lost_work_supersteps, 0u);
  EXPECT_EQ(report.time_to_recover, recovered.metrics.preprocess_time);
  ASSERT_EQ(recovered.values.size(), truth.values.size());
  for (size_t v = 0; v < truth.values.size(); ++v) {
    ASSERT_EQ(recovered.values[v], truth.values[v]) << "vertex " << v;
  }
}

TEST(RecoveryTest, RecoveryIsDeterministic) {
  InputGraph g = PrepareInput("bfs", TestGraph(41));
  ClusterConfig cfg = BaseConfig(4);
  Cluster healthy(cfg, BfsProgram(0));
  auto truth = healthy.Run(g);

  cfg.checkpoint_interval = 1;
  cfg.faults = FaultSchedule::MachineCrash(1, MidRunKillTime(truth.metrics));
  const JobResult a = RunRecovered("bfs", g, cfg);
  const JobResult b = RunRecovered("bfs", g, cfg);
  const RecoveryReport& a_report = a.recovery;
  const RecoveryReport& b_report = b.recovery;

  EXPECT_EQ(a_report.end_to_end_time, b_report.end_to_end_time);
  EXPECT_EQ(a_report.time_to_recover, b_report.time_to_recover);
  EXPECT_EQ(a_report.crash_superstep, b_report.crash_superstep);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (size_t v = 0; v < a.values.size(); ++v) {
    ASSERT_EQ(a.values[v], b.values[v]);
  }
}

// The chain behind RunJob stops once, after the failure: the next slice
// starts at the committed checkpoint on the replacement cluster and
// completes with the fault-free values.
TEST(RecoveryTest, SliceChainRestartsOnceAfterAFailure) {
  InputGraph g = PrepareInput("bfs", TestGraph(13));
  ClusterConfig cfg = BaseConfig(4);
  const JobResult truth = RunJob(MakeJob("bfs", g, cfg));

  cfg.checkpoint_interval = 1;
  cfg.faults = FaultSchedule::MachineCrash(3, MidRunKillTime(truth.metrics));
  JobSpec spec = MakeJob("bfs", g, cfg);
  spec.recover = true;
  auto exec = MakeJobExecution(spec);
  const SliceResult failed = exec->RunSlice(-1);
  EXPECT_FALSE(failed.completed);
  EXPECT_GT(failed.end_superstep, 0u);
  EXPECT_EQ(failed.end_superstep, exec->next_superstep());
  const SliceResult restarted = exec->RunSlice(-1);
  EXPECT_EQ(restarted.start_superstep, failed.end_superstep);
  ASSERT_TRUE(restarted.completed);
  const AlgoResult result = exec->TakeResult();
  EXPECT_TRUE(result.recovery.crash_detected);
  EXPECT_EQ(result.recovery.resume_superstep, failed.end_superstep);
  EXPECT_FALSE(result.crashed);
  EXPECT_EQ(result.values, truth.values);
}

// Same-size recovery must also work under central-directory placement:
// imported edge chunks have to be re-registered with the replacement
// cluster's directory, or every scan would silently see an empty set
// (regression: recovered values diverged with no error raised).
TEST(RecoveryTest, SameSizeRecoveryWorksUnderCentralDirectory) {
  InputGraph g = PrepareInput("bfs", TestGraph(47));
  ClusterConfig cfg = BaseConfig(4);
  cfg.placement = Placement::kCentralDirectory;
  Cluster healthy(cfg, BfsProgram(0));
  auto truth = healthy.Run(g);

  cfg.checkpoint_interval = 1;
  cfg.faults = FaultSchedule::MachineCrash(2, MidRunKillTime(truth.metrics));
  const JobResult recovered = RunRecovered("bfs", g, cfg);
  const RecoveryReport& report = recovered.recovery;

  EXPECT_TRUE(report.crash_detected);
  EXPECT_TRUE(report.recovered_from_checkpoint);
  ASSERT_EQ(recovered.values.size(), truth.values.size());
  for (size_t v = 0; v < truth.values.size(); ++v) {
    ASSERT_EQ(recovered.values[v], truth.values[v]) << "vertex " << v;
  }
}

// The type-erased runner surface used by chaos_run and the benches.
TEST(RecoveryTest, TypeErasedRunnerRecovers) {
  InputGraph g = PrepareInput("sssp", TestGraph(43));
  ClusterConfig cfg = BaseConfig(4);
  auto truth = RunJob(MakeJob("sssp", g, cfg));

  cfg.checkpoint_interval = 1;
  cfg.faults = FaultSchedule::MachineCrash(3, MidRunKillTime(truth.metrics));
  const JobResult recovered = RunRecovered("sssp", g, cfg);

  EXPECT_TRUE(recovered.recovery.crash_detected);
  EXPECT_FALSE(recovered.crashed);
  ASSERT_EQ(recovered.values.size(), truth.values.size());
  for (size_t v = 0; v < truth.values.size(); ++v) {
    ASSERT_EQ(recovered.values[v], truth.values[v]) << "vertex " << v;
  }
}

// MCST streams its result out through the output sink while it runs, and
// its chase phases emit gather-to-gather updates that scatter cannot
// regenerate. Recovery must therefore (a) carry the crashed run's committed
// output stream across the restart and (b) restore the checkpoint's
// update-set snapshot — either omission loses or duplicates forest edges.
TEST(MachineCrashTest, McstRecoveryPreservesEmittedForestAndInFlightUpdates) {
  RmatOptions opt;
  opt.scale = 8;
  opt.weighted = true;
  opt.seed = 31;
  InputGraph g = PrepareInput("mcst", GenerateRmat(opt));
  ClusterConfig cfg = BaseConfig(4);

  auto truth = RunJob(MakeJob("mcst", g, cfg));
  ASSERT_GT(truth.output_records, 0u);

  cfg.checkpoint_interval = 1;
  cfg.faults = FaultSchedule::MachineCrash(1, MidRunKillTime(truth.metrics));
  const JobResult recovered = RunRecovered("mcst", g, cfg);
  ASSERT_TRUE(recovered.recovery.crash_detected);
  ASSERT_TRUE(recovered.recovery.recovered_from_checkpoint);
  EXPECT_EQ(recovered.output_records, truth.output_records);
  EXPECT_NEAR(recovered.scalar, truth.scalar, 1e-2);
}

// Records held in `kind` sets across the cluster's storage.
uint64_t StoredRecords(Cluster& cluster, SetKind kind) {
  uint64_t records = 0;
  for (MachineId m = 0; m < cluster.config().machines; ++m) {
    StorageEngine* storage = cluster.storage(m);
    for (const SetId& id : storage->HostListSets()) {
      if (id.kind == kind) {
        for (const Chunk& c : *storage->HostGetSet(id)) {
          records += c.count;
        }
      }
    }
  }
  return records;
}

// Rescaled (N-1) recovery is the one flow in which ImportRepartitioned
// re-bins a checkpoint's update-set snapshot under the survivors'
// partitioning, and MCST's chase phases are what keep that snapshot
// non-empty. Sweep seeds and kill times so the re-bin carries records, and
// require each recovered run to emit the fault-free forest.
TEST(MachineCrashTest, McstRescaledRecoveryRebinsInFlightUpdates) {
  const int kMachines = 4;
  uint64_t snapshot_records = 0;
  for (const uint64_t seed : {31u, 32u}) {
    RmatOptions opt;
    opt.scale = 8;
    opt.weighted = true;
    opt.seed = seed;
    InputGraph g = PrepareInput("mcst", GenerateRmat(opt));
    ClusterConfig cfg = BaseConfig(kMachines);
    auto truth = RunJob(MakeJob("mcst", g, cfg));
    ASSERT_GT(truth.output_records, 0u);

    const TimeNs compute = truth.metrics.total_time - truth.metrics.preprocess_time;
    for (const double frac : {0.3, 0.6, 0.9}) {
      cfg.checkpoint_interval = 1;
      cfg.faults = FaultSchedule::MachineCrash(
          1, truth.metrics.preprocess_time +
                 static_cast<TimeNs>(frac * static_cast<double>(compute)));
      // The crashed run is deterministic: replay it to measure the
      // snapshot that recovery below will re-bin.
      Cluster crashed(cfg, McstProgram{});
      const auto first = crashed.Run(g);
      ASSERT_TRUE(first.crashed);
      if (first.has_checkpoint) {
        snapshot_records += StoredRecords(crashed, UpdatesCkptFor(first.checkpoint_side));
      }

      const JobResult recovered = RunRecovered("mcst", g, cfg, kMachines - 1);
      ASSERT_TRUE(recovered.recovery.crash_detected) << "seed " << seed << " frac " << frac;
      EXPECT_EQ(recovered.recovery.machines_after, kMachines - 1);
      EXPECT_EQ(recovered.output_records, truth.output_records)
          << "seed " << seed << " frac " << frac;
      EXPECT_NEAR(recovered.scalar, truth.scalar, 1e-2) << "seed " << seed << " frac " << frac;
    }
  }
  EXPECT_GT(snapshot_records, 0u);  // the re-bin path really carried updates
}

}  // namespace
}  // namespace chaos
