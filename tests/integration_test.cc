// Integration tests: checkpointing + crash recovery (paper §6.6, Fig. 13)
// and performance-shape invariants that back the evaluation figures
// (batching utilization, stealing benefit, centralized-directory slowdown,
// network bottleneck).
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/basic.h"
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

// ------------------------------------------------------- checkpoint + crash

TEST(CheckpointTest, OverheadIsBounded) {
  InputGraph g = TestGraph();
  ClusterConfig cfg = BaseConfig(4);
  Cluster off(cfg, PageRankProgram(5));
  auto base = off.Run(g);
  cfg.checkpoint_interval = 1;
  Cluster on(cfg, PageRankProgram(5));
  auto with = on.Run(g);
  EXPECT_TRUE(with.has_checkpoint);
  // Same answer.
  for (size_t v = 0; v < base.values.size(); ++v) {
    ASSERT_NEAR(base.values[v], with.values[v], 1e-4);
  }
  // Checkpointing costs something but not much (paper: < 6%; our small
  // scale inflates fixed costs, so allow more headroom).
  EXPECT_GT(with.metrics.total_time, base.metrics.total_time);
  EXPECT_LT(static_cast<double>(with.metrics.total_time),
            static_cast<double>(base.metrics.total_time) * 1.40);
}

TEST(CheckpointTest, CrashStopsEarlyAndLeavesCommittedCheckpoint) {
  InputGraph g = TestGraph();
  ClusterConfig cfg = BaseConfig(4);
  cfg.checkpoint_interval = 1;
  cfg.crash_after_superstep = 2;
  Cluster cluster(cfg, PageRankProgram(6));
  auto result = cluster.Run(g);
  EXPECT_TRUE(result.crashed);
  EXPECT_TRUE(result.metrics.crashed);
  EXPECT_EQ(result.supersteps, 3u);  // supersteps 0..2 ran
  ASSERT_TRUE(result.has_checkpoint);
  EXPECT_EQ(result.checkpoint_superstep, 2u);  // resume point
}

TEST(CheckpointTest, RecoveryMatchesUninterruptedRun) {
  InputGraph g = TestGraph(13);
  const uint32_t kIters = 6;

  // Ground truth: uninterrupted run.
  Cluster truth_cluster(BaseConfig(4), PageRankProgram(kIters));
  auto truth = truth_cluster.Run(g);

  // Run that checkpoints every superstep and crashes after superstep 3.
  ClusterConfig crash_cfg = BaseConfig(4);
  crash_cfg.checkpoint_interval = 1;
  crash_cfg.crash_after_superstep = 3;
  Cluster crashed_cluster(crash_cfg, PageRankProgram(kIters));
  auto crashed = crashed_cluster.Run(g);
  ASSERT_TRUE(crashed.crashed);
  ASSERT_TRUE(crashed.has_checkpoint);
  ASSERT_EQ(crashed.checkpoint_superstep, 3u);

  // Recovery: new cluster (fresh memory) that imports the durable storage
  // of the crashed one and resumes at the committed checkpoint.
  Cluster recovery(BaseConfig(4), PageRankProgram(kIters));
  auto resumed = recovery.Resume(crashed_cluster, crashed, GraphMeta::Of(g));

  EXPECT_FALSE(resumed.crashed);
  ASSERT_EQ(resumed.values.size(), truth.values.size());
  for (size_t v = 0; v < truth.values.size(); ++v) {
    ASSERT_NEAR(resumed.values[v], truth.values[v], 1e-3 * (1.0 + std::abs(truth.values[v])))
        << "vertex " << v;
  }
}

TEST(CheckpointTest, TwoPhaseCommittedSideIsComplete) {
  InputGraph g = TestGraph(17);
  ClusterConfig cfg = BaseConfig(2);
  cfg.checkpoint_interval = 2;
  Cluster cluster(cfg, PageRankProgram(6));
  auto result = cluster.Run(g);
  ASSERT_TRUE(result.has_checkpoint);
  // The committed side must hold a complete copy of every partition's
  // vertex set: the same chunk count as the live vertex sets. (The other
  // side may hold the final superstep's in-flight uncommitted copy — the
  // normal intermediate state of a 2-phase protocol.)
  const SetKind committed = result.checkpoint_side;
  uint64_t committed_chunks = 0;
  uint64_t vertex_chunks = 0;
  for (MachineId m = 0; m < cfg.machines; ++m) {
    for (const SetId& id : cluster.storage(m)->HostListSets()) {
      if (id.kind == committed) {
        committed_chunks += cluster.storage(m)->NumChunks(id);
      }
      if (id.kind == SetKind::kVertices) {
        vertex_chunks += cluster.storage(m)->NumChunks(id);
      }
    }
  }
  EXPECT_GT(committed_chunks, 0u);
  EXPECT_EQ(committed_chunks, vertex_chunks);
}

// -------------------------------------------------- performance invariants

// Batching (Fig. 16): a window of 1 leaves devices idle; the paper's
// phi*k = 10 is significantly faster.
TEST(PerfShapeTest, SmallBatchWindowIsSlower) {
  InputGraph g = PrepareInput("pagerank", TestGraph(23));
  ClusterConfig small = BaseConfig(8);
  small.fetch_window = 1;
  ClusterConfig sweet = BaseConfig(8);
  sweet.fetch_window = 10;
  auto slow = RunJob(MakeJob("pagerank", g, small));
  auto fast = RunJob(MakeJob("pagerank", g, sweet));
  EXPECT_GT(slow.metrics.total_time, fast.metrics.total_time);
}

// Stealing (Fig. 18): on a skewed graph, alpha = 1 beats alpha = 0 and the
// no-stealing run shows the imbalance as barrier time.
TEST(PerfShapeTest, StealingHelpsOnSkewedGraphs) {
  RmatOptions opt;
  opt.scale = 11;
  opt.permute_ids = false;  // heavy low-id partitions
  opt.seed = 3;
  InputGraph g = PrepareInput("pagerank", GenerateRmat(opt));
  // Bandwidth-bound configuration (stealing economics assume transfer time
  // dominates per-request latency, as on the paper's testbed).
  ClusterConfig cfg = BaseConfig(8);
  cfg.memory_budget_bytes = 24 << 10;
  // Many chunks per partition (the steal granularity) and latencies small
  // against the 2 KB transfer time, as in the paper's regime.
  cfg.chunk_bytes = 2 << 10;
  cfg.storage.access_latency = 2 * kNsPerUs;
  cfg.net.one_way_latency = kNsPerUs;
  auto with = RunJob(MakeJob("pagerank", g, cfg));
  cfg.alpha = 0.0;
  auto without = RunJob(MakeJob("pagerank", g, cfg));
  // Steals must actually happen and pay for themselves. At miniature scale
  // the absolute runtime win is within noise (bench_fig18 demonstrates it
  // at figure scale), so assert the robust observables: no regression, and
  // the no-steal run exposes its load imbalance as extra barrier wait.
  uint64_t steals = 0;
  for (const auto& mm : with.metrics.machines) {
    steals += mm.steals_worked;
  }
  EXPECT_GT(steals, 0u);
  EXPECT_LT(static_cast<double>(with.metrics.total_time),
            static_cast<double>(without.metrics.total_time) * 1.15);
  EXPECT_GT(without.metrics.SumBucket(Bucket::kBarrier),
            with.metrics.SumBucket(Bucket::kBarrier));
}

// Centralized directory (Fig. 15): slower than randomized placement at a
// non-trivial machine count.
TEST(PerfShapeTest, CentralizedDirectoryIsSlower) {
  InputGraph g = PrepareInput("pagerank", TestGraph(29));
  ClusterConfig cfg = BaseConfig(8);
  auto chaos_run = RunJob(MakeJob("pagerank", g, cfg));
  cfg.placement = Placement::kCentralDirectory;
  auto central = RunJob(MakeJob("pagerank", g, cfg));
  EXPECT_GT(central.metrics.total_time, chaos_run.metrics.total_time);
}

// Network bottleneck (Fig. 12): a 1GigE network slows the same multi-
// machine run down; storage bandwidth halving slows it proportionally
// (Fig. 11).
TEST(PerfShapeTest, SlowNetworkAndSlowDisksHurt) {
  RmatOptions opt;
  opt.scale = 11;
  opt.seed = 31;
  InputGraph g = PrepareInput("pagerank", GenerateRmat(opt));
  // Chunks large enough that transfer time dominates fixed latencies, so
  // bandwidth differences are visible (the paper's regime).
  auto config = [](StorageConfig storage, NetworkConfig net) {
    ClusterConfig cfg = BaseConfig(8);
    cfg.chunk_bytes = 32 << 10;
    cfg.memory_budget_bytes = 24 << 10;
    cfg.storage = storage;
    cfg.net = net;
    return cfg;
  };
  auto base = RunJob(MakeJob(
      "pagerank", g, config(StorageConfig::Ssd(), NetworkConfig::FortyGigE())));
  auto slow = RunJob(MakeJob(
      "pagerank", g, config(StorageConfig::Ssd(), NetworkConfig::OneGigE())));
  auto disks = RunJob(MakeJob(
      "pagerank", g, config(StorageConfig::Hdd(), NetworkConfig::FortyGigE())));
  EXPECT_GT(slow.metrics.total_time, base.metrics.total_time);
  EXPECT_GT(disks.metrics.total_time, base.metrics.total_time);
}

// Weak-scaling headline (Fig. 7): doubling machines and problem size
// together must not blow the runtime up (the whole point of Chaos).
TEST(PerfShapeTest, WeakScalingStaysBounded) {
  RmatOptions small;
  small.scale = 9;
  small.seed = 5;
  InputGraph g1 = PrepareInput("pagerank", GenerateRmat(small));
  RmatOptions big = small;
  big.scale = 12;  // 8x the edges on 8x the machines
  InputGraph g8 = PrepareInput("pagerank", GenerateRmat(big));

  ClusterConfig cfg1 = BaseConfig(1);
  cfg1.memory_budget_bytes = g1.num_vertices * 12;
  ClusterConfig cfg8 = BaseConfig(8);
  cfg8.memory_budget_bytes = g8.num_vertices * 12 / 8;
  auto one = RunJob(MakeJob("pagerank", g1, cfg1));
  auto eight = RunJob(MakeJob("pagerank", g8, cfg8));
  const double ratio = static_cast<double>(eight.metrics.total_time) /
                       static_cast<double>(one.metrics.total_time);
  EXPECT_LT(ratio, 3.0) << "weak scaling ratio " << ratio;
}

// Update conservation across machine counts and placements: every update
// written is gathered exactly once.
TEST(PerfShapeTest, UpdateConservationEverywhere) {
  InputGraph g = PrepareInput("sssp", MakeUndirected(TestGraph(37)));
  for (const Placement placement :
       {Placement::kRandom, Placement::kLocalMaster, Placement::kCentralDirectory}) {
    ClusterConfig cfg = BaseConfig(4);
    cfg.placement = placement;
    auto result = RunJob(MakeJob("sssp", g, cfg));
    uint64_t emitted = 0;
    uint64_t gathered = 0;
    for (const auto& mm : result.metrics.machines) {
      emitted += mm.updates_emitted;
      gathered += mm.updates_processed;
    }
    EXPECT_EQ(emitted, gathered) << "placement " << static_cast<int>(placement);
  }
}

}  // namespace
}  // namespace chaos
