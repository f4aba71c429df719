// Edge-case and robustness tests: degenerate graphs, extreme configs, the
// X-Stream baseline engine's internals, and algorithm parameter plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/basic.h"
#include "algorithms/runner.h"
#include "baselines/xstream.h"
#include "graph/generators.h"
#include "graph/ref/reference.h"

namespace chaos {
namespace {

ClusterConfig TinyConfig(int machines) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.memory_budget_bytes = 4 << 10;
  cfg.chunk_bytes = 1 << 10;
  cfg.seed = 5;
  return cfg;
}

// ------------------------------------------------------ degenerate inputs

TEST(EdgeCaseTest, EdgelessGraph) {
  InputGraph g;
  g.num_vertices = 64;
  auto result = RunJob(MakeJob("wcc", g, TinyConfig(2)));
  ASSERT_EQ(result.values.size(), 64u);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_DOUBLE_EQ(result.values[v], static_cast<double>(v));  // all singletons
  }
}

TEST(EdgeCaseTest, SingleVertexSelfLoop) {
  InputGraph g;
  g.num_vertices = 1;
  g.edges.push_back(Edge{0, 0, 1.0f, kEdgeForward});
  auto pr = RunJob(MakeJob("pagerank", g, TinyConfig(1)));
  // Self-loop PR fixed point: rank = 0.15 + 0.85 * rank -> 1.0.
  EXPECT_NEAR(pr.values[0], 1.0, 1e-3);
  auto bfs = RunJob(MakeJob("bfs", MakeUndirected(g), TinyConfig(1)));
  EXPECT_DOUBLE_EQ(bfs.values[0], 0.0);
}

TEST(EdgeCaseTest, AllSelfLoops) {
  InputGraph g;
  g.num_vertices = 16;
  for (VertexId v = 0; v < 16; ++v) {
    g.edges.push_back(Edge{v, v, 1.0f, kEdgeForward});
  }
  auto mis = RunJob(MakeJob("mis", MakeUndirected(g), TinyConfig(2)));
  // Self-loops do not constrain independence: everyone joins.
  for (VertexId v = 0; v < 16; ++v) {
    EXPECT_DOUBLE_EQ(mis.values[v], 1.0);
  }
}

TEST(EdgeCaseTest, StarGraphSkew) {
  // One hub with edges to everyone: the most extreme update skew.
  InputGraph g;
  g.num_vertices = 256;
  for (VertexId v = 1; v < 256; ++v) {
    g.edges.push_back(Edge{0, v, 1.0f, kEdgeForward});
    g.edges.push_back(Edge{v, 0, 1.0f, kEdgeForward});
  }
  auto expect = ref::BfsDepths(g, 0);
  auto result = RunJob(MakeJob("bfs", g, TinyConfig(4)));
  for (VertexId v = 0; v < 256; ++v) {
    EXPECT_DOUBLE_EQ(result.values[v], static_cast<double>(expect[v]));
  }
}

TEST(EdgeCaseTest, MorePartitionsThanSomeMachinesHaveChunks) {
  // A tiny graph on many machines: most storage engines hold nothing for
  // most sets; exhaustion detection must still work.
  InputGraph g = GenerateUniformRandom(64, 100, false, 9);
  auto expect = ref::ComponentLabels(MakeUndirected(g));
  auto result = RunJob(MakeJob("wcc", MakeUndirected(g), TinyConfig(8)));
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_DOUBLE_EQ(result.values[v], static_cast<double>(expect[v]));
  }
}

TEST(EdgeCaseTest, SingleChunkPerEverything) {
  // Chunk big enough to hold the whole graph: one chunk per set.
  InputGraph g = GenerateUniformRandom(100, 300, false, 11);
  ClusterConfig cfg = TinyConfig(2);
  cfg.chunk_bytes = 64 << 20;
  cfg.memory_budget_bytes = 1 << 20;
  auto expect = ref::PageRank(g, 3);
  AlgoParams params;
  params.iterations = 3;
  auto result = RunJob(MakeJob("pagerank", g, cfg, params));
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR(result.values[v], expect[v], 1e-3 * (1.0 + std::abs(expect[v])));
  }
}

// ---------------------------------------------------------- param plumbing

TEST(ParamsTest, BfsSourceIsHonored) {
  InputGraph g = MakeUndirected(GenerateUniformRandom(128, 512, false, 13));
  AlgoParams params;
  params.source = 17;
  auto result = RunJob(MakeJob("bfs", g, TinyConfig(2), params));
  EXPECT_DOUBLE_EQ(result.values[17], 0.0);
  auto expect = ref::BfsDepths(g, 17);
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_DOUBLE_EQ(result.values[v], static_cast<double>(expect[v]));
  }
}

TEST(ParamsTest, PageRankIterationsControlSupersteps) {
  InputGraph g = GenerateUniformRandom(64, 256, false, 15);
  AlgoParams params;
  params.iterations = 7;
  auto result = RunJob(MakeJob("pagerank", g, TinyConfig(1), params));
  EXPECT_EQ(result.supersteps, 7u);
}

TEST(ParamsTest, SsspFindsWeightedShortestPaths) {
  InputGraph g = MakeUndirected(GenerateUniformRandom(100, 400, true, 17));
  AlgoParams params;
  params.source = 3;
  auto result = RunJob(MakeJob("sssp", g, TinyConfig(4), params));
  auto expect = ref::DijkstraDistances(g, 3);
  for (size_t v = 0; v < expect.size(); ++v) {
    if (std::isinf(expect[v])) {
      EXPECT_TRUE(std::isinf(result.values[v]));
    } else {
      EXPECT_NEAR(result.values[v], expect[v], 1e-2);
    }
  }
}

// ------------------------------------------------------- X-Stream baseline

TEST(XStreamEngineTest, PreprocessTimeIsAccounted) {
  InputGraph g = GenerateUniformRandom(256, 2048, false, 19);
  ClusterConfig cfg;
  cfg.memory_budget_bytes = 4 << 10;
  cfg.chunk_bytes = 1 << 10;
  XStreamEngine engine(cfg, PageRankProgram(3));
  auto result = engine.Run(g);
  EXPECT_GT(result.preprocess_time, 0);
  EXPECT_LT(result.preprocess_time, result.total_time);
  EXPECT_EQ(result.supersteps, 3u);
  EXPECT_GT(result.bytes_read, g.input_wire_bytes());  // input + edges re-read
  EXPECT_GT(result.device_utilization, 0.0);
  EXPECT_LE(result.device_utilization, 1.0);
}

TEST(XStreamEngineTest, PrefetchWindowImprovesRuntime) {
  InputGraph g = GenerateUniformRandom(512, 8192, false, 21);
  ClusterConfig narrow;
  narrow.memory_budget_bytes = 8 << 10;
  narrow.chunk_bytes = 1 << 10;
  narrow.fetch_window = 1;
  // Make compute commensurate with I/O so overlap matters.
  narrow.cost.ns_per_edge_scatter = 1500.0;
  narrow.cost.ns_per_update_gather = 1500.0;
  ClusterConfig wide = narrow;
  wide.fetch_window = 8;
  XStreamEngine slow(narrow, PageRankProgram(2));
  XStreamEngine fast(wide, PageRankProgram(2));
  const TimeNs t_narrow = slow.Run(g).total_time;
  const TimeNs t_wide = fast.Run(g).total_time;
  EXPECT_LT(t_wide, t_narrow);
}

TEST(XStreamEngineTest, HddSlowerThanSsdProportionally) {
  InputGraph g = GenerateUniformRandom(256, 4096, false, 23);
  ClusterConfig ssd;
  ssd.memory_budget_bytes = 8 << 10;
  ssd.chunk_bytes = 2 << 10;
  ClusterConfig hdd = ssd;
  hdd.storage = StorageConfig::Hdd();
  XStreamEngine a(ssd, BfsProgram(0));
  XStreamEngine b(hdd, BfsProgram(0));
  const double ratio = static_cast<double>(b.Run(g).total_time) /
                       static_cast<double>(a.Run(g).total_time);
  EXPECT_GT(ratio, 1.3);  // HDD has half the bandwidth plus higher latency
}

// -------------------------------------------------------------- generators

TEST(EdgeCaseTest, WebGraphSingleHost) {
  WebGraphOptions opt;
  opt.num_pages = 256;
  opt.num_hosts = 1;
  opt.intra_host_fraction = 1.0;
  opt.seed = 25;
  InputGraph g = GenerateWebGraph(opt);
  std::string error;
  EXPECT_TRUE(ValidateGraph(g, &error)) << error;
}

TEST(EdgeCaseTest, GridOneRow) {
  GridGraphOptions opt;
  opt.width = 32;
  opt.height = 1;
  InputGraph g = GenerateGridGraph(opt);
  EXPECT_EQ(g.num_edges(), 2u * 31);
  auto depth = ref::BfsDepths(g, 0);
  EXPECT_EQ(depth[31], 31);
}

}  // namespace
}  // namespace chaos
