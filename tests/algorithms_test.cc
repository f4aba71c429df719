// Validation of the ten GAS benchmark algorithms on the Chaos cluster and
// the X-Stream baseline against in-memory references, including the
// extended-model algorithms (MIS, SCC, MCST) and parameterized sweeps over
// machine counts.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "algorithms/runner.h"
#include "baselines/grid_partitioner.h"
#include "graph/generators.h"
#include "graph/ref/reference.h"

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

InputGraph SmallRmat(uint64_t seed, bool weighted = false, uint32_t scale = 8) {
  RmatOptions opt;
  opt.scale = scale;
  opt.weighted = weighted;
  opt.seed = seed;
  return GenerateRmat(opt);
}

// ---------------------------------------------------------------- MIS

TEST(MisTest, ProducesMaximalIndependentSet) {
  InputGraph g = PrepareInput("mis", SmallRmat(3));
  auto result = RunJob(MakeJob("mis", g, SmallConfig(4)));
  std::vector<uint8_t> in_set(g.num_vertices);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    in_set[v] = result.values[v] > 0.5 ? 1 : 0;
  }
  EXPECT_TRUE(ref::IsMaximalIndependentSet(g, in_set));
}

TEST(MisTest, IndependentOfMachineCount) {
  InputGraph g = PrepareInput("mis", SmallRmat(5));
  auto base = RunJob(MakeJob("mis", g, SmallConfig(1)));
  for (const int machines : {2, 8}) {
    auto result = RunJob(MakeJob("mis", g, SmallConfig(machines)));
    EXPECT_EQ(result.values, base.values) << "machines=" << machines;
  }
}

TEST(MisTest, SparseGraphManyRounds) {
  InputGraph g = PrepareInput("mis", GenerateUniformRandom(500, 400, false, 7));
  auto result = RunJob(MakeJob("mis", g, SmallConfig(2)));
  std::vector<uint8_t> in_set(g.num_vertices);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    in_set[v] = result.values[v] > 0.5 ? 1 : 0;
  }
  EXPECT_TRUE(ref::IsMaximalIndependentSet(g, in_set));
  // Isolated vertices must all join the set.
  std::vector<uint8_t> has_edge(g.num_vertices, 0);
  for (const Edge& e : g.edges) {
    has_edge[e.src] = has_edge[e.dst] = 1;
  }
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    if (!has_edge[v]) {
      EXPECT_EQ(in_set[v], 1) << "isolated vertex " << v;
    }
  }
}

// ---------------------------------------------------------------- SCC

std::vector<uint32_t> ToGroupIds(const std::vector<double>& values) {
  std::vector<uint32_t> out;
  out.reserve(values.size());
  std::map<double, uint32_t> ids;
  for (const double v : values) {
    auto [it, inserted] = ids.emplace(v, static_cast<uint32_t>(ids.size()));
    out.push_back(it->second);
  }
  return out;
}

TEST(SccTest, MatchesTarjanOnRandomDigraph) {
  InputGraph raw = GenerateUniformRandom(300, 900, false, 11);
  InputGraph prepared = PrepareInput("scc", raw);
  auto result = RunJob(MakeJob("scc", prepared, SmallConfig(4)));
  auto expect = ref::StronglyConnectedComponents(raw);
  EXPECT_TRUE(ref::SamePartition(ToGroupIds(result.values), expect));
}

TEST(SccTest, CycleChainAndSingletons) {
  // Two 3-cycles joined by a one-way bridge plus isolated vertices.
  InputGraph raw;
  raw.num_vertices = 9;
  auto add = [&](VertexId a, VertexId b) {
    raw.edges.push_back(Edge{a, b, 1.0f, kEdgeForward});
  };
  add(0, 1);
  add(1, 2);
  add(2, 0);
  add(3, 4);
  add(4, 5);
  add(5, 3);
  add(2, 3);  // bridge
  auto result = RunJob(MakeJob("scc", PrepareInput("scc", raw), SmallConfig(2)));
  auto expect = ref::StronglyConnectedComponents(raw);
  EXPECT_TRUE(ref::SamePartition(ToGroupIds(result.values), expect));
}

TEST(SccTest, IndependentOfMachineCount) {
  InputGraph raw = GenerateUniformRandom(200, 600, false, 13);
  InputGraph prepared = PrepareInput("scc", raw);
  auto base = RunJob(MakeJob("scc", prepared, SmallConfig(1)));
  auto multi = RunJob(MakeJob("scc", prepared, SmallConfig(8)));
  EXPECT_EQ(base.values, multi.values);
}

TEST(SccTest, DenseRmatDigraph) {
  InputGraph raw = SmallRmat(17);
  auto result = RunJob(MakeJob("scc", PrepareInput("scc", raw), SmallConfig(4)));
  auto expect = ref::StronglyConnectedComponents(raw);
  EXPECT_TRUE(ref::SamePartition(ToGroupIds(result.values), expect));
}

// ---------------------------------------------------------------- MCST

TEST(McstTest, MatchesKruskalWeight) {
  InputGraph raw = SmallRmat(19, /*weighted=*/true, /*scale=*/7);
  InputGraph prepared = PrepareInput("mcst", raw);
  auto result = RunJob(MakeJob("mcst", prepared, SmallConfig(4)));
  auto expect = ref::KruskalMsf(prepared);
  EXPECT_EQ(result.output_records, expect.num_edges);
  EXPECT_NEAR(result.scalar, expect.total_weight, 1e-2);
}

TEST(McstTest, ForestOnDisconnectedGraph) {
  InputGraph raw = GenerateUniformRandom(200, 150, true, 23);
  InputGraph prepared = PrepareInput("mcst", raw);
  auto result = RunJob(MakeJob("mcst", prepared, SmallConfig(2)));
  auto expect = ref::KruskalMsf(prepared);
  EXPECT_EQ(result.output_records, expect.num_edges);
  EXPECT_NEAR(result.scalar, expect.total_weight, 1e-2);
  // Final component labels must match weak connectivity.
  auto wcc = ref::ComponentLabels(prepared);
  std::vector<uint32_t> got32 = ToGroupIds(result.values);
  std::vector<uint32_t> want32;
  want32.reserve(wcc.size());
  for (const VertexId label : wcc) {
    want32.push_back(static_cast<uint32_t>(label));
  }
  EXPECT_TRUE(ref::SamePartition(got32, want32));
}

TEST(McstTest, PathGraphPicksAllEdges) {
  InputGraph raw;
  raw.num_vertices = 32;
  raw.weighted = true;
  for (VertexId v = 0; v + 1 < raw.num_vertices; ++v) {
    raw.edges.push_back(Edge{v, v + 1, 1.0f + static_cast<float>(v), kEdgeForward});
  }
  InputGraph prepared = PrepareInput("mcst", raw);
  auto result = RunJob(MakeJob("mcst", prepared, SmallConfig(2)));
  EXPECT_EQ(result.output_records, raw.num_vertices - 1);
}

TEST(McstTest, IndependentOfMachineCountAndSteal) {
  InputGraph raw = SmallRmat(29, true, 7);
  InputGraph prepared = PrepareInput("mcst", raw);
  auto expect = ref::KruskalMsf(prepared);
  for (const int machines : {1, 4}) {
    ClusterConfig cfg = SmallConfig(machines);
    cfg.alpha = machines == 1 ? 0.0 : std::numeric_limits<double>::infinity();
    auto result = RunJob(MakeJob("mcst", prepared, cfg));
    EXPECT_EQ(result.output_records, expect.num_edges) << "machines=" << machines;
    EXPECT_NEAR(result.scalar, expect.total_weight, 1e-2) << "machines=" << machines;
  }
}

// ------------------------------------------------------------- registry

TEST(RunnerTest, AlgorithmTableMatchesPaper) {
  const auto& algorithms = Algorithms();
  ASSERT_EQ(algorithms.size(), 10u);
  EXPECT_EQ(algorithms[0].name, "bfs");
  EXPECT_EQ(algorithms[2].name, "mcst");
  EXPECT_TRUE(algorithms[2].needs_weights);
  EXPECT_TRUE(AlgorithmByName("scc").needs_bidirected);
  EXPECT_FALSE(AlgorithmByName("pagerank").needs_undirected);
}

TEST(RunnerTest, PrepareInputTransforms) {
  InputGraph raw = SmallRmat(31, false, 6);
  EXPECT_EQ(PrepareInput("bfs", raw).num_edges(), raw.num_edges() * 2);
  EXPECT_EQ(PrepareInput("scc", raw).num_edges(), raw.num_edges() * 2);
  EXPECT_EQ(PrepareInput("pagerank", raw).num_edges(), raw.num_edges());
}

TEST(RunnerTest, UnknownAlgorithmAborts) {
  InputGraph raw = SmallRmat(31, false, 6);
  EXPECT_DEATH(RunJob(MakeJob("nope", raw, SmallConfig(1))), "unknown algorithm");
}

// Parameterized sweep: every algorithm runs end-to-end on 1 and 4 machines
// and produces consistent results between the two.
class AllAlgorithmsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllAlgorithmsTest, ClusterConsistentAcrossMachines) {
  const std::string& name = GetParam();
  InputGraph raw = SmallRmat(37, AlgorithmByName(name).needs_weights, 7);
  InputGraph prepared = PrepareInput(name, raw);
  auto one = RunJob(MakeJob(name, prepared, SmallConfig(1)));
  auto four = RunJob(MakeJob(name, prepared, SmallConfig(4)));
  ASSERT_EQ(one.values.size(), four.values.size());
  for (size_t v = 0; v < one.values.size(); ++v) {
    if (std::isinf(one.values[v])) {
      ASSERT_TRUE(std::isinf(four.values[v])) << name << " vertex " << v;
      continue;
    }
    // Float gather order differs across machine counts.
    ASSERT_NEAR(one.values[v], four.values[v], 1e-2 * (1.0 + std::abs(one.values[v])))
        << name << " vertex " << v;
  }
  EXPECT_GT(four.metrics.total_time, 0);
}

// X-Stream and Chaos share the per-record kernels and the chunking, so the
// programs whose fixed point no float summation order reaches land on the
// same bits in both; the others agree within float reassociation.
TEST_P(AllAlgorithmsTest, XStreamMatchesCluster) {
  const std::string& name = GetParam();
  InputGraph raw = SmallRmat(41, AlgorithmByName(name).needs_weights, 7);
  InputGraph prepared = PrepareInput(name, raw);
  const ClusterConfig config = SmallConfig(1);
  auto xs = RunXStreamAlgorithm(name, prepared, config);
  auto chaos_run = RunJob(MakeJob(name, prepared, config));
  const bool order_free = name == "bfs" || name == "wcc" || name == "sssp" || name == "mis" ||
                          name == "scc";
  ASSERT_EQ(xs.values.size(), chaos_run.values.size());
  for (size_t v = 0; v < xs.values.size(); ++v) {
    if (order_free) {
      ASSERT_EQ(std::bit_cast<uint64_t>(xs.values[v]), std::bit_cast<uint64_t>(chaos_run.values[v]))
          << name << " vertex " << v;
      continue;
    }
    if (std::isinf(xs.values[v])) {
      ASSERT_TRUE(std::isinf(chaos_run.values[v])) << name << " vertex " << v;
      continue;
    }
    ASSERT_NEAR(xs.values[v], chaos_run.values[v], 1e-2 * (1.0 + std::abs(xs.values[v])))
        << name << " vertex " << v;
  }
  if (order_free) {
    EXPECT_EQ(std::bit_cast<uint64_t>(xs.scalar), std::bit_cast<uint64_t>(chaos_run.scalar))
        << name;
  } else {
    EXPECT_NEAR(xs.scalar, chaos_run.scalar, 1e-2 * (1.0 + std::abs(xs.scalar))) << name;
  }
  EXPECT_EQ(xs.output_records, chaos_run.output_records);
  EXPECT_GT(xs.total_time, 0);
}

INSTANTIATE_TEST_SUITE_P(AllTen, AllAlgorithmsTest,
                         ::testing::Values("bfs", "wcc", "mcst", "mis", "sssp", "pagerank",
                                           "scc", "conductance", "spmv", "bp"),
                         [](const auto& info) { return info.param; });

// ------------------------------------------------------------ baselines

TEST(GridPartitionerTest, AssignsEveryEdgeWithinConstraints) {
  InputGraph g = SmallRmat(43, false, 8);
  auto result = GridPartition(g, 16, 7);
  uint64_t total = 0;
  for (const uint64_t count : result.edges_per_machine) {
    total += count;
  }
  EXPECT_EQ(total, g.num_edges());
  EXPECT_EQ(result.machines, 16);
  EXPECT_EQ(result.rows * result.cols, 16);
}

TEST(GridPartitionerTest, ReplicationBoundedByGridDimensions) {
  InputGraph g = SmallRmat(47, false, 8);
  auto result = GridPartition(g, 16, 7);
  // Grid vertex-cuts replicate each vertex at most 2*sqrt(M)-1 times.
  EXPECT_GT(result.replication_factor, 1.0);
  EXPECT_LE(result.replication_factor, 2.0 * 4 - 1);
}

TEST(GridPartitionerTest, LoadBalanceReasonable) {
  InputGraph g = SmallRmat(49, false, 10);
  auto result = GridPartition(g, 8, 7);
  EXPECT_LT(result.imbalance, 1.5);
  EXPECT_GE(result.imbalance, 1.0);
}

TEST(GridPartitionerTest, SimTimeScalesWithEdges) {
  const TimeNs small = GridPartitionSimTime(1 << 20, 8, 8, 400e6, 60.0, 16);
  const TimeNs large = GridPartitionSimTime(1 << 22, 8, 8, 400e6, 60.0, 16);
  EXPECT_NEAR(static_cast<double>(large) / static_cast<double>(small), 4.0, 0.01);
  EXPECT_GT(small, 0);
}

}  // namespace
}  // namespace chaos
