// Tests for graph types, generators, and the reference algorithm library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>

#include "graph/generators.h"
#include "graph/ref/reference.h"
#include "graph/types.h"

namespace chaos {
namespace {

// ------------------------------------------------------------------ types

TEST(GraphTypesTest, WireFormatSizes) {
  InputGraph small;
  small.num_vertices = 1000;
  EXPECT_TRUE(small.compact());
  EXPECT_EQ(small.edge_wire_bytes(), 8u);
  small.weighted = true;
  EXPECT_EQ(small.edge_wire_bytes(), 12u);
  EXPECT_EQ(small.vertex_id_wire_bytes(), 4u);

  InputGraph big;
  big.num_vertices = 1ull << 33;
  EXPECT_FALSE(big.compact());
  EXPECT_EQ(big.edge_wire_bytes(), 16u);
  big.weighted = true;
  EXPECT_EQ(big.edge_wire_bytes(), 24u);
  EXPECT_EQ(big.vertex_id_wire_bytes(), 8u);
}

TEST(GraphTypesTest, MakeUndirectedAddsReverses) {
  InputGraph g;
  g.num_vertices = 3;
  g.edges.push_back(Edge{0, 1, 2.5f, kEdgeForward});
  InputGraph u = MakeUndirected(g);
  ASSERT_EQ(u.edges.size(), 2u);
  EXPECT_EQ(u.edges[1].src, 1u);
  EXPECT_EQ(u.edges[1].dst, 0u);
  EXPECT_FLOAT_EQ(u.edges[1].weight, 2.5f);
  EXPECT_EQ(u.edges[1].flags, kEdgeForward);
}

TEST(GraphTypesTest, MakeBidirectedFlagsReverses) {
  InputGraph g;
  g.num_vertices = 3;
  g.edges.push_back(Edge{0, 1, 1.0f, kEdgeForward});
  InputGraph b = MakeBidirected(g);
  ASSERT_EQ(b.edges.size(), 2u);
  EXPECT_EQ(b.edges[0].flags, kEdgeForward);
  EXPECT_EQ(b.edges[1].flags, kEdgeReverse);
  // Degrees only count forward records.
  auto deg = OutDegrees(b);
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[1], 0u);
}

TEST(GraphTypesTest, ValidateCatchesOutOfRange) {
  InputGraph g;
  g.num_vertices = 2;
  g.edges.push_back(Edge{0, 5, 1.0f, kEdgeForward});
  std::string error;
  EXPECT_FALSE(ValidateGraph(g, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

// -------------------------------------------------------------- generators

TEST(RmatTest, SizesMatchScale) {
  RmatOptions opt;
  opt.scale = 10;
  opt.seed = 3;
  InputGraph g = GenerateRmat(opt);
  EXPECT_EQ(g.num_vertices, 1024u);
  EXPECT_EQ(g.num_edges(), 1024u * 16u);
  std::string error;
  EXPECT_TRUE(ValidateGraph(g, &error)) << error;
}

TEST(RmatTest, DeterministicBySeed) {
  RmatOptions opt;
  opt.scale = 8;
  opt.seed = 11;
  InputGraph a = GenerateRmat(opt);
  InputGraph b = GenerateRmat(opt);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src);
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
  }
  opt.seed = 12;
  InputGraph c = GenerateRmat(opt);
  size_t diff = 0;
  for (size_t i = 0; i < a.edges.size(); ++i) {
    diff += a.edges[i].src != c.edges[i].src || a.edges[i].dst != c.edges[i].dst;
  }
  EXPECT_GT(diff, a.edges.size() / 2);
}

TEST(RmatTest, DegreeDistributionIsSkewed) {
  RmatOptions opt;
  opt.scale = 12;
  opt.seed = 5;
  InputGraph g = GenerateRmat(opt);
  auto deg = OutDegrees(g);
  const auto max_deg = *std::max_element(deg.begin(), deg.end());
  const double mean = static_cast<double>(g.num_edges()) / static_cast<double>(g.num_vertices);
  // Power-law-ish: the hottest vertex is far above the mean.
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * mean);
}

TEST(RmatTest, UnpermutedSkewConcentratesAtLowIds) {
  RmatOptions opt;
  opt.scale = 10;
  opt.permute_ids = false;
  InputGraph g = GenerateRmat(opt);
  auto deg = OutDegrees(g);
  // With a=0.57 the low-id quadrant dominates: vertex 0 should be heavy.
  uint64_t low = 0, high = 0;
  for (VertexId v = 0; v < g.num_vertices / 2; ++v) {
    low += deg[v];
  }
  for (VertexId v = g.num_vertices / 2; v < g.num_vertices; ++v) {
    high += deg[v];
  }
  EXPECT_GT(low, 2 * high);
}

TEST(RmatTest, WeightsPositiveWhenWeighted) {
  RmatOptions opt;
  opt.scale = 8;
  opt.weighted = true;
  InputGraph g = GenerateRmat(opt);
  for (const Edge& e : g.edges) {
    EXPECT_GT(e.weight, 0.0f);
    EXPECT_LE(e.weight, 100.0f);
  }
}

TEST(WebGraphTest, BasicShape) {
  WebGraphOptions opt;
  opt.num_pages = 4096;
  opt.num_hosts = 64;
  opt.mean_out_degree = 10.0;
  opt.seed = 9;
  InputGraph g = GenerateWebGraph(opt);
  EXPECT_EQ(g.num_vertices, 4096u);
  EXPECT_EQ(g.num_edges(), 40960u);
  std::string error;
  EXPECT_TRUE(ValidateGraph(g, &error)) << error;
  // Power-law in-degree: some page much hotter than the mean.
  std::vector<uint32_t> indeg(g.num_vertices, 0);
  for (const Edge& e : g.edges) {
    indeg[e.dst]++;
  }
  EXPECT_GT(*std::max_element(indeg.begin(), indeg.end()), 100u);
}

TEST(GridGraphTest, StructureAndDiameter) {
  GridGraphOptions opt;
  opt.width = 16;
  opt.height = 16;
  opt.seed = 3;
  InputGraph g = GenerateGridGraph(opt);
  EXPECT_EQ(g.num_vertices, 256u);
  // 2 * (w-1) * h + 2 * w * (h-1) directed edges.
  EXPECT_EQ(g.num_edges(), 2u * 15 * 16 + 2u * 16 * 15);
  auto depth = ref::BfsDepths(g, 0);
  // Manhattan diameter from corner 0 is (w-1)+(h-1) = 30.
  EXPECT_EQ(*std::max_element(depth.begin(), depth.end()), 30);
}

TEST(UniformRandomTest, Sizes) {
  InputGraph g = GenerateUniformRandom(100, 500, true, 7);
  EXPECT_EQ(g.num_vertices, 100u);
  EXPECT_EQ(g.num_edges(), 500u);
  std::string error;
  EXPECT_TRUE(ValidateGraph(g, &error)) << error;
}

// -------------------------------------------------------------- references

InputGraph Path4() {
  // 0 -> 1 -> 2 -> 3 (directed path)
  InputGraph g;
  g.num_vertices = 4;
  for (VertexId v = 0; v + 1 < 4; ++v) {
    g.edges.push_back(Edge{v, v + 1, 1.0f, kEdgeForward});
  }
  return g;
}

TEST(RefBfsTest, PathDepths) {
  auto depth = ref::BfsDepths(Path4(), 0);
  EXPECT_EQ(depth, (std::vector<int64_t>{0, 1, 2, 3}));
  auto from2 = ref::BfsDepths(Path4(), 2);
  EXPECT_EQ(from2[0], ref::kUnreachable);
  EXPECT_EQ(from2[3], 1);
}

TEST(RefComponentsTest, TwoComponents) {
  InputGraph g;
  g.num_vertices = 5;
  g.edges.push_back(Edge{0, 1, 1.0f, kEdgeForward});
  g.edges.push_back(Edge{3, 4, 1.0f, kEdgeForward});
  auto labels = ref::ComponentLabels(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[2], 2u);   // isolated
  EXPECT_EQ(labels[0], 0u);   // min id in component
  EXPECT_EQ(labels[3], 3u);
}

TEST(RefDijkstraTest, WeightedPath) {
  InputGraph g;
  g.num_vertices = 3;
  g.edges.push_back(Edge{0, 1, 5.0f, kEdgeForward});
  g.edges.push_back(Edge{1, 2, 2.0f, kEdgeForward});
  g.edges.push_back(Edge{0, 2, 9.0f, kEdgeForward});
  auto dist = ref::DijkstraDistances(g, 0);
  EXPECT_DOUBLE_EQ(dist[1], 5.0);
  EXPECT_DOUBLE_EQ(dist[2], 7.0);  // via vertex 1
}

TEST(RefPageRankTest, SymmetricPairConverges) {
  // Two vertices pointing at each other: ranks stay 1.0 under the rule
  // rank = 0.15 + 0.85 * (rank/1).
  InputGraph g;
  g.num_vertices = 2;
  g.edges.push_back(Edge{0, 1, 1.0f, kEdgeForward});
  g.edges.push_back(Edge{1, 0, 1.0f, kEdgeForward});
  auto rank = ref::PageRank(g, 10);
  EXPECT_NEAR(rank[0], 1.0, 1e-9);
  EXPECT_NEAR(rank[1], 1.0, 1e-9);
}

TEST(RefPageRankTest, SinkAndSource) {
  InputGraph g;
  g.num_vertices = 2;
  g.edges.push_back(Edge{0, 1, 1.0f, kEdgeForward});
  auto rank = ref::PageRank(g, 1);
  EXPECT_NEAR(rank[0], 0.15, 1e-12);          // no in-edges
  EXPECT_NEAR(rank[1], 0.15 + 0.85, 1e-12);   // receives 1.0/1
}

TEST(RefMsfTest, TriangleChoosesTwoLightest) {
  InputGraph g;
  g.num_vertices = 3;
  g.edges.push_back(Edge{0, 1, 1.0f, kEdgeForward});
  g.edges.push_back(Edge{1, 2, 2.0f, kEdgeForward});
  g.edges.push_back(Edge{0, 2, 3.0f, kEdgeForward});
  auto msf = ref::KruskalMsf(g);
  EXPECT_EQ(msf.num_edges, 2u);
  EXPECT_DOUBLE_EQ(msf.total_weight, 3.0);
}

TEST(RefMsfTest, ForestAcrossComponents) {
  InputGraph g;
  g.num_vertices = 6;
  g.edges.push_back(Edge{0, 1, 1.0f, kEdgeForward});
  g.edges.push_back(Edge{1, 2, 1.5f, kEdgeForward});
  g.edges.push_back(Edge{3, 4, 2.0f, kEdgeForward});
  auto msf = ref::KruskalMsf(g);
  EXPECT_EQ(msf.num_edges, 3u);  // vertex 5 isolated
  EXPECT_DOUBLE_EQ(msf.total_weight, 4.5);
}

TEST(RefSccTest, CycleAndTail) {
  // 0 -> 1 -> 2 -> 0 cycle, 2 -> 3 tail.
  InputGraph g;
  g.num_vertices = 4;
  g.edges.push_back(Edge{0, 1, 1.0f, kEdgeForward});
  g.edges.push_back(Edge{1, 2, 1.0f, kEdgeForward});
  g.edges.push_back(Edge{2, 0, 1.0f, kEdgeForward});
  g.edges.push_back(Edge{2, 3, 1.0f, kEdgeForward});
  auto comp = ref::StronglyConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_NE(comp[2], comp[3]);
}

TEST(RefSccTest, DagIsAllSingletons) {
  auto comp = ref::StronglyConnectedComponents(Path4());
  std::set<uint32_t> ids(comp.begin(), comp.end());
  EXPECT_EQ(ids.size(), 4u);
}

TEST(RefSamePartitionTest, DetectsEquivalenceAndMismatch) {
  std::vector<uint32_t> a{0, 0, 1, 2};
  std::vector<uint32_t> b{5, 5, 9, 7};
  std::vector<uint32_t> c{5, 5, 9, 9};
  EXPECT_TRUE(ref::SamePartition(a, b));
  EXPECT_FALSE(ref::SamePartition(a, c));
  EXPECT_FALSE(ref::SamePartition(a, std::vector<uint32_t>{0, 0, 1}));
}

TEST(RefMisTest, ValidatorCatchesViolations) {
  InputGraph g = MakeUndirected(Path4());
  // {0, 2} independent but not maximal (3 has no neighbor in the set? 2-3
  // edge exists, so 3 is covered; 1 covered by 0 and 2; {0,2} IS maximal).
  std::vector<uint8_t> good{1, 0, 1, 0};
  EXPECT_TRUE(ref::IsMaximalIndependentSet(g, good));
  std::vector<uint8_t> not_independent{1, 1, 0, 0};
  EXPECT_FALSE(ref::IsMaximalIndependentSet(g, not_independent));
  std::vector<uint8_t> not_maximal{1, 0, 0, 0};  // 2 and 3 uncovered
  EXPECT_FALSE(ref::IsMaximalIndependentSet(g, not_maximal));
}

TEST(RefConductanceTest, KnownCut) {
  // Undirected path 0-1-2-3 as directed both ways; S = {0, 1}.
  InputGraph g = MakeUndirected(Path4());
  std::vector<uint8_t> member{1, 1, 0, 0};
  // Directed edges: (0,1),(1,0),(1,2),(2,1),(2,3),(3,2). Cut edges: (1,2)
  // and (2,1) -> 2. vol(S) = deg(0)+deg(1) = 1+2 = 3; vol(S̄) = 3.
  EXPECT_DOUBLE_EQ(ref::Conductance(g, member), 2.0 / 3.0);
}

TEST(RefSpmvTest, MatchesManualProduct) {
  InputGraph g;
  g.num_vertices = 3;
  g.weighted = true;
  g.edges.push_back(Edge{0, 1, 2.0f, kEdgeForward});
  g.edges.push_back(Edge{1, 2, 3.0f, kEdgeForward});
  g.edges.push_back(Edge{0, 2, 4.0f, kEdgeForward});
  std::vector<double> x{1.0, 10.0, 100.0};
  auto y = ref::SpMV(g, x);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 34.0);
}

TEST(RefBpTest, SingleEdgeOneIteration) {
  InputGraph g;
  g.num_vertices = 2;
  g.edges.push_back(Edge{0, 1, 1.0f, kEdgeForward});
  std::vector<double> priors{2.0, -1.0};
  auto belief = ref::BeliefPropagation(g, priors, 1, 0.5);
  EXPECT_DOUBLE_EQ(belief[0], 2.0);
  EXPECT_NEAR(belief[1], -1.0 + 0.5 * std::tanh(1.0), 1e-12);
}

// Property: on random graphs, BFS depth difference across any edge is <= 1
// within the reached set (triangle property of BFS layers).
TEST(RefBfsTest, PropertyLayerConsistency) {
  InputGraph g = MakeUndirected(GenerateUniformRandom(200, 600, false, 21));
  auto depth = ref::BfsDepths(g, 0);
  for (const Edge& e : g.edges) {
    if (depth[e.src] != ref::kUnreachable) {
      ASSERT_NE(depth[e.dst], ref::kUnreachable);
      EXPECT_LE(std::abs(depth[e.src] - depth[e.dst]), 1);
    }
  }
}

// Property: Kruskal weight is invariant under edge order shuffling.
TEST(RefMsfTest, PropertyOrderInvariance) {
  InputGraph g = GenerateUniformRandom(128, 512, true, 33);
  auto base = ref::KruskalMsf(g);
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    rng.Shuffle(g.edges);
    auto shuffled = ref::KruskalMsf(g);
    EXPECT_EQ(shuffled.num_edges, base.num_edges);
    EXPECT_NEAR(shuffled.total_weight, base.total_weight, 1e-9);
  }
}

// Property: SCC of an undirected(ized) graph equals its connected components.
TEST(RefSccTest, PropertyUndirectedSccEqualsWcc) {
  InputGraph g = MakeUndirected(GenerateUniformRandom(150, 200, false, 44));
  auto scc = ref::StronglyConnectedComponents(g);
  auto wcc = ref::ComponentLabels(g);
  std::vector<uint32_t> wcc32(wcc.size());
  for (size_t i = 0; i < wcc.size(); ++i) {
    wcc32[i] = static_cast<uint32_t>(wcc[i]);
  }
  EXPECT_TRUE(ref::SamePartition(scc, wcc32));
}

// Property: Dijkstra distances satisfy the relaxation inequality on every
// edge: dist[dst] <= dist[src] + w.
TEST(RefDijkstraTest, PropertyRelaxed) {
  InputGraph g = GenerateUniformRandom(300, 1500, true, 55);
  auto dist = ref::DijkstraDistances(g, 0);
  for (const Edge& e : g.edges) {
    if (std::isfinite(dist[e.src])) {
      EXPECT_LE(dist[e.dst], dist[e.src] + static_cast<double>(e.weight) + 1e-9);
    }
  }
}

// The RMAT edge sequence is pinned by a hash over every field of every
// edge, computed with the earlier generator that compared one double per
// level against a, a + b and a + b + c. GenerateRmat and StreamRmat must
// both reproduce it, the latter at any batch size. The cases cover scales
// 0 and 1, unpermuted and weighted graphs (weights interleave extra RNG
// draws with the levels), a non-default edges_per_vertex, thresholds that
// are exact integers (a = 0.5, b = 0.25, c = 0.125) and edge counts past
// one 64k-edge piece.
struct RmatPin {
  uint32_t scale;
  uint64_t seed;
  bool weighted;
  bool permute_ids;
  uint32_t edges_per_vertex;
  double a, b, c;
  uint64_t hash;
};

constexpr RmatPin kRmatPins[] = {
    {0, 1, false, true, 16, 0.57, 0.19, 0.19, 0x81ab7fd241f2541d},
    {1, 7, true, true, 16, 0.57, 0.19, 0.19, 0x2bb97dec1104a321},
    {1, 3, false, false, 5, 0.57, 0.19, 0.19, 0xc2d61ebc29782fb7},
    {8, 2, false, true, 16, 0.5, 0.25, 0.125, 0x040fabe384d2e5ad},
    {9, 4, true, false, 3, 0.57, 0.19, 0.19, 0xbb12bced32724b47},
    {10, 99, false, true, 16, 0.57, 0.19, 0.19, 0x80154436de603157},
    {10, 99, true, true, 16, 0.57, 0.19, 0.19, 0x1a43b4a2698d1e24},
    {11, 8, true, true, 7, 0.45, 0.22, 0.22, 0xb17b1c52e429ad75},
    {12, 5, false, false, 17, 0.57, 0.19, 0.19, 0xb05aca2be5c9f23c},
    {14, 1, false, true, 16, 0.57, 0.19, 0.19, 0x107caace2f350340},
};

uint64_t HashEdges(uint64_t h, const std::vector<Edge>& edges) {
  for (const Edge& e : edges) {
    uint32_t weight_bits;
    std::memcpy(&weight_bits, &e.weight, sizeof(weight_bits));
    h = HashCombine(h, e.src);
    h = HashCombine(h, e.dst);
    h = HashCombine(h, weight_bits);
    h = HashCombine(h, e.flags);
  }
  return h;
}

TEST(StreamRmatTest, BothEntryPointsMatchPinnedHashes) {
  for (const RmatPin& pin : kRmatPins) {
    RmatOptions opt;
    opt.scale = pin.scale;
    opt.seed = pin.seed;
    opt.weighted = pin.weighted;
    opt.permute_ids = pin.permute_ids;
    opt.edges_per_vertex = pin.edges_per_vertex;
    opt.a = pin.a;
    opt.b = pin.b;
    opt.c = pin.c;
    SCOPED_TRACE(testing::Message() << "scale=" << pin.scale << " seed=" << pin.seed);
    const InputGraph g = GenerateRmat(opt);
    const uint64_t m = (1ull << pin.scale) * pin.edges_per_vertex;
    EXPECT_EQ(g.num_vertices, 1ull << pin.scale);
    EXPECT_EQ(g.weighted, pin.weighted);
    ASSERT_EQ(g.num_edges(), m);
    EXPECT_EQ(HashEdges(0, g.edges), pin.hash);

    // StreamRmat at one edge per batch, at a batch size that does not
    // divide the edge count, and at one larger than it.
    uint64_t ragged = std::max<uint64_t>(2, m / 5);
    while (m % ragged == 0) {
      ++ragged;
    }
    for (const uint64_t batch : {uint64_t{1}, ragged, m + 1}) {
      uint64_t h = 0;
      uint64_t streamed = 0;
      StreamRmat(opt, batch, [&](const std::vector<Edge>& edges) {
        EXPECT_EQ(edges.size(), std::min(batch, m - streamed)) << "batch=" << batch;
        streamed += edges.size();
        h = HashEdges(h, edges);
        return true;
      });
      EXPECT_EQ(streamed, m) << "batch=" << batch;
      EXPECT_EQ(h, pin.hash) << "batch=" << batch;
    }
  }
}

// The permutation holds 32-bit ids, so a permuted graph stops at scale 31;
// the check fires before anything is allocated, on both entry points.
TEST(RmatDeathTest, PermutedScaleAbove31IsRejected) {
  RmatOptions opt;
  opt.scale = 32;
  EXPECT_DEATH(StreamRmat(opt, 1024, [](const std::vector<Edge>&) { return false; }),
               "permute_ids needs scale <= 31");
  EXPECT_DEATH(GenerateRmat(opt), "permute_ids needs scale <= 31");
}

// The branchless quadrant pick needs nondecreasing thresholds.
TEST(RmatDeathTest, NegativeQuadrantProbabilityIsRejected) {
  RmatOptions opt;
  opt.scale = 4;
  opt.b = -0.1;
  EXPECT_DEATH(GenerateRmat(opt), "a, b and c must be >= 0");
  opt.b = 0.19;
  opt.c = -0.01;
  EXPECT_DEATH(StreamRmat(opt, 8, [](const std::vector<Edge>&) { return true; }),
               "a, b and c must be >= 0");
}

// A sink returning false stops generation after the current batch — the
// prefix delivered matches the materialized sequence (bench_fig_scale uses
// this to sample a root without paying for the full stream).
TEST(StreamRmatTest, SinkCanStopEarly) {
  RmatOptions opt;
  opt.scale = 10;
  opt.seed = 99;
  const InputGraph golden = GenerateRmat(opt);
  constexpr uint64_t kBatch = 1500;
  std::vector<Edge> streamed;
  size_t calls = 0;
  StreamRmat(opt, kBatch, [&](const std::vector<Edge>& edges) {
    ++calls;
    streamed.insert(streamed.end(), edges.begin(), edges.end());
    return false;
  });
  EXPECT_EQ(calls, 1u);
  ASSERT_EQ(streamed.size(), kBatch);
  for (size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed[i].src, golden.edges[i].src);
    ASSERT_EQ(streamed[i].dst, golden.edges[i].dst);
  }
}

}  // namespace
}  // namespace chaos
