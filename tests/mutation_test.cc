// Evolving graphs (PR 8): the mutation differential battery.
//
//  * MutationLog: seeded determinism, GraphAfter == manual batch replay,
//    preset/fraction behavior; Apply against a naive first-occurrence
//    reference (multigraph duplicates, churn tails, exact record keys).
//  * Carried-state epoch planning: every planned MutationDelta equals a
//    stateless re-plan from GraphAfter, fresh and after a rewind.
//  * Apply-then-rebin equivalence: an evolving run (mutations applied at
//    convergence barriers, incremental re-convergence) must produce the
//    same final values as building the fully mutated graph from scratch —
//    bitwise for BFS/WCC, 1e-3 for SSSP.
//  * Hand-checked incremental seeder math on micro graphs.
//  * Compositions, asserted not assumed: crash during the mutation stage
//    (same-size and rescaled recovery replays uncommitted epochs),
//    scheduler preemption slices, all three steal modes, tight memory.
//  * Regression: ImportRepartitioned rejects edge batches referencing
//    vertices beyond the vertex-count bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "algorithms/evolving.h"
#include "algorithms/incremental.h"
#include "algorithms/runner.h"
#include "core/partition.h"
#include "graph/generators.h"
#include "graph/mutation_log.h"
#include "graph/ref/reference.h"
#include "util/rng.h"

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

InputGraph SmallRmat(uint64_t seed, bool weighted = false, uint32_t scale = 7) {
  RmatOptions opt;
  opt.scale = scale;
  opt.edges_per_vertex = 8;
  opt.weighted = weighted;
  opt.seed = seed;
  return GenerateRmat(opt);
}

MutationLogOptions Schedule(uint32_t batches, double rate,
                            MutatePreset preset = MutatePreset::kUniform, uint64_t seed = 7) {
  MutationLogOptions opt;
  opt.num_batches = batches;
  opt.rate = rate;
  opt.preset = preset;
  opt.seed = seed;
  return opt;
}

JobSpec EvolvingJob(const std::string& algo, const InputGraph& raw, ClusterConfig cfg,
                    const MutationLogOptions& log, bool incremental = true) {
  JobSpec spec = MakeJob(algo, raw, std::move(cfg));
  spec.mutations.log = log;
  spec.mutations.incremental = incremental;
  return spec;
}

// The from-scratch truth: run the STATIC engine on the fully mutated graph.
JobResult FromScratch(const std::string& algo, const InputGraph& raw,
                      const MutationLogOptions& opt, ClusterConfig cfg) {
  MutationLog log(raw, opt);
  InputGraph prepared = PrepareInput(algo, log.GraphAfter(log.num_batches()));
  return RunJob(MakeJob(algo, prepared, std::move(cfg)));
}

void ExpectNearValues(const std::vector<double>& got, const std::vector<double>& want,
                      double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isinf(got[i]) || std::isinf(want[i])) {
      EXPECT_EQ(std::isinf(got[i]), std::isinf(want[i])) << "vertex " << i;
      continue;
    }
    EXPECT_NEAR(got[i], want[i], tol) << "vertex " << i;
  }
}

bool SameEdge(const Edge& a, const Edge& b) {
  return a.src == b.src && a.dst == b.dst && a.weight == b.weight && a.flags == b.flags;
}

bool SameBatch(const MutationBatch& a, const MutationBatch& b) {
  if (a.inserts.size() != b.inserts.size() || a.deletes.size() != b.deletes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.inserts.size(); ++i) {
    if (!SameEdge(a.inserts[i], b.inserts[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < a.deletes.size(); ++i) {
    if (!SameEdge(a.deletes[i], b.deletes[i])) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------- mutation log

TEST(MutationLogTest, DeterministicAndSeedSensitive) {
  InputGraph g = SmallRmat(3);
  const MutationLogOptions opt = Schedule(4, 0.02, MutatePreset::kHotspot, 11);
  MutationLog a(g, opt);
  MutationLog b(g, opt);
  ASSERT_EQ(a.num_batches(), 4u);
  for (uint64_t k = 0; k < a.num_batches(); ++k) {
    EXPECT_TRUE(SameBatch(a.batch(k), b.batch(k))) << "batch " << k;
  }
  MutationLogOptions other = opt;
  other.seed = 12;
  MutationLog c(g, other);
  bool any_diff = false;
  for (uint64_t k = 0; k < a.num_batches(); ++k) {
    any_diff = any_diff || !SameBatch(a.batch(k), c.batch(k));
  }
  EXPECT_TRUE(any_diff);
}

TEST(MutationLogTest, GraphAfterMatchesManualReplay) {
  InputGraph g = SmallRmat(5, /*weighted=*/true);
  MutationLog log(g, Schedule(3, 0.05, MutatePreset::kChurn, 9));
  InputGraph manual = g;
  for (uint64_t k = 0; k < log.num_batches(); ++k) {
    MutationLog::Apply(&manual, log.batch(k));
    const InputGraph after = log.GraphAfter(k + 1);
    ASSERT_EQ(after.edges.size(), manual.edges.size()) << "epoch " << k;
    for (size_t i = 0; i < manual.edges.size(); ++i) {
      ASSERT_TRUE(SameEdge(after.edges[i], manual.edges[i])) << "epoch " << k << " edge " << i;
    }
  }
  // GraphAfter(0) is the base.
  EXPECT_EQ(log.GraphAfter(0).edges.size(), g.edges.size());
}

TEST(MutationLogTest, RateAndDeleteFractionShapeBatches) {
  InputGraph g = SmallRmat(4);
  const auto total = static_cast<uint64_t>(0.01 * static_cast<double>(g.edges.size()) + 0.5);
  MutationLog log(g, Schedule(2, 0.01));
  for (uint64_t k = 0; k < 2; ++k) {
    const auto& b = log.batch(k);
    EXPECT_NEAR(static_cast<double>(b.inserts.size() + b.deletes.size()),
                static_cast<double>(total), 2.0);
  }
  MutationLogOptions all_del = Schedule(1, 0.02);
  all_del.delete_fraction = 1.0;
  MutationLog d(g, all_del);
  EXPECT_EQ(d.batch(0).inserts.size(), 0u);
  EXPECT_GT(d.batch(0).deletes.size(), 0u);
  EXPECT_LT(d.GraphAfter(1).edges.size(), g.edges.size());
  MutationLogOptions all_ins = Schedule(1, 0.02);
  all_ins.delete_fraction = 0.0;
  MutationLog i(g, all_ins);
  EXPECT_EQ(i.batch(0).deletes.size(), 0u);
  EXPECT_GT(i.GraphAfter(1).edges.size(), g.edges.size());
}

TEST(MutationLogTest, PresetsProduceDistinctLogs) {
  InputGraph g = SmallRmat(6);
  MutationLog uni(g, Schedule(2, 0.02, MutatePreset::kUniform));
  MutationLog hot(g, Schedule(2, 0.02, MutatePreset::kHotspot));
  MutationLog churn(g, Schedule(2, 0.02, MutatePreset::kChurn));
  EXPECT_FALSE(SameBatch(uni.batch(0), hot.batch(0)));
  // Churn's batch 1 deletes are drawn from batch 0's inserts.
  bool recycles = false;
  for (const Edge& d : churn.batch(1).deletes) {
    for (const Edge& ins : churn.batch(0).inserts) {
      recycles = recycles || SameEdge(d, ins);
    }
  }
  EXPECT_TRUE(recycles);
}

// ----------------------------------------------------------------- apply

// Bitwise record identity: weight by bit pattern, all 32 flag bits.
bool SameRecord(const Edge& a, const Edge& b) {
  return a.src == b.src && a.dst == b.dst &&
         std::bit_cast<uint32_t>(a.weight) == std::bit_cast<uint32_t>(b.weight) &&
         a.flags == b.flags;
}

// The obvious definition of Apply: each delete removes the first remaining
// occurrence of its record, then the inserts are appended.
void NaiveApply(InputGraph* g, const MutationBatch& b) {
  for (const Edge& d : b.deletes) {
    auto it = std::find_if(g->edges.begin(), g->edges.end(),
                           [&](const Edge& e) { return SameRecord(e, d); });
    ASSERT_NE(it, g->edges.end()) << "delete names no present edge";
    g->edges.erase(it);
  }
  g->edges.insert(g->edges.end(), b.inserts.begin(), b.inserts.end());
}

void ExpectSameEdges(const InputGraph& got, const InputGraph& want, const std::string& what) {
  ASSERT_EQ(got.edges.size(), want.edges.size()) << what;
  for (size_t i = 0; i < got.edges.size(); ++i) {
    ASSERT_TRUE(SameRecord(got.edges[i], want.edges[i])) << what << " edge " << i;
  }
}

TEST(ApplyTest, FlagsAboveBitSevenAreDistinctRecords) {
  InputGraph g;
  g.num_vertices = 4;
  g.edges = {Edge{1, 2, 1.0f, 0}, Edge{1, 2, 1.0f, 256}, Edge{1, 2, 1.0f, 0}};
  MutationBatch b;
  b.deletes = {Edge{1, 2, 1.0f, 256}};
  MutationLog::Apply(&g, b);
  ASSERT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.edges[0].flags, 0u);
  EXPECT_EQ(g.edges[1].flags, 0u);

  // And the other way round: deleting a flags-0 record keeps the flags-256 one.
  g.edges = {Edge{1, 2, 1.0f, 256}, Edge{1, 2, 1.0f, 0}};
  b.deletes = {Edge{1, 2, 1.0f, 0}};
  MutationLog::Apply(&g, b);
  ASSERT_EQ(g.edges.size(), 1u);
  EXPECT_EQ(g.edges[0].flags, 256u);
}

// Seeded random batches against NaiveApply on a dense multigraph: a handful
// of vertices, weights (NaN and -0.0 included, matched by bit pattern) and
// flags, so most records occur several times and survivor order among
// duplicates is exercised.
TEST(ApplyTest, RandomBatchesMatchNaiveReference) {
  const std::vector<float> weights = {1.0f, 2.0f, 0.0f, -0.0f,
                                      std::numeric_limits<float>::quiet_NaN()};
  const std::vector<uint32_t> flags = {0, 1, 256, 1u << 31};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(Mix64(seed, 0xa991));
    auto random_edge = [&](uint64_t n) {
      return Edge{rng.Below(n), rng.Below(n), weights[rng.Below(weights.size())],
                  flags[rng.Below(flags.size())]};
    };
    InputGraph g;
    g.num_vertices = 2 + rng.Below(6);
    const uint64_t m = rng.Below(400);
    for (uint64_t i = 0; i < m; ++i) {
      g.edges.push_back(random_edge(g.num_vertices));
    }
    InputGraph want = g;
    std::vector<Edge> last_inserts;
    for (int round = 0; round < 12; ++round) {
      MutationBatch b;
      const uint64_t size = g.edges.size();
      const uint64_t kind = rng.Below(5);
      std::vector<uint64_t> idx(size);
      std::iota(idx.begin(), idx.end(), 0);
      rng.Shuffle(idx);
      if (kind == 0) {
        // All-delete batch, in shuffled order.
        for (uint64_t i : idx) {
          b.deletes.push_back(g.edges[i]);
        }
      } else if (kind == 1 && !last_inserts.empty()) {
        // Churn: retire the previous batch's inserts (the appended tail).
        b.deletes = last_inserts;
      } else if (kind != 2) {
        // Random distinct positions; kind 2 is a no-delete batch.
        const uint64_t num_del = size == 0 ? 0 : rng.Below(size / 4 + 2);
        for (uint64_t i = 0; i < num_del && i < size; ++i) {
          b.deletes.push_back(g.edges[idx[i]]);
        }
      }
      const uint64_t num_ins = rng.Below(40);
      for (uint64_t i = 0; i < num_ins; ++i) {
        b.inserts.push_back(random_edge(g.num_vertices));
      }
      MutationLog::Apply(&g, b);
      NaiveApply(&want, b);
      ExpectSameEdges(g, want,
                      "seed " + std::to_string(seed) + " round " + std::to_string(round));
      last_inserts = b.inserts;
    }
  }
}

TEST(ApplyDeathTest, DeleteOfAbsentRecordDies) {
  InputGraph g;
  g.num_vertices = 4;
  g.edges = {Edge{0, 1, 1.0f, 0}, Edge{1, 2, 1.0f, 0}};
  MutationBatch b;
  b.deletes = {Edge{1, 2, 1.0f, 0}, Edge{2, 3, 1.0f, 0}};
  EXPECT_DEATH(MutationLog::Apply(&g, b), "remaining == 0");
  // A record deleted more often than it occurs is absent the second time.
  b.deletes = {Edge{0, 1, 1.0f, 0}, Edge{0, 1, 1.0f, 0}};
  EXPECT_DEATH(MutationLog::Apply(&g, b), "remaining == 0");
}

// A rate past 1 would size a batch from a double that can lie outside the
// uint64 range (undefined behaviour), so the constructor refuses it; 1 is
// the largest rate it takes.
TEST(MutationLogDeathTest, OutOfRangeRateDies) {
  const InputGraph g = SmallRmat(3);
  for (const double rate : {std::numeric_limits<double>::infinity(), 1e300}) {
    EXPECT_DEATH({ const MutationLog log(g, Schedule(1, rate)); }, "opt.rate <= 1.0") << rate;
  }
  const MutationLog whole(g, Schedule(1, 1.0));
  EXPECT_EQ(whole.batch(0).deletes.size() + whole.batch(0).inserts.size(), g.edges.size());
}

// ------------------------------------------- evolving == from scratch

TEST(EvolvingTest, BfsMatchesFromScratchBitwise) {
  InputGraph raw = SmallRmat(21);
  const MutationLogOptions opt = Schedule(3, 0.03, MutatePreset::kUniform, 17);
  JobResult evolved = RunJob(EvolvingJob("bfs", raw, SmallConfig(3), opt));
  JobResult scratch = FromScratch("bfs", raw, opt, SmallConfig(3));
  EXPECT_EQ(evolved.values, scratch.values);
  ASSERT_EQ(evolved.metrics.mutation_epochs.size(), 3u);
  for (const MutationEpochRecord& rec : evolved.metrics.mutation_epochs) {
    EXPECT_GT(rec.edges_inserted + rec.edges_deleted, 0u);
    EXPECT_GT(rec.end_time, rec.start_time);  // the apply stage costs sim time
  }
  EXPECT_EQ(scratch.metrics.mutation_epochs.size(), 0u);
}

TEST(EvolvingTest, SsspMatchesFromScratch) {
  InputGraph raw = SmallRmat(22, /*weighted=*/true);
  const MutationLogOptions opt = Schedule(3, 0.03, MutatePreset::kHotspot, 19);
  JobResult evolved = RunJob(EvolvingJob("sssp", raw, SmallConfig(3), opt));
  JobResult scratch = FromScratch("sssp", raw, opt, SmallConfig(3));
  ExpectNearValues(evolved.values, scratch.values, 1e-3);
}

TEST(EvolvingTest, WccMatchesFromScratchBitwise) {
  InputGraph raw = SmallRmat(23);
  const MutationLogOptions opt = Schedule(3, 0.03, MutatePreset::kChurn, 23);
  JobResult evolved = RunJob(EvolvingJob("wcc", raw, SmallConfig(3), opt));
  JobResult scratch = FromScratch("wcc", raw, opt, SmallConfig(3));
  EXPECT_EQ(evolved.values, scratch.values);
}

TEST(EvolvingTest, FullRecomputeBaselineMatchesIncremental) {
  InputGraph raw = SmallRmat(24);
  const MutationLogOptions opt = Schedule(2, 0.05, MutatePreset::kUniform, 29);
  JobResult inc = RunJob(EvolvingJob("wcc", raw, SmallConfig(2), opt, /*incremental=*/true));
  JobResult full = RunJob(EvolvingJob("wcc", raw, SmallConfig(2), opt, /*incremental=*/false));
  EXPECT_EQ(inc.values, full.values);
  // The baseline restarts every vertex each epoch; incremental resets fewer
  // and therefore needs no more supersteps.
  ASSERT_EQ(full.metrics.mutation_epochs.size(), 2u);
  ASSERT_EQ(inc.metrics.mutation_epochs.size(), 2u);
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(full.metrics.mutation_epochs[k].resets, raw.num_vertices);
    EXPECT_LE(inc.metrics.mutation_epochs[k].resets,
              full.metrics.mutation_epochs[k].resets);
  }
  EXPECT_LE(inc.supersteps, full.supersteps);
}

TEST(EvolvingTest, MachineCountInvariant) {
  InputGraph raw = SmallRmat(25);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kUniform, 31);
  JobResult base = RunJob(EvolvingJob("wcc", raw, SmallConfig(1), opt));
  for (const int machines : {2, 4}) {
    JobResult r = RunJob(EvolvingJob("wcc", raw, SmallConfig(machines), opt));
    EXPECT_EQ(r.values, base.values) << "machines=" << machines;
  }
}

// The warm-startable BFS substitute is exact on a static graph too.
TEST(EvolvingTest, IncBfsMatchesStaticBfsOnStaticGraph) {
  InputGraph prepared = PrepareInput("bfs", SmallRmat(26));
  JobResult bfs = RunJob(MakeJob("bfs", prepared, SmallConfig(2)));
  Cluster cluster(SmallConfig(2), IncBfsProgram(0));
  auto inc = cluster.Run(prepared);
  EXPECT_EQ(inc.values, bfs.values);
}

// ------------------------------------------------- hand-checked seeders

// Raw path 0-1-...-(n-1); the adjacency indexes both arcs of each edge.
InputGraph RawPath(uint64_t n) {
  InputGraph g;
  g.num_vertices = n;
  for (uint64_t v = 0; v + 1 < n; ++v) {
    g.edges.push_back(Edge{v, v + 1, 1.0f, kEdgeForward});
  }
  return g;
}

MutationBatch Deletes(std::vector<Edge> deletes) { return MutationBatch{{}, std::move(deletes)}; }
MutationBatch Inserts(std::vector<Edge> inserts) { return MutationBatch{std::move(inserts), {}}; }

// Runs SeedPathLengths on the index of `old_raw`, patched with `batch` the
// way the planner patches it: every delete before any insert.
template <typename P>
SeedStats SeedPaths(const InputGraph& old_raw, const MutationBatch& batch,
                    std::vector<typename P::VertexState>* st) {
  HostAdjacency adj(old_raw);
  return SeedPathLengths<P>(adj, batch, 0, st, [&] {
    for (const Edge& e : batch.deletes) {
      adj.Delete(e);
    }
    for (const Edge& e : batch.inserts) {
      adj.Insert(e);
    }
  });
}

TEST(SeederTest, BfsDeleteCutsTailUnreachable) {
  // Delete {1,2}: the tail {2,3} loses its only path and resets; no intact
  // vertex borders the reset region afterwards, so the frontier is empty.
  std::vector<IncBfsProgram::VertexState> st = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  SeedStats s = SeedPaths<IncBfsProgram>(RawPath(4), Deletes({Edge{1, 2, 1.0f, kEdgeForward}}),
                                         &st);
  EXPECT_EQ(s.resets, 2u);
  EXPECT_EQ(s.frontier, 0u);
  EXPECT_EQ(st[0].depth, 0);
  EXPECT_EQ(st[1].depth, 1);
  EXPECT_EQ(st[2].depth, IncBfsProgram::kUnreached);
  EXPECT_EQ(st[3].depth, IncBfsProgram::kUnreached);
  EXPECT_EQ(st[1].changed, 0);  // its arc into 2 was the deleted one
}

TEST(SeederTest, BfsAlternatePathKeepsBoundaryFrontier) {
  // Square: 0-1, 1-2, 0-3, 3-2. Depths 0,1,2 with 3 at depth 1. Deleting
  // {1,2} suspects only 2 (its other tight parent 3 is intact) and the
  // boundary vertex 3 re-announces.
  InputGraph old_raw;
  old_raw.num_vertices = 4;
  old_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{1, 2, 1.0f, kEdgeForward},
                   Edge{0, 3, 1.0f, kEdgeForward}, Edge{3, 2, 1.0f, kEdgeForward}};
  std::vector<IncBfsProgram::VertexState> st = {{0, 0}, {1, 0}, {2, 0}, {1, 0}};
  SeedStats s =
      SeedPaths<IncBfsProgram>(old_raw, Deletes({Edge{1, 2, 1.0f, kEdgeForward}}), &st);
  EXPECT_EQ(s.resets, 1u);
  EXPECT_EQ(st[2].depth, IncBfsProgram::kUnreached);
  EXPECT_EQ(st[3].changed, 1);  // still borders 2 in the new graph
  EXPECT_EQ(st[0].changed, 0);
  EXPECT_EQ(st[1].changed, 0);  // its arc into 2 is gone
  EXPECT_EQ(s.frontier, 1u);
}

TEST(SeederTest, BfsInsertMarksEndpointFrontier) {
  std::vector<IncBfsProgram::VertexState> st = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  SeedStats s =
      SeedPaths<IncBfsProgram>(RawPath(5), Inserts({Edge{0, 4, 1.0f, kEdgeForward}}), &st);
  EXPECT_EQ(s.resets, 0u);
  // Both endpoints of the inserted edge re-announce; depths are untouched.
  EXPECT_EQ(st[0].changed, 1);
  EXPECT_EQ(st[4].changed, 1);
  EXPECT_EQ(st[2].changed, 0);
  EXPECT_EQ(st[4].depth, 4);
}

TEST(SeederTest, SsspTightArcPropagation) {
  // Path 0 -2.0- 1 -3.0- 2: dists 0, 2, 5. Deleting {0,1} invalidates 1 and
  // transitively 2 (its dist came through the tight arc 1->2).
  InputGraph old_raw;
  old_raw.num_vertices = 3;
  old_raw.weighted = true;
  old_raw.edges = {Edge{0, 1, 2.0f, kEdgeForward}, Edge{1, 2, 3.0f, kEdgeForward}};
  std::vector<SsspProgram::VertexState> st = {{0.0f, 0}, {2.0f, 0}, {5.0f, 0}};
  SeedStats s = SeedPaths<SsspProgram>(old_raw, Deletes({old_raw.edges[0]}), &st);
  EXPECT_EQ(s.resets, 2u);
  EXPECT_EQ(st[1].dist, SsspProgram::kInf);
  EXPECT_EQ(st[2].dist, SsspProgram::kInf);
  EXPECT_EQ(st[0].dist, 0.0f);
}

TEST(SeederTest, SsspNonTightDeleteKeepsState) {
  // Triangle 0-1 (1.0), 1-2 (1.0), 0-2 (5.0): dists 0, 1, 2. The 0-2 arc is
  // slack (5 > 2), so deleting it invalidates nothing.
  InputGraph old_raw;
  old_raw.num_vertices = 3;
  old_raw.weighted = true;
  old_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{1, 2, 1.0f, kEdgeForward},
                   Edge{0, 2, 5.0f, kEdgeForward}};
  std::vector<SsspProgram::VertexState> st = {{0.0f, 0}, {1.0f, 0}, {2.0f, 0}};
  SeedStats s = SeedPaths<SsspProgram>(old_raw, Deletes({old_raw.edges[2]}), &st);
  EXPECT_EQ(s.resets, 0u);
  EXPECT_EQ(s.frontier, 0u);
  EXPECT_EQ(st[2].dist, 2.0f);
}

TEST(SeederTest, SsspTightnessUsesTheEngineFloatSum) {
  // Path 0 -0.1- 1 -0.2- 2. The engine's scatter sums in float, so vertex
  // 2 converged at 0.1f + 0.2f, which rounds to 0.3f. The same sum taken
  // in double (0.30000000447) differs from that value (0.30000001192), so
  // only the exact float expression sees the arc 1 -> 2 as tight. Deleting
  // {0,1} must then reset 2 along with 1.
  InputGraph old_raw;
  old_raw.num_vertices = 3;
  old_raw.weighted = true;
  old_raw.edges = {Edge{0, 1, 0.1f, kEdgeForward}, Edge{1, 2, 0.2f, kEdgeForward}};
  const float d1 = 0.0f + 0.1f;
  const float d2 = d1 + 0.2f;
  ASSERT_NE(static_cast<double>(d2), static_cast<double>(d1) + static_cast<double>(0.2f));
  std::vector<SsspProgram::VertexState> st = {{0.0f, 0}, {d1, 0}, {d2, 0}};
  SeedStats s = SeedPaths<SsspProgram>(old_raw, Deletes({old_raw.edges[0]}), &st);
  EXPECT_EQ(s.resets, 2u);
  EXPECT_EQ(st[1].dist, SsspProgram::kInf);
  EXPECT_EQ(st[2].dist, SsspProgram::kInf);
}

TEST(SeederTest, WccSplitResetsWholeComponent) {
  // Components {0,1,2} (path) and {3,4}. Deleting {1,2} splits the first:
  // all three reset to self-labels; {3,4} is untouched.
  InputGraph new_raw;
  new_raw.num_vertices = 5;
  new_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{3, 4, 1.0f, kEdgeForward}};
  std::vector<WccProgram::VertexState> st = {{0, 0}, {0, 0}, {0, 0}, {3, 0}, {3, 0}};
  SeedStats s = SeedWcc(HostAdjacency(new_raw), Deletes({Edge{1, 2, 1.0f, kEdgeForward}}), &st);
  EXPECT_EQ(s.resets, 3u);
  EXPECT_EQ(st[0].label, 0u);
  EXPECT_EQ(st[1].label, 1u);
  EXPECT_EQ(st[2].label, 2u);
  EXPECT_EQ(st[1].changed, 1);
  EXPECT_EQ(st[3].label, 3u);
  EXPECT_EQ(st[3].changed, 0);
}

TEST(SeederTest, WccCycleSurvivesDeleteWithoutResets) {
  // Triangle 0-1-2-0: deleting {0,1} leaves the component connected, so the
  // labels are certified and nothing resets or re-floods.
  InputGraph new_raw;
  new_raw.num_vertices = 3;
  new_raw.edges = {Edge{1, 2, 1.0f, kEdgeForward}, Edge{2, 0, 1.0f, kEdgeForward}};
  std::vector<WccProgram::VertexState> st = {{0, 0}, {0, 0}, {0, 0}};
  SeedStats s = SeedWcc(HostAdjacency(new_raw), Deletes({Edge{0, 1, 1.0f, kEdgeForward}}), &st);
  EXPECT_EQ(s.resets, 0u);
  EXPECT_EQ(s.frontier, 0u);
  EXPECT_EQ(st[1].label, 0u);
}

TEST(SeederTest, WccInsertMarksBothEndpoints) {
  InputGraph new_raw;
  new_raw.num_vertices = 4;
  new_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{2, 3, 1.0f, kEdgeForward},
                   Edge{1, 2, 1.0f, kEdgeForward}};
  std::vector<WccProgram::VertexState> st = {{0, 0}, {0, 0}, {2, 0}, {2, 0}};
  SeedStats s = SeedWcc(HostAdjacency(new_raw), Inserts({Edge{1, 2, 1.0f, kEdgeForward}}), &st);
  EXPECT_EQ(s.resets, 0u);
  EXPECT_EQ(st[1].changed, 1);
  EXPECT_EQ(st[2].changed, 1);
  EXPECT_EQ(st[0].changed, 0);
  EXPECT_EQ(s.frontier, 2u);
}

// --------------------------------------------- carried-state planning

// The converged fixed point of `prepared` by host relaxation, with the same
// expressions the engines' scatter evaluates: what the planner reads from a
// cluster at a convergence barrier.
template <typename P>
std::vector<typename P::VertexState> HostFixpoint(const P& prog, const InputGraph& prepared) {
  const auto global = prog.InitGlobal(prepared.num_vertices);
  std::vector<typename P::VertexState> st;
  for (VertexId v = 0; v < prepared.num_vertices; ++v) {
    st.push_back(prog.InitVertex(global, v, 0));
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const Edge& e : prepared.edges) {
      if (e.flags != kEdgeForward) {
        continue;  // the engines' scatter skips them too
      }
      auto& s = st[e.src];
      auto& d = st[e.dst];
      if constexpr (std::is_same_v<P, IncBfsProgram>) {
        if (s.depth != IncBfsProgram::kUnreached && s.depth + 1 < d.depth) {
          d.depth = s.depth + 1;
          changed = true;
        }
      } else if constexpr (std::is_same_v<P, SsspProgram>) {
        if (s.dist + e.weight < d.dist) {
          d.dist = s.dist + e.weight;
          changed = true;
        }
      } else {
        if (s.label < d.label) {
          d.label = s.label;
          changed = true;
        }
      }
    }
  }
  for (auto& s : st) {
    s.changed = 0;
  }
  return st;
}

// Stateless reference planner: the pre-batch graph indexed fresh from
// GraphAfter(epoch), the "patch" replaced by a fresh index of
// GraphAfter(epoch + 1), bins grown one push at a time from the prepared
// post-batch list. `bins` owns what `delta.part_edges` views.
struct StatelessDelta {
  std::vector<std::vector<Edge>> bins;
  MutationDelta delta;
};

template <typename P>
StatelessDelta StatelessPlan(const P& prog, const std::string& algo, const MutationLog& log,
                             const MutationSchedule& sched, uint64_t epoch,
                             const Partitioning& parts,
                             std::vector<typename P::VertexState> seeds) {
  using VState = typename P::VertexState;
  const MutationBatch& batch = log.batch(epoch);
  const InputGraph new_p = PrepareInput(algo, log.GraphAfter(epoch + 1));
  StatelessDelta out;
  MutationDelta& delta = out.delta;
  delta.vertex_state_bytes = sizeof(VState);
  delta.edges_inserted = batch.inserts.size();
  delta.edges_deleted = batch.deletes.size();
  SeedStats stats;
  if (sched.incremental) {
    HostAdjacency adj(log.GraphAfter(epoch));
    auto reindex = [&] { adj = HostAdjacency(log.GraphAfter(epoch + 1)); };
    if constexpr (std::is_same_v<P, IncBfsProgram> || std::is_same_v<P, SsspProgram>) {
      stats = SeedPathLengths<P>(adj, batch, prog.InitGlobal(0).source, &seeds, reindex);
    } else {
      reindex();
      stats = SeedWcc(adj, batch, &seeds);
    }
  } else {
    const auto global = prog.InitGlobal(new_p.num_vertices);
    seeds.clear();
    for (VertexId v = 0; v < new_p.num_vertices; ++v) {
      seeds.push_back(prog.InitVertex(global, v, 0));
    }
    stats.resets = new_p.num_vertices;
    stats.frontier = new_p.num_vertices;
  }
  delta.seed_states.resize(seeds.size() * sizeof(VState));
  std::memcpy(delta.seed_states.data(), seeds.data(), delta.seed_states.size());
  delta.frontier = stats.frontier;
  delta.resets = stats.resets;
  out.bins.assign(parts.num_partitions(), {});
  for (const Edge& e : new_p.edges) {
    out.bins[parts.PartitionOf(e.src)].push_back(e);
  }
  for (const std::vector<Edge>& bin : out.bins) {
    delta.part_edges.emplace_back(bin);
  }
  return out;
}

// Every field of a vertex state, floats by bit pattern (the serialized
// image's struct padding carries no value).
auto StateFields(const IncBfsProgram::VertexState& s) { return std::tuple(s.depth, s.changed); }
auto StateFields(const SsspProgram::VertexState& s) {
  return std::tuple(std::bit_cast<uint32_t>(s.dist), s.changed);
}
auto StateFields(const WccProgram::VertexState& s) { return std::tuple(s.label, s.changed); }

template <typename P>
void ExpectSameDelta(const MutationDelta& got, const MutationDelta& want, const std::string& what) {
  using VState = typename P::VertexState;
  EXPECT_EQ(got.vertex_state_bytes, want.vertex_state_bytes) << what;
  EXPECT_EQ(got.edges_inserted, want.edges_inserted) << what;
  EXPECT_EQ(got.edges_deleted, want.edges_deleted) << what;
  EXPECT_EQ(got.frontier, want.frontier) << what;
  EXPECT_EQ(got.resets, want.resets) << what;
  ASSERT_EQ(got.seed_states.size(), want.seed_states.size()) << what;
  const uint64_t n = got.seed_states.size() / sizeof(VState);
  for (uint64_t v = 0; v < n; ++v) {
    VState a;
    VState b;
    std::memcpy(&a, got.seed_states.data() + v * sizeof(VState), sizeof(VState));
    std::memcpy(&b, want.seed_states.data() + v * sizeof(VState), sizeof(VState));
    ASSERT_EQ(StateFields(a), StateFields(b)) << what << " vertex " << v;
  }
  ASSERT_EQ(got.part_edges.size(), want.part_edges.size()) << what;
  for (size_t p = 0; p < got.part_edges.size(); ++p) {
    ASSERT_EQ(got.part_edges[p].size(), want.part_edges[p].size()) << what << " part " << p;
    for (size_t i = 0; i < got.part_edges[p].size(); ++i) {
      ASSERT_TRUE(SameRecord(got.part_edges[p][i], want.part_edges[p][i]))
          << what << " part " << p << " edge " << i;
    }
  }
}

// Plans every epoch of `log` on 3 partitions, then rewinds the same planner
// to epoch 2 on 4 partitions (what Attach does on a rescaled recovery) and
// plans the rest again; each delta must equal the stateless re-plan of that
// epoch. Returns the seeds reset over all plans.
template <typename P>
uint64_t ExpectPlannerMatchesStateless(const P& prog, const std::string& algo,
                                       const MutationLog& log, const MutationSchedule& sched,
                                       const std::string& what) {
  EpochPlanner<P> planner(prog, algo, log, sched);
  const uint64_t n = log.base().num_vertices;
  uint64_t resets = 0;
  for (const auto& [start, num_parts] : {std::pair<uint64_t, uint32_t>{0, 3}, {2, 4}}) {
    const Partitioning parts = Partitioning::WithPartitions(n, static_cast<int>(num_parts),
                                                            num_parts);
    planner.Reset(start);
    for (uint64_t k = start; k < log.num_batches(); ++k) {
      const auto states = HostFixpoint(prog, PrepareInput(algo, log.GraphAfter(k)));
      const MutationDelta got = planner.Plan(k, parts, states);
      const StatelessDelta want = StatelessPlan(prog, algo, log, sched, k, parts, states);
      ExpectSameDelta<P>(got, want.delta,
                         what + " " + algo + " start " + std::to_string(start) + " epoch " +
                             std::to_string(k));
      resets += got.resets;
    }
  }
  return resets;
}

// Four 5 % epochs over RMAT-7: past the adjacency's compaction point.
template <typename P>
void ExpectRmatPlannerMatchesStateless(const P& prog, const std::string& algo, bool weighted,
                                       MutatePreset preset, bool incremental = true) {
  const InputGraph raw = SmallRmat(71, weighted);
  MutationSchedule sched;
  sched.log = Schedule(4, 0.05, preset, 73);
  sched.incremental = incremental;
  const uint64_t resets = ExpectPlannerMatchesStateless(prog, algo, MutationLog(raw, sched.log),
                                                        sched, MutatePresetName(preset));
  // The schedule reaches the seeders' reset paths, not only the frontier.
  EXPECT_GT(resets, 0u) << algo << " " << MutatePresetName(preset);
}

TEST(EpochPlannerTest, CarriedStateMatchesStatelessPlan) {
  for (const MutatePreset preset :
       {MutatePreset::kUniform, MutatePreset::kHotspot, MutatePreset::kChurn}) {
    ExpectRmatPlannerMatchesStateless(IncBfsProgram(0), "bfs", false, preset);
    ExpectRmatPlannerMatchesStateless(SsspProgram(0), "sssp", true, preset);
    ExpectRmatPlannerMatchesStateless(WccProgram{}, "wcc", false, preset);
  }
}

TEST(EpochPlannerTest, FullRecomputeMatchesStatelessPlan) {
  ExpectRmatPlannerMatchesStateless(IncBfsProgram(0), "bfs", false, MutatePreset::kChurn,
                                    /*incremental=*/false);
  ExpectRmatPlannerMatchesStateless(WccProgram{}, "wcc", false, MutatePreset::kUniform,
                                    /*incremental=*/false);
}

// A hand-built multigraph history where matching by record content alone,
// or by the first equal weight, would delete the wrong arc.
TEST(EpochPlannerTest, MultigraphPatchMatchesStatelessPlan) {
  const Edge fwd{0, 3, 1.0f, kEdgeForward};      // its reverse twin (3, 0) comes first
  const Edge dup{2, 4, 1.0f, kEdgeForward};      // three copies
  const Edge pos_zero{6, 7, 0.0f, kEdgeForward};
  const Edge neg_zero{6, 7, -0.0f, kEdgeForward};
  const Edge loop{5, 5, 2.0f, kEdgeForward};
  const Edge flagged{1, 6, 1.0f, kEdgeReverse};  // indexed, never seeded over
  InputGraph raw;
  raw.num_vertices = 8;
  raw.weighted = true;
  raw.edges = {Edge{0, 1, 1.0f, kEdgeForward},
               Edge{3, 0, 1.0f, kEdgeForward},
               Edge{1, 2, 1.0f, kEdgeForward},  // same partition as vertex 0, between the twins
               fwd,
               dup,
               pos_zero,
               dup,
               neg_zero,
               loop,
               Edge{4, 5, 1.0f, kEdgeForward},
               Edge{5, 6, 3.0f, kEdgeForward},
               dup,
               flagged,
               Edge{7, 1, 1.0f, kEdgeForward},
               Edge{5, 4, 1.0f, kEdgeForward},
               Edge{2, 7, 1.0f, kEdgeForward}};
  std::vector<MutationBatch> batches(3);
  // Deletes the later copy of each twin pair, two of three duplicates, the
  // -0.0 record (listed after the +0.0 one) and the self-loop.
  batches[0].deletes = {fwd, dup, neg_zero, dup, loop, Edge{5, 4, 1.0f, kEdgeForward}};
  batches[0].inserts = {fwd, Edge{4, 4, 1.0f, kEdgeForward}, Edge{7, 6, 0.0f, kEdgeForward}};
  batches[1].deletes = {fwd, dup, flagged, pos_zero};
  batches[1].inserts = {dup, dup, neg_zero, Edge{3, 0, 1.0f, kEdgeForward}};
  batches[2].deletes = {Edge{3, 0, 1.0f, kEdgeForward}, dup, Edge{4, 4, 1.0f, kEdgeForward},
                        neg_zero, Edge{7, 6, 0.0f, kEdgeForward}};
  batches[2].inserts = {loop, pos_zero};
  const MutationLog log(raw, batches);
  // The reference Apply agrees on what each batch leaves behind.
  for (uint64_t k = 0; k < log.num_batches(); ++k) {
    InputGraph want = log.GraphAfter(k);
    NaiveApply(&want, log.batch(k));
    ExpectSameEdges(log.GraphAfter(k + 1), want, "epoch " + std::to_string(k));
  }
  for (const bool incremental : {true, false}) {
    MutationSchedule sched;
    sched.incremental = incremental;
    ExpectPlannerMatchesStateless(IncBfsProgram(0), "bfs", log, sched, "multigraph");
    ExpectPlannerMatchesStateless(SsspProgram(0), "sssp", log, sched, "multigraph");
    ExpectPlannerMatchesStateless(WccProgram{}, "wcc", log, sched, "multigraph");
  }
}

TEST(EpochPlannerDeathTest, PartitioningChangeWithoutResetDies) {
  const InputGraph raw = SmallRmat(72);
  MutationSchedule sched;
  sched.log = Schedule(2, 0.05);
  EpochPlanner<WccProgram> planner(WccProgram{}, "wcc", raw, sched);
  const auto states = HostFixpoint(WccProgram{}, PrepareInput("wcc", raw));
  planner.Reset(0);
  planner.Plan(0, Partitioning::WithPartitions(raw.num_vertices, 3, 3), states);
  EXPECT_DEATH(planner.Plan(1, Partitioning::WithPartitions(raw.num_vertices, 4, 4), states),
               "partitioning changed without a Reset");
}

// ------------------------------------------------------- crash replay

// Crash a machine in the middle of a mutation apply stage: the commit point
// had not been reached, so recovery must rewind to the last committed epoch
// and replay the batch. Values must still match the from-scratch run.
TEST(EvolvingRecoveryTest, CrashDuringMutationStageReplays) {
  InputGraph raw = SmallRmat(31);
  const MutationLogOptions opt = Schedule(3, 0.04, MutatePreset::kUniform, 37);
  ClusterConfig cfg = SmallConfig(4);
  cfg.checkpoint_interval = 2;

  JobResult healthy = RunJob(EvolvingJob("wcc", raw, cfg, opt));
  ASSERT_EQ(healthy.metrics.mutation_epochs.size(), 3u);
  const MutationEpochRecord& target = healthy.metrics.mutation_epochs[1];
  ASSERT_GT(target.end_time, target.start_time);

  JobSpec spec = EvolvingJob("wcc", raw, cfg, opt);
  spec.recover = true;
  spec.cluster.faults =
      FaultSchedule::MachineCrash(2, (target.start_time + target.end_time) / 2);
  JobResult recovered = RunJob(spec);
  EXPECT_TRUE(recovered.recovery.crash_detected);
  EXPECT_EQ(recovered.values, healthy.values);
  // The replacement replayed at least the epoch the crash interrupted.
  EXPECT_GE(recovered.metrics.mutation_epochs.size(), 1u);
}

TEST(EvolvingRecoveryTest, RescaledRecoveryReplaysOnSurvivors) {
  InputGraph raw = SmallRmat(32);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kHotspot, 41);
  ClusterConfig cfg = SmallConfig(4, 51);
  cfg.checkpoint_interval = 2;

  JobResult healthy = RunJob(EvolvingJob("bfs", raw, cfg, opt));
  ASSERT_EQ(healthy.metrics.mutation_epochs.size(), 2u);
  const MutationEpochRecord& target = healthy.metrics.mutation_epochs[0];

  JobSpec spec = EvolvingJob("bfs", raw, cfg, opt);
  spec.recover = true;
  spec.recovery.replacement_machines = 3;  // the N-1 survivors absorb the work
  spec.cluster.faults =
      FaultSchedule::MachineCrash(1, (target.start_time + target.end_time) / 2);
  JobResult recovered = RunJob(spec);
  EXPECT_TRUE(recovered.recovery.crash_detected);
  EXPECT_EQ(recovered.recovery.machines_after, 3);
  EXPECT_EQ(recovered.values, healthy.values);
}

// A crash in the last epoch's apply stage, after earlier epochs were
// patched into the planner's carried state: the replacement, one machine
// smaller, re-attaches at a checkpoint epoch past 0, so the planner
// rebuilds for a new partition count and replays the last epoch.
TEST(EvolvingRecoveryTest, RescaledRecoveryAfterPatchedEpochs) {
  InputGraph raw = SmallRmat(38, /*weighted=*/true);
  const MutationLogOptions opt = Schedule(3, 0.04, MutatePreset::kChurn, 61);
  ClusterConfig cfg = SmallConfig(4, 63);
  cfg.checkpoint_interval = 2;

  JobResult healthy = RunJob(EvolvingJob("sssp", raw, cfg, opt));
  ASSERT_EQ(healthy.metrics.mutation_epochs.size(), 3u);
  const MutationEpochRecord& target = healthy.metrics.mutation_epochs.back();
  ASSERT_GT(target.end_time, target.start_time);

  JobSpec spec = EvolvingJob("sssp", raw, cfg, opt);
  spec.recover = true;
  spec.recovery.replacement_machines = cfg.machines - 1;
  spec.cluster.faults =
      FaultSchedule::MachineCrash(2, (target.start_time + target.end_time) / 2);
  JobResult recovered = RunJob(spec);
  EXPECT_TRUE(recovered.recovery.crash_detected);
  EXPECT_TRUE(recovered.recovery.recovered_from_checkpoint);
  EXPECT_EQ(recovered.recovery.machines_after, cfg.machines - 1);
  ExpectNearValues(recovered.values, healthy.values, 1e-3);
  // The replacement replayed the interrupted last epoch, and every epoch it
  // applied is the healthy run's epoch of the same index.
  ASSERT_FALSE(recovered.metrics.mutation_epochs.empty());
  EXPECT_EQ(recovered.metrics.mutation_epochs.back().epoch, target.epoch);
  EXPECT_GT(recovered.metrics.mutation_epochs.front().epoch, 0u);
  for (const MutationEpochRecord& rec : recovered.metrics.mutation_epochs) {
    ASSERT_LT(rec.epoch, healthy.metrics.mutation_epochs.size());
    const MutationEpochRecord& want = healthy.metrics.mutation_epochs[rec.epoch];
    EXPECT_EQ(rec.edges_inserted, want.edges_inserted) << "epoch " << rec.epoch;
    EXPECT_EQ(rec.edges_deleted, want.edges_deleted) << "epoch " << rec.epoch;
  }
}

// Crash AFTER an epoch's commit point: the committed side may be kEdgesB;
// recovery must import that side (relabeled kEdges) and not replay epoch 0.
TEST(EvolvingRecoveryTest, CrashAfterCommitResumesMutatedEdges) {
  InputGraph raw = SmallRmat(33);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kUniform, 43);
  ClusterConfig cfg = SmallConfig(3);
  cfg.checkpoint_interval = 2;

  JobResult healthy = RunJob(EvolvingJob("wcc", raw, cfg, opt));
  ASSERT_EQ(healthy.metrics.mutation_epochs.size(), 2u);
  // Kill between the two epochs, well after epoch 0's apply finished.
  const TimeNs between = (healthy.metrics.mutation_epochs[0].end_time +
                          healthy.metrics.mutation_epochs[1].start_time) /
                         2;
  ASSERT_GT(between, healthy.metrics.mutation_epochs[0].end_time);

  JobSpec spec = EvolvingJob("wcc", raw, cfg, opt);
  spec.recover = true;
  spec.cluster.faults = FaultSchedule::MachineCrash(1, between);
  JobResult recovered = RunJob(spec);
  EXPECT_TRUE(recovered.recovery.crash_detected);
  EXPECT_EQ(recovered.values, healthy.values);
}

// Without spec.recover a job is one cluster run, evolving or not: a machine
// crash must surface as a crashed result whose service time is the crashed
// run's, exactly as for a static job under the same fault — not a silent
// re-provision that drops the crashed run from the accounting.
TEST(EvolvingRecoveryTest, CrashWithoutRecoverReturnsCrashed) {
  InputGraph raw = SmallRmat(35);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kUniform, 53);
  ClusterConfig cfg = SmallConfig(3);
  cfg.checkpoint_interval = 2;

  JobResult healthy = RunJob(EvolvingJob("wcc", raw, cfg, opt));
  ASSERT_EQ(healthy.metrics.mutation_epochs.size(), 2u);
  const MutationEpochRecord& target = healthy.metrics.mutation_epochs[1];
  ClusterConfig faulty = cfg;
  faulty.faults = FaultSchedule::MachineCrash(1, (target.start_time + target.end_time) / 2);

  const JobResult evolving = RunJob(EvolvingJob("wcc", raw, faulty, opt));
  EXPECT_TRUE(evolving.crashed);
  EXPECT_FALSE(evolving.recovery.crash_detected);
  EXPECT_FALSE(evolving.sched.completed);
  EXPECT_EQ(evolving.sched.service_time, evolving.metrics.total_time);
  EXPECT_LT(evolving.metrics.total_time, healthy.metrics.total_time);

  const InputGraph prepared = PrepareInput("wcc", raw);
  const JobResult fixed_healthy = RunJob(MakeJob("wcc", prepared, cfg));
  faulty.faults = FaultSchedule::MachineCrash(
      1, (fixed_healthy.metrics.preprocess_time + fixed_healthy.metrics.total_time) / 2);
  const JobResult fixed = RunJob(MakeJob("wcc", prepared, faulty));
  EXPECT_TRUE(fixed.crashed);
  EXPECT_FALSE(fixed.sched.completed);
  EXPECT_EQ(fixed.sched.service_time, fixed.metrics.total_time);
}

// ------------------------------------------------------- compositions

TEST(EvolvingCompositionTest, PreemptedSlicesMatchIsolatedBitwise) {
  InputGraph raw = SmallRmat(34);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kUniform, 47);
  JobSpec spec = EvolvingJob("wcc", raw, SmallConfig(3), opt);
  JobResult isolated = RunJob(spec);

  auto exec = MakeJobExecution(spec);
  int slices = 0;
  for (;;) {
    SliceResult slice = exec->RunSlice(static_cast<int64_t>(exec->next_superstep() + 2));
    ++slices;
    if (slice.completed) {
      break;
    }
  }
  EXPECT_GE(slices, 2);
  AlgoResult sliced = exec->TakeResult();
  EXPECT_EQ(sliced.supersteps, isolated.supersteps);
  EXPECT_EQ(sliced.values, isolated.values);
}

TEST(EvolvingCompositionTest, StealModesAgreeBitwise) {
  InputGraph raw = SmallRmat(35);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kHotspot, 53);
  JobResult base = RunJob(EvolvingJob("bfs", raw, SmallConfig(4), opt));
  for (const StealMode mode :
       {StealMode::kStealOne, StealMode::kStealHalf, StealMode::kAdaptive}) {
    ClusterConfig cfg = SmallConfig(4);
    cfg.steal.mode = mode;
    JobResult r = RunJob(EvolvingJob("bfs", raw, cfg, opt));
    EXPECT_EQ(r.values, base.values) << StealModeName(mode);
  }
}

TEST(EvolvingCompositionTest, TightMemoryBudgetAgrees) {
  InputGraph raw = SmallRmat(36);
  const MutationLogOptions opt = Schedule(2, 0.05, MutatePreset::kChurn, 59);
  JobResult base = RunJob(EvolvingJob("sssp", raw, SmallConfig(2), opt));
  ClusterConfig tight = SmallConfig(2);
  tight.memory_budget_bytes = 4 << 10;  // half the usual pool: forced spills
  JobResult r = RunJob(EvolvingJob("sssp", raw, tight, opt));
  EXPECT_EQ(r.values, base.values);
}

// ------------------------------------------------ import validation fix

// A malformed input whose edge list references vertices >= num_vertices
// used to flow through ImportRepartitioned silently (PartitionOf only
// range-checks the SOURCE endpoint). The re-bin now rejects both ends.
TEST(ImportValidationTest, RepartitionRejectsOutOfRangeEdges) {
  InputGraph bad;
  bad.num_vertices = 8;
  // 6 -> 12: dst beyond the vertex count. Vertex 6 is unreachable from the
  // BFS source, so the run converges without ever scattering the bad edge.
  bad.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{1, 2, 1.0f, kEdgeForward},
               Edge{6, 12, 1.0f, kEdgeForward}};
  ClusterConfig cfg = SmallConfig(3);
  Cluster donor(cfg, BfsProgram(0));
  auto run = donor.Run(bad);
  ASSERT_FALSE(run.crashed);

  ClusterConfig rcfg = SmallConfig(2);
  const GraphMeta meta = GraphMeta::Of(bad);
  Cluster replacement(rcfg, BfsProgram(0));
  replacement.PreparePartitioning(bad.num_vertices);
  EXPECT_DEATH(replacement.ImportRepartitioned(donor, SetKind::kVertices, meta),
               "references a vertex beyond");
}

}  // namespace
}  // namespace chaos
