// Differential test suite: every Table-1 algorithm x {RMAT, grid, web}
// input x {1, 2, 4} machines x {fault-free, straggler, crash+recovery,
// low-mem} checked against the sequential golden models in src/graph/ref/.
//
// The full matrix runs as ONE parallel sweep on the
// SweepExecutor (util/parallel.h) the first time any test case asks for
// its outcome; each gtest parameterized case then just asserts its own
// point. Every point derives its seed as DeriveSeed(kBaseSeed, index) —
// the failure message names the point and its seed, so any red case is
// reproducible in isolation regardless of thread count or schedule.
//
// What the fault modes claim (paper §2: the answer is invariant under
// randomized placement, stealing, faults and recovery):
//  * straggler — a 4x CPU slowdown on one machine changes timing and steal
//    patterns but must not change results (floats: within tolerance).
//  * crash+recovery — a fail-stop machine crash mid-run, recovered from
//    the last committed checkpoint, must still produce reference results.
//  * crash_rescaled — the same crash, recovered on the machines - 1
//    survivors: vertex states are re-chunked and edge and update sets
//    re-binned under the new partitioning (Cluster::ImportRepartitioned).
//  * low-mem — the enforced buffer-pool budget (core/buffer_pool.h)
//    squeezed far below the working set: heavy spill/fault-in traffic and
//    stalls change timing everywhere but must not change results.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/basic.h"
#include "algorithms/runner.h"
#include "graph/generators.h"
#include "graph/mutation_log.h"
#include "graph/ref/reference.h"
#include "util/parallel.h"

namespace chaos {
namespace {

constexpr uint64_t kBaseSeed = 20260729;

enum class FaultMode { kNone, kStraggler, kCrashRecovery, kLowMemory, kCrashRescaled };

const char* FaultModeName(FaultMode mode) {
  switch (mode) {
    case FaultMode::kNone:
      return "healthy";
    case FaultMode::kStraggler:
      return "straggler";
    case FaultMode::kCrashRecovery:
      return "crash";
    case FaultMode::kLowMemory:
      return "lowmem";
    case FaultMode::kCrashRescaled:
      return "crash_rescaled";
  }
  return "?";
}

struct Point {
  std::string algo;
  std::string graph;  // rmat | grid | web
  int machines = 1;
  FaultMode fault = FaultMode::kNone;
  // Steal-policy column: run the straggler fault under an explicit steal
  // policy (mode + backoff_hints) instead of the config default.
  bool policy_point = false;
  StealMode steal = StealMode::kStealOne;
  // Mutation column: run an evolving-graph schedule (3 batches, preset by
  // graph family) and check the incremental result against the golden model
  // of the POST-mutation graph.
  bool mutation_point = false;
  size_t index = 0;  // position in the grid; seeds derive from it
};

std::string PointName(const Point& p) {
  std::ostringstream name;
  name << p.algo << "_" << p.graph << "_m" << p.machines << "_" << FaultModeName(p.fault);
  if (p.policy_point) {
    name << "_" << StealModeName(p.steal);
  }
  if (p.mutation_point) {
    name << "_mutated";
  }
  return name.str();
}

std::vector<Point> BuildGrid() {
  std::vector<Point> grid;
  for (const auto& info : Algorithms()) {
    for (const std::string graph : {"rmat", "grid", "web"}) {
      for (const int machines : {1, 2, 4}) {
        for (const FaultMode fault :
             {FaultMode::kNone, FaultMode::kStraggler, FaultMode::kCrashRecovery}) {
          Point p;
          p.algo = info.name;
          p.graph = graph;
          p.machines = machines;
          p.fault = fault;
          p.index = grid.size();
          grid.push_back(p);
        }
      }
    }
  }
  // The low-mem column is APPENDED after the original 270-point block
  // rather than nested in the fault loop: point seeds derive from grid
  // indices, so inserting mid-grid would silently re-seed every later
  // point and reset the history the original block has accumulated.
  for (const auto& info : Algorithms()) {
    for (const std::string graph : {"rmat", "grid", "web"}) {
      for (const int machines : {1, 2, 4}) {
        Point p;
        p.algo = info.name;
        p.graph = graph;
        p.machines = machines;
        p.fault = FaultMode::kLowMemory;
        p.index = grid.size();
        grid.push_back(p);
      }
    }
  }
  // The steal-policy column (also appended, same reason): every algorithm x
  // graph under the straggler fault at 4 machines, once per steal mode with
  // the full policy runtime on (backoff + victim-check). Stealing amount and
  // proposal routing may change timing arbitrarily; results may not move.
  for (const auto& info : Algorithms()) {
    for (const std::string graph : {"rmat", "grid", "web"}) {
      for (const StealMode mode :
           {StealMode::kStealOne, StealMode::kStealHalf, StealMode::kAdaptive}) {
        Point p;
        p.algo = info.name;
        p.graph = graph;
        p.machines = 4;
        p.fault = FaultMode::kStraggler;
        p.policy_point = true;
        p.steal = mode;
        p.index = grid.size();
        grid.push_back(p);
      }
    }
  }
  // The mutation column (appended after the 450-point block, same
  // index-stability reason): the monotone algorithms under an evolving
  // schedule — 3 mutation batches applied at convergence barriers, the
  // incremental re-converged result checked against the golden model of the
  // fully mutated graph. The preset follows the graph family: uniform churn
  // for RMAT, hotspot writes for the road grid, insert/delete churn for web.
  for (const std::string algo : {"bfs", "wcc", "sssp"}) {
    for (const std::string graph : {"rmat", "grid", "web"}) {
      for (const int machines : {1, 2, 4}) {
        Point p;
        p.algo = algo;
        p.graph = graph;
        p.machines = machines;
        p.mutation_point = true;
        p.index = grid.size();
        grid.push_back(p);
      }
    }
  }
  // The rescaled-recovery column (appended after the mutation column, same
  // reason): the crash column's kill, recovered on machines - 1 survivors.
  for (const auto& info : Algorithms()) {
    for (const std::string graph : {"rmat", "grid", "web"}) {
      for (const int machines : {2, 4}) {
        Point p;
        p.algo = info.name;
        p.graph = graph;
        p.machines = machines;
        p.fault = FaultMode::kCrashRescaled;
        p.index = grid.size();
        grid.push_back(p);
      }
    }
  }
  return grid;
}

InputGraph MakeRawGraph(const std::string& kind, bool weighted, uint64_t seed) {
  if (kind == "rmat") {
    RmatOptions opt;
    opt.scale = 8;  // 256 vertices, 4096 edges
    opt.weighted = weighted;
    opt.seed = seed;
    return GenerateRmat(opt);
  }
  if (kind == "grid") {
    GridGraphOptions opt;
    opt.width = 16;
    opt.height = 16;
    opt.weighted = true;  // road lengths; harmless for unweighted programs
    opt.seed = seed;
    return GenerateGridGraph(opt);
  }
  WebGraphOptions opt;
  opt.num_pages = 256;
  opt.num_hosts = 8;
  opt.weighted = weighted;
  opt.seed = seed;
  return GenerateWebGraph(opt);
}

ClusterConfig PointConfig(int machines, uint64_t seed) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.memory_budget_bytes = 8 << 10;
  cfg.chunk_bytes = 2 << 10;
  cfg.seed = seed;
  return cfg;
}

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

// Compares a finished run against the golden model. `raw` is the graph
// before PrepareInput (SCC's reference runs on the plain directed edges),
// `prepared` the algorithm's actual input. Returns "" on success.
std::string CheckAgainstReference(const std::string& algo, const InputGraph& raw,
                                  const InputGraph& prepared, const AlgoParams& params,
                                  const AlgoResult& result) {
  std::ostringstream err;
  if (algo == "bfs") {
    const auto expect = ref::BfsDepths(prepared, params.source);
    for (size_t v = 0; v < expect.size(); ++v) {
      if (result.values[v] != static_cast<double>(expect[v])) {
        err << "bfs depth mismatch at vertex " << v << ": got " << result.values[v]
            << ", want " << expect[v];
        return err.str();
      }
    }
  } else if (algo == "wcc") {
    const auto expect = ref::ComponentLabels(prepared);
    for (size_t v = 0; v < expect.size(); ++v) {
      if (result.values[v] != static_cast<double>(expect[v])) {
        err << "wcc label mismatch at vertex " << v << ": got " << result.values[v]
            << ", want " << expect[v];
        return err.str();
      }
    }
  } else if (algo == "mcst") {
    const auto expect = ref::KruskalMsf(prepared);
    if (result.output_records != expect.num_edges) {
      err << "mcst forest size: got " << result.output_records << ", want "
          << expect.num_edges;
      return err.str();
    }
    if (std::abs(result.scalar - expect.total_weight) > 1e-2) {
      err << "mcst weight: got " << result.scalar << ", want " << expect.total_weight;
      return err.str();
    }
  } else if (algo == "mis") {
    std::vector<uint8_t> in_set(prepared.num_vertices);
    for (VertexId v = 0; v < prepared.num_vertices; ++v) {
      in_set[v] = result.values[v] > 0.5 ? 1 : 0;
    }
    if (!ref::IsMaximalIndependentSet(prepared, in_set)) {
      return "mis output is not a maximal independent set";
    }
  } else if (algo == "sssp") {
    const auto expect = ref::DijkstraDistances(prepared, params.source);
    for (size_t v = 0; v < expect.size(); ++v) {
      if (std::isinf(expect[v])) {
        if (!std::isinf(result.values[v])) {
          err << "sssp: vertex " << v << " should be unreachable, got " << result.values[v];
          return err.str();
        }
        continue;
      }
      if (std::abs(result.values[v] - expect[v]) > 1e-2) {
        err << "sssp distance mismatch at vertex " << v << ": got " << result.values[v]
            << ", want " << expect[v];
        return err.str();
      }
    }
  } else if (algo == "pagerank") {
    const auto expect = ref::PageRank(prepared, static_cast<int>(params.iterations),
                                      params.damping);
    for (size_t v = 0; v < expect.size(); ++v) {
      if (std::abs(result.values[v] - expect[v]) > 1e-3 * (1.0 + std::abs(expect[v]))) {
        err << "pagerank mismatch at vertex " << v << ": got " << result.values[v]
            << ", want " << expect[v];
        return err.str();
      }
    }
  } else if (algo == "scc") {
    const auto expect = ref::StronglyConnectedComponents(raw);
    if (!ref::SamePartition(ToGroupIds(result.values), expect)) {
      return "scc grouping differs from Tarjan's";
    }
  } else if (algo == "conductance") {
    std::vector<uint8_t> member(prepared.num_vertices);
    for (VertexId v = 0; v < prepared.num_vertices; ++v) {
      member[v] = ConductanceProgram::InSubset(v) ? 1 : 0;
    }
    const double expect = ref::Conductance(prepared, member);
    if (std::abs(result.scalar - expect) > 1e-9 * (1.0 + std::abs(expect))) {
      err << "conductance: got " << result.scalar << ", want " << expect;
      return err.str();
    }
  } else if (algo == "spmv") {
    std::vector<double> x(prepared.num_vertices);
    for (VertexId v = 0; v < prepared.num_vertices; ++v) {
      x[v] = SpmvProgram::InputVector(v);
    }
    const auto expect = ref::SpMV(prepared, x);
    for (size_t v = 0; v < expect.size(); ++v) {
      if (std::abs(result.values[v] - expect[v]) > 1e-2 * (1.0 + std::abs(expect[v]))) {
        err << "spmv mismatch at vertex " << v << ": got " << result.values[v] << ", want "
            << expect[v];
        return err.str();
      }
    }
  } else if (algo == "bp") {
    std::vector<double> priors(prepared.num_vertices);
    for (VertexId v = 0; v < prepared.num_vertices; ++v) {
      priors[v] = static_cast<double>(BpProgram::Prior(v));
    }
    const auto expect =
        ref::BeliefPropagation(prepared, priors, static_cast<int>(params.iterations),
                               BpProgram(params.iterations).InitGlobal(0).damping);
    for (size_t v = 0; v < expect.size(); ++v) {
      if (std::abs(result.values[v] - expect[v]) > 1e-2 * (1.0 + std::abs(expect[v]))) {
        err << "bp mismatch at vertex " << v << ": got " << result.values[v] << ", want "
            << expect[v];
        return err.str();
      }
    }
  } else {
    return "no reference check wired for algorithm " + algo;
  }
  return "";
}

// Runs one point start to finish: build input, run (with the point's fault
// mode), compare to the golden model. Returns "" or a failure description.
std::string RunPoint(const Point& p) {
  const uint64_t seed = DeriveSeed(kBaseSeed, p.index);
  const AlgorithmInfo& info = AlgorithmByName(p.algo);

  const InputGraph raw = MakeRawGraph(p.graph, info.needs_weights, seed);
  const InputGraph prepared = PrepareInput(p.algo, raw);
  AlgoParams params;  // defaults: source 0, 5 iterations

  if (p.mutation_point) {
    MutationLogOptions mopt;
    mopt.num_batches = 3;
    mopt.rate = 0.03;
    mopt.preset = p.graph == "rmat"    ? MutatePreset::kUniform
                  : p.graph == "grid" ? MutatePreset::kHotspot
                                      : MutatePreset::kChurn;
    mopt.seed = DeriveSeed(seed, 0x4d55);
    // Evolving jobs take the RAW graph; preparation happens per epoch.
    JobSpec spec = MakeJob(p.algo, raw, PointConfig(p.machines, seed), params);
    spec.mutations.log = mopt;
    const AlgoResult result = RunJob(spec);
    if (result.metrics.mutation_epochs.size() != mopt.num_batches) {
      std::ostringstream err;
      err << "applied " << result.metrics.mutation_epochs.size() << " of "
          << mopt.num_batches << " mutation epochs";
      return err.str();
    }
    // Golden model of the fully mutated graph, replayed independently.
    MutationLog log(raw, mopt);
    const InputGraph mutated_raw = log.GraphAfter(mopt.num_batches);
    const InputGraph mutated_prepared = PrepareInput(p.algo, mutated_raw);
    if (p.algo == "sssp") {
      // Tighter bound than the static sssp column: incremental warm starts
      // must land on the same fixed point, not merely near it.
      const auto expect = ref::DijkstraDistances(mutated_prepared, params.source);
      for (size_t v = 0; v < expect.size(); ++v) {
        if (std::isinf(expect[v]) != std::isinf(result.values[v]) ||
            (!std::isinf(expect[v]) && std::abs(result.values[v] - expect[v]) > 1e-3)) {
          std::ostringstream err;
          err << "mutated sssp mismatch at vertex " << v << ": got " << result.values[v]
              << ", want " << expect[v];
          return err.str();
        }
      }
    } else {
      const std::string failure =
          CheckAgainstReference(p.algo, mutated_raw, mutated_prepared, params, result);
      if (!failure.empty()) {
        return failure;
      }
    }
    return "";
  }

  AlgoResult result;
  switch (p.fault) {
    case FaultMode::kNone: {
      result = RunJob(MakeJob(p.algo, prepared, PointConfig(p.machines, seed), params));
      break;
    }
    case FaultMode::kStraggler: {
      ClusterConfig cfg = PointConfig(p.machines, seed);
      // Last machine at quarter speed from t=0, permanently.
      cfg.faults = FaultSchedule::Straggler(p.machines - 1, 4.0, FaultTarget::kCpu);
      if (p.policy_point) {
        cfg.steal.mode = p.steal;
        cfg.steal.backoff_hints = true;
      }
      result = RunJob(MakeJob(p.algo, prepared, cfg, params));
      break;
    }
    case FaultMode::kCrashRecovery:
    case FaultMode::kCrashRescaled: {
      // Place the kill ~50% into the post-preprocessing computation of a
      // fault-free probe run, checkpoint every superstep, then demand the
      // recovered run (on the survivors, for the rescaled column) still
      // matches the reference.
      auto probe = RunJob(MakeJob(p.algo, prepared, PointConfig(p.machines, seed), params));
      const TimeNs kill_at =
          probe.metrics.preprocess_time +
          static_cast<TimeNs>(0.5 * static_cast<double>(probe.metrics.total_time -
                                                        probe.metrics.preprocess_time));
      ClusterConfig cfg = PointConfig(p.machines, seed);
      cfg.checkpoint_interval = 1;
      cfg.faults = FaultSchedule::MachineCrash(p.machines - 1, kill_at);
      JobSpec spec = MakeJob(p.algo, prepared, cfg, params);
      spec.recover = true;
      const bool rescaled = p.fault == FaultMode::kCrashRescaled;
      if (rescaled) {
        spec.recovery.replacement_machines = p.machines - 1;
      }
      result = RunJob(spec);
      if (result.crashed) {
        return "recovery left the run in a crashed state";
      }
      if (rescaled && (!result.recovery.crash_detected ||
                       result.recovery.machines_after != p.machines - 1)) {
        return "the run did not recover on machines - 1 survivors";
      }
      break;
    }
    case FaultMode::kLowMemory: {
      // Squeeze the enforced buffer pool far below the streaming working
      // set (vertex batch + accumulators + fetch/write windows): the run
      // thrashes — spill, fault-in, device stalls — yet must still match
      // the golden model exactly like the healthy column.
      ClusterConfig cfg = PointConfig(p.machines, seed);
      // One chunk's worth of budget: any vertex batch plus a single
      // in-flight 2 KiB chunk is already over, so every point — the
      // 256-vertex grids at 4 machines included — really does thrash.
      cfg.pool_budget_bytes = 2 << 10;
      result = RunJob(MakeJob(p.algo, prepared, cfg, params));
      if (result.metrics.SpillBytesMoved() == 0) {
        return "low-mem point generated no spill traffic; pressure knob inert?";
      }
      break;
    }
  }

  return CheckAgainstReference(p.algo, raw, prepared, params, result);
}

// Lazily runs the entire grid as one parallel sweep and caches outcomes.
const std::vector<std::string>& Outcomes() {
  static const std::vector<std::string>* outcomes = [] {
    const std::vector<Point> grid = BuildGrid();
    auto* results = new std::vector<std::string>(grid.size());
    SweepExecutor executor;  // hardware concurrency
    executor.ParallelFor(grid.size(),
                         [&](size_t i) { (*results)[i] = RunPoint(grid[i]); });
    return results;
  }();
  return *outcomes;
}

class DifferentialTest : public ::testing::TestWithParam<Point> {};

TEST_P(DifferentialTest, MatchesGoldenModel) {
  const Point& p = GetParam();
  const std::string& failure = Outcomes()[p.index];
  EXPECT_TRUE(failure.empty())
      << "point " << PointName(p) << " (index " << p.index << ", seed "
      << DeriveSeed(kBaseSeed, p.index) << "): " << failure;
}

INSTANTIATE_TEST_SUITE_P(AllPoints, DifferentialTest, ::testing::ValuesIn(BuildGrid()),
                         [](const ::testing::TestParamInfo<Point>& info) {
                           return PointName(info.param);
                         });

// The seed grid itself is part of the contract: a reshuffled grid would
// silently re-seed every point and mask history-dependent regressions.
TEST(DifferentialGridTest, GridShapeAndSeedsAreStable) {
  const auto grid = BuildGrid();
  ASSERT_EQ(grid.size(),
            10u * 3u * 3u * 4u + 10u * 3u * 3u + 3u * 3u * 3u + 10u * 3u * 2u);
  EXPECT_EQ(grid[0].algo, "bfs");
  EXPECT_EQ(grid[0].graph, "rmat");
  EXPECT_EQ(grid[0].machines, 1);
  EXPECT_EQ(grid[0].fault, FaultMode::kNone);
  // The original 270-point block keeps its indices (and so its seeds); the
  // low-mem column is strictly appended, the steal-policy column after it.
  EXPECT_EQ(grid[269].fault, FaultMode::kCrashRecovery);
  EXPECT_EQ(grid[269].algo, "bp");
  EXPECT_EQ(grid[270].fault, FaultMode::kLowMemory);
  EXPECT_EQ(grid[270].algo, "bfs");
  EXPECT_EQ(grid[270].machines, 1);
  EXPECT_EQ(grid[359].fault, FaultMode::kLowMemory);
  EXPECT_EQ(grid[359].algo, "bp");
  EXPECT_FALSE(grid[359].policy_point);
  EXPECT_TRUE(grid[360].policy_point);
  EXPECT_EQ(grid[360].algo, "bfs");
  EXPECT_EQ(grid[360].graph, "rmat");
  EXPECT_EQ(grid[360].machines, 4);
  EXPECT_EQ(grid[360].fault, FaultMode::kStraggler);
  EXPECT_EQ(grid[360].steal, StealMode::kStealOne);
  EXPECT_EQ(grid[449].steal, StealMode::kAdaptive);
  EXPECT_FALSE(grid[449].mutation_point);
  // The mutation column is strictly appended after the steal-policy block.
  EXPECT_TRUE(grid[450].mutation_point);
  EXPECT_EQ(grid[450].algo, "bfs");
  EXPECT_EQ(grid[450].graph, "rmat");
  EXPECT_EQ(grid[450].machines, 1);
  EXPECT_TRUE(grid[476].mutation_point);
  EXPECT_EQ(grid[476].algo, "sssp");
  EXPECT_EQ(grid[476].graph, "web");
  EXPECT_EQ(grid[476].machines, 4);
  // The rescaled-recovery column is strictly appended after the mutation
  // column.
  EXPECT_EQ(grid[477].fault, FaultMode::kCrashRescaled);
  EXPECT_FALSE(grid[477].mutation_point);
  EXPECT_EQ(grid[477].algo, "bfs");
  EXPECT_EQ(grid[477].graph, "rmat");
  EXPECT_EQ(grid[477].machines, 2);
  EXPECT_EQ(grid[536].fault, FaultMode::kCrashRescaled);
  EXPECT_EQ(grid[536].algo, "bp");
  EXPECT_EQ(grid[536].graph, "web");
  EXPECT_EQ(grid[536].machines, 4);
  // DeriveSeed is pinned: splitmix64-based, platform-stable.
  EXPECT_EQ(DeriveSeed(1, 0), DeriveSeed(1, 0));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
}

}  // namespace
}  // namespace chaos
