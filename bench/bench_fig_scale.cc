// Paper-scale capacity proof (§9.1 regime): every other figure bench
// materializes its InputGraph in host memory, which caps CI runs around
// RMAT-20. fig_scale instead streams the generator straight into the
// cluster's simulated storage (StreamRmat -> Cluster::RunStreaming), so
// host memory is bounded by one generator batch plus the simulated chunks
// — and a >= 100M-edge run (RMAT-23, the default) fits a CI runner. The
// same binary handles the paper's billion-edge regime locally:
//
//   chaos_bench --bench=fig_scale --scale=26        # 1.07B edges
//
// The run is directed BFS from a sampled hub root (the modal source of
// the first generator batch — structural id 0 may be isolated under the
// RMAT id permutation, a hub's out-component is the giant one). All
// recorded metrics are simulation-derived and deterministic, so the trial
// byte-compares against the pinned BENCH json like any other figure.
//
// --budget-s guards wall time: when nonzero, the bench exits nonzero if
// the host run (generation + ingest + simulation) exceeds the budget.
// Host wall time is printed but never recorded as a metric.
#include <chrono>
#include <unordered_map>

#include "algorithms/basic.h"
#include "bench/bench_common.h"
#include "core/cluster.h"

using namespace chaos;
using namespace chaos::bench;

namespace {

// Modal src of the first generated batch: with a few million samples the
// top RMAT hub wins by a wide margin, and a hub root makes the BFS touch
// the giant out-component instead of (possibly) nothing.
VertexId PickRoot(const RmatOptions& opt, uint64_t sample_edges) {
  std::unordered_map<VertexId, uint32_t> count;
  VertexId best = 0;
  uint32_t best_count = 0;
  StreamRmat(opt, sample_edges, [&](const std::vector<Edge>& edges) {
    for (const Edge& e : edges) {
      const uint32_t c = ++count[e.src];
      if (c > best_count) {
        best_count = c;
        best = e.src;
      }
    }
    return false;  // one batch is enough
  });
  return best;
}

}  // namespace

CHAOS_BENCH_MAIN(fig_scale, "Paper-scale streamed-ingest BFS (>= 100M edges in CI)") {
  Options opt;
  opt.AddInt("scale", 23, "RMAT scale: 2^scale vertices, 16 edges/vertex (23 = 134M edges)", 0,
             kMaxBenchScale);
  opt.AddInt("machines", 4, "machines", 1, kMaxBenchMachines);
  opt.AddInt("seed", 1, "seed");
  opt.AddInt("batch-edges", 4 << 20, "generator batch size (edges) for streaming ingest", 1,
             INT64_MAX);
  opt.AddInt("budget-s", 0, "host wall-clock budget in seconds (0 = unlimited)", 0,
             INT64_MAX);
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const int machines = static_cast<int>(opt.GetInt("machines"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const auto batch_edges = static_cast<uint64_t>(opt.GetInt("batch-edges"));
  const auto budget_s = static_cast<int64_t>(opt.GetInt("budget-s"));

  RmatOptions rmat;
  rmat.scale = scale;
  rmat.seed = seed;
  const uint64_t num_vertices = 1ull << scale;
  const uint64_t num_edges = num_vertices * rmat.edges_per_vertex;

  const auto t0 = std::chrono::steady_clock::now();
  const VertexId root = PickRoot(rmat, std::min<uint64_t>(num_edges, batch_edges));

  InputGraph shape;  // wire-format facts only; the edges stay in the stream
  shape.num_vertices = num_vertices;
  shape.weighted = rmat.weighted;
  ClusterConfig cfg = BenchClusterConfigSized(
      num_vertices, num_edges * shape.edge_wire_bytes(), machines, seed);

  Cluster cluster(cfg, BfsProgram(root));
  uint64_t streamed = 0;
  RunResult result = cluster.RunStreaming(
      num_vertices, rmat.weighted,
      [&](const Cluster::BatchSink& sink) {
        StreamRmat(rmat, batch_edges, [&](const std::vector<Edge>& edges) {
          streamed += edges.size();
          sink(edges);
          return true;
        });
      });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  uint64_t reached = 0;
  for (const double depth : result.values) {
    if (depth >= 0.0) {
      ++reached;
    }
  }

  PrintHeader({"edges", "machines", "root", "reached", "supersteps", "sim", "storage",
               "network", "wall"});
  PrintCell(std::to_string(streamed));
  PrintCell(std::to_string(machines));
  PrintCell(std::to_string(root));
  PrintCell(std::to_string(reached));
  PrintCell(std::to_string(result.supersteps));
  PrintCell(FormatSeconds(result.metrics.total_seconds()));
  PrintCell(FormatBytes(result.metrics.StorageBytesMoved()));
  PrintCell(FormatBytes(result.metrics.network_bytes));
  PrintCell(Fixed(wall_s, 1) + "s");
  EndRow();

  RecordMetric("fig_scale.bfs.edges", static_cast<double>(streamed));
  RecordMetric("fig_scale.bfs.root", static_cast<double>(root));
  RecordMetric("fig_scale.bfs.reached", static_cast<double>(reached));
  RecordMetric("fig_scale.bfs.supersteps", static_cast<double>(result.supersteps));
  RecordMetric("fig_scale.bfs.total_seconds", result.metrics.total_seconds());
  RecordMetric("fig_scale.bfs.preprocess_seconds",
               ToSeconds(result.metrics.preprocess_time));
  RecordMetric("fig_scale.bfs.storage_bytes",
               static_cast<double>(result.metrics.StorageBytesMoved()));
  RecordMetric("fig_scale.bfs.network_bytes",
               static_cast<double>(result.metrics.network_bytes));
  RecordMetric("fig_scale.bfs.peak_memory_bytes",
               static_cast<double>(result.metrics.PeakMemoryBytes()));

  bool ok = true;
  if (result.crashed) {
    std::printf("FAIL: run crashed\n");
    ok = false;
  }
  if (streamed != num_edges) {
    std::printf("FAIL: streamed %llu edges, expected %llu\n",
                static_cast<unsigned long long>(streamed),
                static_cast<unsigned long long>(num_edges));
    ok = false;
  }
  // A hub root must reach a macroscopic out-component; anything tiny means
  // the root sampling or the streamed ingest is broken.
  if (reached < num_vertices / 100) {
    std::printf("FAIL: BFS reached only %llu of %llu vertices\n",
                static_cast<unsigned long long>(reached),
                static_cast<unsigned long long>(num_vertices));
    ok = false;
  }
  if (budget_s > 0 && wall_s > static_cast<double>(budget_s)) {
    std::printf("FAIL: wall time %.1fs exceeded budget %llds\n", wall_s,
                static_cast<long long>(budget_s));
    ok = false;
  }
  return ok ? 0 : 1;
}
