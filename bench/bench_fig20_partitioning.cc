// Figure 20: cost of dynamic load balancing vs upfront partitioning. For
// each algorithm, the worst-case per-machine rebalancing time of a Chaos
// run (stolen-partition copying + merging + merge waits) is compared to the
// time PowerGraph's grid partitioner would need on the same graph. Paper:
// the ratio stays around or below 0.1 even under assumptions favorable to
// partitioning.
#include "baselines/grid_partitioner.h"
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig20, "Figure 20: dynamic load balancing vs upfront partitioning") {
  Options opt;
  opt.AddInt("scale", 12, "RMAT scale (paper: 27)", 0, kMaxBenchScale);
  opt.AddInt("machines", 16, "machines (paper: 32)", 1, kMaxBenchMachines);
  opt.AddInt("seed", 1, "seed");
  // Up to a second per edge, which keeps an RMAT-31 grid time inside TimeNs.
  opt.AddDouble("grid-ns-per-edge", 0.0,
                "grid partitioner cost override; 0 = calibrate from a measured "
                "GridPartition run on this host",
                0.0, 1e9);
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const int machines = static_cast<int>(opt.GetInt("machines"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));

  struct Fig20Point {
    AlgoResult result;
    uint64_t num_edges = 0;
    uint64_t edge_wire_bytes = 0;
  };
  Sweep<Fig20Point> sweep;
  for (const auto& info : Algorithms()) {
    const std::string name = info.name;
    const bool weighted = info.needs_weights;
    sweep.Add([name, weighted, scale, machines, seed] {
      InputGraph prepared = PrepareInput(name, BenchRmat(scale, weighted, seed));
      Fig20Point point;
      point.result =
          RunJob(MakeJob(name, prepared, BenchClusterConfig(prepared, machines, seed)));
      point.num_edges = prepared.num_edges();
      point.edge_wire_bytes = prepared.edge_wire_bytes();
      return point;
    });
  }
  const std::vector<Fig20Point> points = sweep.Run();

  // The grid-partitioning side of the ratio is simulated from a per-edge CPU
  // cost. By default that cost is calibrated right here, from a measured
  // GridPartition run on this host's sample graph (host_seconds over edges),
  // instead of trusting a hardcoded constant from whatever machine last ran
  // bench_micro; --grid-ns-per-edge > 0 overrides the calibration.
  InputGraph sample = BenchRmat(scale, false, seed);
  auto grid_result = GridPartition(sample, machines, seed);
  double grid_ns_per_edge = opt.GetDouble("grid-ns-per-edge");
  if (grid_ns_per_edge <= 0.0) {
    grid_ns_per_edge = grid_result.host_seconds * 1e9 /
                       static_cast<double>(std::max<uint64_t>(sample.num_edges(), 1));
    std::printf("grid-ns-per-edge auto-calibrated: %.1f ns/edge (host GridPartition "
                "%.3fs over %llu edges)\n",
                grid_ns_per_edge, grid_result.host_seconds,
                static_cast<unsigned long long>(sample.num_edges()));
  }

  std::printf("== Figure 20: rebalance time / grid partitioning time (RMAT-%u, m=%d) ==\n",
              scale, machines);
  PrintHeader({"algorithm", "rebalance(s)", "gridpart(s)", "ratio"});
  RunningStat ratios;
  size_t idx = 0;
  for (const auto& info : Algorithms()) {
    const Fig20Point& point = points[idx++];
    // Worst-case per-machine load-balancing *overhead* (the paper's
    // metric): vertex-set copying plus accumulator merging and waits.
    // Stolen-partition processing itself is useful work, not overhead.
    TimeNs rebalance = 0;
    for (const auto& mm : point.result.metrics.machines) {
      const TimeNs cost = mm.bucket(Bucket::kCopy) + mm.bucket(Bucket::kMerge) +
                          mm.bucket(Bucket::kMergeWait);
      rebalance = std::max(rebalance, cost);
    }
    const TimeNs grid = GridPartitionSimTime(
        point.num_edges, point.edge_wire_bytes, machines,
        StorageConfig::Ssd().bandwidth_bps, grid_ns_per_edge, 16);
    const double ratio =
        static_cast<double>(rebalance) / static_cast<double>(std::max<TimeNs>(grid, 1));
    ratios.Add(ratio);
    PrintCell(info.name);
    PrintCell(ToSeconds(rebalance), "%.4f");
    PrintCell(ToSeconds(grid), "%.4f");
    PrintCell(ratio, "%.3f");
    EndRow();
    RecordMetric("fig20." + info.name + ".ratio", ratio);
  }
  // Also report the real (host-measured) grid partitioner on this graph.
  // Host seconds are wall-clock and deliberately NOT recorded as a metric.
  std::printf("\ngrid partitioner on this host: %.3fs, replication %.2f, imbalance %.2f\n",
              grid_result.host_seconds, grid_result.replication_factor,
              grid_result.imbalance);
  RecordMetric("fig20.mean_ratio", ratios.mean());
  std::printf("mean ratio: %.3f (paper: ~0.1 or below for every algorithm)\n", ratios.mean());
  return 0;
}
