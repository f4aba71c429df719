// Figure 8: strong scaling — fixed RMAT graph, m = 1..32, runtime
// normalized to 1 machine. Paper: ~13x mean speedup at 32 machines on
// RMAT-27 (Cond 23x, MCST 8x); sub-linear because the graph is small.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig8, "Figure 8: strong scaling on fixed RMAT graph") {
  Options opt;
  opt.AddInt("scale", 12, "RMAT scale (paper: 27)", 0, kMaxBenchScale);
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  ScalingSetup setup;
  setup.seed = static_cast<uint64_t>(opt.GetInt("seed"));

  // Graphs are generated once per algorithm and shared read-only across
  // that algorithm's points.
  ScalingTable table;
  for (const auto& info : Algorithms()) {
    auto prepared = std::make_shared<const InputGraph>(
        PrepareInput(info.name, BenchRmat(scale, info.needs_weights, setup.seed)));
    table.Add(info.name, "fig8." + info.name, StrongScalingPoint(info.name, prepared, setup));
  }
  table.Run();

  std::printf("== Figure 8: strong scaling RMAT-%u, runtime normalized to m=1 ==\n", scale);
  table.Print("algorithm", "sim_s", "%.2f", {"speedup@32"}, ScalingTable::SpeedupCell);
  RunningStat speedups;
  for (const auto& row : table.rows()) {
    speedups.Add(row.Speedup());
  }
  RecordMetric("fig8.mean_speedup_at_32", speedups.mean());
  std::printf("\nmean speedup at m=32: %.1fx (paper: ~13x on RMAT-27)\n", speedups.mean());
  return 0;
}
