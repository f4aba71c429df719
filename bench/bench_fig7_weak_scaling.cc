// Figure 7: weak scaling — RMAT scale grows with the machine count
// (base scale at m=1 up to base+5 at m=32), runtime normalized to the
// 1-machine runtime. Paper: mean 1.61x at 32x the problem size
// (best Cond 0.97x, worst MCST 2.29x).
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig7, "Figure 7: weak scaling, RMAT scale grows with machine count") {
  Options opt;
  opt.AddInt("base-scale", 10, "RMAT scale at m=1 (paper: 27)", 0, kMaxBaseScale);
  opt.AddInt("seed", 1, "seed");
  opt.AddStringList("algos", "", "comma list (default: all ten)", AlgorithmNames());
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const std::vector<std::string> algos =
      opt.GetStringList("algos").empty() ? AlgorithmNames() : opt.GetStringList("algos");
  const auto base = static_cast<uint32_t>(opt.GetInt("base-scale"));
  ScalingSetup setup;
  setup.seed = static_cast<uint64_t>(opt.GetInt("seed"));

  ScalingTable table;
  for (const auto& name : algos) {
    table.Add(name, "fig7." + name, WeakScalingPoint(name, base, setup));
  }
  table.Run();

  std::printf("== Figure 7: weak scaling RMAT-%u..%u, runtime normalized to m=1 ==\n", base,
              base + 5);
  table.Print("algorithm", "sim_s");
  RunningStat at32;
  for (const auto& row : table.rows()) {
    at32.Add(row.normalized.back());
  }
  RecordMetric("fig7.mean_normalized_at_32", at32.mean());
  std::printf("\nmean normalized runtime at m=32: %.2fx (paper: 1.61x, range 0.97x-2.29x)\n",
              at32.mean());
  return 0;
}
