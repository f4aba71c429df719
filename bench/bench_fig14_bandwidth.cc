// Figure 14: aggregate storage bandwidth achieved during weak scaling,
// normalized to the 1-machine bandwidth, against the theoretical maximum
// (m x device bandwidth). Paper: Chaos scales linearly and stays within 3%
// of the available storage bandwidth.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig14, "Figure 14: aggregate storage bandwidth during weak scaling") {
  Options opt;
  opt.AddInt("base-scale", 10, "RMAT scale at m=1", 0, kMaxBaseScale);
  opt.AddInt("seed", 1, "seed");
  opt.AddStringList("algos", "bfs,pagerank,wcc,sssp,spmv",
                    "comma list (empty: all ten = paper)", AlgorithmNames());
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const std::vector<std::string> algos =
      opt.GetStringList("algos").empty() ? AlgorithmNames() : opt.GetStringList("algos");
  const auto base = static_cast<uint32_t>(opt.GetInt("base-scale"));
  ScalingSetup setup;
  setup.seed = static_cast<uint64_t>(opt.GetInt("seed"));
  setup.metric = [](const RunMetrics& metrics) { return metrics.AggregateStorageBandwidth(); };

  ScalingTable table;
  for (const auto& name : algos) {
    table.Add(name, "fig14." + name, WeakScalingPoint(name, base, setup));
  }
  table.Run();

  std::printf("== Figure 14: aggregate storage bandwidth, normalized to m=1 ==\n");
  table.Print("algorithm", "agg_bw_bps", "%.1f", {"of max@32"}, [](const ScalingTable::Row& row) {
    const double frac_of_max =
        row.values.back() / (StorageConfig::Ssd().bandwidth_bps * MachineSweep().back());
    PrintCell(100.0 * frac_of_max, "%.0f%%");
    RecordMetric(row.key + ".frac_of_max_at_32", frac_of_max);
  });
  std::printf("\nmax line: m x %s per machine; paper: within 3%% of max, linear scaling\n",
              FormatBandwidth(StorageConfig::Ssd().bandwidth_bps).c_str());
  return 0;
}
