// Figure 11: SSD vs HDD, BFS and PR, weak scaling normalized to the
// 1-machine SSD runtime. Paper: Chaos scales the same on both; absolute
// runtime is inversely proportional to device bandwidth (HDD ~2x slower).
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig11, "Figure 11: SSD vs HDD weak scaling") {
  Options opt;
  opt.AddInt("base-scale", 10, "RMAT scale at m=1", 0, kMaxBaseScale);
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto base = static_cast<uint32_t>(opt.GetInt("base-scale"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));

  ScalingTable table;
  for (const std::string name : {"bfs", "pagerank"}) {
    const size_t ssd_row = table.rows().size();
    for (const bool ssd : {true, false}) {
      ScalingSetup setup;
      setup.seed = seed;
      setup.storage = ssd ? StorageConfig::Ssd() : StorageConfig::Hdd();
      table.Add(name + (ssd ? " SSD" : " HDD"), "fig11." + name + (ssd ? ".ssd" : ".hdd"),
                WeakScalingPoint(name, base, setup), ssd_row);
    }
  }
  table.Run();

  std::printf("== Figure 11: SSD vs HDD, weak scaling, normalized to m=1 SSD ==\n");
  table.Print("algo/device", "sim_s");
  std::printf("\npaper: HDD curve ~2x above SSD (bandwidth ratio), same scaling shape\n");
  return 0;
}
