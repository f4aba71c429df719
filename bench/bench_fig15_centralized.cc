// Figure 15: randomized chunk placement vs a centralized chunk directory,
// BFS and PR, weak scaling normalized to each system's 1-machine runtime.
// Paper: the centralized entity becomes a bottleneck as machines are added;
// Chaos' runtime grows much more slowly.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig15, "Figure 15: randomized chunk placement vs centralized directory") {
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
    for (const bool centralized : {false, true}) {
      ScalingSetup setup;
      setup.seed = seed;
      setup.tweak = [centralized](ClusterConfig& cfg) {
        cfg.placement = centralized ? Placement::kCentralDirectory : Placement::kRandom;
      };
      table.Add(name + (centralized ? " central" : " chaos"),
                "fig15." + name + (centralized ? ".central" : ".chaos"),
                WeakScalingPoint(name, base, setup));
    }
  }
  table.Run();

  std::printf("== Figure 15: Chaos vs centralized chunk directory (weak scaling) ==\n");
  table.Print("algo/design", "sim_s");
  std::printf("\npaper: the centralized design's runtime grows increasingly faster with m\n");
  return 0;
}
