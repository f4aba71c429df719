// Figure 12: 40 GigE vs 1 GigE, BFS and PR, weak scaling normalized to the
// 1-machine runtime. With 1 GigE the network (1/4 of disk bandwidth in the
// paper's setup) becomes the bottleneck and scaling degrades badly —
// the experiment behind the "network must be at least as fast as storage"
// requirement (§9.4).
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig12, "Figure 12: 40 GigE vs 1 GigE weak scaling") {
  Options opt;
  opt.AddInt("base-scale", 10, "RMAT scale at m=1", 0, kMaxBaseScale);
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto base = static_cast<uint32_t>(opt.GetInt("base-scale"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const std::vector<std::string> algos = {"bfs", "pagerank"};

  ScalingTable table;
  for (const std::string& name : algos) {
    for (const bool fast : {true, false}) {
      ScalingSetup setup;
      setup.seed = seed;
      setup.net = fast ? NetworkConfig::FortyGigE() : NetworkConfig::OneGigE();
      table.Add(name + (fast ? " 40G" : " 1G"), "fig12." + name + (fast ? ".40g" : ".1g"),
                WeakScalingPoint(name, base, setup));
    }
  }
  table.Run();

  std::printf("== Figure 12: 40GigE vs 1GigE, weak scaling, normalized to m=1 ==\n");
  table.Print("algo/net", "sim_s");
  std::printf("\npaper: 1GigE curves blow up to 5-9x while 40GigE stays < 2x\n");
  return 0;
}
