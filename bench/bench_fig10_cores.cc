// Figure 10: sensitivity to CPU core count (p = 8, 12, 16), BFS and PR,
// weak scaling, normalized to the 1-machine/16-core runtime. Paper: the
// system performs adequately even with half the cores — a minimum is needed
// only to sustain network throughput.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig10, "Figure 10: sensitivity to CPU core count") {
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
    const size_t p16 = table.rows().size();
    for (const int cores : {16, 12, 8}) {
      ScalingSetup setup;
      setup.seed = seed;
      setup.tweak = [cores](ClusterConfig& cfg) { cfg.cost.cores = cores; };
      table.Add(name + " p=" + std::to_string(cores),
                "fig10." + name + ".p" + std::to_string(cores),
                WeakScalingPoint(name, base, setup), p16);
    }
  }
  table.Run();

  std::printf("== Figure 10: weak scaling with p CPU cores, normalized to m=1/p=16 ==\n");
  table.Print("algo/cores", "sim_s");
  std::printf("\npaper: adequate performance with half the cores (curves nearly overlap)\n");
  return 0;
}
