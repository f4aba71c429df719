// Figure 19: Chaos vs a Giraph-like system (static partition placement, no
// dynamic load balancing — the paper equates it with "alpha = 0 plus static
// partitions", §10.2), PageRank on RMAT, strong scaling, each system
// normalized to its own 1-machine runtime. Paper: static partitioning
// severely limits scalability.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig19, "Figure 19: Chaos vs a Giraph-like static-placement system") {
  Options opt;
  opt.AddInt("scale", 12, "RMAT scale (paper: 27)", 0, kMaxBenchScale);
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  ScalingSetup chaos_setup;
  chaos_setup.seed = static_cast<uint64_t>(opt.GetInt("seed"));

  // Unpermuted RMAT: the skew static partitioning cannot adapt to.
  RmatOptions gopt;
  gopt.scale = scale;
  gopt.permute_ids = false;
  gopt.seed = chaos_setup.seed;
  auto prepared =
      std::make_shared<const InputGraph>(PrepareInput("pagerank", GenerateRmat(gopt)));

  ScalingSetup giraph_setup = chaos_setup;
  giraph_setup.tweak = [](ClusterConfig& cfg) {
    cfg.alpha = 0.0;                          // no dynamic load balancing
    cfg.placement = Placement::kLocalMaster;  // data pinned to its partition's machine
  };
  ScalingTable table;
  table.Add("chaos", "fig19.chaos", StrongScalingPoint("pagerank", prepared, chaos_setup));
  table.Add("giraph-like", "fig19.giraph-like",
            StrongScalingPoint("pagerank", prepared, giraph_setup));
  table.Run();

  std::printf("== Figure 19: Chaos vs Giraph-like (PR, RMAT-%u), each norm. to own m=1 ==\n",
              scale);
  table.Print("system", "sim_s", "%.3f", {"speedup@32"}, ScalingTable::SpeedupCell);
  std::printf("\npaper: Giraph's static partitions severely limit scaling; Chaos ~13x\n"
              "(absolute Giraph runtimes are additionally ~10x slower from JVM overheads,\n"
              " which normalization removes)\n");
  return 0;
}
