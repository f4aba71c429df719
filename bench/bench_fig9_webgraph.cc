// Figure 9: strong scaling on the web graph (Data Commons substitute) from
// HDDs, BFS and PageRank, m = 1..32. Paper: speedups of 20x (BFS) and
// 18.5x (PR) at 32 machines — better than RMAT-27 strong scaling because
// the graph is much larger.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig9, "Figure 9: strong scaling on the web graph from HDDs") {
  Options opt;
  // At least the 16-host floor below, one page per host; a uint64 count.
  opt.AddInt("pages-log2", 15, "log2 of page count (paper: 1.7B pages)", 4, 63);
  opt.AddInt("mean-degree", 20, "mean out-degree (Data Commons 2014: ~38)", 0, INT32_MAX);
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  WebGraphOptions wopt;
  wopt.num_pages = 1ull << static_cast<uint32_t>(opt.GetInt("pages-log2"));
  wopt.num_hosts = std::max<uint64_t>(wopt.num_pages >> 8, 16);
  wopt.mean_out_degree = static_cast<double>(opt.GetInt("mean-degree"));
  wopt.seed = static_cast<uint64_t>(opt.GetInt("seed"));
  InputGraph raw = GenerateWebGraph(wopt);

  ScalingSetup setup;
  setup.seed = wopt.seed;
  setup.storage = StorageConfig::Hdd();  // the web graph does not fit on SSDs (§9.2)
  ScalingTable table;
  for (const std::string name : {"bfs", "pagerank"}) {
    auto prepared = std::make_shared<const InputGraph>(PrepareInput(name, raw));
    table.Add(name, "fig9." + name, StrongScalingPoint(name, prepared, setup));
  }
  table.Run();

  std::printf("== Figure 9: strong scaling, web graph (%llu pages, %llu links), HDD ==\n",
              static_cast<unsigned long long>(raw.num_vertices),
              static_cast<unsigned long long>(raw.num_edges()));
  table.Print("algorithm", "sim_s", "%.2f", {"speedup@32"}, ScalingTable::SpeedupCell);
  std::printf("\npaper: BFS 20x, PR 18.5x at m=32 on Data Commons\n");
  return 0;
}
