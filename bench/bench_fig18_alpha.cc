// Figure 18: work-stealing bias sweep. alpha scales the steal criterion
// V + D/(H+1) < alpha * D/H: 0 = no stealing, 1 = Chaos default, infinity =
// always steal. Runtime normalized to alpha = 1, with the Fig. 17 breakdown
// per configuration. Paper: alpha = 1 is fastest.
//
// Beyond the paper's sweep, two extra rows per algorithm run alpha = 1 under
// the steal_half and adaptive policies (src/core/steal_policy.h), so the
// amount dimension is visible next to the bias dimension on the same grid.
#include <limits>

#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig18, "Figure 18: work-stealing bias (alpha) sweep") {
  Options opt;
  opt.AddInt("scale", 12, "RMAT scale (paper: 32)", 0, kMaxBenchScale);
  opt.AddInt("machines", 16, "machines (paper: 32)", 1, kMaxBenchMachines);
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const int machines = static_cast<int>(opt.GetInt("machines"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::string> algos = {"bfs", "pagerank"};

  // Grid per algorithm: the paper's alpha sweep under steal_one, then the
  // other steal amounts at the default bias.
  struct Cell {
    double alpha;
    StealMode mode;
  };
  std::vector<Cell> cells;
  for (const double alpha : {0.0, 0.8, 1.0, 1.2, kInf}) {
    cells.push_back({alpha, StealMode::kStealOne});
  }
  cells.push_back({1.0, StealMode::kStealHalf});
  cells.push_back({1.0, StealMode::kAdaptive});
  auto cell_tag = [kInf](const Cell& c) -> std::string {
    if (c.mode == StealMode::kStealHalf) {
      return "half";
    }
    if (c.mode == StealMode::kAdaptive) {
      return "adapt";
    }
    return "a=" + (c.alpha == kInf ? std::string("inf") : Fixed(c.alpha, 1));
  };

  // Points: (algorithm x cell). The alpha = 1 steal_one point doubles as each
  // algorithm's normalization baseline (runs are deterministic, so reusing
  // it instead of re-running is exact).
  Sweep<AlgoResult> sweep;
  for (const std::string& name : algos) {
    // Unpermuted RMAT concentrates load in low partitions: stealing matters.
    RmatOptions gopt;
    gopt.scale = scale;
    gopt.permute_ids = false;
    gopt.seed = seed;
    auto prepared = std::make_shared<InputGraph>(PrepareInput(name, GenerateRmat(gopt)));
    for (const Cell& cell : cells) {
      sweep.Add([name, prepared, machines, seed, cell] {
        ClusterConfig cfg = BenchClusterConfig(*prepared, machines, seed);
        cfg.alpha = cell.alpha;
        cfg.steal.mode = cell.mode;
        return RunJob(MakeJob(name, *prepared, cfg));
      });
    }
  }
  const std::vector<AlgoResult> results = sweep.Run();

  std::printf("== Figure 18: stealing bias alpha (RMAT-%u, m=%d), normalized to alpha=1 ==\n",
              scale, machines);
  PrintHeader({"algo/cell", "runtime", "gp,own", "gp,stolen", "copy", "merge-wait",
               "barrier"});
  size_t idx = 0;
  for (const std::string& name : algos) {
    const size_t row_start = idx;
    double at_one = 0.0;
    for (const Cell& cell : cells) {
      if (cell.alpha == 1.0 && cell.mode == StealMode::kStealOne) {
        at_one = results[idx].metrics.total_seconds();
      }
      ++idx;
    }
    size_t col = row_start;
    for (const Cell& cell : cells) {
      const AlgoResult& result = results[col++];
      const double seconds = result.metrics.total_seconds();
      char label[64];
      std::snprintf(label, sizeof(label), "%s %s", name.c_str(), cell_tag(cell).c_str());
      PrintCell(label);
      PrintCell(at_one > 0 ? seconds / at_one : seconds, "%.3f");
      for (const Bucket b : {Bucket::kGpMaster, Bucket::kGpSteal, Bucket::kCopy,
                             Bucket::kMergeWait, Bucket::kBarrier}) {
        PrintCell(100.0 * result.metrics.BucketFraction(b), "%.1f%%");
      }
      EndRow();
      const std::string tag =
          cell.mode == StealMode::kStealOne
              ? "alpha_" + (cell.alpha == kInf ? std::string("inf") : Fixed(cell.alpha, 1))
              : cell_tag(cell);
      RecordMetric("fig18." + name + "." + tag + ".sim_s", seconds);
    }
  }
  std::printf("\nnote: runtimes are normalized to each algorithm's alpha=1 steal_one run\n");
  std::printf("paper: alpha=1 is fastest; alpha=0 shows large barrier time (imbalance)\n");
  return 0;
}
