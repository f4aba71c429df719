// Figure 16: runtime as a function of the batching window phi*k, all ten
// algorithms at the largest machine count, normalized to phi*k = 10 (the
// paper's sweet spot: k = 5, phi = 2 measured on its SSD/40GigE testbed).
// Small windows leave storage engines idle (Eq. 4); very large windows
// degrade through queueing and incast.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig16, "Figure 16: runtime vs batching window phi*k") {
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
  const std::vector<int> windows = {1, 2, 3, 5, 10, 16, 32};

  Sweep<double> sweep;
  for (const auto& info : Algorithms()) {
    auto prepared = std::make_shared<InputGraph>(
        PrepareInput(info.name, BenchRmat(scale, info.needs_weights, seed)));
    for (const int window : windows) {
      const std::string name = info.name;
      sweep.Add([name, prepared, machines, seed, window] {
        ClusterConfig cfg = BenchClusterConfig(*prepared, machines, seed);
        cfg.fetch_window = window;  // phi * k
        return RunJob(MakeJob(name, *prepared, cfg)).metrics.total_seconds();
      });
    }
  }
  const std::vector<double> seconds = sweep.Run();

  std::printf("== Figure 16: runtime vs batch window phi*k (RMAT-%u, m=%d), norm to 10 ==\n",
              scale, machines);
  PrintHeader({"algorithm", "pk=1", "pk=2", "pk=3", "pk=5", "pk=10", "pk=16", "pk=32"});
  size_t idx = 0;
  for (const auto& info : Algorithms()) {
    const size_t row_start = idx;
    double sweet = 0.0;
    for (const int window : windows) {
      if (window == 10) {
        sweet = seconds[idx];
      }
      ++idx;
    }
    PrintCell(info.name);
    size_t col = row_start;
    for (const int window : windows) {
      const double s = seconds[col++];
      PrintCell(sweet > 0 ? s / sweet : 0.0);
      RecordMetric("fig16." + info.name + ".pk" + std::to_string(window) + ".sim_s", s);
    }
    EndRow();
  }
  std::printf("\npaper: clear sweet spot at phi*k = 10; slower below (idle devices)\n"
              "and slightly slower above (queueing delay and incast congestion)\n");
  return 0;
}
