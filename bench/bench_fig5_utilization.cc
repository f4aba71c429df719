// Figure 5: theoretical storage-engine utilization rho(m, k) = 1-(1-k/m)^m
// as a function of the number of machines for batch factors k = 1, 2, 3, 5,
// with the m -> infinity asymptote 1 - e^-k (Eqs. 4 and 5).
#include "bench/bench_common.h"
#include "core/config.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig5, "Figure 5: theoretical storage-engine utilization rho(m, k)") {
  Options opt;
  // The row loop steps by 2 past the last row, so that step must fit int.
  opt.AddInt("max-machines", 32, "largest machine count to tabulate", 1,
             kMaxBenchMachines - 2);
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const int max_m = static_cast<int>(opt.GetInt("max-machines"));
  const std::vector<int> ks = {1, 2, 3, 5};

  // Closed-form rows; pointified for uniformity with the simulation benches
  // (and as the cheapest possible exercise of the sweep executor).
  std::vector<int> machine_rows;
  for (int m = 1; m <= max_m; m = m < 4 ? m + 1 : m + 2) {
    machine_rows.push_back(m);
  }
  Sweep<std::vector<double>> sweep;
  for (const int m : machine_rows) {
    sweep.Add([m, ks] {
      std::vector<double> row;
      row.reserve(ks.size());
      for (const int k : ks) {
        row.push_back(TheoreticalUtilization(m, k));
      }
      return row;
    });
  }
  const auto rows = sweep.Run();

  std::printf("== Figure 5: theoretical utilization rho(m,k) = 1-(1-k/m)^m ==\n");
  PrintHeader({"machines", "k=1", "k=2", "k=3", "k=5"});
  for (size_t r = 0; r < machine_rows.size(); ++r) {
    PrintCell(static_cast<double>(machine_rows[r]), "%.0f");
    for (size_t i = 0; i < ks.size(); ++i) {
      PrintCell(rows[r][i], "%.4f");
    }
    EndRow();
  }
  std::printf("\nasymptotes (1 - e^-k):\n");
  for (const int k : ks) {
    const double bound = UtilizationLowerBound(k);
    std::printf("  k=%d: %.4f\n", k, bound);
    RecordMetric("fig5.k" + std::to_string(k) + ".asymptote", bound);
  }
  std::printf("paper: k=5 keeps utilization above 99.3%% at any cluster size\n");
  return 0;
}
