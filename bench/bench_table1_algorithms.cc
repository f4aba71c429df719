// Table 1: single-machine runtime, X-Stream vs Chaos, all ten algorithms.
//
// The paper runs RMAT-27 on one machine with an SSD; we run a scaled-down
// RMAT (configurable). The shape to reproduce: the two systems are close,
// with Chaos paying the client-server storage overhead (1.0x - 2.5x).
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(table1, "Table 1: single-machine runtime, X-Stream vs Chaos") {
  Options opt;
  opt.AddInt("scale", 13, "RMAT scale (paper: 27)", 0, kMaxBenchScale);
  opt.AddInt("seed", 1, "graph + placement seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));

  // One point per algorithm; each runs both systems back to back, so the
  // sweep parallelizes across the ten rows.
  struct Row {
    double xstream_s = 0.0;
    double chaos_s = 0.0;
  };
  Sweep<Row> sweep;
  for (const auto& info : Algorithms()) {
    const std::string name = info.name;
    const bool weighted = info.needs_weights;
    sweep.Add([name, weighted, scale, seed] {
      InputGraph prepared = PrepareInput(name, BenchRmat(scale, weighted, seed));

      // Both systems run identical profiles at *full* (unminiaturized)
      // latencies: Table 1's gap is exactly the per-request overhead of the
      // client-server chunk protocol, which miniaturized latencies would
      // hide. Single-machine runs need no cross-machine scaling.
      ClusterConfig ccfg;
      ccfg.machines = 1;
      ccfg.seed = seed;
      ccfg.memory_budget_bytes =
          std::max<uint64_t>(prepared.num_vertices * 48 / 4 + 1, 4 << 10);
      ccfg.chunk_bytes = std::min<uint64_t>(
          std::max<uint64_t>(prepared.input_wire_bytes() / 128 + 1, 2 << 10), 4ull << 20);

      Row row;
      row.xstream_s = ToSeconds(RunXStreamAlgorithm(name, prepared, ccfg).total_time);
      row.chaos_s = RunJob(MakeJob(name, prepared, ccfg)).metrics.total_seconds();
      return row;
    });
  }
  const std::vector<Row> rows = sweep.Run();

  std::printf("== Table 1: algorithms, 1-machine X-Stream vs Chaos (RMAT-%u, SSD) ==\n", scale);
  PrintHeader({"algorithm", "xstream(s)", "chaos(s)", "chaos/xs"});
  double ratio_sum = 0.0;
  int count = 0;
  size_t idx = 0;
  for (const auto& info : Algorithms()) {
    const Row& row = rows[idx++];
    const double ratio = row.xstream_s > 0 ? row.chaos_s / row.xstream_s : 0.0;
    ratio_sum += ratio;
    ++count;
    PrintCell(info.name);
    PrintCell(row.xstream_s);
    PrintCell(row.chaos_s);
    PrintCell(ratio);
    EndRow();
    RecordMetric("table1." + info.name + ".xstream_sim_s", row.xstream_s);
    RecordMetric("table1." + info.name + ".chaos_sim_s", row.chaos_s);
  }
  RecordMetric("table1.mean_ratio", ratio_sum / count);
  std::printf("\nmean chaos/xstream ratio: %.2f (paper: 1.0x - 2.5x, mean ~1.4x)\n",
              ratio_sum / count);
  return 0;
}
