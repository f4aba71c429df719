// Figure 12: 40 GigE vs 1 GigE, BFS and PR, weak scaling normalized to the
// 1-machine runtime. With 1 GigE the network (1/4 of disk bandwidth in the
// paper's setup) becomes the bottleneck and scaling degrades badly —
// the experiment behind the "network must be at least as fast as storage"
// requirement (§9.4).
//
// Also hosts the wire-format combining A/B (ClusterConfig::wire_combine):
// the same fixed-seed job with packed columnar update frames off vs on —
// combining is a pure re-encode (results identical) and the packed frame is
// only used when smaller, so simulated NIC bytes must strictly drop. CI
// asserts fig12.wire_combine.*.on_bytes < .off_bytes.
#include <utility>

#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig12, "Figure 12: 40 GigE vs 1 GigE weak scaling") {
  Options opt;
  opt.AddInt("base-scale", 10, "RMAT scale at m=1");
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

  // Wire-format combining A/B (see the header comment): {network_bytes,
  // update_wire_bytes_saved} per algo, combining off vs on, at a machine
  // count with real remote update traffic.
  const uint32_t cscale = base + 2;
  const int cm = 4;
  Sweep<std::pair<uint64_t, uint64_t>> combine;
  for (const std::string& name : algos) {
    for (const bool on : {false, true}) {
      combine.Add([name, cscale, cm, seed, on] {
        InputGraph prepared = PrepareInput(name, BenchRmat(cscale, false, seed));
        ClusterConfig cfg = BenchClusterConfig(prepared, cm, seed);
        cfg.wire_combine = on;
        const auto result = RunJob(MakeJob(name, prepared, cfg));
        return std::make_pair(result.metrics.network_bytes,
                              result.metrics.UpdateWireBytesSaved());
      });
    }
  }
  const auto cbytes = combine.Run();
  std::printf("\n== wire-format combining (m=%d, scale=%u): NIC bytes off vs on ==\n",
              cm, cscale);
  PrintHeader({"algo", "off_bytes", "on_bytes", "saved"});
  size_t cidx = 0;
  for (const std::string& name : algos) {
    const uint64_t off_bytes = cbytes[cidx++].first;
    const uint64_t on_bytes = cbytes[cidx].first;
    const uint64_t saved = cbytes[cidx++].second;
    PrintCell(name);
    PrintCell(static_cast<double>(off_bytes), "%.0f");
    PrintCell(static_cast<double>(on_bytes), "%.0f");
    PrintCell(static_cast<double>(saved), "%.0f");
    EndRow();
    RecordMetric("fig12.wire_combine." + name + ".off_bytes",
                 static_cast<double>(off_bytes));
    RecordMetric("fig12.wire_combine." + name + ".on_bytes",
                 static_cast<double>(on_bytes));
    RecordMetric("fig12.wire_combine." + name + ".saved_bytes",
                 static_cast<double>(saved));
  }
  return 0;
}
