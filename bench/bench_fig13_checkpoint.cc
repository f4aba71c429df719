// Figure 13: checkpointing overhead. Vertex state is checkpointed with the
// 2-phase protocol at every superstep barrier; the paper measures under 6%
// runtime overhead on a scale-36 graph (BFS and PR, 32 machines, HDD).
//
// The run fails (exit 1) — making `ok` in the chaos-bench JSON an
// executable record of the cheap-checkpointing claim — if the overhead at
// any measured point exceeds --max-overhead-pct. Miniaturized runs inflate
// fixed per-superstep costs relative to the paper's hundreds-of-GB scans,
// so the default threshold is looser than the paper's 6%; it still fails
// loudly if checkpointing ever becomes a first-order cost.
#include <limits>

#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig13, "Figure 13: checkpointing overhead") {
  Options opt;
  opt.AddInt("scale", 13, "RMAT scale (paper: 35)", 0, kMaxBenchScale);
  opt.AddInt("machines", 8, "machines (paper: 32)", 1, kMaxBenchMachines);
  // Finite: no overhead compares greater than NaN or inf, so either would
  // turn the gate off.
  opt.AddDouble("max-overhead-pct", 15.0, "fail if overhead exceeds this at any point", 0.0,
                std::numeric_limits<double>::max());
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const int machines = static_cast<int>(opt.GetInt("machines"));
  const double max_overhead = opt.GetDouble("max-overhead-pct");
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const std::vector<std::string> algos = {"pagerank", "bfs"};

  // Points: (algorithm x {checkpointing off, every superstep}).
  Sweep<double> sweep;
  for (const std::string& name : algos) {
    auto prepared =
        std::make_shared<InputGraph>(PrepareInput(name, BenchRmat(scale, false, seed)));
    for (const uint32_t interval : {0u, 1u}) {
      sweep.Add([name, prepared, machines, seed, interval] {
        ClusterConfig cfg =
            BenchClusterConfig(*prepared, machines, seed, StorageConfig::Hdd());
        cfg.checkpoint_interval = interval;
        return RunJob(MakeJob(name, *prepared, cfg)).metrics.total_seconds();
      });
    }
  }
  const std::vector<double> seconds = sweep.Run();

  std::printf("== Figure 13: checkpointing overhead (RMAT-%u, m=%d, HDD) ==\n", scale,
              machines);
  PrintHeader({"algorithm", "off(s)", "every-step(s)", "overhead"});
  bool ok = true;
  size_t idx = 0;
  for (const std::string& name : algos) {
    const double off_s = seconds[idx++];
    const double on_s = seconds[idx++];
    const double overhead_pct = off_s > 0 ? 100.0 * (on_s - off_s) / off_s : 0.0;
    PrintCell(name);
    PrintCell(off_s);
    PrintCell(on_s);
    PrintCell(overhead_pct, "%.1f%%");
    EndRow();
    RecordMetric("fig13." + name + ".off_sim_s", off_s);
    RecordMetric("fig13." + name + ".ckpt_sim_s", on_s);
    RecordMetric("fig13." + name + ".overhead_pct", overhead_pct);
    if (overhead_pct > max_overhead) {
      ok = false;
    }
  }
  if (!ok) {
    std::printf("\nFAIL: checkpoint overhead exceeded %.1f%% at a measured point\n",
                max_overhead);
    return 1;
  }
  std::printf("\npaper: overhead under 6%% even with hundreds of TB written\n");
  return 0;
}
