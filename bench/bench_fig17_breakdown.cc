// Figure 17: breakdown of runtime at the largest machine count into
// graph processing (own / stolen partitions), stolen vertex-set copying,
// accumulator merging, merge waits, and barrier waits. Paper: 74-87%
// useful processing, idle below 4%, copy+merge 0-22%.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig17, "Figure 17: runtime breakdown at the largest machine count") {
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

  // One point per algorithm; the whole AlgoResult comes back so the print
  // phase can slice the bucket breakdown.
  Sweep<AlgoResult> sweep;
  for (const auto& info : Algorithms()) {
    const std::string name = info.name;
    const bool weighted = info.needs_weights;
    sweep.Add([name, weighted, scale, machines, seed] {
      InputGraph prepared = PrepareInput(name, BenchRmat(scale, weighted, seed));
      return RunJob(MakeJob(name, prepared, BenchClusterConfig(prepared, machines, seed)));
    });
  }
  const std::vector<AlgoResult> results = sweep.Run();

  std::printf("== Figure 17: runtime breakdown (RMAT-%u, m=%d), fraction of tracked time ==\n",
              scale, machines);
  PrintHeader({"algorithm", "gp,own", "gp,stolen", "copy", "merge", "merge-wait", "barrier",
               "preproc"});
  size_t idx = 0;
  for (const auto& info : Algorithms()) {
    const AlgoResult& result = results[idx++];
    PrintCell(info.name);
    for (const Bucket b : {Bucket::kGpMaster, Bucket::kGpSteal, Bucket::kCopy, Bucket::kMerge,
                           Bucket::kMergeWait, Bucket::kBarrier, Bucket::kPreprocess}) {
      const double frac = result.metrics.BucketFraction(b);
      PrintCell(100.0 * frac, "%.1f%%");
      RecordMetric("fig17." + info.name + "." + BucketName(b), frac);
    }
    EndRow();
  }
  std::printf("\npaper: processing 74-87%% (avg 83%%), idle <4%%, copy+merge 0-22%%\n");
  return 0;
}
