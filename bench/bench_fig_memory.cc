// Graceful degradation under memory pressure (§3, §9.3): the §9.3
// capacity story — "I/O volume per edge is scale-free, RAM only buys
// speed" — measured instead of asserted in a comment.
//
// Method: run each algorithm once unconstrained (buffer-pool accounting
// only) to learn the true peak working set B0, then re-run with the
// ENFORCED per-machine budget swept from in-core (B0) down to deep
// out-of-core (B0/8), holding the partitioning — and therefore the record
// streams — fixed. The pool converts the squeeze into spill I/O and
// simulated stall time on each machine's own storage device.
//
// Exit is nonzero unless, for every algorithm:
//  * every budget — including the 4x reduction point B0/4 — reproduces the
//    unconstrained outputs (bitwise for the order-insensitive min-fold
//    algorithms bfs/wcc/sssp; pagerank's float-sum gather folds in chunk
//    arrival order, which spill timing perturbs, so it gets the same 1e-3
//    relative bound the differential suite holds it to against the golden
//    model) with the same superstep count, and
//  * simulated I/O volume is monotonically non-decreasing as the budget
//    shrinks, strictly greater at B0/4 than unconstrained.
//
// Stealing is disabled here (alpha = 0): work stealing adds vertex-copy
// traffic that varies with timing, which would blur the memory-pressure
// signal this figure isolates; with it off, the base chunk traffic is
// byte-identical across budgets and every extra byte is attributable to
// the pool. Stealing's own traffic is fig18/fig21's subject.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig_memory, "Graceful degradation under an enforced memory budget") {
  Options opt;
  opt.AddInt("scale", 12, "RMAT scale (2^scale vertices)", 0, kMaxBenchScale);
  opt.AddInt("machines", 4, "machines", 1, kMaxBenchMachines);
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const int machines = static_cast<int>(opt.GetInt("machines"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const std::vector<std::string> algos = {"bfs", "wcc", "sssp", "pagerank"};
  // Budget divisors relative to the measured peak: 0 = unconstrained
  // baseline, then in-core -> deep out-of-core.
  const std::vector<uint64_t> divisors = {0, 1, 2, 4, 8};

  struct MemoryPoint {
    AlgoResult result;
    uint64_t budget = 0;
  };
  // Phase 1: unconstrained baselines (parallel over algorithms). The peak
  // working set B0 seeds phase 2's budget sweep.
  Sweep<MemoryPoint> base_sweep;
  for (const std::string& name : algos) {
    base_sweep.Add([name, scale, machines, seed] {
      const bool weighted = AlgorithmByName(name).needs_weights;
      InputGraph prepared = PrepareInput(name, BenchRmat(scale, weighted, seed));
      ClusterConfig cfg = BenchClusterConfig(prepared, machines, seed);
      cfg.alpha = 0.0;
      cfg.memory_enforced = false;  // accounting only: learn the peak
      MemoryPoint point;
      point.result = RunJob(MakeJob(name, prepared, cfg));
      return point;
    });
  }
  const std::vector<MemoryPoint> baselines = base_sweep.Run();

  // Phase 2: the budget sweep, one self-contained simulation per point.
  Sweep<MemoryPoint> sweep;
  for (size_t a = 0; a < algos.size(); ++a) {
    const uint64_t peak = baselines[a].result.metrics.PeakMemoryBytes();
    for (size_t d = 1; d < divisors.size(); ++d) {
      const std::string name = algos[a];
      const uint64_t budget = std::max<uint64_t>(peak / divisors[d], 1);
      sweep.Add([name, scale, machines, seed, budget] {
        const bool weighted = AlgorithmByName(name).needs_weights;
        InputGraph prepared = PrepareInput(name, BenchRmat(scale, weighted, seed));
        ClusterConfig cfg = BenchClusterConfig(prepared, machines, seed);
        cfg.alpha = 0.0;
        cfg.pool_budget_bytes = budget;
        MemoryPoint point;
        point.result = RunJob(MakeJob(name, prepared, cfg));
        point.budget = budget;
        return point;
      });
    }
  }
  const std::vector<MemoryPoint> points = sweep.Run();

  std::printf("== Memory degradation (enforced budget): RMAT-%u on %d machines ==\n", scale,
              machines);
  PrintHeader({"algorithm", "budget", "sim-time", "io-moved", "spill", "stall", "match"});
  bool ok = true;
  size_t idx = 0;
  for (size_t a = 0; a < algos.size(); ++a) {
    const std::string& name = algos[a];
    const AlgoResult& base = baselines[a].result;
    const bool bitwise = name != "pagerank";
    uint64_t prev_io = base.metrics.StorageBytesMoved();
    uint64_t io_at_4x = 0;
    {
      PrintCell(name);
      PrintCell("unlimited");
      PrintCell(FormatSeconds(base.metrics.total_seconds()));
      PrintCell(FormatBytes(prev_io));
      PrintCell(FormatBytes(base.metrics.SpillBytesMoved()));
      PrintCell("-");
      PrintCell("base");
      EndRow();
    }
    for (size_t d = 1; d < divisors.size(); ++d) {
      const MemoryPoint& point = points[idx++];
      const AlgoResult& r = point.result;
      // ---- result identity vs the unconstrained run.
      std::string match = bitwise ? "bitwise" : "approx";
      if (r.supersteps != base.supersteps || r.values.size() != base.values.size()) {
        match = "DIVERGED";
      } else {
        for (size_t v = 0; v < base.values.size(); ++v) {
          const double got = r.values[v];
          const double want = base.values[v];
          const bool same =
              bitwise ? (got == want || (std::isinf(got) && std::isinf(want)))
                      : std::abs(got - want) <= 1e-3 * (1.0 + std::abs(want));
          if (!same) {
            match = "DIVERGED";
            break;
          }
        }
      }
      // ---- monotone I/O volume as the budget shrinks.
      const uint64_t io = r.metrics.StorageBytesMoved();
      if (io < prev_io) {
        match = "IO-SHRANK";
      }
      if (divisors[d] == 4) {
        io_at_4x = io;
      }
      prev_io = io;
      TimeNs stall = 0;
      for (const PoolMetrics& p : r.metrics.pools) {
        stall += p.stall_time;
      }
      PrintCell(name);
      PrintCell("peak/" + std::to_string(divisors[d]));
      PrintCell(FormatSeconds(r.metrics.total_seconds()));
      PrintCell(FormatBytes(io));
      PrintCell(FormatBytes(r.metrics.SpillBytesMoved()));
      PrintCell(FormatSeconds(ToSeconds(stall)));
      PrintCell(match);
      EndRow();
      ok = ok && (match == "bitwise" || match == "approx");
      RecordMetric("fig_memory." + name + ".div" + std::to_string(divisors[d]) + ".io_bytes",
                   static_cast<double>(io));
      RecordMetric("fig_memory." + name + ".div" + std::to_string(divisors[d]) +
                       ".spill_bytes",
                   static_cast<double>(r.metrics.SpillBytesMoved()));
    }
    // The §9.3 claim, measured: a 4x RAM squeeze leaves answers identical
    // while the system visibly trades I/O for the missing memory.
    if (io_at_4x <= base.metrics.StorageBytesMoved()) {
      std::printf("  !! %s: no I/O growth at a 4x budget reduction (enforcement broken?)\n",
                  name.c_str());
      ok = false;
    }
    RecordMetric("fig_memory." + name + ".io_growth_4x",
                 static_cast<double>(io_at_4x) /
                     static_cast<double>(base.metrics.StorageBytesMoved()));
  }
  std::printf("\n%s: outputs invariant under memory pressure; I/O volume monotone in 1/budget\n",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
