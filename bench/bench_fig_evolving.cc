// Evolving graphs (PR 8): incremental re-convergence vs full recompute.
//
// Method: for each monotone algorithm (bfs/sssp/wcc) and each mutation
// rate, run the SAME seeded mutation schedule twice through the evolving
// driver — once warm-starting from the converged state (incremental.h
// seeders), once reseeding every vertex from InitVertex (full-recompute
// baseline; identical apply cost, so the comparison isolates
// re-convergence work) — plus one from-scratch run on the final mutated
// graph as the golden model.
//
// Exit is nonzero unless, for every algorithm:
//  * both variants apply every scheduled epoch and land on the golden
//    fixed point of the fully mutated graph (bitwise for bfs/wcc; SSSP's
//    float sums get the differential suite's 1e-3 bound), and
//  * at the LOWEST mutation rate the incremental variant strictly beats
//    the full-recompute baseline in simulated total time — the paper-side
//    claim that reacting to a small delta is cheaper than restarting.
#include <cmath>

#include "bench/bench_common.h"
#include "graph/mutation_log.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(fig_evolving, "Evolving graphs: incremental recompute vs full restart") {
  Options opt;
  opt.AddInt("scale", 10, "RMAT scale (2^scale vertices)", 0, kMaxBenchScale);
  opt.AddInt("machines", 4, "machines", 1, kMaxBenchMachines);
  opt.AddInt("seed", 1, "seed");
  // At least one epoch to re-converge after, and every epoch spends at
  // least one superstep of the run's limit.
  opt.AddInt("batches", 3, "mutation epochs per run", 1,
             static_cast<int64_t>(kMaxSupersteps) - 1);
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const int machines = static_cast<int>(opt.GetInt("machines"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const auto batches = static_cast<uint32_t>(opt.GetInt("batches"));
  const std::vector<std::string> algos = {"bfs", "sssp", "wcc"};
  const std::vector<double> rates = {0.005, 0.02, 0.08};

  auto log_options = [&](double rate) {
    MutationLogOptions mopt;
    mopt.num_batches = batches;
    mopt.rate = rate;
    mopt.preset = MutatePreset::kUniform;
    mopt.seed = DeriveSeed(seed, 0xe701);
    return mopt;
  };

  // Three points per (algo, rate): incremental, full-recompute, golden.
  // All self-contained closures so --jobs parallelism cannot perturb them.
  Sweep<AlgoResult> sweep;
  for (const std::string& name : algos) {
    for (const double rate : rates) {
      const bool weighted = AlgorithmByName(name).needs_weights;
      for (const int variant : {0, 1, 2}) {
        sweep.Add([name, rate, weighted, scale, machines, seed, batches, log_options,
                   variant] {
          const InputGraph raw = BenchRmat(scale, weighted, seed);
          // Config sized off the prepared graph (what the engines stream).
          const ClusterConfig cfg =
              BenchClusterConfig(PrepareInput(name, raw), machines, seed);
          if (variant == 2) {
            // Golden: from-scratch static run on the fully mutated graph.
            const MutationLog log(raw, log_options(rate));
            const InputGraph mutated = log.GraphAfter(batches);
            return RunJob(MakeJob(name, PrepareInput(name, mutated), cfg));
          }
          JobSpec spec = MakeJob(name, raw, cfg);
          spec.mutations.log = log_options(rate);
          spec.mutations.incremental = variant == 0;
          return RunJob(spec);
        });
      }
    }
  }
  const std::vector<AlgoResult> points = sweep.Run();

  std::printf("== Evolving graphs: RMAT-%u on %d machines, %u mutation epochs ==\n", scale,
              machines, batches);
  PrintHeader({"algorithm", "rate", "inc-time", "full-time", "speedup", "inc-resets",
               "match"});
  bool ok = true;
  size_t idx = 0;
  for (const std::string& name : algos) {
    const bool bitwise = name != "sssp";
    for (size_t r = 0; r < rates.size(); ++r) {
      const AlgoResult& inc = points[idx++];
      const AlgoResult& full = points[idx++];
      const AlgoResult& golden = points[idx++];
      // ---- every scheduled epoch must have applied, in both variants.
      std::string match = bitwise ? "bitwise" : "approx";
      if (inc.metrics.mutation_epochs.size() != batches ||
          full.metrics.mutation_epochs.size() != batches) {
        match = "NO-EPOCHS";
      }
      // ---- both variants land on the golden fixed point.
      for (const AlgoResult* run : {&inc, &full}) {
        if (run->values.size() != golden.values.size()) {
          match = "DIVERGED";
          break;
        }
        for (size_t v = 0; v < golden.values.size(); ++v) {
          const double got = run->values[v];
          const double want = golden.values[v];
          const bool same = bitwise || std::isinf(got) || std::isinf(want)
                                ? (got == want || (std::isinf(got) && std::isinf(want)))
                                : std::abs(got - want) <= 1e-3;
          if (!same) {
            match = "DIVERGED";
            break;
          }
        }
      }
      ok = ok && (match == "bitwise" || match == "approx");
      uint64_t inc_resets = 0;
      for (const MutationEpochRecord& rec : inc.metrics.mutation_epochs) {
        inc_resets += rec.resets;
      }
      const double inc_s = inc.metrics.total_seconds();
      const double full_s = full.metrics.total_seconds();
      const double speedup = full_s / inc_s;
      PrintCell(name);
      PrintCell(Fixed(rates[r], 3));
      PrintCell(FormatSeconds(inc_s));
      PrintCell(FormatSeconds(full_s));
      PrintCell(Fixed(speedup, 2) + "x");
      PrintCell(std::to_string(inc_resets));
      PrintCell(match);
      EndRow();
      // The headline claim, measured: when the delta is small, warm-started
      // re-convergence strictly beats restarting from InitVertex.
      if (r == 0 && !(inc.metrics.total_time < full.metrics.total_time)) {
        std::printf("  !! %s: incremental not faster than full recompute at rate %.3f\n",
                    name.c_str(), rates[r]);
        ok = false;
      }
      const std::string prefix = "fig_evolving." + name + ".rate" + Fixed(rates[r], 3);
      RecordMetric(prefix + ".inc_sim_s", inc_s);
      RecordMetric(prefix + ".full_sim_s", full_s);
      RecordMetric(prefix + ".speedup", speedup);
      RecordMetric(prefix + ".inc_resets", static_cast<double>(inc_resets));
    }
  }
  std::printf("\n%s: incremental tracks the golden fixed point and beats full recompute "
              "on small deltas\n",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
