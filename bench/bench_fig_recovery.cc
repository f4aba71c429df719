// Recovery (extension of Fig. 13, §6.6): a fault-injected machine failure
// mid-run, recovered automatically from the last committed checkpoint by
// the job's next slice (RunJob with JobSpec::recover), on a same-size
// replacement cluster and on the N-1 survivors with repartitioned vertex
// ranges.
//
// Sweeps the checkpoint interval and reports time-to-recover (takeover
// until the crashed superstep is re-executed), lost-work supersteps and
// end-to-end runtime. The paper's claim closed here: checkpointing is cheap
// *because* recovery is a restart from the last committed checkpoint — so
// the recovered run must produce the same results as a fault-free one.
//
// The run fails (exit 1) — making `ok` in the chaos-bench JSON an
// executable record of the recovery claim — if any recovered run's results
// differ from the fault-free run's (BFS levels must match bitwise; PageRank
// ranks to 1e-4 relative, since re-executed gathers fold float updates in a
// different arrival order), or if the failure was not detected, or if the
// every-superstep-checkpoint run fails to resume from a checkpoint.
#include <cmath>

#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

namespace {

bool ValuesMatch(const std::string& algo, const std::vector<double>& truth,
                 const std::vector<double>& got) {
  if (truth.size() != got.size()) {
    return false;
  }
  for (size_t v = 0; v < truth.size(); ++v) {
    if (algo == "pagerank") {
      // Float ranks: gather order differs between the original and the
      // re-executed supersteps, so only last-ulp rounding may drift.
      if (std::abs(got[v] - truth[v]) > 1e-4 * (1.0 + std::abs(truth[v]))) {
        return false;
      }
    } else if (got[v] != truth[v]) {  // bfs levels: bitwise
      return false;
    }
  }
  return true;
}

}  // namespace

CHAOS_BENCH_MAIN(fig_recovery, "Recovery: machine failure vs checkpoint interval") {
  Options opt;
  opt.AddInt("scale", 12, "RMAT scale (2^scale vertices)", 0, kMaxBenchScale);
  opt.AddInt("machines", 4, "simulated machines (one fails, one survives)", 2,
             kMaxBenchMachines);
  opt.AddInt("victim", 1, "machine that fails mid-run", 0, kMaxBenchMachines - 1);
  // One superstep runs per iteration, and the failure needs one to land in.
  opt.AddInt("iterations", 8, "pagerank iterations", 1, static_cast<int64_t>(kMaxSupersteps));
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const int machines = static_cast<int>(opt.GetInt("machines"));
  const auto victim = static_cast<MachineId>(opt.GetInt("victim"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  if (victim >= machines) {
    std::fprintf(stderr, "--victim must be in [0, %d)\n", machines);
    return 1;
  }
  AlgoParams params;
  params.iterations = static_cast<uint32_t>(opt.GetInt("iterations"));

  const std::vector<std::string> algos = {"bfs", "pagerank"};
  // Interval sweep plus the N-1 rescale case at interval 1.
  struct Case {
    uint32_t interval;
    bool rescale;
  };
  const std::vector<Case> cases = {{1, false}, {2, false}, {4, false}, {1, true}};

  // Wave 1: fault-free ground truth per algorithm — the recovery points
  // need its runtime to place the kill, so it must join first.
  std::vector<std::shared_ptr<InputGraph>> graphs;
  Sweep<AlgoResult> truth_sweep;
  for (const std::string& algo : algos) {
    auto g = std::make_shared<InputGraph>(PrepareInput(algo, BenchRmat(scale, false, seed)));
    graphs.push_back(g);
    truth_sweep.Add(
        [algo, g, machines, seed, params] {
          return RunJob(MakeJob(algo, *g, BenchClusterConfig(*g, machines, seed), params));
        });
  }
  const std::vector<AlgoResult> truths = truth_sweep.Run();

  // Wave 2: every (algorithm x recovery case) as an independent point.
  struct RecoveryPoint {
    AlgoResult result;
    RecoveryReport report;
  };
  Sweep<RecoveryPoint> sweep;
  for (size_t a = 0; a < algos.size(); ++a) {
    const std::string& algo = algos[a];
    const auto g = graphs[a];
    const AlgoResult& truth = truths[a];
    // Kill ~60% into the post-preprocessing computation: late enough that
    // checkpoints have committed, early enough that work remains to redo.
    const TimeNs kill_at =
        truth.metrics.preprocess_time +
        static_cast<TimeNs>(0.6 * static_cast<double>(truth.metrics.total_time -
                                                      truth.metrics.preprocess_time));
    for (const Case c : cases) {
      sweep.Add([algo, g, machines, seed, params, victim, kill_at, c] {
        ClusterConfig cfg = BenchClusterConfig(*g, machines, seed);
        cfg.checkpoint_interval = c.interval;
        cfg.faults = FaultSchedule::MachineCrash(victim, kill_at);
        RecoveryOptions recovery;
        if (c.rescale) {
          recovery.replacement_machines = machines - 1;
        }
        JobSpec spec = MakeJob(algo, *g, cfg, params);
        spec.recover = true;
        spec.recovery = recovery;
        JobResult run = RunJob(spec);
        RecoveryPoint point;
        point.report = run.recovery;
        point.result = std::move(static_cast<AlgoResult&>(run));
        return point;
      });
    }
  }
  const std::vector<RecoveryPoint> points = sweep.Run();

  std::printf("== Recovery: machine %d fails mid-run, %d machines, RMAT-%u ==\n", victim,
              machines, scale);
  PrintHeader({"algorithm", "ckpt-every", "rescale", "fault-free s", "end-to-end s",
               "recover s", "lost ss", "match"});
  bool ok = true;
  size_t idx = 0;
  for (size_t a = 0; a < algos.size(); ++a) {
    const std::string& algo = algos[a];
    const AlgoResult& truth = truths[a];
    const double truth_s = truth.metrics.total_seconds();
    RecordMetric("fig_recovery." + algo + ".fault_free_sim_s", truth_s);
    for (const Case c : cases) {
      const RecoveryPoint& point = points[idx++];
      const RecoveryReport& report = point.report;
      const bool match = ValuesMatch(algo, truth.values, point.result.values);
      PrintCell(algo);
      PrintCell(Fixed(c.interval, 0));
      PrintCell(c.rescale ? "N-1" : "no");
      PrintCell(truth_s, "%.4f");
      PrintCell(ToSeconds(report.end_to_end_time), "%.4f");
      PrintCell(ToSeconds(report.time_to_recover), "%.4f");
      PrintCell(Fixed(static_cast<double>(report.lost_work_supersteps), 0));
      PrintCell(match ? "yes" : "NO");
      EndRow();
      const std::string prefix = "fig_recovery." + algo + ".ckpt" +
                                 std::to_string(c.interval) + (c.rescale ? ".rescale" : "");
      RecordMetric(prefix + ".end_to_end_sim_s", ToSeconds(report.end_to_end_time));
      RecordMetric(prefix + ".time_to_recover_sim_s", ToSeconds(report.time_to_recover));
      RecordMetric(prefix + ".lost_supersteps",
                   static_cast<double>(report.lost_work_supersteps));
      RecordMetric(prefix + ".match", match ? 1.0 : 0.0);
      auto fail = [&](const char* why) {
        std::printf("FAIL [%s, ckpt-every=%u%s]: %s\n", algo.c_str(), c.interval,
                    c.rescale ? ", N-1" : "", why);
        ok = false;
      };
      if (!report.crash_detected) {
        fail("the machine failure never fired (run finished before the kill time)");
      } else if (!match) {
        fail("recovered results diverged from the fault-free run");
      }
      // With a checkpoint at every superstep the failure must be recovered
      // from a checkpoint, and it must cost at most a superstep of lost work
      // plus re-provisioning — never a from-scratch restart.
      if (c.interval == 1 && report.crash_detected && !report.recovered_from_checkpoint) {
        fail("expected a checkpoint resume, got a from-scratch restart");
      }
      if (c.interval == 1 && report.lost_work_supersteps > 1) {
        fail("every-superstep checkpoints lost more than one superstep of work");
      }
    }
  }
  if (!ok) {
    std::printf("\nFAIL: a recovery invariant was violated (see FAIL lines above)\n");
    return 1;
  }
  std::printf("\nrecovered runs match the fault-free results; shorter checkpoint "
              "intervals bound the lost work\n");
  return 0;
}
