// Figure 21 (extension): straggler severity x steal policy x cluster size.
//
// A healthy cluster plus a straggler *cluster* — machines [victim,
// victim+n) degraded to 1/severity of nominal speed from t=0 (n defaults
// to machines/8: one bad machine at small N, a bad rack-slice at 32+).
// Sweeps severity x {stealing off, steal_one, steal_half, adaptive}
// (core/steal_policy.h) x cluster size (--machines or --machines-list) and
// reports each cell's simulated runtime, p99 superstep duration, and how
// often the stragglers' partitions were actually stolen. Weak scaling: the
// graph grows with the cluster (--scale names the 4-machine cell) so
// per-machine work stays comparable across N.
//
// The paper's thesis (§5): uniform-random chunk placement plus randomized
// stealing tolerates imbalance without partitioning smarts — a claim the
// homogeneous benches never exercise. Configuration note: the miniaturized
// default config is storage-bandwidth-bound, which would mask a CPU
// straggler entirely; this bench therefore pins the compute-bound regime
// (1 core per machine, NVMe-class storage, heavy per-item CPU costs) where
// per-machine compute speed is the binding resource, as it is on the
// paper's testbed once storage is fast enough (§9.2, Fig. 11).
//
// Two executable gates make `ok` in the chaos-bench JSON a record of the
// load-balancing claims (exit 1 on failure); both apply only to cells
// where the straggler actually binds (>= 15% over the severity-1 "off"
// baseline when one was swept):
//  * under a >= 4x straggler, steal_one and adaptive must strictly beat
//    stealing-off (and the stragglers' partitions must actually get
//    stolen);
//  * at >= 32 machines — where the straggler cluster's open partitions
//    outnumber idle helpers — adaptive must strictly beat steal_one on
//    p99 superstep (tail) latency at the highest severity: a steal-one
//    helper is captive to its single stolen partition (a gather steal
//    parks until the slow master pulls the replica) while adaptive,
//    escalated by the victims' more-work hints, claims open partitions in
//    batches and streams them concurrently through one captivity period.
#include <algorithm>
#include <map>

#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

namespace {

struct PolicyCell {
  std::string name;
  double alpha = 1.0;
  StealPolicy steal;
};

// The policy rows:
//   off        — stealing disabled (alpha = 0).
//   steal_one  — the paper's baseline protocol exactly as §5.4 describes
//                it: one partition per grant, give up after the first dry
//                sweep, no victim hints (the pre-policy engine behavior).
//   steal_half — the baseline with only the amount changed, isolating what
//                batch grants alone buy.
//   adaptive   — the full adaptive runtime this subsystem adds: hint-driven
//                amount escalation plus backoff, victim check, and 2-level
//                routing at >= 32 machines. The gated large-N claim
//                compares this runtime against the baseline protocol.
std::vector<PolicyCell> PolicyRows(int machines) {
  std::vector<PolicyCell> rows;
  rows.push_back({"off", 0.0, StealPolicy{}});
  PolicyCell one{"steal_one", 1.0, StealPolicy{}};
  one.steal.mode = StealMode::kStealOne;
  rows.push_back(one);
  PolicyCell half{"steal_half", 1.0, StealPolicy{}};
  half.steal.mode = StealMode::kStealHalf;
  rows.push_back(half);
  PolicyCell adaptive{"adaptive", 1.0, StealPolicy{}};
  adaptive.steal.mode = StealMode::kAdaptive;
  adaptive.steal.backoff_hints = true;
  adaptive.steal.steal_domain = machines >= 32 ? 8 : 0;
  rows.push_back(adaptive);
  return rows;
}

}  // namespace

CHAOS_BENCH_MAIN(fig21_stragglers,
                 "Figure 21: straggler severity x steal policy x cluster size") {
  Options opt;
  opt.AddInt("scale", 12, "RMAT scale at 4 machines (weak scaling: +1 per doubling)", 0,
             kMaxBenchScale);
  opt.AddInt("machines", 4, "simulated machines (used when --machines-list is empty)", 1,
             kMaxBenchMachines);
  // The default matrix carries both regimes the gates speak about: the
  // 4-machine cell where any stealing wins, and the 32-machine cell where
  // the steal amount and request-storm discipline decide the tail.
  opt.AddIntList("machines-list", "4,32", "comma list of cluster sizes (overrides --machines)",
                 1, kMaxBenchMachines);
  // Whole factors: a cell's label and metric keys print the severity as one.
  opt.AddIntList("severities", "1,2,4,8", "comma list of straggler slowdown factors", 1,
                 static_cast<int64_t>(kMaxSlowdown));
  opt.AddInt("victim", 0, "first machine of the straggler cluster", 0, kMaxBenchMachines - 1);
  opt.AddInt("stragglers", 0,
             "straggler cluster size, machines victim..victim+n-1 (0 = machines/8, min 1)", 0,
             kMaxBenchMachines);
  // An int, as chaos_run's --partitions-per-machine: parts x machines fits 64 bits.
  opt.AddInt("parts", 4, "target streaming partitions per machine", 1, INT32_MAX);
  opt.AddString("algo", "pagerank", "algorithm to run", AlgorithmNames());
  opt.AddString("target", "cpu", "degraded resource", {"cpu", "storage", "nic", "machine"});
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const auto victim = static_cast<MachineId>(opt.GetInt("victim"));
  const auto stragglers = static_cast<int>(opt.GetInt("stragglers"));
  const auto parts = static_cast<uint64_t>(opt.GetInt("parts"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const std::string algo = opt.GetString("algo");
  FaultTarget target = FaultTarget::kCpu;
  ParseFaultTarget(opt.GetString("target"), &target);  // a declared choice
  const std::vector<int64_t>& listed = opt.GetIntList("machines-list");
  std::vector<int> machine_counts(listed.begin(), listed.end());
  if (machine_counts.empty()) {
    machine_counts.push_back(static_cast<int>(opt.GetInt("machines")));
  }
  const std::vector<int64_t>& listed_severities = opt.GetIntList("severities");
  const std::vector<double> severities(listed_severities.begin(), listed_severities.end());
  if (severities.empty()) {
    std::fprintf(stderr, "--severities must be non-empty\n");
    return 1;
  }
  // The straggler cluster grows with the machine count by default: one bad
  // machine at small N, a bad rack-slice (N/8) at 32+. That keeps the gated
  // comparison in the regime where the cluster's open partitions outnumber
  // idle helpers — where the steal amount starts to matter.
  auto cluster_stragglers = [&](int machines) {
    return stragglers > 0 ? stragglers : std::max(1, machines / 8);
  };
  for (const int m : machine_counts) {
    const int n = cluster_stragglers(m);
    if (n >= m || victim > m - n) {
      std::fprintf(stderr,
                   "straggler cluster [%d, %lld) must leave a healthy machine in [0, %d)\n",
                   victim, static_cast<long long>(victim) + n, m);
      return 1;
    }
  }

  // Weak scaling: per-machine work is what decides whether a CPU straggler
  // binds, so the graph grows with the cluster — the flag names the scale
  // of the 4-machine cell and every doubling of machines adds one.
  auto effective_scale = [&](int machines) {
    uint32_t s = scale;
    for (int64_t m = 4; m < machines; m *= 2) {
      ++s;
    }
    return s;
  };
  for (const int m : machine_counts) {
    if (effective_scale(m) > kMaxBenchScale) {
      std::fprintf(stderr, "--scale %u grows to RMAT-%u at %d machines, past RMAT-%lld\n", scale,
                   effective_scale(m), m, static_cast<long long>(kMaxBenchScale));
      return 1;
    }
  }
  std::map<int, std::shared_ptr<InputGraph>> graphs;
  for (const int m : machine_counts) {
    if (graphs.count(m) == 0) {
      graphs[m] = std::make_shared<InputGraph>(
          PrepareInput(algo, BenchRmat(effective_scale(m), false, seed)));
    }
  }

  auto configure = [=](int machines, double severity, const PolicyCell& policy) {
    const std::shared_ptr<InputGraph>& g = graphs.at(machines);
    ClusterConfig cfg = BenchClusterConfig(*g, machines, seed);
    // Compute-bound regime: one core per machine, NVMe-class devices, and
    // per-item CPU costs heavy enough that each machine's scan compute —
    // not its storage stream — paces the superstep. A CPU straggler is
    // invisible in the bandwidth-bound default regime.
    cfg.cost.cores = 1;
    cfg.storage.bandwidth_bps = 10e9;
    cfg.cost.ns_per_edge_scatter = 30.0;
    cfg.cost.ns_per_update_gather = 30.0;
    cfg.cost.ns_per_vertex_apply = 20.0;
    cfg.cost.ns_per_vertex_merge = 10.0;
    // Control/ack messages are fixed-size; their per-message CPU cost does
    // not shrink with the chunk miniaturization, so restore the full-size
    // cost (this is what makes the large-N request storm a real load on a
    // degraded machine, as on the paper's testbed).
    cfg.cost.ns_per_message = 4000.0;
    // --parts streaming partitions per machine: helpers take over whole
    // untouched partitions, so finer partitions mean finer steal granularity
    // (and more open partitions for steal-half's batches to matter).
    cfg.memory_budget_bytes = std::max<uint64_t>(
        g->num_vertices * 8 / (parts * static_cast<uint64_t>(machines)), 1024);
    cfg.alpha = policy.alpha;
    cfg.steal = policy.steal;
    // Backoff windows live in the same miniaturized time frame as the
    // other fixed latencies (see BenchClusterConfig).
    cfg.steal.backoff_initial = BenchShrinkTime(cfg, cfg.steal.backoff_initial);
    cfg.steal.backoff_max = BenchShrinkTime(cfg, cfg.steal.backoff_max);
    if (severity > 1.0) {
      // A straggler *cluster*: machines victim..victim+n-1 all run
      // `severity` times slower from t=0.
      for (int s = 0; s < cluster_stragglers(machines); ++s) {
        FaultEvent e;
        e.machine = victim + s;
        e.target = target;
        e.factor = 1.0 / severity;
        cfg.faults.Add(e);
      }
    }
    return cfg;
  };

  // Points: cluster size x severity x policy, declared in print order.
  Sweep<AlgoResult> sweep;
  for (const int machines : machine_counts) {
    for (const double severity : severities) {
      for (const PolicyCell& policy : PolicyRows(machines)) {
        sweep.Add([=] {
          return RunJob(MakeJob(algo, *graphs.at(machines), configure(machines, severity, policy)));
        });
      }
    }
  }
  const std::vector<AlgoResult> results = sweep.Run();

  bool small_gate_ok = true;  // steal_one/adaptive beat off under >= 4x
  bool tail_gate_ok = true;   // N >= 32: adaptive p99 < steal_one p99 at max severity
  const double max_severity = *std::max_element(severities.begin(), severities.end());
  size_t idx = 0;
  for (const int machines : machine_counts) {
    const std::vector<PolicyCell> policies = PolicyRows(machines);
    std::printf("== Figure 21: %s, %d machines, machines [%d, %d) straggling (%s), RMAT-%u ==\n",
                algo.c_str(), machines, victim, victim + cluster_stragglers(machines),
                FaultTargetName(target), effective_scale(machines));
    PrintHeader({"severity", "off s", "one s", "half s", "adaptive s", "one p99ms",
                 "adapt p99ms", "adapt steals"});
    // The severity-1 "off" runtime of this cluster size: the baseline that
    // tells whether a given severity actually binds (gates only apply where
    // the straggler is the bottleneck, not where N-dependent fixed overheads
    // swamp the per-machine compute).
    double off_sev1 = -1.0;
    for (size_t si = 0; si < severities.size(); ++si) {
      if (severities[si] == 1.0) {
        off_sev1 = results[idx + si * policies.size()].metrics.total_seconds();
      }
    }
    for (const double severity : severities) {
      double off_s = 0.0;
      std::map<std::string, const AlgoResult*> row;
      for (const PolicyCell& policy : policies) {
        const AlgoResult& r = results[idx++];
        row[policy.name] = &r;
        const std::string prefix = "fig21.m" + std::to_string(machines) + ".sev" +
                                   Fixed(severity, 0) + "." + policy.name;
        RecordMetric(prefix + ".sim_s", r.metrics.total_seconds());
        RecordMetric(prefix + ".p99_superstep_s", ToSeconds(r.metrics.SuperstepTail(0.99)));
        if (policy.alpha > 0.0) {
          uint64_t victim_steals = 0;
          for (const auto& f : r.metrics.faults) {
            victim_steals += r.metrics.StealsDuringFault(f);
          }
          RecordMetric(prefix + ".victim_steals", static_cast<double>(victim_steals));
          RecordMetric(prefix + ".victim_miss_rate", r.metrics.VictimMissRate());
        }
      }
      auto seconds = [&](const char* name) { return row[name]->metrics.total_seconds(); };
      auto p99_ms = [&](const char* name) {
        return 1e3 * ToSeconds(row[name]->metrics.SuperstepTail(0.99));
      };
      auto victim_steals = [&](const char* name) {
        uint64_t total = 0;
        for (const auto& f : row[name]->metrics.faults) {
          total += row[name]->metrics.StealsDuringFault(f);
        }
        return total;
      };
      off_s = seconds("off");
      PrintCell(Fixed(severity, 0) + "x");
      PrintCell(off_s, "%.4f");
      PrintCell(seconds("steal_one"), "%.4f");
      PrintCell(seconds("steal_half"), "%.4f");
      PrintCell(seconds("adaptive"), "%.4f");
      PrintCell(p99_ms("steal_one"), "%.3f");
      PrintCell(p99_ms("adaptive"), "%.3f");
      PrintCell(Fixed(static_cast<double>(victim_steals("adaptive")), 0));
      EndRow();
      // Gates apply only where the straggler cluster is the bottleneck:
      // when a severity-1 baseline was swept, the degraded cell must be at
      // least 15% slower than it. Cells dominated by N-dependent fixed
      // overheads say nothing about steal policy.
      const bool straggler_binds = off_sev1 < 0.0 || off_s > 1.15 * off_sev1;
      // The load-balancing claim: under a serious straggler, stealing must
      // strictly win (and the victim's partitions must actually get stolen).
      if (severity >= 4.0 && straggler_binds) {
        for (const char* name : {"steal_one", "adaptive"}) {
          if (seconds(name) >= off_s || victim_steals(name) == 0) {
            small_gate_ok = false;
          }
        }
      }
      // The large-N tail claim (gated acceptance scenario): adaptive's
      // hint-driven steal-half escalation must strictly beat one-partition
      // grants on p99 superstep latency under the worst straggler.
      if (machines >= 32 && severity >= 4.0 && severity == max_severity && straggler_binds &&
          p99_ms("adaptive") >= p99_ms("steal_one")) {
        tail_gate_ok = false;
      }
    }
    std::printf("\n");
  }
  if (!small_gate_ok) {
    std::printf("FAIL: stealing did not strictly beat no-stealing under a >=4x straggler\n");
    return 1;
  }
  if (!tail_gate_ok) {
    std::printf("FAIL: adaptive did not beat steal_one on p99 superstep latency at >=32 "
                "machines\n");
    return 1;
  }
  std::printf("stealing absorbs the straggler; without it the victim gates every barrier\n");
  return 0;
}
