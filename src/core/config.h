// Cluster-level configuration for a Chaos run.
#ifndef CHAOS_CORE_CONFIG_H_
#define CHAOS_CORE_CONFIG_H_

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/steal_policy.h"
#include "net/network.h"
#include "sim/fault_injector.h"
#include "sim/time.h"
#include "storage/storage_engine.h"
#include "util/common.h"

namespace chaos {

// CPU cost model. The defaults are fixed constants, not measured on the
// host. Costs are per item on one core; the engine divides by the
// configured core count (the paper's machines have 16 cores, §8).
struct CostModel {
  double ns_per_edge_scatter = 6.0;
  double ns_per_update_gather = 6.0;
  double ns_per_vertex_apply = 4.0;
  double ns_per_vertex_merge = 2.0;
  // Per-message CPU cost (0MQ handling, §7); paid per chunk exchanged.
  double ns_per_message = 4000.0;
  int cores = 16;

  TimeNs ItemsTime(uint64_t items, double ns_per_item) const {
    const double total = static_cast<double>(items) * ns_per_item / cores;
    return static_cast<TimeNs>(std::ceil(total));
  }
  TimeNs MessageTime() const { return ItemsTime(1, ns_per_message); }
};

// How chunk placement targets are chosen (paper default: uniform random).
enum class Placement {
  kRandom,            // Chaos: uniformly random engine per chunk (§6.2)
  kLocalMaster,       // Giraph-like baseline: partition data on its master
  kCentralDirectory,  // Fig. 15 baseline: a directory server picks targets
};

// Safety bound on the supersteps of one run (Chaos and the X-Stream
// baseline): a run that reaches it is not converging.
inline constexpr uint64_t kMaxSupersteps = 100000;

struct ClusterConfig {
  int machines = 4;

  // Memory available per machine for one partition's vertex state plus
  // accumulators; determines the number of streaming partitions (§3) and —
  // through EffectivePoolBudget() — the enforced per-machine buffer-pool
  // budget (core/buffer_pool.h) every sizable buffer acquires pages from.
  uint64_t memory_budget_bytes = 8ull << 20;

  // Buffer-pool enforcement. With `memory_enforced` (the default), each
  // machine's live buffers are capped at EffectivePoolBudget() bytes;
  // overflow spills to the machine's storage device (simulated I/O + FIFO
  // stall). `pool_budget_bytes` overrides the enforced budget without
  // touching the partitioning — the knob behind chaos_run --mem-mb and the
  // bench_fig_memory degradation sweep, where the partition layout (and
  // therefore the record streams) must stay fixed while RAM shrinks.
  // 0 = auto: twice the partition working set (vertex state + accumulators,
  // doubled for a stolen partition's replica) plus streaming-window
  // headroom (fetch + write + storage staging + sub-chunk binner fill).
  bool memory_enforced = true;
  uint64_t pool_budget_bytes = 0;

  // Chunk size. The paper uses 4 MB; scaled-down runs use smaller chunks so
  // that partition chunk counts (the work-stealing granularity) match the
  // paper's regime.
  uint64_t chunk_bytes = 256 << 10;

  // Batching (§6.5): chunk requests each engine keeps outstanding, the
  // paper's phi*k with phi = 1 + Rnetwork/Rstorage. The paper measures
  // phi ~= 2 on its SSD/40GigE testbed and uses k = 5 (phi*k = 10, Fig. 16).
  int fetch_window = 10;

  // Work-stealing bias alpha (§10.2): master accepts a steal proposal iff
  // V + D/(H+1) < alpha * D/H. 0 disables stealing; infinity always steals.
  double alpha = 1.0;

  // Steal policy (core/steal_policy.h): how idle engines sweep victims and
  // how much a granted proposal takes. The default is the paper's baseline
  // (randomized steal-one, no backoff, no victim hints, flat routing);
  // alpha above stays the accept/decline bias under every mode.
  StealPolicy steal;

  Placement placement = Placement::kRandom;

  // Checkpoint every N supersteps (0 = off, the default), 2-phase protocol
  // (§6.6). Units: supersteps. The checkpoint copy is written during gather
  // (GatherPhase::ProcessMaster) and committed at the phase-1 barrier of
  // EngineCore::CommitCheckpoint; Cluster::Resume and bench
  // fig13/fig_recovery consume the result.
  uint32_t checkpoint_interval = 0;

  // Scripted whole-cluster crash: stop all compute engines after the gather
  // barrier of this superstep (units: absolute superstep index; -1 = never,
  // the default). Storage contents survive for recovery. Consumed by the
  // barrier coordinator (EngineCore::BarrierService); for a *machine*
  // failure mid-run use FaultSchedule::MachineCrash in `faults` instead.
  int64_t crash_after_superstep = -1;

  NetworkConfig net = NetworkConfig::FortyGigE();
  StorageConfig storage = StorageConfig::Ssd();
  CostModel cost;

  // Declarative fault/straggler schedule replayed during the run (see
  // sim/fault_injector.h): rate degradations and fail-stop MachineCrash
  // events. Empty = perfectly healthy cluster. A machine that is slower
  // throughout is a permanent fault from t=0 (FaultSchedule::Straggler).
  FaultSchedule faults;

  uint64_t seed = 1;

  // The enforced per-machine buffer-pool budget; 0 = enforcement off.
  uint64_t EffectivePoolBudget() const {
    if (!memory_enforced) {
      return 0;
    }
    if (pool_budget_bytes > 0) {
      return pool_budget_bytes;
    }
    return 2 * memory_budget_bytes +
           4ull * static_cast<uint64_t>(fetch_window) * chunk_bytes;
  }
  bool stealing_enabled() const { return alpha > 0.0; }
};

// Theoretical storage utilization from the paper's batching analysis:
// rho(m, k) = 1 - (1 - k/m)^m   (Eq. 4); for k >= m utilization is 1.
inline double TheoreticalUtilization(int m, int k) {
  CHAOS_CHECK_GT(m, 0);
  CHAOS_CHECK_GT(k, 0);
  if (k >= m) {
    return 1.0;
  }
  return 1.0 - std::pow(1.0 - static_cast<double>(k) / m, m);
}

// Limit of Eq. 4 as m -> infinity: 1 - e^-k (Eq. 5).
inline double UtilizationLowerBound(int k) { return 1.0 - std::exp(-static_cast<double>(k)); }

}  // namespace chaos

#endif  // CHAOS_CORE_CONFIG_H_
