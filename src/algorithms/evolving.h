// Evolving-graph driver (PR 8): binds a MutationLog to a cluster run.
//
// An evolving run is ONE continuous cluster run over a sequence of mutation
// epochs. Each time the algorithm converges, the barrier coordinator asks
// the attached MutationFeed for the next epoch's delta (planned here, on
// the host, against the engine's own converged vertex states), the engines
// apply it crash-atomically (engine_core.h ApplyMutationStage), and the run
// continues from the reseeded state instead of reporting done. The run only
// finishes after the last epoch's re-convergence, so the final values are
// the fixed point of the fully mutated graph.
//
// Everything host-side lives in the EpochPlanner: the deterministic
// MutationLog plus the state it carries from one epoch to the next — the
// raw graph as of the last planned epoch and that graph's prepared
// adjacency. Planning an epoch (1) applies the next raw batch in place,
// (2) prepares the post-batch graph once, (3) computes warm-start seeds from
// the converged states against the carried pre-batch adjacency and one
// fresh post-batch adjacency (incremental.h) — or fresh InitVertex seeds for
// the full-recompute baseline — and (4) bins the complete post-batch
// prepared edge list by partition for the engines' re-bin stage. The
// post-batch adjacency then becomes the next epoch's pre-batch one, so no
// graph is prepared or indexed twice. The EvolvingController binds a
// planner to a cluster through the MutationFeed. Recovery (core/recovery.h)
// and preemption (core/job_execution.h) re-attach the controller through
// their ClusterAttachHook at the checkpoint's epoch: the planner's carried
// state rewinds via MutationLog::GraphAfter and the feed replays every
// epoch that was not durably committed.
#ifndef CHAOS_ALGORITHMS_EVOLVING_H_
#define CHAOS_ALGORITHMS_EVOLVING_H_

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/incremental.h"
#include "algorithms/runner.h"
#include "core/cluster.h"
#include "core/job_spec.h"
#include "core/mutation_feed.h"
#include "core/partition.h"
#include "graph/mutation_log.h"

namespace chaos {

// Bounded-probe default for callers that want a capped WCC connectivity
// check (tests exercise both regimes). The controller itself follows
// MutationSchedule::wcc_connectivity_budget: 0 = exhaustive, which is free
// in simulated time (planning is host-side) and keeps giant components
// from re-flooding on every intra-component delete.
inline constexpr uint64_t kWccConnectivityBudget = 4096;

// Host-side planning of mutation epochs, with the per-epoch state carried
// from one epoch to the next (see the file comment). Runs without a
// cluster: the caller supplies the converged states and the partitioning,
// so tests can drive it directly.
template <GasProgram P>
class EpochPlanner {
 public:
  using VState = typename P::VertexState;

  EpochPlanner(P prog, std::string algorithm, const InputGraph& raw,
               const MutationSchedule& sched)
      : prog_(std::move(prog)),
        algorithm_(std::move(algorithm)),
        incremental_(sched.incremental),
        wcc_budget_(sched.wcc_connectivity_budget),
        log_(raw, sched.log),
        initial_prepared_(PrepareInput(algorithm_, raw)) {
    CHAOS_CHECK_MSG(algorithm_ == "bfs" || algorithm_ == "sssp" || algorithm_ == "wcc",
                    "evolving mode supports bfs/sssp/wcc, got " + algorithm_);
  }

  // The epoch-0 prepared graph the cluster ingests (JobSpec::input stays RAW
  // in mutation mode; preparation happens here, per epoch).
  const InputGraph& initial_prepared() const { return initial_prepared_; }
  const MutationLog& log() const { return log_; }
  // Whether Plan reads converged states (false: full-recompute baseline).
  bool incremental() const { return incremental_; }

  // Rewinds every piece of carried state to the raw graph after epochs
  // [0, epoch); the next Plan must be for `epoch`.
  void Reset(uint64_t epoch) {
    CHAOS_CHECK_LE(epoch, log_.num_batches());
    current_raw_ = log_.GraphAfter(epoch);
    current_adj_.reset();
    next_epoch_ = epoch;
  }

  // Plans `epoch` against the carried state and advances it. `states` are
  // the converged pre-batch vertex states (incremental mode only).
  MutationDelta Plan(uint64_t epoch, const Partitioning& parts, std::vector<VState> states) {
    CHAOS_CHECK_EQ(epoch, next_epoch_);
    const MutationBatch& batch = log_.batch(epoch);
    if (incremental_ && !current_adj_) {
      // First epoch since Reset: index the pre-batch graph once.
      current_adj_.emplace(PrepareInput(algorithm_, current_raw_));
    }
    MutationLog::Apply(&current_raw_, batch);
    const InputGraph prepared = PrepareInput(algorithm_, current_raw_);

    MutationDelta delta;
    delta.vertex_state_bytes = sizeof(VState);
    delta.edges_inserted = batch.inserts.size();
    delta.edges_deleted = batch.deletes.size();

    SeedStats stats;
    if (incremental_) {
      HostAdjacency new_adj(prepared);
      stats = ComputeSeeds(*current_adj_, new_adj, prepared.edges.size(), batch, &states);
      current_adj_ = std::move(new_adj);
    } else {
      // Full-recompute baseline: fresh InitVertex seeds, identical apply
      // cost — the comparison isolates re-convergence work.
      const auto global = prog_.InitGlobal(prepared.num_vertices);
      states.clear();
      states.reserve(prepared.num_vertices);
      for (VertexId v = 0; v < prepared.num_vertices; ++v) {
        states.push_back(prog_.InitVertex(global, v, 0));
      }
      stats.resets = prepared.num_vertices;
      stats.frontier = prepared.num_vertices;
    }
    delta.seed_states.resize(states.size() * sizeof(VState));
    std::memcpy(delta.seed_states.data(), states.data(), delta.seed_states.size());
    delta.frontier = stats.frontier;
    delta.resets = stats.resets;

    // The COMPLETE post-batch prepared edge list, binned by the partition
    // the engines stream (PartitionOf(src), edge-list order): the apply
    // stage replaces each partition's edge set wholesale, so chunk layout
    // is host-determined and independent of fetch arrival order. Counted
    // first, so every bin is sized once.
    std::vector<uint64_t> counts(parts.num_partitions(), 0);
    for (const Edge& e : prepared.edges) {
      ++counts[parts.PartitionOf(e.src)];
    }
    delta.part_edges.resize(parts.num_partitions());
    for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
      delta.part_edges[p].reserve(counts[p]);
    }
    for (const Edge& e : prepared.edges) {
      delta.part_edges[parts.PartitionOf(e.src)].push_back(e);
    }

    ++next_epoch_;
    return delta;
  }

 private:
  SeedStats ComputeSeeds(const HostAdjacency& old_adj, const HostAdjacency& new_adj,
                         uint64_t new_prepared_edges, const MutationBatch& batch,
                         std::vector<VState>* seeds) const {
    // Per-arc (prepared) images of the batch: undirected preparation turns
    // each raw edge into two forward arcs.
    auto prepared_arcs = [](const std::vector<Edge>& raw) {
      std::vector<Edge> arcs;
      arcs.reserve(raw.size() * 2);
      for (const Edge& e : raw) {
        arcs.push_back(Edge{e.src, e.dst, e.weight, kEdgeForward});
        arcs.push_back(Edge{e.dst, e.src, e.weight, kEdgeForward});
      }
      return arcs;
    };
    const std::vector<Edge> del_arcs = prepared_arcs(batch.deletes);
    const std::vector<Edge> ins_arcs = prepared_arcs(batch.inserts);
    if constexpr (std::is_same_v<P, IncBfsProgram> || std::is_same_v<P, SsspProgram>) {
      return SeedPathLengths<P>(old_adj, new_adj, del_arcs, ins_arcs,
                                prog_.InitGlobal(0).source, seeds);
    } else if constexpr (std::is_same_v<P, WccProgram>) {
      // Budget 0 = exhaustive: one traversal per arc fully explores any
      // component, so every intact deletion is certified.
      const uint64_t budget = wcc_budget_ != 0 ? wcc_budget_ : new_prepared_edges + 1;
      return SeedWcc(new_adj, batch.deletes, ins_arcs, budget, seeds);
    } else {
      CHAOS_CHECK_MSG(false, "no incremental seeder for this program");
      return SeedStats{};
    }
  }

  P prog_;
  std::string algorithm_;
  bool incremental_;
  uint64_t wcc_budget_;  // 0 = exhaustive probe
  MutationLog log_;
  InputGraph initial_prepared_;
  // Carried per-epoch state, rewound by Reset.
  uint64_t next_epoch_ = 0;
  InputGraph current_raw_;  // raw graph after epochs [0, next_epoch_)
  std::optional<HostAdjacency> current_adj_;  // its prepared arcs, once built
};

template <GasProgram P>
class EvolvingController {
 public:
  using VState = typename P::VertexState;

  EvolvingController(P prog, std::string algorithm, const InputGraph& raw,
                     const MutationSchedule& sched)
      : planner_(std::move(prog), std::move(algorithm), raw, sched) {}

  const InputGraph& initial_prepared() const { return planner_.initial_prepared(); }
  const MutationLog& log() const { return planner_.log(); }
  MutationFeed* feed() { return &feed_; }

  // Binds the feed's planner to `cluster` with epochs [0, start_epoch)
  // already durably baked into the state the cluster holds: 0 for a fresh
  // run, RunResult::checkpoint_epoch when resuming from a checkpoint. Resets
  // the planner's carried state to that epoch. Must run before Run/Resume;
  // the controller must outlive the cluster's run.
  void Attach(Cluster<P>* cluster, uint64_t start_epoch) {
    planner_.Reset(start_epoch);
    feed_.Configure(planner_.log().num_batches(),
                    [this, cluster](uint64_t epoch) { return Plan(cluster, epoch); });
    feed_.SkipTo(start_epoch);
    cluster->AttachMutations(&feed_);
  }

 private:
  // Planned at the convergence barrier, host-side (zero simulated time; the
  // engines charge the data movement when they apply the delta).
  MutationDelta Plan(Cluster<P>* cluster, uint64_t epoch) {
    std::vector<VState> states;
    if (planner_.incremental()) {
      // Warm-start from the engine's own converged states (read host-side
      // at the barrier instant — every machine is quiescent).
      cluster->HostReadStates(SetKind::kVertices, &states);
    }
    return planner_.Plan(epoch, cluster->partitioning(), std::move(states));
  }

  EpochPlanner<P> planner_;
  MutationFeed feed_;
};

}  // namespace chaos

#endif  // CHAOS_ALGORITHMS_EVOLVING_H_
