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
// MutationLog plus two structures it carries from one epoch to the next and
// patches per batch, never rebuilding them: the post-batch prepared edge
// list binned by partition, and a HostAdjacency (incremental.h) over the
// same arcs. Both are keyed by (sequence number, direction) and kept in key
// order, which is the order a fresh MakeUndirected of the raw graph gives.
// Planning an epoch (1) marks suspects on the carried pre-batch adjacency,
// (2) patches the batch into the adjacency and the bins, deletes before
// inserts, compacting each bin that lost arcs once, in place, and (3)
// computes the frontier and WCC probes on the patched adjacency — or fresh
// InitVertex seeds for the full-recompute baseline. The engines' re-bin
// stage reads the bins through a view. The EvolvingController binds a
// planner to a cluster through the MutationFeed. Every slice of a job's
// chain (MakeJobExecution in runner.cc), after a recovery or a preemption
// too, re-attaches the controller at the checkpoint's epoch: the planner
// rebuilds its carried state from MutationLog::GraphAfter at its next Plan,
// and the feed replays every epoch that was not durably committed.
#ifndef CHAOS_ALGORITHMS_EVOLVING_H_
#define CHAOS_ALGORITHMS_EVOLVING_H_

#include <algorithm>
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
      : EpochPlanner(std::move(prog), std::move(algorithm), MutationLog(raw, sched.log), sched) {}

  // Plans the epochs of a given log (tests replay hand-built histories);
  // `sched.log` is not read.
  EpochPlanner(P prog, std::string algorithm, MutationLog log, const MutationSchedule& sched)
      : prog_(std::move(prog)),
        algorithm_(std::move(algorithm)),
        incremental_(sched.incremental),
        log_(std::move(log)),
        initial_prepared_(PrepareInput(algorithm_, log_.base())) {
    CHAOS_CHECK_MSG(algorithm_ == "bfs" || algorithm_ == "sssp" || algorithm_ == "wcc",
                    "evolving mode supports bfs/sssp/wcc, got " + algorithm_);
  }

  // The epoch-0 prepared graph the cluster ingests (JobSpec::input stays RAW
  // in mutation mode; preparation happens here, per epoch).
  const InputGraph& initial_prepared() const { return initial_prepared_; }
  const MutationLog& log() const { return log_; }
  // Whether Plan reads converged states (false: full-recompute baseline).
  bool incremental() const { return incremental_; }

  // Rewinds the carried state to the raw graph after epochs [0, epoch); the
  // next Plan must be for `epoch`, and rebuilds the state for its
  // partitioning.
  void Reset(uint64_t epoch) {
    CHAOS_CHECK_LE(epoch, log_.num_batches());
    next_epoch_ = epoch;
    adj_.reset();
    parts_.reset();
    bins_ = {};
  }

  // Plans `epoch` against the carried state and advances it. `states` are
  // the converged pre-batch vertex states (incremental mode only). The
  // delta's part_edges view the carried bins: they stay valid until the
  // next Plan or Reset.
  MutationDelta Plan(uint64_t epoch, const Partitioning& parts, std::vector<VState> states) {
    CHAOS_CHECK_EQ(epoch, next_epoch_);
    if (!adj_) {
      Build(parts);
    }
    CHAOS_CHECK_MSG(parts.num_partitions() == parts_->num_partitions() &&
                        parts.verts_per_partition() == parts_->verts_per_partition(),
                    "EpochPlanner: the partitioning changed without a Reset");
    const MutationBatch& batch = log_.batch(epoch);

    MutationDelta delta;
    delta.vertex_state_bytes = sizeof(VState);
    delta.edges_inserted = batch.inserts.size();
    delta.edges_deleted = batch.deletes.size();

    SeedStats stats;
    if (incremental_) {
      stats = ComputeSeeds(batch, &states);
    } else {
      // Full-recompute baseline: fresh InitVertex seeds, identical apply
      // cost — the comparison isolates re-convergence work.
      Patch(batch);
      const uint64_t n = adj_->num_vertices();
      const auto global = prog_.InitGlobal(n);
      states.clear();
      states.reserve(n);
      for (VertexId v = 0; v < n; ++v) {
        states.push_back(prog_.InitVertex(global, v, 0));
      }
      stats.resets = n;
      stats.frontier = n;
    }
    delta.seed_states.resize(states.size() * sizeof(VState));
    std::memcpy(delta.seed_states.data(), states.data(), delta.seed_states.size());
    delta.frontier = stats.frontier;
    delta.resets = stats.resets;
    delta.part_edges.reserve(bins_.size());
    for (const Bin& bin : bins_) {
      delta.part_edges.emplace_back(bin.edges);
    }
    ++next_epoch_;
    return delta;
  }

 private:
  // One partition's post-batch prepared edges (those whose source it owns),
  // in key order, with each edge's (seq << 1 | dir) key beside it. The
  // apply stage replaces each partition's edge set with its bin wholesale,
  // so chunk layout is host-determined, independent of fetch arrival order.
  struct Bin {
    std::vector<Edge> edges;
    std::vector<uint64_t> keys;
    std::vector<uint64_t> doomed;  // keys the current batch deletes

    void Append(const Edge& e, uint64_t key) {
      edges.push_back(e);
      keys.push_back(key);
    }
    // Drops the doomed edges in one streaming pass from the first of them:
    // each run of survivors between two doomed keys moves down at once.
    void Compact() {
      if (doomed.empty()) {
        return;
      }
      std::sort(doomed.begin(), doomed.end());
      size_t kept = 0;
      size_t from = 0;  // survivors in [from, next doomed position) move to kept
      auto move_down = [&](size_t to) {
        std::copy(edges.begin() + from, edges.begin() + to, edges.begin() + kept);
        std::copy(keys.begin() + from, keys.begin() + to, keys.begin() + kept);
        kept += to - from;
      };
      for (const uint64_t key : doomed) {
        const auto it = std::lower_bound(keys.begin() + from, keys.end(), key);
        CHAOS_CHECK(it != keys.end() && *it == key);  // every deleted arc is in this bin
        const auto at = static_cast<size_t>(it - keys.begin());
        move_down(at);
        from = at + 1;
      }
      move_down(edges.size());
      edges.resize(kept);
      keys.resize(kept);
      doomed.clear();
    }
  };

  // Bins are reserved with 1/8 headroom, so epochs that insert about as
  // many edges as they delete patch them without reallocating.
  static constexpr uint64_t kBinHeadroomDivisor = 8;

  // Indexes and bins the raw graph after epochs [0, next_epoch_) in key
  // order, emitting both arcs of each raw edge directly (no prepared copy).
  void Build(const Partitioning& parts) {
    std::optional<InputGraph> replayed;
    if (next_epoch_ > 0) {
      replayed = log_.GraphAfter(next_epoch_);
    }
    const InputGraph& raw = replayed ? *replayed : log_.base();
    adj_.emplace(raw);
    parts_.emplace(parts);
    std::vector<uint64_t> counts(parts.num_partitions(), 0);
    for (const Edge& e : raw.edges) {
      ++counts[parts.PartitionOf(e.src)];
      ++counts[parts.PartitionOf(e.dst)];
    }
    bins_.resize(parts.num_partitions());
    for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
      bins_[p].edges.reserve(counts[p] + counts[p] / kBinHeadroomDivisor);
      bins_[p].keys.reserve(counts[p] + counts[p] / kBinHeadroomDivisor);
    }
    for (uint64_t i = 0; i < raw.edges.size(); ++i) {
      AppendArcs(raw.edges[i], i);
    }
  }

  // Bins both arcs of raw edge `seq`: the forward image, then the reverse
  // image MakeUndirected emits after it.
  void AppendArcs(const Edge& e, uint64_t seq) {
    bins_[parts_->PartitionOf(e.src)].Append(e, seq << 1);
    bins_[parts_->PartitionOf(e.dst)].Append(Edge{e.dst, e.src, e.weight, e.flags}, seq << 1 | 1);
  }

  // Applies `batch` to the adjacency and the bins: every delete (the
  // first live occurrence, as MutationLog::Apply) before any insert.
  void Patch(const MutationBatch& batch) {
    for (const Edge& e : batch.deletes) {
      const uint64_t seq = adj_->Delete(e);
      bins_[parts_->PartitionOf(e.src)].doomed.push_back(seq << 1);
      bins_[parts_->PartitionOf(e.dst)].doomed.push_back(seq << 1 | 1);
    }
    for (Bin& bin : bins_) {
      bin.Compact();
    }
    for (const Edge& e : batch.inserts) {
      AppendArcs(e, adj_->Insert(e));
    }
  }

  // Seeds from the converged states, patching the batch in between the
  // pre-batch and the post-batch reads of the adjacency.
  SeedStats ComputeSeeds(const MutationBatch& batch, std::vector<VState>* seeds) {
    auto patch = [&] { Patch(batch); };
    if constexpr (std::is_same_v<P, IncBfsProgram> || std::is_same_v<P, SsspProgram>) {
      return SeedPathLengths<P>(*adj_, batch, prog_.InitGlobal(0).source, seeds, patch);
    } else if constexpr (std::is_same_v<P, WccProgram>) {
      patch();
      return SeedWcc(*adj_, batch, seeds);
    } else {
      CHAOS_CHECK_MSG(false, "no incremental seeder for this program");
      return SeedStats{};
    }
  }

  P prog_;
  std::string algorithm_;
  bool incremental_;
  MutationLog log_;
  InputGraph initial_prepared_;
  // Carried per-epoch state, rewound by Reset and built by the next Plan:
  // the graph after epochs [0, next_epoch_).
  uint64_t next_epoch_ = 0;
  std::optional<HostAdjacency> adj_;
  std::optional<Partitioning> parts_;  // the partitioning bins_ follow
  std::vector<Bin> bins_;
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
  void Attach(Cluster* cluster, uint64_t start_epoch) {
    planner_.Reset(start_epoch);
    feed_.Configure(planner_.log().num_batches(),
                    [this, cluster](uint64_t epoch) { return Plan(cluster, epoch); });
    feed_.SkipTo(start_epoch);
    cluster->AttachMutations(&feed_);
  }

 private:
  // Planned at the convergence barrier, host-side (zero simulated time; the
  // engines charge the data movement when they apply the delta).
  MutationDelta Plan(Cluster* cluster, uint64_t epoch) {
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
