// MutationFeed: the untyped bridge between an evolving-graph driver (which
// owns the MutationLog, the typed program and the incremental seed math —
// algorithms/evolving.h) and the untemplated engine core.
//
// The coordinator consults the feed at every convergence barrier: if a
// batch is pending, it calls Plan() — a zero-sim-time host callback that
// reads the engines' converged vertex states, patches the next raw batch
// into the planner's per-partition prepared edge lists and computes the
// reseeded vertex states — then releases the barrier with `mutate` set
// instead of `done`. Every engine then runs the timed apply-mutations stage
// (EngineCore::ApplyMutationStage) against the planned delta, so all data
// movement the plan implies is charged to simulated devices even though
// planning itself is host-side.
#ifndef CHAOS_CORE_MUTATION_FEED_H_
#define CHAOS_CORE_MUTATION_FEED_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/common.h"

namespace chaos {

// One planned mutation epoch, ready for engines to apply: the complete
// post-batch prepared edge set binned by partition (deletes are simply
// absent; inserts present), plus the full reseeded vertex-state image.
struct MutationDelta {
  // Prepared (post-MakeUndirected) edges of the NEW graph, one span per
  // partition, in deterministic (host-computed) order. Non-owning: the
  // spans view the planner's carried bins and stay valid only until that
  // planner's next Plan or Reset, so a delta is applied before the next
  // epoch is planned and is never kept across a re-attach.
  std::vector<std::span<const Edge>> part_edges;
  // Reseeded vertex states for ALL vertices, vertex_state_bytes() each.
  std::vector<uint8_t> seed_states;
  uint64_t vertex_state_bytes = 0;
  // Batch + seed accounting, copied into MutationEpochRecord on commit.
  uint64_t edges_inserted = 0;
  uint64_t edges_deleted = 0;
  uint64_t frontier = 0;  // seeds left with their changed flag set
  uint64_t resets = 0;    // seeds reset to the init value
};

class MutationFeed {
 public:
  using Planner = std::function<MutationDelta(uint64_t epoch)>;

  // `total_epochs` = number of batches in the log; `planner` produces the
  // delta for one epoch (called exactly once per epoch, in order, from the
  // coordinator's barrier FSM while every machine is parked at the barrier
  // — host reads of engine state are race-free there).
  void Configure(uint64_t total_epochs, Planner planner) {
    total_epochs_ = total_epochs;
    planner_ = std::move(planner);
    next_epoch_ = 0;
    current_ = MutationDelta{};  // its views die with the planner's Reset
  }

  // Resume support: epochs [0, epoch) are already committed in the state
  // being imported; planning restarts at `epoch`.
  void SkipTo(uint64_t epoch) {
    CHAOS_CHECK_LE(epoch, total_epochs_);
    next_epoch_ = epoch;
  }

  bool HasPending() const { return planner_ != nullptr && next_epoch_ < total_epochs_; }

  // Plans the next epoch. Returns the epoch index just planned.
  uint64_t Plan() {
    CHAOS_CHECK(HasPending());
    const uint64_t epoch = next_epoch_;
    current_ = planner_(epoch);
    ++next_epoch_;
    return epoch;
  }

  const MutationDelta& Current() const { return current_; }

  // Epochs planned so far. Equal to epochs durably applied whenever the
  // cluster is at a committed checkpoint (a planned batch either commits in
  // the same superstep or the run aborts), which is when the engine records
  // it into checkpoint metadata.
  uint64_t applied_epochs() const { return next_epoch_; }
  uint64_t total_epochs() const { return total_epochs_; }

 private:
  uint64_t total_epochs_ = 0;
  uint64_t next_epoch_ = 0;
  Planner planner_;
  MutationDelta current_;
};

}  // namespace chaos

#endif  // CHAOS_CORE_MUTATION_FEED_H_
