// MutationLog: a seeded, deterministic stream of edge insert/delete batches
// against a raw (directed, pre-PrepareInput) graph — the evolving-graph
// input the paper's production scenarios gesture at (social influence,
// road routing on live data).
//
// The log is generated eagerly at construction so the whole mutation
// history is a pure function of (base graph, options): batch k is produced
// against the graph state after batches [0, k) have been applied, with an
// rng derived per batch. Three generators shape the stream:
//
//   uniform — inserts pick (src, dst) uniformly; deletes pick surviving
//             edges uniformly.
//   hotspot — a small seeded vertex set receives most inserts and loses
//             most deletes (skewed churn, social-graph style).
//   churn   — short-lived edges: each batch preferentially deletes the
//             PREVIOUS batch's inserts before touching old edges.
//
// Deletes name exact edge records (src, dst, weight, flags); Apply removes
// one matching occurrence per record, so multigraph edges are handled and
// application order inside a batch is irrelevant.
#ifndef CHAOS_GRAPH_MUTATION_LOG_H_
#define CHAOS_GRAPH_MUTATION_LOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace chaos {

enum class MutatePreset : uint8_t {
  kUniform = 0,
  kHotspot = 1,
  kChurn = 2,
};

const char* MutatePresetName(MutatePreset preset);
std::optional<MutatePreset> MutatePresetByName(const std::string& name);

struct MutationLogOptions {
  // Number of batches in the log. 0 = inactive (JobSpec's default).
  uint32_t num_batches = 0;
  // Batch size as a fraction of the CURRENT edge count, in (0, 1]; >= 1 edge.
  double rate = 0.01;
  // Fraction of each batch that deletes edges; the rest inserts.
  double delete_fraction = 0.5;
  MutatePreset preset = MutatePreset::kUniform;
  uint64_t seed = 1;
};

struct MutationBatch {
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;  // exact records present in the pre-batch graph
};

class MutationLog {
 public:
  MutationLog(const InputGraph& base, const MutationLogOptions& opt);
  // A log of given batches against `base` (a recorded or hand-built
  // history). Batch k must apply to the graph after batches [0, k).
  MutationLog(InputGraph base, std::vector<MutationBatch> batches)
      : base_(std::move(base)), batches_(std::move(batches)) {}

  uint64_t num_batches() const { return batches_.size(); }
  const MutationBatch& batch(uint64_t k) const { return batches_[k]; }
  const InputGraph& base() const { return base_; }

  // Removes one occurrence of every record in `b.deletes` (preserving the
  // relative order of survivors) and appends `b.inserts`. CHECK-fails if a
  // delete names an edge not present — the log only ever deletes edges it
  // can see, so a miss means the caller applied batches out of order.
  static void Apply(InputGraph* g, const MutationBatch& b);

  // The raw graph after batches [0, k) — GraphAfter(0) is the base.
  InputGraph GraphAfter(uint64_t k) const;

 private:
  InputGraph base_;
  std::vector<MutationBatch> batches_;
};

}  // namespace chaos

#endif  // CHAOS_GRAPH_MUTATION_LOG_H_
