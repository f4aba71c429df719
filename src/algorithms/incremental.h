// Incremental variants of the monotone benchmark algorithms for evolving
// graphs (PR 8): a warm-startable BFS program plus the host-side seed
// computations that turn a converged state and one mutation batch into the
// reseeded state the engines re-converge from.
//
// The contract shared by all three seeders: seeds are an ACHIEVABLE upper
// bound of the new fixed point (every non-reset value can still be realized
// by a path/component of the post-batch graph), and every vertex whose value
// can start an improvement carries its changed flag. Monotone min-fold then
// converges to the unique fixed point of the mutated graph — bitwise the
// same values a from-scratch run computes (1e-3 for SSSP's float sums).
//
//  * BFS / SSSP: the ANY-rule. A vertex is suspect when any tight arc into
//    it (one that could have produced its value) was deleted or originates
//    at a suspect; suspects reset to "unreached" and the intact boundary
//    re-announces. Conservative — over-marking only costs recompute work,
//    never correctness.
//  * WCC: per deleted intra-component edge, a budgeted reachability probe
//    on the new graph; if the endpoints may have split (or the budget runs
//    out), the entire old component resets to self-labels and re-floods.
#ifndef CHAOS_ALGORITHMS_INCREMENTAL_H_
#define CHAOS_ALGORITHMS_INCREMENTAL_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "algorithms/basic.h"
#include "core/gas.h"
#include "graph/types.h"

namespace chaos {

// ---------------------------------------------------------------- inc-bfs
// Warm-startable BFS: min-propagation of depth over unit-weight arcs,
// driven by per-vertex changed flags (the level-synchronous BfsProgram
// cannot resume from a partially correct state — its scatter condition is
// depth == global level). From fresh seeds it walks the same frontier
// waves; from incremental seeds it re-converges only the reset region.
// Extract maps the unreached sentinel to -1, bitwise matching BfsProgram.
class IncBfsProgram {
 public:
  static constexpr const char* kName = "incbfs";
  static constexpr bool kNeedsOutDegrees = false;
  static constexpr int64_t kUnreached = std::numeric_limits<int64_t>::max();

  struct VertexState {
    int64_t depth;
    uint8_t changed;
  };
  struct UpdateValue {
    int64_t depth;
  };
  struct Accumulator {
    int64_t min_depth;
    uint8_t valid;
  };
  struct GlobalState {
    VertexId source;
  };
  using OutputRecord = NoOutput;

  explicit IncBfsProgram(VertexId source = 0) : source_(source) {}

  GlobalState InitGlobal(uint64_t) const { return GlobalState{source_}; }
  GlobalState InitLocal() const { return GlobalState{0}; }
  Accumulator InitAccum() const { return Accumulator{kUnreached, 0}; }
  VertexState InitVertex(const GlobalState& g, VertexId v, uint32_t) const {
    return v == g.source ? VertexState{0, 1} : VertexState{kUnreached, 0};
  }
  bool WantScatter(const GlobalState&) const { return true; }

  template <typename Emit>
  void Scatter(const GlobalState&, VertexId, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    if (e.flags == kEdgeForward && s.changed && s.depth != kUnreached) {
      emit(e.dst, UpdateValue{s.depth + 1});
    }
  }

  template <typename Emit>
  void Gather(const GlobalState&, VertexId, const VertexState&, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    if (!a.valid || u.depth < a.min_depth) {
      a.min_depth = u.depth;
      a.valid = 1;
    }
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const {
    if (b.valid && (!a.valid || b.min_depth < a.min_depth)) {
      a = b;
    }
  }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState&, VertexId, VertexState& v, const Accumulator& a, GlobalState&,
             Emit&&, Sink&&) const {
    const bool improved = a.valid && a.min_depth < v.depth;
    if (improved) {
      v.depth = a.min_depth;
    }
    v.changed = improved ? 1 : 0;
    return improved;
  }

  void ReduceGlobal(GlobalState&, const GlobalState&) const {}
  bool Advance(GlobalState&, uint64_t, uint64_t changed) const { return changed == 0; }
  double Extract(const VertexState& v) const {
    return v.depth == kUnreached ? -1.0 : static_cast<double>(v.depth);
  }

 private:
  VertexId source_;
};

// ----------------------------------------------------------- host helpers

// Host-side CSR over the forward arcs of a prepared graph. Iteration order
// is edge-list order within each source — deterministic. The evolving
// planner builds one per epoch (the post-batch graph) and carries it
// forward as the next epoch's pre-batch adjacency.
class HostAdjacency {
 public:
  struct Arc {
    VertexId dst;
    float weight;
  };

  explicit HostAdjacency(const InputGraph& g) : offsets_(g.num_vertices + 1, 0) {
    for (const Edge& e : g.edges) {
      if (e.flags == kEdgeForward) {
        ++offsets_[e.src + 1];
      }
    }
    for (uint64_t v = 0; v < g.num_vertices; ++v) {
      offsets_[v + 1] += offsets_[v];
    }
    arcs_.resize(offsets_.back());
    std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (const Edge& e : g.edges) {
      if (e.flags == kEdgeForward) {
        arcs_[cursor[e.src]++] = Arc{e.dst, e.weight};
      }
    }
  }

  uint64_t num_vertices() const { return offsets_.size() - 1; }

  std::span<const Arc> Out(VertexId v) const {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }

 private:
  std::vector<uint64_t> offsets_;
  std::vector<Arc> arcs_;
};

// Seed accounting, surfaced through MutationDelta into MutationEpochRecord.
struct SeedStats {
  uint64_t frontier = 0;  // seeds left with their changed flag set
  uint64_t resets = 0;    // seeds reset to the init value
};

// ----------------------------------------------------- path-length seeder
// BFS and SSSP share the ANY-rule and differ only in the state field, the
// unreached sentinel and the arc length. Tightness is checked with the
// exact expression the engine's scatter evaluates (depth + 1, or the float
// sum dist + weight), so every arc that could have produced a value is
// recognized.
template <typename P>
struct PathLength;

template <>
struct PathLength<IncBfsProgram> {
  static constexpr int64_t kUnreached = IncBfsProgram::kUnreached;
  static int64_t Of(const IncBfsProgram::VertexState& s) { return s.depth; }
  static int64_t Via(int64_t depth, float /*weight*/) { return depth + 1; }
};

template <>
struct PathLength<SsspProgram> {
  static constexpr float kUnreached = SsspProgram::kInf;
  static float Of(const SsspProgram::VertexState& s) { return s.dist; }
  static float Via(float dist, float weight) { return dist + weight; }
};

// `old_adj`/`new_adj` are the pre- and post-batch prepared graphs' arcs.
// `deleted_arcs`/`inserted_arcs` are the batch in PREPARED per-arc form
// (undirected preparation turns each raw edge into two forward arcs).
// `states` holds the engine's converged pre-batch states in, seeds out.
template <typename P>
SeedStats SeedPathLengths(const HostAdjacency& old_adj, const HostAdjacency& new_adj,
                          const std::vector<Edge>& deleted_arcs,
                          const std::vector<Edge>& inserted_arcs, VertexId source,
                          std::vector<typename P::VertexState>* states) {
  using L = PathLength<P>;
  auto& st = *states;
  const uint64_t n = old_adj.num_vertices();
  CHAOS_CHECK_EQ(st.size(), n);
  CHAOS_CHECK_EQ(new_adj.num_vertices(), n);
  auto reached = [&](VertexId v) { return L::Of(st[v]) != L::kUnreached; };
  // True iff the arc u -> v (length from `weight`) could have set v's value.
  auto tight = [&](VertexId u, VertexId v, float weight) {
    return L::Of(st[v]) == L::Via(L::Of(st[u]), weight);
  };
  std::vector<uint8_t> suspect(n, 0);
  std::vector<VertexId> work;
  auto mark = [&](VertexId v) {
    if (v != source && suspect[v] == 0 && reached(v)) {
      suspect[v] = 1;
      work.push_back(v);
    }
  };
  // Direct suspects: the deleted arc was tight.
  for (const Edge& e : deleted_arcs) {
    if (reached(e.src) && tight(e.src, e.dst, e.weight)) {
      mark(e.dst);
    }
  }
  // Propagate over the OLD graph's tight arcs: anything whose value may have
  // depended on a suspect becomes suspect. All reads are of the unmodified
  // converged values; st is only rewritten in the final loop.
  while (!work.empty()) {
    const VertexId u = work.back();
    work.pop_back();
    for (const auto& arc : old_adj.Out(u)) {
      if (tight(u, arc.dst, arc.weight)) {
        mark(arc.dst);
      }
    }
  }
  // Frontier: intact vertices bordering the reset region in the NEW graph
  // re-announce their still-valid value; sources of inserted arcs may open
  // shortcuts anywhere.
  std::vector<uint8_t> frontier(n, 0);
  for (uint64_t u = 0; u < n; ++u) {
    if (suspect[u] != 0 || !reached(u)) {
      continue;
    }
    for (const auto& arc : new_adj.Out(u)) {
      if (suspect[arc.dst] != 0) {
        frontier[u] = 1;
        break;
      }
    }
  }
  for (const Edge& e : inserted_arcs) {
    if (suspect[e.src] == 0 && reached(e.src)) {
      frontier[e.src] = 1;
    }
  }
  SeedStats stats;
  for (uint64_t u = 0; u < n; ++u) {
    if (suspect[u] != 0) {
      st[u] = typename P::VertexState{L::kUnreached, 0};
      ++stats.resets;
    } else {
      st[u].changed = frontier[u];
      stats.frontier += frontier[u];
    }
  }
  return stats;
}

// ------------------------------------------------------------- WCC seeder

// Bounded DFS reachability probes on one graph. The visited set is a
// stamp vector shared by every probe: each probe takes a fresh stamp
// instead of allocating (and, under the exhaustive budget, filling) a set
// of its own.
class HostReachProbe {
 public:
  explicit HostReachProbe(const HostAdjacency& adj)
      : adj_(adj), stamp_(adj.num_vertices(), 0) {}

  // True iff `to` is reached from `from` within `budget` arc traversals.
  // Budget exhaustion reports false — the caller treats "don't know" as
  // "split" (a conservative full reset).
  bool Connected(VertexId from, VertexId to, uint64_t budget) {
    if (from == to) {
      return true;
    }
    CHAOS_CHECK_LT(probe_, std::numeric_limits<uint32_t>::max());
    ++probe_;
    stack_.assign(1, from);
    stamp_[from] = probe_;
    uint64_t traversed = 0;
    while (!stack_.empty()) {
      const VertexId u = stack_.back();
      stack_.pop_back();
      for (const auto& arc : adj_.Out(u)) {
        if (++traversed > budget) {
          return false;
        }
        if (arc.dst == to) {
          return true;
        }
        if (stamp_[arc.dst] != probe_) {
          stamp_[arc.dst] = probe_;
          stack_.push_back(arc.dst);
        }
      }
    }
    return false;  // component exhausted without reaching `to`
  }

 private:
  const HostAdjacency& adj_;
  std::vector<uint32_t> stamp_;  // == probe_: visited by the current probe
  uint32_t probe_ = 0;
  std::vector<VertexId> stack_;
};

// `new_adj` is the post-batch prepared graph's arcs. `deleted_edges` are the
// RAW batch deletions (one probe per edge, not per prepared arc);
// `inserted_arcs` are prepared (both directions, so both endpoints of every
// raw insert get their changed flag).
inline SeedStats SeedWcc(const HostAdjacency& new_adj, const std::vector<Edge>& deleted_edges,
                         const std::vector<Edge>& inserted_arcs, uint64_t connectivity_budget,
                         std::vector<WccProgram::VertexState>* states) {
  auto& st = *states;
  const uint64_t n = new_adj.num_vertices();
  CHAOS_CHECK_EQ(st.size(), n);
  HostReachProbe probe(new_adj);
  std::vector<uint8_t> reset_label(n, 0);  // labels are vertex ids
  for (const Edge& e : deleted_edges) {
    // At convergence both endpoints of an existing edge carry their
    // component's min label, so unequal labels mean nothing to check.
    if (st[e.src].label != st[e.dst].label) {
      continue;
    }
    if (reset_label[st[e.src].label] != 0) {
      continue;  // this component already resets wholesale
    }
    if (!probe.Connected(e.src, e.dst, connectivity_budget)) {
      reset_label[st[e.src].label] = 1;
    }
  }
  std::vector<uint8_t> frontier(n, 0);
  for (const Edge& e : inserted_arcs) {
    frontier[e.src] = 1;
  }
  SeedStats stats;
  for (uint64_t u = 0; u < n; ++u) {
    if (reset_label[st[u].label] != 0) {
      // The whole old component re-floods from self-labels; min-label
      // flooding re-derives each surviving sub-component's min id.
      st[u] = WccProgram::VertexState{static_cast<VertexId>(u), 1};
      ++stats.resets;
      ++stats.frontier;
    } else {
      st[u].changed = frontier[u];
      stats.frontier += frontier[u];
    }
  }
  return stats;
}

}  // namespace chaos

#endif  // CHAOS_ALGORITHMS_INCREMENTAL_H_
