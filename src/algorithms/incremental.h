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
//  * WCC: per deleted intra-component edge, a reachability probe on the
//    new graph; if the endpoints split, the entire old component resets to
//    self-labels and re-floods. Planning is host-side, so the probe is
//    exhaustive: free in simulated time, and giant components do not
//    re-flood on every intra-component delete.
#ifndef CHAOS_ALGORITHMS_INCREMENTAL_H_
#define CHAOS_ALGORITHMS_INCREMENTAL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "algorithms/basic.h"
#include "core/gas.h"
#include "graph/mutation_log.h"
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

// Host-side index of a prepared (MakeUndirected) graph, patched batch by
// batch instead of rebuilt. Every raw edge has a sequence number: its
// position in the raw list the index was built from, then one more per
// insert. Its two prepared arcs have the key (seq << 1 | dir), dir 0 for
// the forward image src -> dst and 1 for the reverse image dst -> src.
// MutationLog::Apply keeps survivors in order and appends inserts, so key
// order is prepared edge-list order, and each vertex's arcs are visited in
// the order a fresh index of the same graph would give.
//
// Layout: a base CSR over every prepared arc (all flag values, so deletes
// find records with any flags), per-vertex lists of inserted arcs (keyed
// above every base arc) and tombstones for deleted arcs. Once tombstones
// plus inserted arcs pass 1/kCompactDivisor of the base, the index is
// compacted back into a plain CSR.
class HostAdjacency {
 public:
  struct Arc {
    VertexId dst;
    float weight;
    uint32_t flags;
    uint64_t key;  // seq << 1 | dir
    bool live() const { return dst != kDead; }
  };

  explicit HostAdjacency(const InputGraph& raw)
      : offsets_(raw.num_vertices + 1, 0),
        inserted_(raw.num_vertices),
        base_seq_end_(raw.edges.size()),
        next_seq_(raw.edges.size()) {
    for (const Edge& e : raw.edges) {
      CHAOS_CHECK(e.src < raw.num_vertices && e.dst < raw.num_vertices);
      ++offsets_[e.src + 1];
      ++offsets_[e.dst + 1];
    }
    for (uint64_t v = 0; v < raw.num_vertices; ++v) {
      offsets_[v + 1] += offsets_[v];
    }
    arcs_.resize(offsets_.back());
    std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (uint64_t i = 0; i < raw.edges.size(); ++i) {
      const Edge& e = raw.edges[i];
      arcs_[cursor[e.src]++] = Arc{e.dst, e.weight, e.flags, i << 1};
      arcs_[cursor[e.dst]++] = Arc{e.src, e.weight, e.flags, i << 1 | 1};
    }
  }

  uint64_t num_vertices() const { return offsets_.size() - 1; }

  // Calls fn(arc) on each live kEdgeForward arc out of `v`, in key order,
  // until fn returns false. Returns false iff fn stopped the visit.
  template <typename Fn>
  bool VisitForward(VertexId v, Fn&& fn) const {
    return VisitLive(v, [&](const Arc& arc) { return arc.flags != kEdgeForward || fn(arc); });
  }

  // Deletes the live edge with the lowest sequence number whose raw record
  // equals `raw` (src, dst, weight bits, all 32 flag bits), the occurrence
  // MutationLog::Apply removes, and returns that sequence number.
  // CHECK-fails if no such edge is live.
  uint64_t Delete(const Edge& raw) {
    // Search the shorter list: the forward images out of src, or the
    // reverse images out of dst. Matching takes the direction from the key:
    // the reverse image of (d, s, w) has the forward image's content.
    CHAOS_CHECK(raw.src < num_vertices() && raw.dst < num_vertices());
    const bool at_src = Length(raw.src) <= Length(raw.dst);
    const VertexId from = at_src ? raw.src : raw.dst;
    const VertexId to = at_src ? raw.dst : raw.src;
    const uint64_t dir = at_src ? 0 : 1;
    const uint32_t wbits = std::bit_cast<uint32_t>(raw.weight);
    auto matches = [&](const Arc& arc) {  // a tombstone's dst matches no vertex
      return arc.dst == to && (arc.key & 1) == dir && arc.flags == raw.flags &&
             std::bit_cast<uint32_t>(arc.weight) == wbits;
    };
    Arc* hit = nullptr;
    for (const std::span<Arc> part : {Base(from), std::span<Arc>(inserted_[from])}) {
      const auto it = std::find_if(part.begin(), part.end(), matches);
      if (it != part.end()) {
        hit = &*it;
        break;
      }
    }
    CHAOS_CHECK_MSG(hit != nullptr, "mutation deletes an edge that is not in the graph");
    const uint64_t key = hit->key;
    hit->dst = kDead;
    ArcWithKey(to, key ^ 1).dst = kDead;
    overlay_ += 2;
    CompactIfOverlaid();
    return key >> 1;
  }

  // Adds `raw` (both arcs) under the next sequence number and returns it.
  uint64_t Insert(const Edge& raw) {
    CHAOS_CHECK(raw.src < num_vertices() && raw.dst < num_vertices());
    const uint64_t seq = next_seq_++;
    inserted_[raw.src].push_back(Arc{raw.dst, raw.weight, raw.flags, seq << 1});
    inserted_[raw.dst].push_back(Arc{raw.src, raw.weight, raw.flags, seq << 1 | 1});
    overlay_ += 2;
    CompactIfOverlaid();
    return seq;
  }

 private:
  static constexpr VertexId kDead = ~VertexId{0};  // Arc::dst of a tombstone
  // Compact once tombstones plus inserted arcs exceed 1/8 of the base.
  static constexpr uint64_t kCompactDivisor = 8;

  std::span<const Arc> Base(VertexId v) const {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }
  std::span<Arc> Base(VertexId v) {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }
  // VisitForward over the live arcs of every flag value.
  template <typename Fn>
  bool VisitLive(VertexId v, Fn&& fn) const {
    for (const std::span<const Arc> part : {Base(v), std::span<const Arc>(inserted_[v])}) {
      for (const Arc& arc : part) {
        if (arc.live() && !fn(arc)) {
          return false;
        }
      }
    }
    return true;
  }
  uint64_t Length(VertexId v) const {
    return offsets_[v + 1] - offsets_[v] + inserted_[v].size();
  }

  // The live arc out of `v` with `key`, by binary search: tombstones keep
  // their keys, so both lists stay sorted.
  Arc& ArcWithKey(VertexId v, uint64_t key) {
    const std::span<Arc> part =
        (key >> 1) < base_seq_end_ ? Base(v) : std::span<Arc>(inserted_[v]);
    const auto it = std::lower_bound(part.begin(), part.end(), key,
                                     [](const Arc& a, uint64_t k) { return a.key < k; });
    CHAOS_CHECK(it != part.end() && it->key == key && it->live());
    return *it;
  }

  void CompactIfOverlaid() {
    if (overlay_ * kCompactDivisor <= arcs_.size()) {
      return;
    }
    std::vector<uint64_t> offsets(offsets_.size(), 0);
    std::vector<Arc> arcs;
    arcs.reserve(arcs_.size() + overlay_);  // bounds the live arcs
    for (uint64_t v = 0; v < num_vertices(); ++v) {
      VisitLive(v, [&](const Arc& arc) {
        arcs.push_back(arc);
        return true;
      });
      inserted_[v].clear();
      offsets[v + 1] = arcs.size();
    }
    offsets_ = std::move(offsets);
    arcs_ = std::move(arcs);
    base_seq_end_ = next_seq_;
    overlay_ = 0;
  }

  std::vector<uint64_t> offsets_;
  std::vector<Arc> arcs_;  // the base CSR, key order per vertex
  std::vector<std::vector<Arc>> inserted_;  // per vertex, key order
  uint64_t base_seq_end_;  // sequence numbers below this are in the base
  uint64_t next_seq_;
  uint64_t overlay_ = 0;  // tombstones + inserted arcs since the last compaction
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

// `adj` indexes the pre-batch prepared graph and `patch()` turns it into the
// post-batch one: suspects are marked over the pre-batch arcs, then the
// frontier is read from the post-batch arcs. `batch` is the RAW batch; each
// of its edges stands for both of its prepared arcs. `states` holds the
// engine's converged pre-batch states in, seeds out.
template <typename P, typename Patch>
SeedStats SeedPathLengths(const HostAdjacency& adj, const MutationBatch& batch, VertexId source,
                          std::vector<typename P::VertexState>* states, Patch&& patch) {
  using L = PathLength<P>;
  using Arc = HostAdjacency::Arc;
  auto& st = *states;
  const uint64_t n = adj.num_vertices();
  CHAOS_CHECK_EQ(st.size(), n);
  auto reached = [&](VertexId v) { return L::Of(st[v]) != L::kUnreached; };
  // True iff the arc u -> v (length from `weight`) could have set v's value.
  auto tight = [&](VertexId u, VertexId v, float weight) {
    return L::Of(st[v]) == L::Via(L::Of(st[u]), weight);
  };
  std::vector<uint8_t> suspect(n, 0);
  std::vector<VertexId> suspects;
  auto mark = [&](VertexId v) {
    if (v != source && suspect[v] == 0 && reached(v)) {
      suspect[v] = 1;
      suspects.push_back(v);
    }
  };
  // Direct suspects: a deleted arc, in either direction, was tight.
  for (const Edge& e : batch.deletes) {
    if (reached(e.src) && tight(e.src, e.dst, e.weight)) {
      mark(e.dst);
    }
    if (reached(e.dst) && tight(e.dst, e.src, e.weight)) {
      mark(e.src);
    }
  }
  // Propagate over the pre-batch graph's tight arcs: anything whose value
  // may have depended on a suspect becomes suspect. All reads are of the
  // unmodified converged values; st is only rewritten in the final loop.
  for (size_t i = 0; i < suspects.size(); ++i) {
    const VertexId u = suspects[i];
    adj.VisitForward(u, [&](const Arc& arc) {
      if (tight(u, arc.dst, arc.weight)) {
        mark(arc.dst);
      }
      return true;
    });
  }
  patch();
  // Frontier: intact vertices bordering the reset region in the post-batch
  // graph re-announce their still-valid value. The prepared graph holds
  // the mirror of every arc, so these are the intact ends of the suspects'
  // own post-batch arcs. Endpoints of inserted edges may open shortcuts
  // anywhere.
  std::vector<uint8_t> frontier(n, 0);
  auto announce = [&](VertexId u) {
    if (suspect[u] == 0 && reached(u)) {
      frontier[u] = 1;
    }
  };
  for (const VertexId v : suspects) {
    adj.VisitForward(v, [&](const Arc& arc) {
      announce(arc.dst);
      return true;
    });
  }
  for (const Edge& e : batch.inserts) {
    announce(e.src);
    announce(e.dst);
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

// DFS reachability probes on one graph. The visited set is a stamp vector
// shared by every probe: each probe takes a fresh stamp instead of
// allocating and filling a set of its own.
class HostReachProbe {
 public:
  explicit HostReachProbe(const HostAdjacency& adj)
      : adj_(adj), stamp_(adj.num_vertices(), 0) {}

  // True iff `to` is reachable from `from`.
  bool Connected(VertexId from, VertexId to) {
    if (from == to) {
      return true;
    }
    CHAOS_CHECK_LT(probe_, std::numeric_limits<uint32_t>::max());
    ++probe_;
    stack_.assign(1, from);
    stamp_[from] = probe_;
    while (!stack_.empty()) {
      const VertexId u = stack_.back();
      stack_.pop_back();
      const bool go_on = adj_.VisitForward(u, [&](const HostAdjacency::Arc& arc) {
        if (arc.dst == to) {
          return false;
        }
        if (stamp_[arc.dst] != probe_) {
          stamp_[arc.dst] = probe_;
          stack_.push_back(arc.dst);
        }
        return true;
      });
      if (!go_on) {
        return true;  // stopped at `to`
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

// `adj` indexes the post-batch prepared graph. `batch` is the RAW batch: one
// probe per deleted edge, and both endpoints of every insert get their
// changed flag.
inline SeedStats SeedWcc(const HostAdjacency& adj, const MutationBatch& batch,
                         std::vector<WccProgram::VertexState>* states) {
  auto& st = *states;
  const uint64_t n = adj.num_vertices();
  CHAOS_CHECK_EQ(st.size(), n);
  HostReachProbe probe(adj);
  std::vector<uint8_t> reset_label(n, 0);  // labels are vertex ids
  for (const Edge& e : batch.deletes) {
    // At convergence both endpoints of an existing edge carry their
    // component's min label, so unequal labels mean nothing to check.
    if (st[e.src].label != st[e.dst].label) {
      continue;
    }
    if (reset_label[st[e.src].label] != 0) {
      continue;  // this component already resets wholesale
    }
    if (!probe.Connected(e.src, e.dst)) {
      reset_label[st[e.src].label] = 1;
    }
  }
  std::vector<uint8_t> frontier(n, 0);
  for (const Edge& e : batch.inserts) {
    frontier[e.src] = 1;
    frontier[e.dst] = 1;
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
