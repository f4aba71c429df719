// The "simple" GAS benchmark programs: PageRank, BFS, WCC, SSSP, SpMV,
// Conductance and Belief Propagation (7 of the paper's 10 algorithms,
// Table 1). Each program is a small header-only POD-state class satisfying
// the GasProgram concept; the remaining three (MIS, SCC, MCST) live in
// their own headers.
#ifndef CHAOS_ALGORITHMS_BASIC_H_
#define CHAOS_ALGORITHMS_BASIC_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "core/gas.h"
#include "graph/types.h"
#include "util/rng.h"

namespace chaos {

// --------------------------------------------------------------- PageRank
// rank = 0.15 + 0.85 * sum(rank_u / deg_u) over in-neighbors, fixed
// iteration count (paper Fig. 2).
class PageRankProgram {
 public:
  static constexpr bool kNeedsOutDegrees = true;

  struct VertexState {
    float rank;
    uint32_t degree;
  };
  using UpdateValue = float;
  using Accumulator = float;
  struct GlobalState {
    uint32_t iterations;
  };
  using OutputRecord = NoOutput;

  explicit PageRankProgram(uint32_t iterations = 5, float damping = 0.85f)
      : iterations_(iterations), damping_(damping) {}

  GlobalState InitGlobal(uint64_t) const { return GlobalState{iterations_}; }
  GlobalState InitLocal() const { return GlobalState{0}; }
  Accumulator InitAccum() const { return 0.0f; }
  VertexState InitVertex(const GlobalState&, VertexId, uint32_t degree) const {
    return VertexState{1.0f, degree};
  }
  bool WantScatter(const GlobalState&) const { return true; }

  template <typename Emit>
  void Scatter(const GlobalState&, VertexId, const VertexState& src, const Edge& e,
               Emit&& emit) const {
    if (e.flags != kEdgeForward) {
      return;
    }
    emit(e.dst, src.degree > 0 ? src.rank / static_cast<float>(src.degree) : 0.0f);
  }

  template <typename Emit>
  void Gather(const GlobalState&, VertexId, const VertexState&, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    a += u;
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const { a += b; }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState&, VertexId, VertexState& v, const Accumulator& a, GlobalState&,
             Emit&&, Sink&&) const {
    v.rank = (1.0f - damping_) + damping_ * a;
    return true;
  }

  void ReduceGlobal(GlobalState&, const GlobalState&) const {}
  bool Advance(GlobalState& g, uint64_t superstep, uint64_t) const {
    return superstep + 1 >= g.iterations;
  }
  double Extract(const VertexState& v) const { return v.rank; }

 private:
  uint32_t iterations_;
  float damping_;
};

// -------------------------------------------------------------------- BFS
// Level-synchronous BFS producing depth and parent per vertex.
class BfsProgram {
 public:
  static constexpr bool kNeedsOutDegrees = false;
  static constexpr VertexId kNone = ~VertexId{0};

  struct VertexState {
    int64_t depth;
    VertexId parent;
  };
  struct UpdateValue {
    VertexId parent;
  };
  struct Accumulator {
    VertexId best_parent;
    uint8_t valid;
  };
  struct GlobalState {
    VertexId source;
    int64_t level;
  };
  using OutputRecord = NoOutput;

  explicit BfsProgram(VertexId source = 0) : source_(source) {}

  GlobalState InitGlobal(uint64_t) const { return GlobalState{source_, 0}; }
  GlobalState InitLocal() const { return GlobalState{0, 0}; }
  Accumulator InitAccum() const { return Accumulator{kNone, 0}; }
  VertexState InitVertex(const GlobalState& g, VertexId v, uint32_t) const {
    return v == g.source ? VertexState{0, v} : VertexState{-1, kNone};
  }
  bool WantScatter(const GlobalState&) const { return true; }

  template <typename Emit>
  void Scatter(const GlobalState& g, VertexId src, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    if (e.flags == kEdgeForward && s.depth == g.level) {
      emit(e.dst, UpdateValue{src});
    }
  }

  template <typename Emit>
  void Gather(const GlobalState&, VertexId, const VertexState&, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    if (!a.valid || u.parent < a.best_parent) {
      a.best_parent = u.parent;
      a.valid = 1;
    }
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const {
    if (b.valid && (!a.valid || b.best_parent < a.best_parent)) {
      a = b;
    }
  }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState& g, VertexId, VertexState& v, const Accumulator& a, GlobalState&,
             Emit&&, Sink&&) const {
    if (v.depth < 0 && a.valid) {
      v.depth = g.level + 1;
      v.parent = a.best_parent;
      return true;
    }
    return false;
  }

  void ReduceGlobal(GlobalState&, const GlobalState&) const {}
  bool Advance(GlobalState& g, uint64_t, uint64_t changed) const {
    ++g.level;
    return changed == 0;
  }
  double Extract(const VertexState& v) const { return static_cast<double>(v.depth); }

 private:
  VertexId source_;
};

// -------------------------------------------------------------------- WCC
// Min-label propagation; converges when no label improves. Labels scatter
// only from vertices whose label changed in the previous iteration.
class WccProgram {
 public:
  static constexpr bool kNeedsOutDegrees = false;

  struct VertexState {
    VertexId label;
    uint8_t changed;
  };
  struct UpdateValue {
    VertexId label;
  };
  struct Accumulator {
    VertexId min_label;
    uint8_t valid;
  };
  using GlobalState = NoGlobal;
  using OutputRecord = NoOutput;

  GlobalState InitGlobal(uint64_t) const { return {}; }
  GlobalState InitLocal() const { return {}; }
  Accumulator InitAccum() const { return Accumulator{0, 0}; }
  VertexState InitVertex(const GlobalState&, VertexId v, uint32_t) const {
    return VertexState{v, 1};
  }
  bool WantScatter(const GlobalState&) const { return true; }

  template <typename Emit>
  void Scatter(const GlobalState&, VertexId, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    if (s.changed) {
      emit(e.dst, UpdateValue{s.label});
    }
  }

  template <typename Emit>
  void Gather(const GlobalState&, VertexId, const VertexState&, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    if (!a.valid || u.label < a.min_label) {
      a.min_label = u.label;
      a.valid = 1;
    }
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const {
    if (b.valid && (!a.valid || b.min_label < a.min_label)) {
      a = b;
    }
  }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState&, VertexId, VertexState& v, const Accumulator& a, GlobalState&,
             Emit&&, Sink&&) const {
    const bool improved = a.valid && a.min_label < v.label;
    if (improved) {
      v.label = a.min_label;
    }
    v.changed = improved ? 1 : 0;
    return improved;
  }

  void ReduceGlobal(GlobalState&, const GlobalState&) const {}
  bool Advance(GlobalState&, uint64_t, uint64_t changed) const { return changed == 0; }
  double Extract(const VertexState& v) const { return static_cast<double>(v.label); }
};

// ------------------------------------------------------------------- SSSP
// Bellman-Ford over weighted arcs.
class SsspProgram {
 public:
  static constexpr bool kNeedsOutDegrees = false;

  struct VertexState {
    float dist;
    uint8_t changed;
  };
  struct UpdateValue {
    float dist;
  };
  struct Accumulator {
    float min_dist;
    uint8_t valid;
  };
  struct GlobalState {
    VertexId source;
  };
  using OutputRecord = NoOutput;

  explicit SsspProgram(VertexId source = 0) : source_(source) {}

  static constexpr float kInf = std::numeric_limits<float>::infinity();

  GlobalState InitGlobal(uint64_t) const { return GlobalState{source_}; }
  GlobalState InitLocal() const { return GlobalState{0}; }
  Accumulator InitAccum() const { return Accumulator{kInf, 0}; }
  VertexState InitVertex(const GlobalState& g, VertexId v, uint32_t) const {
    return v == g.source ? VertexState{0.0f, 1} : VertexState{kInf, 0};
  }
  bool WantScatter(const GlobalState&) const { return true; }

  template <typename Emit>
  void Scatter(const GlobalState&, VertexId, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    if (e.flags == kEdgeForward && s.changed) {
      emit(e.dst, UpdateValue{s.dist + e.weight});
    }
  }

  template <typename Emit>
  void Gather(const GlobalState&, VertexId, const VertexState&, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    if (!a.valid || u.dist < a.min_dist) {
      a.min_dist = u.dist;
      a.valid = 1;
    }
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const {
    if (b.valid && (!a.valid || b.min_dist < a.min_dist)) {
      a = b;
    }
  }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState&, VertexId, VertexState& v, const Accumulator& a, GlobalState&,
             Emit&&, Sink&&) const {
    const bool improved = a.valid && a.min_dist < v.dist;
    if (improved) {
      v.dist = a.min_dist;
    }
    v.changed = improved ? 1 : 0;
    return improved;
  }

  void ReduceGlobal(GlobalState&, const GlobalState&) const {}
  bool Advance(GlobalState&, uint64_t, uint64_t changed) const { return changed == 0; }
  double Extract(const VertexState& v) const { return static_cast<double>(v.dist); }

 private:
  VertexId source_;
};

// ------------------------------------------------------------------- SpMV
// One iteration of y = A^T x with x_v = 1 / (1 + (v mod 16)).
class SpmvProgram {
 public:
  static constexpr bool kNeedsOutDegrees = false;

  struct VertexState {
    float x;
    float y;
  };
  using UpdateValue = float;
  using Accumulator = float;
  using GlobalState = NoGlobal;
  using OutputRecord = NoOutput;

  static float InputVector(VertexId v) { return 1.0f / (1.0f + static_cast<float>(v % 16)); }

  GlobalState InitGlobal(uint64_t) const { return {}; }
  GlobalState InitLocal() const { return {}; }
  Accumulator InitAccum() const { return 0.0f; }
  VertexState InitVertex(const GlobalState&, VertexId v, uint32_t) const {
    return VertexState{InputVector(v), 0.0f};
  }
  bool WantScatter(const GlobalState&) const { return true; }

  template <typename Emit>
  void Scatter(const GlobalState&, VertexId, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    emit(e.dst, s.x * e.weight);
  }

  template <typename Emit>
  void Gather(const GlobalState&, VertexId, const VertexState&, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    a += u;
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const { a += b; }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState&, VertexId, VertexState& v, const Accumulator& a, GlobalState&,
             Emit&&, Sink&&) const {
    v.y = a;
    return false;
  }

  void ReduceGlobal(GlobalState&, const GlobalState&) const {}
  // SpMV always advances; the runner bounds the superstep count.
  bool Advance(GlobalState&, uint64_t, uint64_t) const { return true; }
  double Extract(const VertexState& v) const { return static_cast<double>(v.y); }
};

// ------------------------------------------------------------ Conductance
// Conductance of S = {v : v odd}: cut(S, S̄) / min(vol(S), vol(S̄)), one
// scatter/gather pass; counters fold through the global aggregator.
class ConductanceProgram {
 public:
  static constexpr bool kNeedsOutDegrees = false;

  struct VertexState {
    uint8_t in_s;
  };
  struct UpdateValue {
    uint8_t src_in_s;
  };
  struct Accumulator {
    uint64_t cut;
    uint64_t vol_in;
    uint64_t vol_out;
  };
  struct GlobalState {
    uint64_t cut;
    uint64_t vol_in;
    uint64_t vol_out;
    double conductance;
  };
  using OutputRecord = NoOutput;

  static bool InSubset(VertexId v) { return (v & 1) != 0; }
  static double Scalar(const GlobalState& g, std::span<const OutputRecord>) {
    return g.conductance;
  }

  GlobalState InitGlobal(uint64_t) const { return GlobalState{0, 0, 0, 0.0}; }
  GlobalState InitLocal() const { return GlobalState{0, 0, 0, 0.0}; }
  Accumulator InitAccum() const { return Accumulator{0, 0, 0}; }
  VertexState InitVertex(const GlobalState&, VertexId v, uint32_t) const {
    return VertexState{InSubset(v) ? uint8_t{1} : uint8_t{0}};
  }
  bool WantScatter(const GlobalState&) const { return true; }

  template <typename Emit>
  void Scatter(const GlobalState&, VertexId, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    emit(e.dst, UpdateValue{s.in_s});
  }

  template <typename Emit>
  void Gather(const GlobalState&, VertexId, const VertexState& dst, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    if (u.src_in_s) {
      ++a.vol_in;
    } else {
      ++a.vol_out;
    }
    if (u.src_in_s != dst.in_s) {
      ++a.cut;
    }
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const {
    a.cut += b.cut;
    a.vol_in += b.vol_in;
    a.vol_out += b.vol_out;
  }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState&, VertexId, VertexState&, const Accumulator& a, GlobalState& local,
             Emit&&, Sink&&) const {
    local.cut += a.cut;
    local.vol_in += a.vol_in;
    local.vol_out += a.vol_out;
    return false;
  }

  void ReduceGlobal(GlobalState& g, const GlobalState& other) const {
    g.cut += other.cut;
    g.vol_in += other.vol_in;
    g.vol_out += other.vol_out;
  }

  bool Advance(GlobalState& g, uint64_t, uint64_t) const {
    const uint64_t denom = g.vol_in < g.vol_out ? g.vol_in : g.vol_out;
    g.conductance = denom == 0 ? 0.0 : static_cast<double>(g.cut) / static_cast<double>(denom);
    return true;  // single superstep
  }
  double Extract(const VertexState& v) const { return static_cast<double>(v.in_s); }
};

// --------------------------------------------------------------------- BP
// Simplified loopy belief propagation for binary labels: per iteration,
// belief_v = prior_v + damping * sum over arcs (u,v) of
// tanh(belief_u / 2) * weight.
class BpProgram {
 public:
  static constexpr bool kNeedsOutDegrees = false;

  struct VertexState {
    float prior;
    float belief;
  };
  using UpdateValue = float;
  using Accumulator = float;
  struct GlobalState {
    uint32_t iterations;
    float damping;
  };
  using OutputRecord = NoOutput;

  explicit BpProgram(uint32_t iterations = 5, float damping = 0.5f)
      : iterations_(iterations), damping_(damping) {}

  // Deterministic pseudo-random prior in [-1, 1].
  static float Prior(VertexId v) {
    return (static_cast<float>(Mix64(v) % 2001) - 1000.0f) / 1000.0f;
  }

  GlobalState InitGlobal(uint64_t) const { return GlobalState{iterations_, damping_}; }
  GlobalState InitLocal() const { return GlobalState{0, 0.0f}; }
  Accumulator InitAccum() const { return 0.0f; }
  VertexState InitVertex(const GlobalState&, VertexId v, uint32_t) const {
    const float p = Prior(v);
    return VertexState{p, p};
  }
  bool WantScatter(const GlobalState&) const { return true; }

  template <typename Emit>
  void Scatter(const GlobalState&, VertexId, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    emit(e.dst, std::tanh(s.belief * 0.5f) * e.weight);
  }

  template <typename Emit>
  void Gather(const GlobalState&, VertexId, const VertexState&, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    a += u;
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const { a += b; }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState& g, VertexId, VertexState& v, const Accumulator& a, GlobalState&,
             Emit&&, Sink&&) const {
    v.belief = v.prior + g.damping * a;
    return true;
  }

  void ReduceGlobal(GlobalState&, const GlobalState&) const {}
  bool Advance(GlobalState& g, uint64_t superstep, uint64_t) const {
    return superstep + 1 >= g.iterations;
  }
  double Extract(const VertexState& v) const { return static_cast<double>(v.belief); }

 private:
  uint32_t iterations_;
  float damping_;
};

}  // namespace chaos

#endif  // CHAOS_ALGORITHMS_BASIC_H_
