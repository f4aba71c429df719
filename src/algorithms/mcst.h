// Minimum Cost Spanning Trees (forest) via distributed Borůvka.
//
// This program exercises the extended GAS model (paper footnote 2 and §5):
// updates redirected to arbitrary vertices (candidate aggregation at
// component roots) and gather/apply emissions (request/response pointer
// chasing for component relabeling). Phases per Borůvka round:
//
//   kFindMin:     stream graph edges; each vertex gathers its minimum
//                 cross-component incident edge; apply redirects the
//                 candidate to the component root.
//   kPickMin:     roots gather member candidates, pick the component
//                 minimum, notify the chosen neighbor component (hook).
//   kHookResolve: mutual hooks (A<->B) break toward the smaller root id;
//                 winners emit the MSF edge; everyone starts comp chasing.
//   kChase:       query/answer pointer shortcutting until component labels
//                 reach a fixed point (two consecutive quiet supersteps).
//
// Requires an undirected weighted edge list. Edge total order is
// (weight, min(u,v), max(u,v)), which makes mutual hooks pick the same edge.
#ifndef CHAOS_ALGORITHMS_MCST_H_
#define CHAOS_ALGORITHMS_MCST_H_

#include <cstdint>
#include <span>

#include "core/gas.h"
#include "graph/types.h"

namespace chaos {

class McstProgram {
 public:
  static constexpr bool kNeedsOutDegrees = false;
  static constexpr VertexId kNone = ~VertexId{0};

  enum Phase : uint8_t { kFindMin = 0, kPickMin = 1, kHookResolve = 2, kChase = 3 };
  enum UpdateType : uint8_t {
    kMinEdge = 0,
    kCandidate = 1,
    kHookNotify = 2,
    kQuery = 3,
    kAnswer = 4,
  };

  struct VertexState {
    VertexId comp;
    VertexId pending;  // hook target component (roots during a round)
    float cand_w;
    VertexId cand_u, cand_v;
    uint8_t has_cand;
  };
  struct UpdateValue {
    uint8_t type;
    float w;
    VertexId a;     // edge endpoint u / asker / notifying root / answer
    VertexId b;     // edge endpoint v
    VertexId comp;  // sender's component
  };
  struct Accumulator {
    float w;
    VertexId a, b, comp;
    uint8_t has;
    uint8_t mutual;
    VertexId answer;
    uint8_t has_answer;
  };
  struct GlobalState {
    uint8_t phase;
    uint32_t round;
    uint64_t candidates;
    uint64_t prev_changed;
  };
  struct OutputRecord {
    VertexId u, v;
    float w;
  };

  static double Scalar(const GlobalState&, std::span<const OutputRecord> forest) {
    double total = 0.0;
    for (const OutputRecord& edge : forest) {
      total += static_cast<double>(edge.w);
    }
    return total;
  }

  GlobalState InitGlobal(uint64_t) const { return GlobalState{kFindMin, 0, 0, 0}; }
  GlobalState InitLocal() const { return GlobalState{kFindMin, 0, 0, 0}; }
  Accumulator InitAccum() const { return Accumulator{0.0f, kNone, kNone, kNone, 0, 0, kNone, 0}; }
  VertexState InitVertex(const GlobalState&, VertexId v, uint32_t) const {
    return VertexState{v, kNone, 0.0f, kNone, kNone, 0};
  }
  bool WantScatter(const GlobalState& g) const { return g.phase == kFindMin; }

  // Total order on undirected edges: (w, min(u,v), max(u,v)).
  static bool EdgeLess(float w1, VertexId a1, VertexId b1, float w2, VertexId a2, VertexId b2) {
    if (w1 != w2) {
      return w1 < w2;
    }
    const VertexId lo1 = a1 < b1 ? a1 : b1, hi1 = a1 < b1 ? b1 : a1;
    const VertexId lo2 = a2 < b2 ? a2 : b2, hi2 = a2 < b2 ? b2 : a2;
    if (lo1 != lo2) {
      return lo1 < lo2;
    }
    return hi1 < hi2;
  }

  template <typename Emit>
  void Scatter(const GlobalState& g, VertexId src, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    if (g.phase == kFindMin && src != e.dst) {
      emit(e.dst, UpdateValue{kMinEdge, e.weight, src, e.dst, s.comp});
    }
  }

  template <typename Emit>
  void Gather(const GlobalState& g, VertexId, const VertexState& dst, Accumulator& a,
              const UpdateValue& u, Emit&& emit) const {
    switch (g.phase) {
      case kFindMin:
        // Type check drops stale chase queries/answers left over from the
        // final (quiet) chase superstep of the previous round.
        if (u.type == kMinEdge && u.comp != dst.comp &&
            (!a.has || EdgeLess(u.w, u.a, u.b, a.w, a.a, a.b))) {
          a.w = u.w;
          a.a = u.a;
          a.b = u.b;
          a.comp = u.comp;
          a.has = 1;
        }
        break;
      case kPickMin:
        if (u.type == kCandidate &&
            (!a.has || EdgeLess(u.w, u.a, u.b, a.w, a.a, a.b))) {
          a.w = u.w;
          a.a = u.a;
          a.b = u.b;
          a.comp = u.comp;
          a.has = 1;
        }
        break;
      case kHookResolve:
        if (u.type == kHookNotify && u.a == dst.pending) {
          a.mutual = 1;
        }
        break;
      case kChase:
        if (u.type == kQuery) {
          // Respond with our current component (shortcutting): consumed by
          // the asker's gather in the next superstep.
          emit(u.a, UpdateValue{kAnswer, 0.0f, dst.comp, kNone, kNone});
        } else if (u.type == kAnswer) {
          a.answer = u.a;
          a.has_answer = 1;
        }
        break;
      default:
        break;
    }
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const {
    if (b.has && (!a.has || EdgeLess(b.w, b.a, b.b, a.w, a.a, a.b))) {
      a.w = b.w;
      a.a = b.a;
      a.b = b.b;
      a.comp = b.comp;
      a.has = 1;
    }
    a.mutual |= b.mutual;
    if (b.has_answer) {
      a.answer = b.answer;
      a.has_answer = 1;
    }
  }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState& g, VertexId v, VertexState& s, const Accumulator& a,
             GlobalState& local, Emit&& emit, Sink&& sink) const {
    switch (g.phase) {
      case kFindMin:
        if (a.has) {
          // Redirect the candidate to this vertex's component root.
          emit(s.comp, UpdateValue{kCandidate, a.w, a.a, a.b, a.comp});
        }
        return false;
      case kPickMin:
        if (a.has) {
          s.pending = a.comp;
          s.cand_w = a.w;
          s.cand_u = a.a;
          s.cand_v = a.b;
          s.has_cand = 1;
          ++local.candidates;
          emit(s.pending, UpdateValue{kHookNotify, 0.0f, v, kNone, kNone});
          return true;
        }
        s.pending = kNone;
        s.has_cand = 0;
        return false;
      case kHookResolve: {
        bool changed = false;
        if (s.pending != kNone) {
          const bool wins_mutual = a.mutual && v < s.pending;
          if (!wins_mutual) {
            s.comp = s.pending;
            changed = true;
          }
          // Mutual pairs pick the same edge; only the winner emits it.
          if (!(a.mutual && !wins_mutual)) {
            sink(OutputRecord{s.cand_u, s.cand_v, s.cand_w});
          }
          s.pending = kNone;
        }
        if (s.comp != v) {
          emit(s.comp, UpdateValue{kQuery, 0.0f, v, kNone, kNone});
          changed = true;  // keep the chase alive for at least one cycle
        }
        return changed;
      }
      case kChase: {
        bool changed = false;
        if (a.has_answer && a.answer != s.comp) {
          s.comp = a.answer;
          changed = true;
        }
        if (s.comp != v) {
          emit(s.comp, UpdateValue{kQuery, 0.0f, v, kNone, kNone});
        }
        return changed;
      }
      default:
        return false;
    }
  }

  void ReduceGlobal(GlobalState& g, const GlobalState& other) const {
    g.candidates += other.candidates;
  }

  bool Advance(GlobalState& g, uint64_t, uint64_t changed) const {
    switch (g.phase) {
      case kFindMin:
        g.phase = kPickMin;
        return false;
      case kPickMin: {
        const bool done = g.candidates == 0;
        g.candidates = 0;
        if (done) {
          return true;
        }
        g.phase = kHookResolve;
        return false;
      }
      case kHookResolve:
        g.phase = kChase;
        g.prev_changed = 1;
        return false;
      case kChase:
        if (changed == 0 && g.prev_changed == 0) {
          g.phase = kFindMin;
          ++g.round;
          g.prev_changed = 0;
        } else {
          g.prev_changed = changed;
        }
        return false;
      default:
        return true;
    }
  }

  double Extract(const VertexState& s) const { return static_cast<double>(s.comp); }
};

}  // namespace chaos

#endif  // CHAOS_ALGORITHMS_MCST_H_
