// Strongly Connected Components via forward-backward coloring (Orzan-style),
// the standard edge-centric SCC used by streaming engines.
//
// Rounds over the unassigned subgraph:
//   forward:  propagate the maximum vertex id (color) along forward edges
//             to a fixed point; a vertex whose color equals its own id is
//             the root of its color class.
//   backward: from each root, propagate "confirmed" along reverse edges but
//             only between vertices of the same color; the confirmed set is
//             exactly the SCC of the root.
//   assign:   confirmed vertices take their color as SCC id and drop out;
//             the rest reset and the next round begins.
//
// Requires a bidirected edge list (MakeBidirected): reverse traversal uses
// the kEdgeReverse records.
#ifndef CHAOS_ALGORITHMS_SCC_H_
#define CHAOS_ALGORITHMS_SCC_H_

#include <cstdint>

#include "core/gas.h"
#include "graph/types.h"

namespace chaos {

class SccProgram {
 public:
  static constexpr bool kNeedsOutDegrees = false;
  static constexpr VertexId kNone = ~VertexId{0};

  enum Phase : uint8_t { kForward = 0, kBackward = 1, kAssign = 2 };

  struct VertexState {
    VertexId color;
    VertexId scc;
    uint8_t confirmed;
    uint8_t color_changed;
  };
  struct UpdateValue {
    VertexId color;
  };
  struct Accumulator {
    VertexId max_color;
    uint8_t has;
    uint8_t confirm;
  };
  struct GlobalState {
    uint8_t phase;
    uint64_t remaining;
  };
  using OutputRecord = NoOutput;

  GlobalState InitGlobal(uint64_t) const { return GlobalState{kForward, 0}; }
  GlobalState InitLocal() const { return GlobalState{kForward, 0}; }
  Accumulator InitAccum() const { return Accumulator{0, 0, 0}; }
  VertexState InitVertex(const GlobalState&, VertexId v, uint32_t) const {
    return VertexState{v, kNone, 0, 1};
  }
  bool WantScatter(const GlobalState& g) const { return g.phase != kAssign; }

  template <typename Emit>
  void Scatter(const GlobalState& g, VertexId src, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    if (s.scc != kNone) {
      return;  // already assigned: removed from the subgraph
    }
    if (g.phase == kForward) {
      if (e.flags == kEdgeForward && s.color_changed) {
        emit(e.dst, UpdateValue{s.color});
      }
    } else if (g.phase == kBackward) {
      // Roots (color == id) self-confirm; confirmed vertices spread along
      // reverse edges within their color class.
      if (e.flags == kEdgeReverse && (s.confirmed || s.color == src)) {
        emit(e.dst, UpdateValue{s.color});
      }
    }
  }

  template <typename Emit>
  void Gather(const GlobalState& g, VertexId, const VertexState& dst, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    if (g.phase == kForward) {
      if (!a.has || u.color > a.max_color) {
        a.max_color = u.color;
        a.has = 1;
      }
    } else if (g.phase == kBackward) {
      if (u.color == dst.color) {
        a.confirm = 1;
      }
    }
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const {
    if (b.has && (!a.has || b.max_color > a.max_color)) {
      a.max_color = b.max_color;
      a.has = 1;
    }
    a.confirm |= b.confirm;
  }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState& g, VertexId v, VertexState& s, const Accumulator& a,
             GlobalState& local, Emit&&, Sink&&) const {
    if (s.scc != kNone) {
      return false;
    }
    switch (g.phase) {
      case kForward: {
        const bool improved = a.has && a.max_color > s.color;
        if (improved) {
          s.color = a.max_color;
        }
        s.color_changed = improved ? 1 : 0;
        return improved;
      }
      case kBackward: {
        bool changed = false;
        if (!s.confirmed && (a.confirm || s.color == v)) {
          s.confirmed = 1;
          changed = true;
        }
        return changed;
      }
      case kAssign: {
        if (s.confirmed) {
          s.scc = s.color;
        } else {
          s.color = v;
          s.color_changed = 1;
          ++local.remaining;
        }
        return false;
      }
      default:
        break;
    }
    return false;
  }

  void ReduceGlobal(GlobalState& g, const GlobalState& other) const {
    g.remaining += other.remaining;
  }

  bool Advance(GlobalState& g, uint64_t, uint64_t changed) const {
    switch (g.phase) {
      case kForward:
        if (changed == 0) {
          g.phase = kBackward;
        }
        return false;
      case kBackward:
        if (changed == 0) {
          g.phase = kAssign;
        }
        return false;
      case kAssign: {
        const bool done = g.remaining == 0;
        g.remaining = 0;
        g.phase = kForward;
        return done;
      }
      default:
        return true;
    }
  }

  double Extract(const VertexState& s) const { return static_cast<double>(s.scc); }
};

}  // namespace chaos

#endif  // CHAOS_ALGORITHMS_SCC_H_
