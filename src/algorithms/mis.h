// Maximal Independent Set via Luby's algorithm (synchronous rounds).
//
// Each round every undecided vertex draws a deterministic pseudo-random
// priority; a vertex joins the set iff its (priority, id) is strictly
// smaller than that of every undecided neighbor. Vertices adjacent to a
// member drop out. Expects an undirected edge list (both directions).
#ifndef CHAOS_ALGORITHMS_MIS_H_
#define CHAOS_ALGORITHMS_MIS_H_

#include <cstdint>

#include "core/gas.h"
#include "graph/types.h"
#include "util/rng.h"

namespace chaos {

class MisProgram {
 public:
  static constexpr bool kNeedsOutDegrees = false;

  enum Status : uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };

  struct VertexState {
    uint8_t status;
  };
  struct UpdateValue {
    uint64_t priority;
    VertexId id;
    uint8_t src_in;  // sender already joined the set
  };
  struct Accumulator {
    uint64_t min_priority;
    VertexId min_id;
    uint8_t has_undecided;
    uint8_t any_in;
  };
  struct GlobalState {
    uint32_t round;
    uint64_t undecided;
  };
  using OutputRecord = NoOutput;

  static uint64_t Priority(VertexId v, uint32_t round) {
    return Mix64(HashCombine(v, static_cast<uint64_t>(round) + 0x51ab));
  }

  GlobalState InitGlobal(uint64_t) const { return GlobalState{0, 0}; }
  GlobalState InitLocal() const { return GlobalState{0, 0}; }
  Accumulator InitAccum() const { return Accumulator{0, 0, 0, 0}; }
  VertexState InitVertex(const GlobalState&, VertexId, uint32_t) const {
    return VertexState{kUndecided};
  }
  bool WantScatter(const GlobalState&) const { return true; }

  template <typename Emit>
  void Scatter(const GlobalState& g, VertexId src, const VertexState& s, const Edge& e,
               Emit&& emit) const {
    if (src == e.dst) {
      return;  // self-loops do not constrain independence
    }
    if (s.status == kUndecided) {
      emit(e.dst, UpdateValue{Priority(src, g.round), src, 0});
    } else if (s.status == kIn) {
      emit(e.dst, UpdateValue{0, src, 1});
    }
  }

  template <typename Emit>
  void Gather(const GlobalState&, VertexId, const VertexState&, Accumulator& a,
              const UpdateValue& u, Emit&&) const {
    if (u.src_in) {
      a.any_in = 1;
      return;
    }
    if (!a.has_undecided || u.priority < a.min_priority ||
        (u.priority == a.min_priority && u.id < a.min_id)) {
      a.min_priority = u.priority;
      a.min_id = u.id;
      a.has_undecided = 1;
    }
  }

  void MergeAccum(Accumulator& a, const Accumulator& b) const {
    a.any_in |= b.any_in;
    if (b.has_undecided && (!a.has_undecided || b.min_priority < a.min_priority ||
                            (b.min_priority == a.min_priority && b.min_id < a.min_id))) {
      a.min_priority = b.min_priority;
      a.min_id = b.min_id;
      a.has_undecided = 1;
    }
  }

  template <typename Emit, typename Sink>
  bool Apply(const GlobalState& g, VertexId v, VertexState& s, const Accumulator& a,
             GlobalState& local, Emit&&, Sink&&) const {
    bool changed = false;
    if (s.status == kUndecided) {
      if (a.any_in) {
        s.status = kOut;
        changed = true;
      } else {
        const uint64_t mine = Priority(v, g.round);
        const bool wins = !a.has_undecided || mine < a.min_priority ||
                          (mine == a.min_priority && v < a.min_id);
        if (wins) {
          s.status = kIn;
          changed = true;
        }
      }
    }
    if (s.status == kUndecided) {
      ++local.undecided;
    }
    return changed;
  }

  void ReduceGlobal(GlobalState& g, const GlobalState& other) const {
    g.undecided += other.undecided;
  }

  bool Advance(GlobalState& g, uint64_t, uint64_t) const {
    const bool done = g.undecided == 0;
    g.undecided = 0;  // fresh count next round
    ++g.round;
    return done;
  }

  double Extract(const VertexState& s) const { return s.status == kIn ? 1.0 : 0.0; }
};

}  // namespace chaos

#endif  // CHAOS_ALGORITHMS_MIS_H_
