// The edge-centric GAS programming model (paper §2).
//
// A program defines the vertex state, the update value carried over edges,
// the per-vertex accumulator, and a small POD global state reduced at every
// gather barrier (a Pregel-style aggregator, used for convergence detection
// and multi-phase algorithms).
//
// Core model (all ten benchmark algorithms):
//   Scatter(src)  -> updates along out-edges
//   Gather(upd)   -> fold into destination accumulator
//   Apply(accum)  -> new vertex value (merged into gather at the master, §4)
//
// Extended model (paper footnote 2; used by MCST):
//   * Scatter may address updates to arbitrary vertices (redirection).
//   * Gather and Apply may emit updates consumed by the *next* superstep's
//     gather (request/response pointer chasing).
#ifndef CHAOS_CORE_GAS_H_
#define CHAOS_CORE_GAS_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>

#include "graph/types.h"

namespace chaos {

// Wrapper the engine stores in update chunks: destination plus the
// program-defined value. POD by construction.
template <typename U>
struct UpdateRecord {
  VertexId dst;
  U value;
};

// Compile-time description every GAS program must satisfy. Emitters are
// passed as generic callables (no virtual dispatch on the per-edge path):
//   emit(VertexId dst, const UpdateValue& value)
// Output sinks collect program results that are not vertex state (e.g. MSF
// edges): sink(const OutputRecord&).
template <typename P>
concept GasProgram = requires(const P p) {
  typename P::VertexState;
  typename P::UpdateValue;
  typename P::Accumulator;
  typename P::GlobalState;
  typename P::OutputRecord;
  requires std::is_trivially_copyable_v<typename P::VertexState>;
  requires std::is_trivially_copyable_v<typename P::UpdateValue>;
  requires std::is_trivially_copyable_v<typename P::Accumulator>;
  requires std::is_trivially_copyable_v<typename P::GlobalState>;
  requires std::is_trivially_copyable_v<typename P::OutputRecord>;
  { P::kNeedsOutDegrees } -> std::convertible_to<bool>;
  { p.InitGlobal(uint64_t{}) } -> std::same_as<typename P::GlobalState>;
  { p.InitLocal() } -> std::same_as<typename P::GlobalState>;
  { p.InitAccum() } -> std::same_as<typename P::Accumulator>;
};

// Convenience empty types for programs that do not use a feature.
struct NoOutput {};
struct NoGlobal {};

// The program's scalar answer, which both engines report: its optional
// static Scalar(global, outputs) (conductance's value, the MSF's total
// weight), else 0.
template <GasProgram P>
double ProgramScalar(const typename P::GlobalState& global,
                     std::span<const typename P::OutputRecord> outputs) {
  if constexpr (requires { P::Scalar(global, outputs); }) {
    return P::Scalar(global, outputs);
  }
  return 0.0;
}

// Modeled wire size of one update record: destination id at the input
// graph's id width plus the program's value payload.
template <typename U>
uint64_t UpdateWireBytes(uint64_t vertex_id_wire_bytes) {
  return vertex_id_wire_bytes + sizeof(U);
}

}  // namespace chaos

#endif  // CHAOS_CORE_GAS_H_
