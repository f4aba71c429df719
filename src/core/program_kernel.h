// ProgramKernel: the type-erased boundary between the untemplated engine
// core (engine_core.h — phase control flow, stealing, barriers, the
// checkpoint FSM) and a typed GAS program (gas.h). The core never sees
// VertexState/UpdateValue/Accumulator types; it moves RecordBatch buffers
// and Chunk payloads and calls kernel methods at CHUNK granularity, so the
// per-edge/per-update loops stay fully inlined inside the typed adapter
// (gas_kernel.h) while the control flow compiles exactly once.
//
// Aggregator (GlobalState) values cross the barrier protocol as opaque
// byte blobs (net/wire.h BarrierArriveMsg/BarrierReleaseMsg); the kernel
// owns serialization and the fold/advance operations on those blobs.
#ifndef CHAOS_CORE_PROGRAM_KERNEL_H_
#define CHAOS_CORE_PROGRAM_KERNEL_H_

#include <cstdint>
#include <vector>

#include "core/record_batch.h"
#include "core/record_binner.h"
#include "storage/chunk.h"

namespace chaos {

class ProgramKernel {
 public:
  virtual ~ProgramKernel() = default;

  // ---- Static program facts.
  virtual const char* name() const = 0;
  virtual bool needs_out_degrees() const = 0;
  virtual uint64_t vertex_state_bytes() const = 0;   // sizeof(VertexState)
  virtual uint64_t accum_bytes() const = 0;          // sizeof(Accumulator)
  virtual uint64_t update_wire_bytes() const = 0;   // modeled wire width
  virtual uint64_t update_value_bytes() const = 0;  // sizeof(UpdateValue)
  virtual uint64_t global_wire_bytes() const = 0;   // sizeof(GlobalState)

  // ---- Engine-side aggregator state (the machine's global_/local_ pair).
  virtual bool WantScatter() const = 0;
  // Serializes the machine's aggregator delta and resets it to InitLocal().
  virtual std::vector<uint8_t> TakeLocalBlob() = 0;
  // Installs the coordinator's canonical global for the next phase.
  virtual void SetGlobal(const std::vector<uint8_t>& blob) = 0;
  virtual std::vector<uint8_t> GlobalBlob() const = 0;
  // Snapshots the current global as the committed-checkpoint global.
  virtual void CommitCheckpointGlobal() = 0;

  // ---- Coordinator-side folds on opaque global blobs (machine 0).
  virtual void ReduceGlobal(void* folded, const void* local) const = 0;
  virtual bool Advance(void* folded, uint64_t superstep, uint64_t changed) const = 0;

  // ---- Batch kernels (typed loops live in gas_kernel.h).
  // Fills `states` with InitVertex for vertices [base, base + count);
  // `degrees` is null for programs without out-degree pre-counting.
  virtual void InitVertexBatch(RecordBatch* states, VertexId base,
                               const uint32_t* degrees) = 0;
  virtual void InitAccumBatch(RecordBatch* accums) = 0;
  // Scatter over one kEdgeSoA edge chunk against the partition's vertex
  // states.
  virtual void ScatterChunk(const Chunk& edges, const RecordBatch& vstate, VertexId base,
                            RecordBinner* binner) = 0;
  // Gather one kUpdateSoA update chunk into the partition's accumulators.
  virtual void GatherChunk(const Chunk& updates, const RecordBatch& vstate,
                           RecordBatch* accums, VertexId base, RecordBinner* binner) = 0;
  // Merges a stealer's replica accumulator chunk into `accums`.
  virtual void MergeAccumChunk(RecordBatch* accums, const Chunk& theirs) = 0;
  // Apply over the whole partition; returns the number of changed vertices.
  // Program outputs (sink records) accumulate inside the kernel.
  virtual uint64_t ApplyBatch(RecordBatch* vstate, const RecordBatch& accums, VertexId base,
                              RecordBinner* binner) = 0;
  virtual size_t num_outputs() const = 0;
};

}  // namespace chaos

#endif  // CHAOS_CORE_PROGRAM_KERNEL_H_
