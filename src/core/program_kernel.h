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
//
// The host-side cluster driver (cluster.h) sees a program only through this
// interface too: a program's kernel makes each machine's kernel of a run,
// and vertex states, globals and outputs reach the driver as bytes.
#ifndef CHAOS_CORE_PROGRAM_KERNEL_H_
#define CHAOS_CORE_PROGRAM_KERNEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/record_batch.h"
#include "core/record_binner.h"
#include "storage/chunk.h"

namespace chaos {

class ProgramKernel {
 public:
  virtual ~ProgramKernel() = default;

  // ---- Host-side driver (cluster.h), on the program's kernel.
  // One machine's kernel for a run over `parts`, starting from the global
  // blob `global`.
  virtual std::unique_ptr<ProgramKernel> MakeMachineKernel(
      const Partitioning* parts, uint64_t vertex_id_wire_bytes,
      const std::vector<uint8_t>& global) const = 0;
  // InitGlobal(num_vertices), as a blob.
  virtual std::vector<uint8_t> InitialGlobal(uint64_t num_vertices) const = 0;
  // Extract() of every vertex state in `states`.
  virtual std::vector<double> ExtractValues(const RecordBatch& states) const = 0;
  // The program's scalar answer (ProgramScalar, gas.h) from a global blob
  // and output records packed at output_record_bytes() each.
  virtual double Scalar(const std::vector<uint8_t>& global,
                        std::span<const uint8_t> outputs) const = 0;

  // ---- Static program facts.
  virtual bool needs_out_degrees() const = 0;
  virtual uint64_t vertex_state_bytes() const = 0;   // sizeof(VertexState)
  virtual uint64_t accum_bytes() const = 0;          // sizeof(Accumulator)
  virtual uint64_t update_wire_bytes() const = 0;   // modeled wire width
  virtual uint64_t update_value_bytes() const = 0;  // sizeof(UpdateValue)
  virtual uint64_t global_wire_bytes() const = 0;   // sizeof(GlobalState)
  virtual uint64_t output_record_bytes() const = 0;  // sizeof(OutputRecord)

  // ---- Engine-side aggregator state (the machine's global_/local_ pair).
  virtual bool WantScatter() const = 0;
  // Serializes the machine's aggregator delta and resets it to InitLocal().
  virtual std::vector<uint8_t> TakeLocalBlob() = 0;
  // Installs the coordinator's canonical global for the next phase.
  virtual void SetGlobal(const std::vector<uint8_t>& blob) = 0;
  virtual std::vector<uint8_t> GlobalBlob() const = 0;
  // Snapshots the current global as the committed-checkpoint global.
  virtual void CommitCheckpointGlobal() = 0;
  virtual std::vector<uint8_t> CheckpointGlobalBlob() const = 0;

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
  // Every output record so far, packed at output_record_bytes() each.
  virtual std::span<const uint8_t> output_bytes() const = 0;
};

}  // namespace chaos

#endif  // CHAOS_CORE_PROGRAM_KERNEL_H_
