// GasKernel<P>: the thin typed adapter between a GAS program (gas.h) and
// the untemplated engine core and cluster driver (cluster.h), and the only
// per-program code on the cluster path. Everything per-edge / per-update /
// per-vertex is a tight typed loop here — emitters are lambdas, records are
// real structs, nothing virtual inside the loop — while the control flow
// (engine_core.h, scatter_phase.cc, gather_phase.cc, cluster.cc) calls
// through the chunk-granularity ProgramKernel interface and compiles once
// for all ten algorithms.
#ifndef CHAOS_CORE_GAS_KERNEL_H_
#define CHAOS_CORE_GAS_KERNEL_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/edge_chunk_view.h"
#include "core/gas.h"
#include "core/partition.h"
#include "core/program_kernel.h"
#include "core/update_chunk_view.h"
#include "graph/types.h"

namespace chaos {

template <GasProgram P>
class GasKernel final : public ProgramKernel {
 public:
  using VState = typename P::VertexState;
  using U = typename P::UpdateValue;
  using A = typename P::Accumulator;
  using G = typename P::GlobalState;
  using Out = typename P::OutputRecord;
  // Update sets have one layout, ChunkLayout::kUpdateSoA, whose packed value
  // region is aligned for at most 8 (core/update_chunk_view.h).
  static_assert(alignof(U) <= 8, "UpdateValue must have alignof <= 8 (kUpdateSoA)");

  // The program's kernel: owns `prog`, makes the machine kernels of each
  // run and answers the driver's host-side calls.
  explicit GasKernel(P prog) : GasKernel(std::make_shared<P>(std::move(prog)), nullptr, 0) {}

  // One machine's kernel of a run over `parts`.
  GasKernel(std::shared_ptr<const P> prog, const Partitioning* parts,
            uint64_t vertex_id_wire_bytes)
      : owned_(std::move(prog)),
        prog_(owned_.get()),
        parts_(parts),
        update_wire_(UpdateWireBytes<U>(vertex_id_wire_bytes)),
        local_(prog_->InitLocal()) {}

  // ---- Host-side driver.
  std::unique_ptr<ProgramKernel> MakeMachineKernel(
      const Partitioning* parts, uint64_t vertex_id_wire_bytes,
      const std::vector<uint8_t>& global) const override {
    auto kernel = std::make_unique<GasKernel>(owned_, parts, vertex_id_wire_bytes);
    kernel->SetGlobal(global);
    return kernel;
  }

  std::vector<uint8_t> InitialGlobal(uint64_t num_vertices) const override {
    return Blob(prog_->InitGlobal(num_vertices));
  }

  std::vector<double> ExtractValues(const RecordBatch& states) const override {
    auto in = states.template Span<const VState>();
    std::vector<double> values(in.size());
    std::transform(in.begin(), in.end(), values.begin(),
                   [this](const VState& s) { return prog_->Extract(s); });
    return values;
  }

  double Scalar(const std::vector<uint8_t>& global,
                std::span<const uint8_t> outputs) const override {
    CHAOS_CHECK_EQ(global.size(), sizeof(G));
    G g{};
    std::memcpy(&g, global.data(), sizeof(G));
    std::vector<Out> records(outputs.size() / sizeof(Out));
    std::copy(outputs.begin(), outputs.end(), reinterpret_cast<uint8_t*>(records.data()));
    return ProgramScalar<P>(g, records);
  }

  // ---- Static facts.
  bool needs_out_degrees() const override { return P::kNeedsOutDegrees; }
  uint64_t vertex_state_bytes() const override { return sizeof(VState); }
  uint64_t accum_bytes() const override { return sizeof(A); }
  uint64_t update_wire_bytes() const override { return update_wire_; }
  uint64_t update_value_bytes() const override { return sizeof(U); }
  uint64_t global_wire_bytes() const override { return sizeof(G); }
  uint64_t output_record_bytes() const override { return sizeof(Out); }

  // ---- Aggregator state.
  bool WantScatter() const override { return prog_->WantScatter(global_); }

  std::vector<uint8_t> TakeLocalBlob() override {
    std::vector<uint8_t> blob = Blob(local_);
    local_ = prog_->InitLocal();
    return blob;
  }

  void SetGlobal(const std::vector<uint8_t>& blob) override {
    CHAOS_CHECK_EQ(blob.size(), sizeof(G));
    std::memcpy(&global_, blob.data(), sizeof(G));
  }

  std::vector<uint8_t> GlobalBlob() const override { return Blob(global_); }

  void CommitCheckpointGlobal() override { checkpointed_global_ = global_; }
  std::vector<uint8_t> CheckpointGlobalBlob() const override { return Blob(checkpointed_global_); }

  // ---- Coordinator-side blob folds.
  void ReduceGlobal(void* folded, const void* local) const override {
    G f;
    G l;
    std::memcpy(&f, folded, sizeof(G));
    std::memcpy(&l, local, sizeof(G));
    prog_->ReduceGlobal(f, l);
    std::memcpy(folded, &f, sizeof(G));
  }

  bool Advance(void* folded, uint64_t superstep, uint64_t changed) const override {
    G f;
    std::memcpy(&f, folded, sizeof(G));
    const bool done = prog_->Advance(f, superstep, changed);
    std::memcpy(folded, &f, sizeof(G));
    return done;
  }

  // ---- Batch kernels.
  void InitVertexBatch(RecordBatch* states, VertexId base, const uint32_t* degrees) override {
    auto out = states->template Span<VState>();
    for (uint64_t i = 0; i < out.size(); ++i) {
      out[i] = prog_->InitVertex(global_, base + i, degrees == nullptr ? 0 : degrees[i]);
    }
  }

  void InitAccumBatch(RecordBatch* accums) override {
    auto out = accums->template Span<A>();
    for (A& a : out) {
      a = prog_->InitAccum();
    }
  }

  void ScatterChunk(const Chunk& edges, const RecordBatch& vstate, VertexId base,
                    RecordBinner* binner) override {
    auto states = vstate.template Span<const VState>();
    auto emit = [&](VertexId dst, const U& value) {
      binner->AddUpdate(parts_->PartitionOf(dst), dst, value);
    };
    // The four packed SoA arrays (core/edge_chunk_view.h) stream
    // sequentially — src scans and state indexing vectorize instead of
    // striding over 24-byte structs.
    const EdgeChunkView view(edges);
    const VertexId* __restrict src = view.src();
    const VertexId* __restrict dst = view.dst();
    const float* __restrict weight = view.weight();
    const uint32_t* __restrict flags = view.flags();
    const uint32_t n = view.size();
    for (uint32_t i = 0; i < n; ++i) {
      const Edge e{src[i], dst[i], weight[i], flags[i]};
      CHAOS_DCHECK(e.src - base < states.size());
      prog_->Scatter(global_, e.src, states[e.src - base], e, emit);
    }
  }

  void GatherChunk(const Chunk& updates, const RecordBatch& vstate, RecordBatch* accums,
                   VertexId base, RecordBinner* binner) override {
    auto states = vstate.template Span<const VState>();
    auto acc = accums->template Span<A>();
    auto emit = [&](VertexId dst, const U& value) {
      binner->AddUpdate(parts_->PartitionOf(dst), dst, value);
    };
    // The dst and value arrays (core/update_chunk_view.h) stream
    // sequentially — accumulator indexing and value loads vectorize instead
    // of striding over padded UpdateRecord structs.
    const UpdateChunkView view(updates, sizeof(U));
    const VertexId* __restrict dst = view.dst();
    const U* __restrict value = view.template values_as<U>();
    const uint32_t n = view.size();
    for (uint32_t i = 0; i < n; ++i) {
      CHAOS_DCHECK(dst[i] - base < acc.size());
      prog_->Gather(global_, dst[i], states[dst[i] - base], acc[dst[i] - base], value[i],
                    emit);
    }
  }

  void MergeAccumChunk(RecordBatch* accums, const Chunk& theirs) override {
    auto acc = accums->template Span<A>();
    auto other = ChunkSpan<A>(theirs);
    CHAOS_CHECK_EQ(other.size(), acc.size());
    for (size_t i = 0; i < acc.size(); ++i) {
      prog_->MergeAccum(acc[i], other[i]);
    }
  }

  uint64_t ApplyBatch(RecordBatch* vstate, const RecordBatch& accums, VertexId base,
                      RecordBinner* binner) override {
    auto states = vstate->template Span<VState>();
    auto acc = accums.template Span<const A>();
    auto emit = [&](VertexId dst, const U& value) {
      binner->AddUpdate(parts_->PartitionOf(dst), dst, value);
    };
    auto sink = [&](const Out& out) { outputs_.push_back(out); };
    uint64_t changed = 0;
    for (size_t i = 0; i < states.size(); ++i) {
      if (prog_->Apply(global_, base + i, states[i], acc[i], local_, emit, sink)) {
        ++changed;
      }
    }
    return changed;
  }

  std::span<const uint8_t> output_bytes() const override {
    return {reinterpret_cast<const uint8_t*>(outputs_.data()), outputs_.size() * sizeof(Out)};
  }

 private:
  static std::vector<uint8_t> Blob(const G& g) {
    std::vector<uint8_t> blob(sizeof(G));
    std::memcpy(blob.data(), &g, sizeof(G));
    return blob;
  }

  std::shared_ptr<const P> owned_;  // shared by the program's kernel and its machine kernels
  const P* prog_;
  const Partitioning* parts_;
  uint64_t update_wire_;
  G global_{};
  G local_;
  G checkpointed_global_{};
  std::vector<Out> outputs_;
};

}  // namespace chaos

#endif  // CHAOS_CORE_GAS_KERNEL_H_
