#include "baselines/xstream.h"

#include <algorithm>
#include <functional>
#include <span>

#include "core/partition.h"
#include "core/record_arena.h"
#include "core/record_batch.h"
#include "core/record_binner.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "storage/chunk.h"

namespace chaos {
namespace {

// Per partition: the chunks of one record set, in stream order.
using ChunkSets = std::vector<std::vector<Chunk>>;

// One run: the device, the one-machine partitioning, its machine kernel and
// the partition-resident edge, vertex and update sets.
class XStreamRun {
 public:
  XStreamRun(const ClusterConfig& config, const ProgramKernel& program, const InputGraph& input)
      : config_(config),
        program_(program),
        input_(input),
        device_(&sim_, "xstream-ssd"),
        parts_(Partitioning::Compute(input.num_vertices, 1,
                                     program.vertex_state_bytes() + program.accum_bytes(),
                                     config.memory_budget_bytes)),
        global_(program.InitialGlobal(input.num_vertices)),
        kernel_(program.MakeMachineKernel(&parts_, input.vertex_id_wire_bytes(), global_)),
        edges_(parts_.num_partitions()) {}

  XStreamResult Run() {
    XStreamResult result;
    sim_.Spawn(Main(&result));
    sim_.Run();
    CHAOS_CHECK_EQ(sim_.live_tasks(), 0u);
    result.total_time = sim_.now();
    result.bytes_read = bytes_read_;
    result.device_utilization =
        sim_.now() > 0
            ? static_cast<double>(device_.total_busy()) / static_cast<double>(sim_.now())
            : 0.0;
    const std::span<const uint8_t> outputs = kernel_->output_bytes();
    result.output_records = outputs.size() / program_.output_record_bytes();
    result.scalar = program_.Scalar(global_, outputs);
    RecordBatch states(program_.vertex_state_bytes(), parts_.num_vertices());
    for (PartitionId p = 0; p < parts_.num_partitions(); ++p) {
      states.CopyIn(parts_.Base(p), vertices_[p].data(), vertices_[p].count());
    }
    result.values = program_.ExtractValues(states);
    return result;
  }

 private:
  // One streamed read or write of `bytes` on the device.
  Task<> Read(uint64_t bytes) {
    co_await device_.Acquire(config_.storage.access_latency +
                             TransferTimeNs(bytes, config_.storage.bandwidth_bps));
    bytes_read_ += bytes;
  }
  Task<> Write(uint64_t bytes) {
    co_await device_.Acquire(config_.storage.access_latency +
                             TransferTimeNs(bytes, config_.storage.bandwidth_bps));
  }

  // Writes every chunk `binner` has parked, oldest first, into its
  // partition's set of `sets`.
  Task<> WriteParked(RecordBinner* binner, ChunkSets* sets) {
    while (binner->HasPending()) {
      std::pair<PartitionId, Chunk> parked = binner->PopPending();
      co_await Write(parked.second.model_bytes);
      (*sets)[parked.first].push_back(std::move(parked.second));
    }
  }

  Task<> ReadChunk(const Chunk* chunk, Semaphore* window, SimQueue<const Chunk*>* ready) {
    co_await Read(chunk->model_bytes);
    ready->Push(chunk);
    window->Release();
  }

  // Streams one partition's chunks of a set through the prefetch window,
  // calling `process(chunk)` for each chunk after charging its compute time.
  Task<> StreamSet(const std::vector<Chunk>* chunks, double ns_per_item,
                   std::function<void(const Chunk&)> process) {
    Semaphore window(&sim_, config_.fetch_window);
    SimQueue<const Chunk*> ready(&sim_);
    TaskGroup group(&sim_);
    for (const Chunk& chunk : *chunks) {
      co_await window.Acquire();
      group.Spawn(ReadChunk(&chunk, &window, &ready));
    }
    for (size_t i = 0; i < chunks->size(); ++i) {
      const Chunk* chunk = co_await ready.Pop();
      co_await sim_.Delay(config_.cost.ItemsTime(chunk->count, ns_per_item));
      process(*chunk);
    }
    co_await group.Join();
  }

  Task<> Main(XStreamResult* result) {
    const uint32_t nparts = parts_.num_partitions();
    const uint64_t vertex_bytes = program_.vertex_state_bytes();
    // ---- Pre-processing: one pass over the input edge list (§3).
    {
      const uint64_t edge_wire = input_.edge_wire_bytes();
      RecordBinner edge_binner(&parts_, RecordBinner::Format::kEdgeSoA, edge_wire,
                               config_.chunk_bytes, &arena_);
      std::vector<uint32_t> degrees(program_.needs_out_degrees() ? input_.num_vertices : 0);
      // Input is read sequentially chunk by chunk and binned.
      const uint64_t per_chunk = std::max<uint64_t>(1, config_.chunk_bytes / edge_wire);
      for (uint64_t offset = 0; offset < input_.edges.size();) {
        const uint64_t n = std::min<uint64_t>(per_chunk, input_.edges.size() - offset);
        co_await Read(n * edge_wire);
        co_await sim_.Delay(config_.cost.ItemsTime(n, config_.cost.ns_per_edge_scatter));
        for (uint64_t i = 0; i < n; ++i) {
          const Edge& e = input_.edges[offset + i];
          edge_binner.Add(parts_.PartitionOf(e.src), e);
          if (!degrees.empty() && e.flags == kEdgeForward) {
            degrees[e.src]++;
          }
        }
        offset += n;
        co_await WriteParked(&edge_binner, &edges_);
      }
      edge_binner.ParkAll();
      co_await WriteParked(&edge_binner, &edges_);
      // Vertex sets initialized and written out.
      for (PartitionId p = 0; p < nparts; ++p) {
        const VertexId base = parts_.Base(p);
        vertices_.emplace_back(&arena_, vertex_bytes, parts_.Count(p));
        kernel_->InitVertexBatch(&vertices_[p], base,
                                 degrees.empty() ? nullptr : degrees.data() + base);
        co_await Write(parts_.Count(p) * vertex_bytes);
      }
    }
    result->preprocess_time = sim_.now();

    // ---- Main loop (Fig. 1). One binner carries every update: scatter's
    // feed this superstep's gather, gather's and apply's the next one's.
    RecordBinner update_binner(&parts_, RecordBinner::Format::kUpdateSoA,
                               kernel_->update_wire_bytes(), config_.chunk_bytes, &arena_,
                               kernel_->update_value_bytes());
    ChunkSets updates(nparts);
    uint64_t superstep = 0;
    while (true) {
      CHAOS_CHECK_LT(superstep, kMaxSupersteps);
      uint64_t changed = 0;
      ChunkSets next_updates(nparts);

      // Scatter phase: one streaming partition at a time (§3).
      if (kernel_->WantScatter()) {
        for (PartitionId p = 0; p < nparts; ++p) {
          co_await Read(parts_.Count(p) * vertex_bytes);  // vertex set
          const VertexId base = parts_.Base(p);
          co_await StreamSet(&edges_[p], config_.cost.ns_per_edge_scatter,
                             [&](const Chunk& chunk) {
                               kernel_->ScatterChunk(chunk, vertices_[p], base, &update_binner);
                             });
          co_await WriteParked(&update_binner, &updates);
        }
        // Partial scatter buffers become whole (short) chunks before gather.
        update_binner.ParkAll();
        co_await WriteParked(&update_binner, &updates);
      }
      // Gather + apply phase.
      for (PartitionId p = 0; p < nparts; ++p) {
        co_await Read(parts_.Count(p) * vertex_bytes);
        const VertexId base = parts_.Base(p);
        RecordBatch accums(&arena_, program_.accum_bytes(), parts_.Count(p));
        kernel_->InitAccumBatch(&accums);
        co_await StreamSet(&updates[p], config_.cost.ns_per_update_gather,
                           [&](const Chunk& chunk) {
                             kernel_->GatherChunk(chunk, vertices_[p], &accums, base,
                                                  &update_binner);
                           });
        co_await sim_.Delay(
            config_.cost.ItemsTime(accums.count(), config_.cost.ns_per_vertex_apply));
        changed += kernel_->ApplyBatch(&vertices_[p], accums, base, &update_binner);
        co_await WriteParked(&update_binner, &next_updates);
        co_await Write(parts_.Count(p) * vertex_bytes);  // vertex write-back
        updates[p].clear();
      }
      // Partial gather/apply emission buffers flush to the next superstep.
      update_binner.ParkAll();
      co_await WriteParked(&update_binner, &next_updates);
      updates = std::move(next_updates);

      const std::vector<uint8_t> local = kernel_->TakeLocalBlob();
      kernel_->ReduceGlobal(global_.data(), local.data());
      const bool done = kernel_->Advance(global_.data(), superstep, changed);
      kernel_->SetGlobal(global_);
      ++superstep;
      if (done) {
        break;
      }
    }
    result->supersteps = superstep;
  }

  const ClusterConfig& config_;
  const ProgramKernel& program_;
  const InputGraph& input_;
  Simulator sim_;
  FifoResource device_;
  Partitioning parts_;
  std::vector<uint8_t> global_;  // the program's GlobalState, as a blob
  std::unique_ptr<ProgramKernel> kernel_;
  // Declared before the sets so the blocks they hold return to a live arena.
  RecordArena arena_;
  ChunkSets edges_;
  std::vector<RecordBatch> vertices_;
  uint64_t bytes_read_ = 0;
};

}  // namespace

XStreamResult XStreamEngine::Run(const InputGraph& input) const {
  XStreamRun run(config_, *program_, input);
  return run.Run();
}

}  // namespace chaos
