// Single-machine X-Stream baseline (Roy et al., SOSP 2013): edge-centric
// scatter-gather over streaming partitions, reading and writing one local
// storage device directly (no client-server storage protocol, no network).
//
// Used by bench_table1 to reproduce the paper's Table 1 comparison: Chaos on
// one machine is architecturally X-Stream plus the chunk-server indirection,
// so the two runtimes should be close, with Chaos paying the messaging
// overhead (paper §8).
#ifndef CHAOS_BASELINES_XSTREAM_H_
#define CHAOS_BASELINES_XSTREAM_H_

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/gas.h"
#include "core/partition.h"
#include "graph/types.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "storage/chunk.h"

namespace chaos {

struct XStreamConfig {
  uint64_t memory_budget_bytes = 8ull << 20;
  uint64_t chunk_bytes = 256 << 10;
  int prefetch_window = 8;  // in-flight device requests (I/O / compute overlap)
  StorageConfig storage = StorageConfig::Ssd();
  CostModel cost;
};

template <GasProgram P>
struct XStreamResult {
  std::vector<typename P::VertexState> states;
  std::vector<double> values;
  std::vector<typename P::OutputRecord> outputs;
  typename P::GlobalState final_global{};
  uint64_t supersteps = 0;
  TimeNs total_time = 0;
  TimeNs preprocess_time = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  double device_utilization = 0.0;
};

template <GasProgram P>
class XStreamEngine {
 public:
  using VState = typename P::VertexState;
  using U = typename P::UpdateValue;
  using A = typename P::Accumulator;
  using G = typename P::GlobalState;
  using Rec = UpdateRecord<U>;

  XStreamEngine(const XStreamConfig& config, P prog)
      : config_(config), prog_(std::move(prog)), device_(&sim_, "xstream-ssd") {}

  XStreamResult<P> Run(const InputGraph& input) {
    parts_ = std::make_unique<Partitioning>(Partitioning::Compute(
        input.num_vertices, 1, sizeof(VState) + sizeof(A), config_.memory_budget_bytes));
    meta_wire_edge_ = input.edge_wire_bytes();
    meta_wire_update_ = UpdateWireBytes<U>(input.vertex_id_wire_bytes());
    global_ = prog_.InitGlobal(input.num_vertices);
    XStreamResult<P> result;
    sim_.Spawn(Main(&input, &result));
    sim_.Run();
    CHAOS_CHECK_EQ(sim_.live_tasks(), 0u);
    result.total_time = sim_.now();
    result.final_global = global_;
    result.bytes_read = bytes_read_;
    result.bytes_written = bytes_written_;
    result.device_utilization =
        sim_.now() > 0
            ? static_cast<double>(device_.total_busy()) / static_cast<double>(sim_.now())
            : 0.0;
    result.values.reserve(result.states.size());
    for (const VState& s : result.states) {
      result.values.push_back(prog_.Extract(s));
    }
    return result;
  }

 private:
  // One streamed read of `bytes` from the device.
  Task<> Read(uint64_t bytes) {
    co_await device_.Acquire(config_.storage.access_latency +
                             TransferTimeNs(bytes, config_.storage.bandwidth_bps));
    bytes_read_ += bytes;
  }
  Task<> Write(uint64_t bytes) {
    co_await device_.Acquire(config_.storage.access_latency +
                             TransferTimeNs(bytes, config_.storage.bandwidth_bps));
    bytes_written_ += bytes;
  }

  // Streams the record chunks of a set through the prefetch window, calling
  // `process(span)` for each chunk after charging its compute time.
  template <typename RecT, typename Fn>
  Task<> StreamSet(const std::vector<std::vector<RecT>>* chunks, double ns_per_item,
                   Fn&& process) {
    Semaphore window(&sim_, config_.prefetch_window);
    SimQueue<const std::vector<RecT>*> ready(&sim_);
    TaskGroup group(&sim_);
    for (const auto& chunk : *chunks) {
      co_await window.Acquire();
      group.Spawn([](XStreamEngine* self, const std::vector<RecT>* chunk, Semaphore* window,
                     SimQueue<const std::vector<RecT>*>* ready, uint64_t wire) -> Task<> {
        co_await self->Read(wire);
        ready->Push(chunk);
        window->Release();
      }(this, &chunk, &window, &ready,
        chunk.size() * (std::is_same_v<RecT, Edge> ? meta_wire_edge_ : meta_wire_update_)));
    }
    for (size_t i = 0; i < chunks->size(); ++i) {
      const std::vector<RecT>* chunk = co_await ready.Pop();
      co_await sim_.Delay(config_.cost.ItemsTime(chunk->size(), ns_per_item));
      process(*chunk);
    }
    co_await group.Join();
  }

  Task<> Main(const InputGraph* input, XStreamResult<P>* result) {
    const uint32_t nparts = parts_->num_partitions();
    // ---- Pre-processing: one pass over the input edge list (§3).
    edges_.assign(nparts, {});
    std::vector<std::vector<std::vector<Edge>>> edge_chunks(nparts);
    {
      std::vector<uint32_t> degrees;
      if (P::kNeedsOutDegrees) {
        degrees.assign(input->num_vertices, 0);
      }
      const uint64_t per_chunk =
          std::max<uint64_t>(1, config_.chunk_bytes / meta_wire_edge_);
      // Input is read sequentially chunk by chunk and binned.
      uint64_t offset = 0;
      std::vector<std::vector<Edge>> bins(nparts);
      while (offset < input->edges.size()) {
        const uint64_t n = std::min<uint64_t>(per_chunk, input->edges.size() - offset);
        co_await Read(n * meta_wire_edge_);
        co_await sim_.Delay(config_.cost.ItemsTime(n, config_.cost.ns_per_edge_scatter));
        for (uint64_t i = 0; i < n; ++i) {
          const Edge& e = input->edges[offset + i];
          bins[parts_->PartitionOf(e.src)].push_back(e);
          if (P::kNeedsOutDegrees && e.flags == kEdgeForward) {
            degrees[e.src]++;
          }
        }
        offset += n;
        for (PartitionId p = 0; p < nparts; ++p) {
          if (bins[p].size() >= per_chunk) {
            co_await Write(bins[p].size() * meta_wire_edge_);
            edges_[p].push_back(std::move(bins[p]));
            bins[p].clear();
          }
        }
      }
      for (PartitionId p = 0; p < nparts; ++p) {
        if (!bins[p].empty()) {
          co_await Write(bins[p].size() * meta_wire_edge_);
          edges_[p].push_back(std::move(bins[p]));
        }
      }
      // Vertex sets initialized and written out.
      vertices_.assign(nparts, {});
      for (PartitionId p = 0; p < nparts; ++p) {
        const VertexId base = parts_->Base(p);
        const uint64_t count = parts_->Count(p);
        vertices_[p].reserve(count);
        for (uint64_t i = 0; i < count; ++i) {
          vertices_[p].push_back(prog_.InitVertex(
              global_, base + i, degrees.empty() ? 0 : degrees[base + i]));
        }
        co_await Write(count * sizeof(VState));
      }
    }
    result->preprocess_time = sim_.now();

    // ---- Main loop (Fig. 1).
    updates_.assign(nparts, {});
    uint64_t superstep = 0;
    const uint64_t updates_per_chunk =
        std::max<uint64_t>(1, config_.chunk_bytes / meta_wire_update_);
    while (true) {
      CHAOS_CHECK_LT(superstep, kMaxSupersteps);
      G local = prog_.InitLocal();
      uint64_t changed = 0;
      std::vector<std::vector<std::vector<Rec>>> next_updates(nparts);
      std::vector<std::vector<Rec>> bins(nparts);
      auto emit = [&](VertexId dst, const U& value) {
        const PartitionId p = parts_->PartitionOf(dst);
        bins[p].push_back(Rec{dst, value});
        if (bins[p].size() >= updates_per_chunk) {
          pending_update_chunks_.emplace_back(p, std::move(bins[p]));
          bins[p].clear();
        }
      };
      auto flush_pending = [&](std::vector<std::vector<std::vector<Rec>>>& sink_sets)
          -> Task<> {
        while (!pending_update_chunks_.empty()) {
          auto [p, recs] = std::move(pending_update_chunks_.front());
          pending_update_chunks_.pop_front();
          co_await Write(recs.size() * meta_wire_update_);
          sink_sets[p].push_back(std::move(recs));
        }
      };

      // Scatter phase: one streaming partition at a time (§3). Scatter
      // updates feed *this* superstep's gather.
      if (prog_.WantScatter(global_)) {
        for (PartitionId p = 0; p < nparts; ++p) {
          co_await Read(parts_->Count(p) * sizeof(VState));  // vertex set
          const VertexId base = parts_->Base(p);
          co_await StreamSet<Edge>(
              &edges_[p], config_.cost.ns_per_edge_scatter,
              [&](const std::vector<Edge>& chunk) {
                for (const Edge& e : chunk) {
                  prog_.Scatter(global_, e.src, vertices_[p][e.src - base], e, emit);
                }
              });
          co_await flush_pending(updates_);
        }
        // Partial scatter buffers become whole (short) chunks before gather.
        for (PartitionId p = 0; p < nparts; ++p) {
          if (!bins[p].empty()) {
            pending_update_chunks_.emplace_back(p, std::move(bins[p]));
            bins[p].clear();
          }
        }
        co_await flush_pending(updates_);
      }
      // Gather + apply phase.
      for (PartitionId p = 0; p < nparts; ++p) {
        co_await Read(parts_->Count(p) * sizeof(VState));
        const VertexId base = parts_->Base(p);
        std::vector<A> accums(parts_->Count(p), prog_.InitAccum());
        co_await StreamSet<Rec>(&updates_[p], config_.cost.ns_per_update_gather,
                                [&](const std::vector<Rec>& chunk) {
                                  for (const Rec& r : chunk) {
                                    prog_.Gather(global_, r.dst, vertices_[p][r.dst - base],
                                                 accums[r.dst - base], r.value, emit);
                                  }
                                });
        co_await sim_.Delay(
            config_.cost.ItemsTime(accums.size(), config_.cost.ns_per_vertex_apply));
        auto sink = [&](const typename P::OutputRecord& out) { result->outputs.push_back(out); };
        for (uint64_t i = 0; i < accums.size(); ++i) {
          if (prog_.Apply(global_, base + i, vertices_[p][i], accums[i], local, emit, sink)) {
            ++changed;
          }
        }
        co_await flush_pending(next_updates);
        co_await Write(parts_->Count(p) * sizeof(VState));  // vertex write-back
        updates_[p].clear();
      }
      // Partial gather/apply emission buffers flush to the next superstep.
      for (PartitionId p = 0; p < nparts; ++p) {
        if (!bins[p].empty()) {
          pending_update_chunks_.emplace_back(p, std::move(bins[p]));
          bins[p].clear();
        }
      }
      co_await flush_pending(next_updates);
      updates_ = std::move(next_updates);

      prog_.ReduceGlobal(global_, local);
      const bool done = prog_.Advance(global_, superstep, changed);
      ++superstep;
      if (done) {
        break;
      }
    }
    result->supersteps = superstep;
    // Extract final states.
    result->states.assign(input->num_vertices, VState{});
    for (PartitionId p = 0; p < nparts; ++p) {
      const VertexId base = parts_->Base(p);
      for (uint64_t i = 0; i < vertices_[p].size(); ++i) {
        result->states[base + i] = vertices_[p][i];
      }
    }
  }

  XStreamConfig config_;
  P prog_;
  Simulator sim_;
  FifoResource device_;
  std::unique_ptr<Partitioning> parts_;
  G global_{};
  uint64_t meta_wire_edge_ = 8;
  uint64_t meta_wire_update_ = 8;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  std::vector<std::vector<std::vector<Edge>>> edges_;       // per partition: chunks
  std::vector<std::vector<VState>> vertices_;               // per partition
  std::vector<std::vector<std::vector<Rec>>> updates_;      // per partition: chunks
  std::deque<std::pair<PartitionId, std::vector<Rec>>> pending_update_chunks_;
};

}  // namespace chaos

#endif  // CHAOS_BASELINES_XSTREAM_H_
