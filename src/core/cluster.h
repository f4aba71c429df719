// Cluster driver: assembles the simulated rack (network, storage engines,
// optional directory, computation engines), ingests the input edge list,
// runs the computation to completion and extracts results + metrics.
#ifndef CHAOS_CORE_CLUSTER_H_
#define CHAOS_CORE_CLUSTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/buffer_pool.h"
#include "core/edge_chunk_view.h"
#include "core/engine_core.h"
#include "core/gas_kernel.h"
#include "core/mutation_feed.h"
#include "core/record_arena.h"
#include "core/record_binner.h"
#include "core/update_chunk_view.h"
#include "graph/types.h"

namespace chaos {

template <GasProgram P>
struct RunResult {
  RunMetrics metrics;
  typename P::GlobalState final_global{};
  std::vector<typename P::VertexState> states;  // final vertex states, by id
  std::vector<double> values;                   // prog.Extract() per vertex
  std::vector<typename P::OutputRecord> outputs;
  bool crashed = false;
  uint64_t supersteps = 0;
  // Recovery bookkeeping (committed checkpoint, §6.6).
  bool has_checkpoint = false;
  typename P::GlobalState checkpoint_global{};
  uint64_t checkpoint_superstep = 0;
  SetKind checkpoint_side = SetKind::kCheckpointA;
  // Evolving graphs: the edge side (kEdges/kEdgesB) live at that checkpoint
  // and the number of mutation epochs durably baked into it.
  SetKind checkpoint_edges_kind = SetKind::kEdges;
  uint64_t checkpoint_epoch = 0;
};

template <GasProgram P>
class Cluster {
 public:
  using VState = typename P::VertexState;
  using A = typename P::Accumulator;
  using G = typename P::GlobalState;

  Cluster(ClusterConfig config, P prog)
      : config_(std::move(config)), prog_(std::move(prog)) {
    CHAOS_CHECK_GT(config_.machines, 0);
    net_ = std::make_unique<Network>(&sim_, config_.machines, config_.net);
    bus_ = std::make_unique<MessageBus>(&sim_, net_.get());
    for (MachineId m = 0; m < config_.machines; ++m) {
      // Heterogeneity: each machine gets its own storage/NIC hardware.
      storage_.push_back(
          std::make_unique<StorageEngine>(&sim_, bus_.get(), m, config_.storage_for(m)));
      net_->SetNicBandwidth(m, config_.nic_bandwidth_for(m));
      // Memory is a first-class simulated resource: each machine's buffer
      // pool enforces the configured budget, spilling to (and stalling on)
      // that machine's own storage device.
      const StorageConfig& scfg = config_.storage_for(m);
      pools_.push_back(std::make_unique<BufferPool>(
          &sim_, &storage_.back()->device(), scfg.bandwidth_bps, scfg.access_latency,
          config_.EffectivePoolBudget()));
      storage_.back()->set_pool(pools_.back().get());
      // Per-engine record arena (host memory; see core/record_arena.h).
      // Chunks parked in any machine's storage may outlive it — payload
      // deleters share the freelist state, so teardown order is free.
      arenas_.push_back(std::make_unique<RecordArena>());
    }
    if (config_.placement == Placement::kCentralDirectory) {
      directory_ = std::make_unique<DirectoryServer>(&sim_, bus_.get(), /*home=*/0,
                                                     config_.machines, config_.seed);
    }
    if (!config_.faults.empty()) {
      injector_ = std::make_unique<FaultInjector>(&sim_, config_.faults, config_.machines);
      for (MachineId m = 0; m < config_.machines; ++m) {
        FaultInjector::MachineHooks hooks;
        hooks.storage = &storage_[static_cast<size_t>(m)]->device();
        hooks.nic_up = &net_->Uplink(m);
        hooks.nic_down = &net_->Downlink(m);
        injector_->AttachMachine(m, hooks);
      }
    }
  }

  // Runs from an input edge list (includes pre-processing, as all paper
  // results do).
  RunResult<P> Run(const InputGraph& input) {
    CHAOS_CHECK(!config_.resume);
    IngestInput(input);
    return Execute(GraphMeta::Of(input), prog_.InitGlobal(input.num_vertices));
  }

  // Streaming variant of Run(): the edge list arrives in generator-supplied
  // batches instead of a materialized InputGraph, so host memory is bounded
  // by one batch plus the simulated chunks. `feed` is called once with a
  // sink; it pushes every batch through the sink and returns. Chunking and
  // placement are identical to Run() on the concatenated batches.
  using BatchSink = std::function<void(const std::vector<Edge>&)>;
  RunResult<P> RunStreaming(uint64_t num_vertices, bool weighted,
                            const std::function<void(const BatchSink&)>& feed) {
    CHAOS_CHECK(!config_.resume);
    InputGraph shape;  // wire-format facts only; edges stay in the stream
    shape.num_vertices = num_vertices;
    shape.weighted = weighted;
    const GraphMeta meta = GraphMeta::Of(shape);
    IngestInputStream(num_vertices, meta.edge_wire_bytes, feed);
    return Execute(meta, prog_.InitGlobal(num_vertices));
  }

  // Resumes from previously imported storage state (edges + vertex sets).
  RunResult<P> Resume(const GraphMeta& meta, const G& global) {
    CHAOS_CHECK(config_.resume);
    return Execute(meta, global);
  }

  // Evolving graphs: attaches the shared mutation feed the coordinator
  // consults at every convergence barrier (core/mutation_feed.h). Must be
  // called before Run/Resume; the feed outlives the run.
  void AttachMutations(MutationFeed* feed) { mutations_ = feed; }

  // Host-side storage access (setup, inspection, checkpoint export/import).
  StorageEngine* storage(MachineId m) { return storage_[static_cast<size_t>(m)].get(); }
  const Partitioning& partitioning() const {
    CHAOS_CHECK(parts_ != nullptr);
    return *parts_;
  }
  const ClusterConfig& config() const { return config_; }

  // Computes the partitioning for `n` vertices under this configuration
  // (needed to import sets before Resume).
  const Partitioning& PreparePartitioning(uint64_t n) {
    parts_ = std::make_unique<Partitioning>(
        Partitioning::Compute(n, config_.machines, sizeof(VState) + sizeof(A),
                              config_.memory_budget_bytes));
    return *parts_;
  }

  // Outputs emitted during supersteps that completed before `superstep`,
  // concatenated in machine order — the committed output stream a recovery
  // restart must preserve from a crashed run (core/recovery.h).
  std::vector<typename P::OutputRecord> OutputsBefore(uint64_t superstep) const {
    std::vector<typename P::OutputRecord> out;
    for (size_t m = 0; m < cores_.size(); ++m) {
      const auto& all = kernels_[m]->outputs();
      const size_t n = cores_[m]->NumOutputsBefore(superstep);
      out.insert(out.end(), all.begin(), all.begin() + static_cast<ptrdiff_t>(n));
    }
    return out;
  }

  // Copies every chunk of `kind` sets (all partitions) from `from` into this
  // cluster's engines at the same machine positions, relabeling to `as`.
  // Machine counts must match. Used by crash-recovery flows.
  template <GasProgram Q>
  void ImportSets(Cluster<Q>& from, SetKind kind, SetKind as) {
    CHAOS_CHECK_EQ(from.config().machines, config_.machines);
    for (MachineId m = 0; m < config_.machines; ++m) {
      StorageEngine* src = from.storage(m);
      for (const SetId& id : src->HostListSets()) {
        if (id.kind != kind) {
          continue;
        }
        const SetId target{id.partition, as};
        const auto* chunks = src->HostGetSet(id);
        for (const Chunk& c : *chunks) {
          // Sequential sets are located through the directory in
          // kCentralDirectory mode: imported chunks must be registered or
          // the recovered run's scans would see an empty set.
          if (directory_ != nullptr && !IsIndexedKind(as)) {
            directory_->HostRecord(target, c.index, m);
          }
          storage_[static_cast<size_t>(m)]->HostAddChunk(target,
                                                         src->HostMaterialize(id, c));
        }
      }
    }
  }

  // Host-side: reassembles the full per-vertex state array from an indexed
  // vertex/checkpoint set of this cluster (the inverse of WriteVertexSet).
  // Returns false if any chunk is missing — only possible for a run that
  // crashed before vertex-set initialization completed.
  bool TryHostReadStates(SetKind kind, std::vector<VState>* out) const {
    CHAOS_CHECK(parts_ != nullptr);
    out->assign(parts_->num_vertices(), VState{});
    const uint64_t per_chunk = std::max<uint64_t>(1, config_.chunk_bytes / sizeof(VState));
    for (PartitionId p = 0; p < parts_->num_partitions(); ++p) {
      const VertexId base = parts_->Base(p);
      const uint64_t count = parts_->Count(p);
      const uint64_t nchunks = (count + per_chunk - 1) / per_chunk;
      for (uint64_t idx = 0; idx < nchunks; ++idx) {
        const MachineId home = VertexChunkHome(p, idx, config_.machines);
        const SetId set{p, kind};
        const auto* chunks = storage_[static_cast<size_t>(home)]->HostGetSet(set);
        if (chunks == nullptr) {
          return false;
        }
        const Chunk* found = nullptr;
        for (const Chunk& c : *chunks) {
          if (c.index == idx) {
            found = &c;
            break;
          }
        }
        if (found == nullptr) {
          return false;
        }
        const Chunk loaded = storage_[static_cast<size_t>(home)]->HostMaterialize(set, *found);
        auto span = ChunkSpan<VState>(loaded);
        const uint64_t start = base + static_cast<uint64_t>(idx) * per_chunk;
        CHAOS_CHECK_LE(start + span.size(), out->size());
        std::copy(span.begin(), span.end(), out->begin() + static_cast<int64_t>(start));
      }
    }
    return true;
  }

  void HostReadStates(SetKind kind, std::vector<VState>* out) const {
    CHAOS_CHECK_MSG(TryHostReadStates(kind, out),
                    "missing vertex chunks in " + std::string(SetKindName(kind)) + " set");
  }

  // Re-imports the durable state of a crashed cluster whose machine count
  // differs from ours (rescaled recovery, e.g. N-1 survivors): vertex states
  // are reassembled from `vertex_source` (the committed checkpoint side)
  // under the old partitioning, then re-chunked under THIS cluster's
  // partitioning and placed at their new hashed homes; edges are re-binned
  // by the new vertex ranges, and the checkpoint's update-set snapshot
  // (`updates_source`, when given) is re-binned by the new partition of
  // each record's destination vertex and relabeled `updates_as`. Call
  // PreparePartitioning first. Also valid for equal machine counts, where
  // ImportSets is the cheaper path. `edges_source` selects which edge side
  // of the crashed cluster to drain (an evolving run's committed side may
  // be kEdgesB); the imported copy is always relabeled kEdges, the side a
  // fresh cluster reads first.
  void ImportRepartitioned(Cluster<P>& from, SetKind vertex_source, const GraphMeta& meta,
                           std::optional<SetKind> updates_source = std::nullopt,
                           SetKind updates_as = SetKind::kUpdatesEven,
                           SetKind edges_source = SetKind::kEdges) {
    CHAOS_CHECK(parts_ != nullptr);
    CHAOS_CHECK_EQ(from.partitioning().num_vertices(), parts_->num_vertices());

    // ---- vertex states: old chunking -> flat array -> new chunking.
    std::vector<VState> states;
    from.HostReadStates(vertex_source, &states);
    const uint64_t per_chunk = std::max<uint64_t>(1, config_.chunk_bytes / sizeof(VState));
    for (PartitionId q = 0; q < parts_->num_partitions(); ++q) {
      const VertexId base = parts_->Base(q);
      const uint64_t count = parts_->Count(q);
      for (uint64_t start = 0, idx = 0; start < count; start += per_chunk, ++idx) {
        const uint64_t n = std::min(per_chunk, count - start);
        std::vector<VState> slice(states.begin() + static_cast<int64_t>(base + start),
                                  states.begin() + static_cast<int64_t>(base + start + n));
        const MachineId home = VertexChunkHome(q, idx, config_.machines);
        storage_[static_cast<size_t>(home)]->HostAddChunk(
            SetId{q, SetKind::kVertices},
            MakeChunk<VState>(idx, n * sizeof(VState), std::move(slice)));
      }
    }

    // ---- edges: drain every surviving edge chunk and re-bin by the new
    // partition of the source vertex, mirroring IngestInput's placement.
    // Chunks are cut at the engines' binned capacity (RecordsPerChunk).
    const uint64_t per_edge_chunk =
        RecordBinner::RecordsPerChunk(config_.chunk_bytes, meta.edge_wire_bytes);
    std::vector<std::vector<Edge>> bins(parts_->num_partitions());
    std::vector<uint64_t> next_index(parts_->num_partitions(), 0);
    Rng rng(HashCombine(config_.seed, 0x4ec0u));
    auto flush = [&](PartitionId q) {
      const uint64_t wire = bins[q].size() * meta.edge_wire_bytes;
      const SetId set{q, SetKind::kEdges};
      const MachineId target =
          config_.placement == Placement::kLocalMaster
              ? parts_->Master(q)
              : static_cast<MachineId>(rng.Below(static_cast<uint64_t>(config_.machines)));
      if (directory_ != nullptr) {
        directory_->HostRecord(set, next_index[q], target);
      }
      // Re-binned edge chunks keep the SoA layout the engines expect to
      // stream (core/edge_chunk_view.h).
      storage_[static_cast<size_t>(target)]->HostAddChunk(
          set, MakeSoaEdgeChunk(next_index[q]++, wire, bins[q], /*arena=*/nullptr));
      bins[q].clear();
    };
    for (MachineId m = 0; m < from.config().machines; ++m) {
      StorageEngine* src = from.storage(m);
      for (const SetId& id : src->HostListSets()) {
        if (id.kind != edges_source) {
          continue;
        }
        for (const Chunk& c : *src->HostGetSet(id)) {
          const Chunk loaded = src->HostMaterialize(id, c);
          const EdgeChunkView view(loaded);
          for (uint32_t i = 0; i < view.size(); ++i) {
            const Edge e = view.At(i);
            // Validate both endpoints up front: PartitionOf(e.src) would
            // die with a cryptic range CHECK, and an out-of-range e.dst was
            // accepted silently — scatter later emits updates to vertices
            // that do not exist, corrupting the recovered run.
            CHAOS_CHECK_MSG(
                e.src < parts_->num_vertices() && e.dst < parts_->num_vertices(),
                "ImportRepartitioned: edge (" + std::to_string(e.src) + " -> " +
                    std::to_string(e.dst) + ") references a vertex beyond num_vertices=" +
                    std::to_string(parts_->num_vertices()));
            const PartitionId q = parts_->PartitionOf(e.src);
            bins[q].push_back(e);
            if (bins[q].size() >= per_edge_chunk) {
              flush(q);
            }
          }
        }
      }
    }
    for (PartitionId q = 0; q < parts_->num_partitions(); ++q) {
      if (!bins[q].empty()) {
        flush(q);
      }
    }

    // ---- update snapshot: re-bin each record by the new partition of its
    // destination vertex (updates are gathered at their target).
    if (updates_source.has_value()) {
      using Rec = UpdateRecord<typename P::UpdateValue>;
      const uint64_t update_wire = UpdateWireBytes<typename P::UpdateValue>(
          meta.vertex_id_wire_bytes);
      const uint64_t per_update_chunk =
          RecordBinner::RecordsPerChunk(config_.chunk_bytes, update_wire);
      std::vector<std::vector<Rec>> ubins(parts_->num_partitions());
      // 64-bit chunk numbering: paper-scale runs with miniaturized
      // chunk_bytes exceed 2^32 sequential chunks per set (Chunk::index is
      // uint64_t for the same reason; tests/core_test.cc pins this).
      std::vector<uint64_t> unext(parts_->num_partitions(), 0);
      auto uflush = [&](PartitionId q) {
        const uint64_t wire = ubins[q].size() * update_wire;
        const SetId set{q, updates_as};
        const MachineId target =
            config_.placement == Placement::kLocalMaster
                ? parts_->Master(q)
                : static_cast<MachineId>(rng.Below(static_cast<uint64_t>(config_.machines)));
        if (directory_ != nullptr) {
          directory_->HostRecord(set, unext[q], target);
        }
        // Re-binned snapshot chunks keep the kUpdateSoA layout the gather
        // loop reads (core/update_chunk_view.h).
        storage_[static_cast<size_t>(target)]->HostAddChunk(
            set, MakeSoaUpdateChunk(unext[q]++, wire, ubins[q], /*arena=*/nullptr));
        ubins[q].clear();
      };
      for (MachineId m = 0; m < from.config().machines; ++m) {
        StorageEngine* src = from.storage(m);
        for (const SetId& id : src->HostListSets()) {
          if (id.kind != *updates_source) {
            continue;
          }
          for (const Chunk& c : *src->HostGetSet(id)) {
            const Chunk loaded = src->HostMaterialize(id, c);
            const UpdateChunkView view(loaded, sizeof(typename P::UpdateValue));
            for (uint32_t i = 0; i < view.size(); ++i) {
              const Rec r = view.template At<typename P::UpdateValue>(i);
              const PartitionId q = parts_->PartitionOf(r.dst);
              ubins[q].push_back(r);
              if (ubins[q].size() >= per_update_chunk) {
                uflush(q);
              }
            }
          }
        }
      }
      for (PartitionId q = 0; q < parts_->num_partitions(); ++q) {
        if (!ubins[q].empty()) {
          uflush(q);
        }
      }
    }
  }

 private:
  void IngestInput(const InputGraph& input) {
    parts_ = std::make_unique<Partitioning>(
        Partitioning::Compute(input.num_vertices, config_.machines,
                              sizeof(VState) + sizeof(A), config_.memory_budget_bytes));
    // The unsorted edge list is randomly distributed over all storage
    // devices before the (timed) run starts (§8).
    Rng rng(HashCombine(config_.seed, 0x1297u));
    const uint64_t per_chunk =
        std::max<uint64_t>(1, config_.chunk_bytes / input.edge_wire_bytes());
    const SetId input_set{0, SetKind::kInput};
    uint64_t index = 0;
    for (size_t start = 0; start < input.edges.size(); start += per_chunk) {
      const size_t n = std::min<uint64_t>(per_chunk, input.edges.size() - start);
      std::vector<Edge> slice(input.edges.begin() + static_cast<int64_t>(start),
                              input.edges.begin() + static_cast<int64_t>(start + n));
      const uint64_t wire = n * input.edge_wire_bytes();
      const auto target =
          static_cast<MachineId>(rng.Below(static_cast<uint64_t>(config_.machines)));
      Chunk chunk = MakeChunk<Edge>(index, wire, std::move(slice));
      if (directory_ != nullptr) {
        directory_->HostRecord(input_set, index, target);
      }
      storage_[static_cast<size_t>(target)]->HostAddChunk(input_set, std::move(chunk));
      ++index;
    }
  }

  // Batched version of IngestInput: same chunking, same seeded placement
  // sequence, but the edge list arrives in caller-supplied batches. A carry
  // buffer bridges batch boundaries so chunk contents match what one big
  // edge vector would have produced.
  void IngestInputStream(uint64_t num_vertices, uint64_t edge_wire_bytes,
                         const std::function<void(const BatchSink&)>& feed) {
    parts_ = std::make_unique<Partitioning>(
        Partitioning::Compute(num_vertices, config_.machines, sizeof(VState) + sizeof(A),
                              config_.memory_budget_bytes));
    Rng rng(HashCombine(config_.seed, 0x1297u));
    const uint64_t per_chunk = std::max<uint64_t>(1, config_.chunk_bytes / edge_wire_bytes);
    const SetId input_set{0, SetKind::kInput};
    uint64_t index = 0;
    auto emit = [&](std::vector<Edge> slice) {
      const uint64_t wire = slice.size() * edge_wire_bytes;
      const auto target =
          static_cast<MachineId>(rng.Below(static_cast<uint64_t>(config_.machines)));
      Chunk chunk = MakeChunk<Edge>(index, wire, std::move(slice));
      if (directory_ != nullptr) {
        directory_->HostRecord(input_set, index, target);
      }
      storage_[static_cast<size_t>(target)]->HostAddChunk(input_set, std::move(chunk));
      ++index;
    };
    std::vector<Edge> carry;
    feed([&](const std::vector<Edge>& batch) {
      carry.insert(carry.end(), batch.begin(), batch.end());
      size_t start = 0;
      while (carry.size() - start >= per_chunk) {
        emit(std::vector<Edge>(carry.begin() + static_cast<int64_t>(start),
                               carry.begin() + static_cast<int64_t>(start + per_chunk)));
        start += per_chunk;
      }
      carry.erase(carry.begin(), carry.begin() + static_cast<int64_t>(start));
    });
    if (!carry.empty()) {
      emit(std::move(carry));
    }
  }

  RunResult<P> Execute(const GraphMeta& meta, const G& initial_global) {
    CHAOS_CHECK(parts_ != nullptr);
    machine_metrics_.assign(static_cast<size_t>(config_.machines), MachineMetrics{});
    for (auto& engine : storage_) {
      engine->Start();
    }
    if (directory_ != nullptr) {
      directory_->Start();
    }
    cores_.clear();
    kernels_.clear();
    for (MachineId m = 0; m < config_.machines; ++m) {
      EngineContext ctx;
      ctx.sim = &sim_;
      ctx.net = net_.get();
      ctx.bus = bus_.get();
      for (auto& s : storage_) {
        ctx.storage.push_back(s.get());
      }
      ctx.directory = directory_.get();
      ctx.config = &config_;
      ctx.faults = injector_.get();
      ctx.pool = pools_[static_cast<size_t>(m)].get();
      ctx.mutations = mutations_;
      ctx.arena = arenas_[static_cast<size_t>(m)].get();
      ctx.machine = m;
      kernels_.push_back(std::make_unique<GasKernel<P>>(&prog_, parts_.get(),
                                                        meta.vertex_id_wire_bytes,
                                                        initial_global));
      cores_.push_back(std::make_unique<EngineCore>(std::move(ctx), kernels_.back().get(), meta,
                                                    parts_.get(),
                                                    &machine_metrics_[static_cast<size_t>(m)]));
    }
    for (auto& core : cores_) {
      core->Start();
    }
    if (injector_ != nullptr) {
      // Sampled at each fault's onset/recovery so steal activity and idle
      // time are attributable to individual injected events.
      injector_->set_probe([this](MachineId m) {
        const MachineMetrics& mm = machine_metrics_[static_cast<size_t>(m)];
        FaultProbeSample sample;
        sample.proposals_accepted = mm.proposals_accepted;
        sample.steals_worked = mm.steals_worked;
        sample.barrier_wait = mm.bucket(Bucket::kBarrier);
        return sample;
      });
      injector_->Start();
    }
    sim_.Spawn(Supervise());
    sim_.Run();
    CHAOS_CHECK_MSG(sim_.live_tasks() == 0, "protocol deadlock: tasks still pending");

    const EngineCore& coordinator = *cores_[0];
    RunResult<P> result;
    result.crashed = coordinator.crashed();
    result.supersteps = coordinator.supersteps_run() + (result.crashed ? 1 : 0);
    result.final_global = kernels_[0]->global();
    result.metrics.total_time = finish_time_;
    result.metrics.preprocess_time = coordinator.preprocess_end_time();
    result.metrics.supersteps = result.supersteps;
    result.metrics.machines = machine_metrics_;
    result.metrics.crashed = result.crashed;
    for (auto& s : storage_) {
      DeviceMetrics d;
      d.bytes_read = s->bytes_read();
      d.bytes_written = s->bytes_written();
      d.busy = s->device().total_busy();
      d.chunks_served = s->chunks_served();
      result.metrics.devices.push_back(d);
    }
    for (const auto& pool : pools_) {
      result.metrics.pools.push_back(pool->metrics());
    }
    result.metrics.network_bytes = net_->total_bytes();
    result.metrics.incast_events = net_->incast_events();
    result.metrics.messages = bus_->messages_delivered();
    result.metrics.superstep_end_times = coordinator.superstep_end_times();
    result.metrics.mutation_epochs = coordinator.mutation_records();
    if (injector_ != nullptr) {
      result.metrics.faults = injector_->records();
    }
    for (size_t m = 0; m < cores_.size(); ++m) {
      const auto& out = kernels_[m]->outputs();
      result.outputs.insert(result.outputs.end(), out.begin(), out.end());
      const EngineCore& core = *cores_[m];
      if (core.has_checkpoint()) {
        result.has_checkpoint = true;
        result.checkpoint_global = kernels_[m]->checkpointed_global();
        result.checkpoint_superstep = core.checkpointed_superstep();
        result.checkpoint_side = core.committed_checkpoint_side();
        result.checkpoint_edges_kind = core.checkpoint_edges_kind();
        result.checkpoint_epoch = core.checkpoint_epoch();
      }
    }
    ExtractStates(meta.num_vertices, &result);
    return result;
  }

  // The supervisor waits for all computation engines to finish, then shuts
  // down the storage engines and the directory so the simulation drains.
  Task<> Supervise() {
    while (true) {
      bool all_done = true;
      for (const auto& core : cores_) {
        if (!core->finished() && !core->crashed()) {
          all_done = false;
          break;
        }
      }
      if (all_done) {
        break;
      }
      // Fine-grained poll: runtime quantization must stay well below the
      // shortest miniaturized runs (tens of milliseconds).
      co_await sim_.Delay(20 * kNsPerUs);
    }
    finish_time_ = sim_.now();
    if (injector_ != nullptr) {
      // Degradations scheduled past this point were never reached; stop the
      // replay so they are not recorded as applied post-run.
      injector_->Cancel();
    }
    for (MachineId m = 0; m < config_.machines; ++m) {
      bus_->PostSend(MakeMessage(0, m, kStorageService, kStorageShutdown, kControlMsgBytes));
    }
    if (directory_ != nullptr) {
      bus_->PostSend(MakeMessage(0, directory_->home(), kDirectoryService, kDirShutdown,
                                 kControlMsgBytes));
    }
  }

  void ExtractStates(uint64_t num_vertices, RunResult<P>* result) {
    if (!TryHostReadStates(SetKind::kVertices, &result->states)) {
      // A machine died before vertex-set initialization finished: there is
      // no meaningful state to extract (recovery restarts from the input).
      CHAOS_CHECK_MSG(result->crashed, "missing vertex chunks after a completed run");
      result->states.clear();
      return;
    }
    CHAOS_CHECK_EQ(result->states.size(), num_vertices);
    result->values.reserve(num_vertices);
    for (const VState& s : result->states) {
      result->values.push_back(prog_.Extract(s));
    }
  }

  ClusterConfig config_;
  P prog_;
  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<MessageBus> bus_;
  std::vector<std::unique_ptr<StorageEngine>> storage_;
  std::vector<std::unique_ptr<BufferPool>> pools_;
  std::vector<std::unique_ptr<RecordArena>> arenas_;
  std::unique_ptr<DirectoryServer> directory_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Partitioning> parts_;
  MutationFeed* mutations_ = nullptr;
  // Per machine: the typed kernel (per-edge/per-update/per-vertex loops,
  // typed results) and the untemplated core that drives it. The core holds
  // a pointer to its kernel, so both live behind stable addresses.
  std::vector<std::unique_ptr<GasKernel<P>>> kernels_;
  std::vector<std::unique_ptr<EngineCore>> cores_;
  std::vector<MachineMetrics> machine_metrics_;
  TimeNs finish_time_ = 0;
};

// Runs on a freshly built cluster before Run/Resume, with the number of
// mutation epochs already baked into the state it holds: 0 for a fresh run,
// RunResult::checkpoint_epoch when resuming from a checkpoint. Evolving jobs
// attach their MutationFeed through it (algorithms/evolving.h
// EvolvingController::Attach); the recovery driver and sliced job execution
// both take one.
template <GasProgram P>
using ClusterAttachHook = std::function<void(Cluster<P>&, uint64_t applied_epochs)>;

}  // namespace chaos

#endif  // CHAOS_CORE_CLUSTER_H_
