// Cluster driver: assembles the simulated rack (network, storage engines,
// optional directory, computation engines), ingests the input edge list,
// runs the computation to completion and extracts results + metrics.
#ifndef CHAOS_CORE_CLUSTER_H_
#define CHAOS_CORE_CLUSTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
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
    CHAOS_CHECK_GE(config_.fetch_window, 1);
    net_ = std::make_unique<Network>(&sim_, config_.machines, config_.net);
    bus_ = std::make_unique<MessageBus>(&sim_, net_.get());
    for (MachineId m = 0; m < config_.machines; ++m) {
      storage_.push_back(
          std::make_unique<StorageEngine>(&sim_, bus_.get(), m, config_.storage));
      // Memory is a first-class simulated resource: each machine's buffer
      // pool enforces the configured budget, spilling to (and stalling on)
      // that machine's own storage device.
      pools_.push_back(std::make_unique<BufferPool>(
          &sim_, &storage_.back()->device(), config_.storage.bandwidth_bps,
          config_.storage.access_latency, config_.EffectivePoolBudget()));
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
  // results do): the list is ingested as one batch.
  RunResult<P> Run(const InputGraph& input) {
    return RunStreaming(input.num_vertices, input.weighted,
                        [&input](const BatchSink& sink) { sink(input.edges); });
  }

  // Streaming variant of Run(): the edge list arrives in generator-supplied
  // batches instead of a materialized InputGraph, so host memory is bounded
  // by one batch plus the simulated chunks. `feed` is called once with a
  // sink; it pushes every batch through the sink and returns. Chunking and
  // placement are identical to Run() on the concatenated batches.
  using BatchSink = std::function<void(const std::vector<Edge>&)>;
  RunResult<P> RunStreaming(uint64_t num_vertices, bool weighted,
                            const std::function<void(const BatchSink&)>& feed) {
    InputGraph shape;  // wire-format facts only; edges stay in the stream
    shape.num_vertices = num_vertices;
    shape.weighted = weighted;
    const GraphMeta meta = GraphMeta::Of(shape);
    IngestInput(num_vertices, meta.edge_wire_bytes, feed);
    return Execute(meta, prog_.InitGlobal(num_vertices), std::nullopt);
  }

  // Restarts a stopped run (a crash, or a preemption at a scripted barrier)
  // on this fresh cluster from the checkpoint `stopped` committed on
  // `donor`, the cluster that ran it (an evolving job attaches its feed first).
  // Imports the edge side live at the checkpoint as kEdges, the checkpoint
  // side as the vertex sets, and the side's commit-time update snapshot
  // (gather-phase emissions the resumed scatter cannot regenerate) under
  // the update-set kind the first resumed gather scans. At the same machine
  // count chunk homes are stable, so sets copy across position for
  // position; otherwise they are re-partitioned. A crash mid-apply leaves
  // partial chunks on an evolving run's in-flight edge side; they are never
  // imported. The result's outputs begin with the ones the donor's chain
  // committed before the checkpoint.
  RunResult<P> Resume(Cluster<P>& donor, const RunResult<P>& stopped, const GraphMeta& meta) {
    CHAOS_CHECK_MSG(stopped.has_checkpoint,
                    "Resume needs a stopped run with a committed checkpoint");
    const uint64_t superstep = stopped.checkpoint_superstep;
    PreparePartitioning(meta.num_vertices);
    const SetKind snapshot = UpdatesCkptFor(stopped.checkpoint_side);
    const SetKind resume_updates = UpdatesFor(superstep);
    if (config_.machines == donor.config().machines) {
      ImportSets(donor, stopped.checkpoint_edges_kind, SetKind::kEdges);
      ImportSets(donor, stopped.checkpoint_side, SetKind::kVertices);
      ImportSets(donor, snapshot, resume_updates);
    } else {
      ImportRepartitioned(donor, stopped.checkpoint_side, meta, snapshot, resume_updates,
                          stopped.checkpoint_edges_kind);
    }
    resumed_outputs_ = donor.OutputsBefore(superstep);
    return Execute(meta, stopped.checkpoint_global, superstep);
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
  // (needed before ImportRepartitioned; Resume calls it itself).
  const Partitioning& PreparePartitioning(uint64_t n) {
    parts_ = std::make_unique<Partitioning>(
        Partitioning::Compute(n, config_.machines, sizeof(VState) + sizeof(A),
                              config_.memory_budget_bytes));
    return *parts_;
  }

  // The committed output stream before absolute superstep `superstep`,
  // which a restart must preserve: the outputs this cluster resumed with,
  // then those its own supersteps that completed before `superstep`
  // emitted, concatenated in machine order.
  std::vector<typename P::OutputRecord> OutputsBefore(uint64_t superstep) const {
    std::vector<typename P::OutputRecord> out = resumed_outputs_;
    for (size_t m = 0; m < cores_.size(); ++m) {
      const auto& all = kernels_[m]->outputs();
      const size_t n = cores_[m]->NumOutputsBefore(superstep);
      out.insert(out.end(), all.begin(), all.begin() + static_cast<ptrdiff_t>(n));
    }
    return out;
  }

  // Host-side: reassembles the full per-vertex state array from an indexed
  // vertex/checkpoint set of this cluster (the inverse of WriteVertexSet).
  // Returns false if any chunk is missing — only possible for a run that
  // crashed before vertex-set initialization completed.
  bool TryHostReadStates(SetKind kind, std::vector<VState>* out) const {
    CHAOS_CHECK(parts_ != nullptr);
    out->assign(parts_->num_vertices(), VState{});
    const uint64_t per_chunk = VertexChunkCapacity(config_.chunk_bytes, sizeof(VState));
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
        auto span = ChunkSpan<VState>(*found);
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
    const uint64_t per_chunk = VertexChunkCapacity(config_.chunk_bytes, sizeof(VState));
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

    // ---- edges, then the update snapshot, from one placement RNG.
    Rng rng(HashCombine(config_.seed, 0x4ec0u));
    Rebin<Edge>(from, edges_source, SetKind::kEdges, meta.edge_wire_bytes, &rng);
    if (updates_source.has_value()) {
      Rebin<UpdateRecord<typename P::UpdateValue>>(
          from, *updates_source, updates_as,
          UpdateWireBytes<typename P::UpdateValue>(meta.vertex_id_wire_bytes), &rng);
    }
  }

 private:
  // Copies every chunk of `kind` sets (all partitions) from `from` into this
  // cluster's engines at the same machine positions, relabeling to `as`.
  // Machine counts must match.
  void ImportSets(Cluster<P>& from, SetKind kind, SetKind as) {
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
          storage_[static_cast<size_t>(m)]->HostAddChunk(target, c);
        }
      }
    }
  }

  // Drains every `source` set of `from` and re-bins each record by the new
  // partition of its key vertex: an edge's source (both endpoints are
  // validated), an update's destination (updates are gathered at their
  // target). Bins are cut at the engines' binned capacity (RecordsPerChunk)
  // into the SoA layout the engines stream, stored as `as` sets and placed
  // like IngestInput places chunks.
  template <typename Rec>
  void Rebin(Cluster<P>& from, SetKind source, SetKind as, uint64_t record_wire_bytes,
             Rng* rng) {
    constexpr bool kEdge = std::is_same_v<Rec, Edge>;
    const uint64_t per_chunk =
        RecordBinner::RecordsPerChunk(config_.chunk_bytes, record_wire_bytes);
    std::vector<std::vector<Rec>> bins(parts_->num_partitions());
    // 64-bit chunk numbering: paper-scale runs with miniaturized
    // chunk_bytes exceed 2^32 sequential chunks per set (Chunk::index is
    // uint64_t for the same reason; tests/core_test.cc pins this).
    std::vector<uint64_t> next_index(parts_->num_partitions(), 0);
    auto flush = [&](PartitionId q) {
      const uint64_t wire = bins[q].size() * record_wire_bytes;
      const SetId set{q, as};
      const MachineId target =
          config_.placement == Placement::kLocalMaster
              ? parts_->Master(q)
              : static_cast<MachineId>(rng->Below(static_cast<uint64_t>(config_.machines)));
      if (directory_ != nullptr) {
        directory_->HostRecord(set, next_index[q], target);
      }
      Chunk chunk;
      if constexpr (kEdge) {
        chunk = MakeSoaEdgeChunk(next_index[q]++, wire, bins[q], /*arena=*/nullptr);
      } else {
        chunk = MakeSoaUpdateChunk(next_index[q]++, wire, bins[q], /*arena=*/nullptr);
      }
      storage_[static_cast<size_t>(target)]->HostAddChunk(set, std::move(chunk));
      bins[q].clear();
    };
    auto add = [&](VertexId key, const Rec& r) {
      const PartitionId q = parts_->PartitionOf(key);
      bins[q].push_back(r);
      if (bins[q].size() >= per_chunk) {
        flush(q);
      }
    };
    for (MachineId m = 0; m < from.config().machines; ++m) {
      StorageEngine* src = from.storage(m);
      for (const SetId& id : src->HostListSets()) {
        if (id.kind != source) {
          continue;
        }
        for (const Chunk& c : *src->HostGetSet(id)) {
          if constexpr (kEdge) {
            const EdgeChunkView view(c);
            for (uint32_t i = 0; i < view.size(); ++i) {
              const Edge e = view.At(i);
              // Validate both endpoints up front: PartitionOf(e.src) would
              // die with a cryptic range CHECK, and an out-of-range e.dst
              // was accepted silently — scatter later emits updates to
              // vertices that do not exist, corrupting the recovered run.
              CHAOS_CHECK_MSG(
                  e.src < parts_->num_vertices() && e.dst < parts_->num_vertices(),
                  "ImportRepartitioned: edge (" + std::to_string(e.src) + " -> " +
                      std::to_string(e.dst) + ") references a vertex beyond num_vertices=" +
                      std::to_string(parts_->num_vertices()));
              add(e.src, e);
            }
          } else {
            const UpdateChunkView view(c, sizeof(typename P::UpdateValue));
            for (uint32_t i = 0; i < view.size(); ++i) {
              const Rec r = view.template At<typename P::UpdateValue>(i);
              add(r.dst, r);
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
  }

  // The unsorted edge list is randomly distributed over all storage
  // devices before the (timed) run starts (§8): cut into chunks of
  // per_chunk edges regardless of batch boundaries, each placed on a seeded
  // random machine. Every edge is copied once, into its chunk or into the
  // carry that bridges a batch boundary and then becomes a chunk.
  void IngestInput(uint64_t num_vertices, uint64_t edge_wire_bytes,
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
    auto sink = [&](const std::vector<Edge>& batch) {
      auto next = batch.begin();
      if (!carry.empty()) {
        const auto take = static_cast<int64_t>(
            std::min<uint64_t>(per_chunk - carry.size(), batch.size()));
        carry.insert(carry.end(), next, next + take);
        next += take;
        if (carry.size() < per_chunk) {
          return;
        }
        emit(std::move(carry));
        carry.clear();
      }
      const auto step = static_cast<int64_t>(per_chunk);
      for (; batch.end() - next >= step; next += step) {
        emit(std::vector<Edge>(next, next + step));
      }
      carry.assign(next, batch.end());
    };
    // Through std::ref the BatchSink holds no heap copy of the closure. That
    // one small block, allocated ahead of the chunk slices, raised bench/e2e
    // wcc_spill's peak RSS by about 2.5 MB.
    feed(std::ref(sink));
    if (!carry.empty()) {
      emit(std::move(carry));
    }
  }

  RunResult<P> Execute(const GraphMeta& meta, const G& initial_global,
                       std::optional<uint64_t> resume_superstep) {
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
      cores_.push_back(std::make_unique<EngineCore>(
          std::move(ctx), kernels_.back().get(), meta, parts_.get(),
          &machine_metrics_[static_cast<size_t>(m)], resume_superstep));
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
    result.outputs = resumed_outputs_;
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
  // Outputs a restart carried over from the run it replaces (Resume).
  std::vector<typename P::OutputRecord> resumed_outputs_;
  // Per machine: the typed kernel (per-edge/per-update/per-vertex loops,
  // typed results) and the untemplated core that drives it. The core holds
  // a pointer to its kernel, so both live behind stable addresses.
  std::vector<std::unique_ptr<GasKernel<P>>> kernels_;
  std::vector<std::unique_ptr<EngineCore>> cores_;
  std::vector<MachineMetrics> machine_metrics_;
  TimeNs finish_time_ = 0;
};

}  // namespace chaos

#endif  // CHAOS_CORE_CLUSTER_H_
