#include "core/cluster.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "core/edge_chunk_view.h"
#include "core/record_binner.h"
#include "core/update_chunk_view.h"

namespace chaos {

// ------------------------------------------------------------------ Cluster

Cluster::Cluster(ClusterConfig config, std::shared_ptr<const ProgramKernel> program)
    : config_(std::move(config)), program_(std::move(program)) {
  CHAOS_CHECK_GT(config_.machines, 0);
  CHAOS_CHECK_GE(config_.fetch_window, 1);
  net_ = std::make_unique<Network>(&sim_, config_.machines, config_.net);
  bus_ = std::make_unique<MessageBus>(&sim_, net_.get());
  for (MachineId m = 0; m < config_.machines; ++m) {
    storage_.push_back(std::make_unique<StorageEngine>(&sim_, bus_.get(), m, config_.storage));
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

// Out of line, so that users of the header do not each compile the rack's teardown.
Cluster::~Cluster() = default;

RunResult Cluster::RunStreaming(uint64_t num_vertices, bool weighted,
                                const std::function<void(const BatchSink&)>& feed) {
  InputGraph shape;  // wire-format facts only; edges stay in the stream
  shape.num_vertices = num_vertices;
  shape.weighted = weighted;
  const GraphMeta meta = GraphMeta::Of(shape);
  IngestInput(num_vertices, meta.edge_wire_bytes, feed);
  return Execute(meta, program_->InitialGlobal(num_vertices), std::nullopt);
}

RunResult Cluster::Resume(Cluster& donor, const RunResult& stopped, const GraphMeta& meta) {
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
  // The donor's committed output stream before `superstep`, which the
  // restart must preserve: the outputs the donor resumed with, then those
  // its own supersteps before `superstep` emitted, in machine order.
  resumed_outputs_ = donor.resumed_outputs_;
  for (size_t m = 0; m < donor.cores_.size(); ++m) {
    const auto committed =
        donor.kernels_[m]->output_bytes().first(donor.cores_[m]->OutputBytesBefore(superstep));
    resumed_outputs_.insert(resumed_outputs_.end(), committed.begin(), committed.end());
  }
  return Execute(meta, stopped.checkpoint_global, superstep);
}

const Partitioning& Cluster::PreparePartitioning(uint64_t n) {
  parts_ = std::make_unique<Partitioning>(Partitioning::Compute(
      n, config_.machines, program_->vertex_state_bytes() + program_->accum_bytes(),
      config_.memory_budget_bytes));
  return *parts_;
}

bool Cluster::TryHostReadStates(SetKind kind, void* out) const {
  CHAOS_CHECK(parts_ != nullptr);
  const uint64_t width = program_->vertex_state_bytes();
  const uint64_t per_chunk = VertexChunkCapacity(config_.chunk_bytes, width);
  for (PartitionId p = 0; p < parts_->num_partitions(); ++p) {
    const VertexId base = parts_->Base(p);
    const uint64_t count = parts_->Count(p);
    const uint64_t nchunks = (count + per_chunk - 1) / per_chunk;
    for (uint64_t idx = 0; idx < nchunks; ++idx) {
      const MachineId home = VertexChunkHome(p, idx, config_.machines);
      const auto* chunks = storage_[static_cast<size_t>(home)]->HostGetSet(SetId{p, kind});
      if (chunks == nullptr) {
        return false;
      }
      const auto found = std::find_if(chunks->begin(), chunks->end(),
                                      [idx](const Chunk& c) { return c.index == idx; });
      if (found == chunks->end()) {
        return false;
      }
      const uint64_t start = base + static_cast<uint64_t>(idx) * per_chunk;
      CHAOS_CHECK_LE(start + found->count, parts_->num_vertices());
      CHAOS_CHECK_EQ(found->payload_bytes, found->count * width);
      if (found->count > 0) {
        std::memcpy(static_cast<uint8_t*>(out) + start * width, found->data.get(),
                    found->payload_bytes);
      }
    }
  }
  return true;
}

void Cluster::ImportRepartitioned(Cluster& from, SetKind vertex_source, const GraphMeta& meta,
                                  std::optional<SetKind> updates_source, SetKind updates_as,
                                  SetKind edges_source) {
  CHAOS_CHECK(parts_ != nullptr);
  CHAOS_CHECK_EQ(from.partitioning().num_vertices(), parts_->num_vertices());

  // ---- vertex states: old chunking -> flat array -> new chunking. The new
  // chunks borrow their ranges of the flat array (record_batch.h).
  const uint64_t width = program_->vertex_state_bytes();
  RecordBatch states(width, parts_->num_vertices());
  CHAOS_CHECK_MSG(from.TryHostReadStates(vertex_source, states.data()),
                  "missing vertex chunks in " + std::string(SetKindName(vertex_source)) + " set");
  const uint64_t per_chunk = VertexChunkCapacity(config_.chunk_bytes, width);
  for (PartitionId q = 0; q < parts_->num_partitions(); ++q) {
    const VertexId base = parts_->Base(q);
    const uint64_t count = parts_->Count(q);
    for (uint64_t start = 0, idx = 0; start < count; start += per_chunk, ++idx) {
      const uint64_t n = std::min(per_chunk, count - start);
      const MachineId home = VertexChunkHome(q, idx, config_.machines);
      storage_[static_cast<size_t>(home)]->HostAddChunk(
          SetId{q, SetKind::kVertices}, states.BorrowChunk(idx, base + start, n, n * width));
    }
  }

  // ---- edges, then the update snapshot, from one placement RNG.
  Rng rng(HashCombine(config_.seed, 0x4ec0u));
  Rebin(from, edges_source, SetKind::kEdges, ChunkLayout::kEdgeSoA, meta.edge_wire_bytes, &rng);
  if (updates_source.has_value()) {
    Rebin(from, *updates_source, updates_as, ChunkLayout::kUpdateSoA,
          meta.vertex_id_wire_bytes + program_->update_value_bytes(), &rng);
  }
}

// Copies every chunk of `kind` sets (all partitions) from `from` into this
// cluster's engines at the same machine positions, relabeling to `as`.
// Machine counts must match.
void Cluster::ImportSets(Cluster& from, SetKind kind, SetKind as) {
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
// target; values move as update_value_bytes() bytes). Bins are cut at the
// engines' binned capacity (RecordsPerChunk) into `layout`, the SoA layout
// the engines stream (kEdgeSoA or kUpdateSoA), stored as `as` sets and
// placed like IngestInput places chunks.
void Cluster::Rebin(Cluster& from, SetKind source, SetKind as, ChunkLayout layout,
                    uint64_t record_wire_bytes, Rng* rng) {
  const uint64_t value_bytes = program_->update_value_bytes();
  const uint64_t per_chunk =
      RecordBinner::RecordsPerChunk(config_.chunk_bytes, record_wire_bytes);
  // One partition's records by SoA column: an edge's src, dst, weight and
  // flags, or an update's dst and value.
  struct Bin {
    uint32_t count = 0;
    std::vector<std::vector<std::byte>> columns;
  };
  std::vector<Bin> bins(parts_->num_partitions());
  // 64-bit chunk numbering: paper-scale runs with miniaturized
  // chunk_bytes exceed 2^32 sequential chunks per set (Chunk::index is
  // uint64_t for the same reason; tests/core_test.cc pins this).
  std::vector<uint64_t> next_index(parts_->num_partitions(), 0);
  auto flush = [&](PartitionId q) {
    Bin& bin = bins[q];
    const SetId set{q, as};
    const MachineId target =
        config_.placement == Placement::kLocalMaster
            ? parts_->Master(q)
            : static_cast<MachineId>(rng->Below(static_cast<uint64_t>(config_.machines)));
    if (directory_ != nullptr) {
      directory_->HostRecord(set, next_index[q], target);
    }
    storage_[static_cast<size_t>(target)]->HostAddChunk(
        set, MakeSoaChunk(next_index[q]++, bin.count * record_wire_bytes, layout, bin.count,
                          bin.columns));
    bin = Bin{};
  };
  auto add = [&](VertexId key, std::initializer_list<std::span<const std::byte>> fields) {
    const PartitionId q = parts_->PartitionOf(key);
    Bin& bin = bins[q];
    bin.columns.resize(fields.size());
    auto column = bin.columns.begin();
    for (const std::span<const std::byte> field : fields) {
      column->insert(column->end(), field.begin(), field.end());
      ++column;
    }
    if (++bin.count >= per_chunk) {
      flush(q);
    }
  };
  auto bytes = [](const auto& field) { return std::as_bytes(std::span(&field, 1)); };
  for (MachineId m = 0; m < from.config().machines; ++m) {
    StorageEngine* src = from.storage(m);
    for (const SetId& id : src->HostListSets()) {
      if (id.kind != source) {
        continue;
      }
      for (const Chunk& c : *src->HostGetSet(id)) {
        if (layout == ChunkLayout::kEdgeSoA) {
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
            add(e.src, {bytes(e.src), bytes(e.dst), bytes(e.weight), bytes(e.flags)});
          }
        } else {
          const UpdateChunkView view(c, value_bytes);
          const auto* values = reinterpret_cast<const std::byte*>(view.values());
          for (uint32_t i = 0; i < view.size(); ++i) {
            add(view.dst()[i], {bytes(view.dst()[i]), {values + i * value_bytes, value_bytes}});
          }
        }
      }
    }
  }
  for (PartitionId q = 0; q < parts_->num_partitions(); ++q) {
    if (bins[q].count > 0) {
      flush(q);
    }
  }
}

// The unsorted edge list is randomly distributed over all storage devices
// before the (timed) run starts (§8): cut into chunks of per_chunk edges
// regardless of batch boundaries, each placed on a seeded random machine.
// Every edge is copied once, into its chunk or into the carry that bridges
// a batch boundary and then becomes a chunk.
void Cluster::IngestInput(uint64_t num_vertices, uint64_t edge_wire_bytes,
                          const std::function<void(const BatchSink&)>& feed) {
  PreparePartitioning(num_vertices);
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
      const auto take =
          static_cast<int64_t>(std::min<uint64_t>(per_chunk - carry.size(), batch.size()));
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

RunResult Cluster::Execute(const GraphMeta& meta, const std::vector<uint8_t>& initial_global,
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
    kernels_.push_back(
        program_->MakeMachineKernel(parts_.get(), meta.vertex_id_wire_bytes, initial_global));
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
  CHAOS_CHECK_MSG(bus_->in_flight() == 0, "protocol deadlock: messages still in flight");

  const EngineCore& coordinator = *cores_[0];
  RunResult result;
  result.crashed = coordinator.crashed();
  result.supersteps = coordinator.supersteps_run() + (result.crashed ? 1 : 0);
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
    const std::span<const uint8_t> out = kernels_[m]->output_bytes();
    result.outputs.insert(result.outputs.end(), out.begin(), out.end());
    const EngineCore& core = *cores_[m];
    if (core.has_checkpoint()) {
      result.has_checkpoint = true;
      result.checkpoint_global = kernels_[m]->CheckpointGlobalBlob();
      result.checkpoint_superstep = core.checkpointed_superstep();
      result.checkpoint_side = core.committed_checkpoint_side();
      result.checkpoint_edges_kind = core.checkpoint_edges_kind();
      result.checkpoint_epoch = core.checkpoint_epoch();
    }
  }
  result.output_records = result.outputs.size() / program_->output_record_bytes();
  result.scalar = program_->Scalar(kernels_[0]->GlobalBlob(), result.outputs);

  RecordBatch states(program_->vertex_state_bytes(), parts_->num_vertices());
  if (TryHostReadStates(SetKind::kVertices, states.data())) {
    result.values = program_->ExtractValues(states);
  } else {
    // A machine died before vertex-set initialization finished: there is
    // no meaningful state to extract (recovery restarts from the input).
    CHAOS_CHECK_MSG(result.crashed, "missing vertex chunks after a completed run");
  }
  return result;
}

// The supervisor waits for all computation engines to finish, then shuts
// down the storage engines and the directory so the simulation drains.
Task<> Cluster::Supervise() {
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

// ------------------------------------------------------------- JobExecution

JobExecution::JobExecution(JobSpec spec, std::shared_ptr<const ProgramKernel> program,
                           AttachMutationsFn attach)
    : spec_(std::move(spec)),
      program_(std::move(program)),
      attach_(std::move(attach)),
      config_(spec_.cluster) {}

SliceResult JobExecution::RunSlice(int64_t stop_after_superstep) {
  CHAOS_CHECK_MSG(!done_, "RunSlice on a completed job");
  const bool preempt = stop_after_superstep >= 0;
  ClusterConfig cfg = config_;
  if (preempt) {
    const auto stop = static_cast<uint64_t>(stop_after_superstep);
    CHAOS_CHECK_MSG(stop > next_superstep(),
                    "preemption point must be ahead of the resume point");
    CHAOS_CHECK(stop <= std::numeric_limits<uint32_t>::max());
    // Commit exactly once, at superstep stop-1: the engine checkpoints
    // after superstep s when (s+1) % interval == 0, so interval = stop
    // yields checkpointed_superstep == stop whatever the resume point was.
    cfg.crash_after_superstep = stop_after_superstep;
    cfg.checkpoint_interval = static_cast<uint32_t>(stop);
  }

  SliceResult out;
  out.start_superstep = next_superstep();
  auto cluster = std::make_unique<Cluster>(cfg, program_);
  if (attach_ != nullptr) {
    attach_(cluster.get(), stopped_.checkpoint_epoch);
  }
  RunResult run = stopped_.has_checkpoint
                      ? cluster->Resume(*cluster_, stopped_, GraphMeta::Of(*spec_.input))
                      : cluster->Run(*spec_.input);
  cluster_ = std::move(cluster);
  out.slice_time = run.metrics.total_time;

  if (!run.crashed || (!preempt && !spec_.recover)) {
    done_ = true;
    out.completed = true;
    out.end_superstep = run.supersteps;
    if (spec_.recover) {
      FinishRecoveryReport(run.metrics);
    }
    result_.metrics = std::move(run.metrics);
    result_.values = std::move(run.values);
    result_.scalar = run.scalar;
    result_.output_records = run.output_records;
    result_.supersteps = run.supersteps;
    result_.crashed = run.crashed;
    result_.recovery = recovery_;
    cluster_.reset();
    return out;
  }
  if (preempt) {
    // The commit at stop-1 covers every completed superstep, so nothing
    // but the aborted superstep re-runs.
    CHAOS_CHECK_MSG(run.has_checkpoint, "preempted slice has no committed checkpoint");
    CHAOS_CHECK(run.checkpoint_superstep == static_cast<uint64_t>(stop_after_superstep));
  } else {
    // A machine failure: the crashed run's half of the report, then a
    // healthy replacement for the next slice.
    RecoveryReport& rep = recovery_;
    rep.crash_detected = true;
    rep.crashed_run_time = run.metrics.total_time;
    rep.crash_superstep = run.supersteps > 0 ? run.supersteps - 1 : 0;
    rep.recovered_from_checkpoint = run.has_checkpoint;
    rep.resume_superstep = run.checkpoint_superstep;
    // A zero preprocess time marks a run that died before pre-processing
    // finished: no superstep was ever entered (the engine only records the
    // preprocess end on the healthy path).
    died_in_preprocess_ = run.metrics.preprocess_time == 0;
    rep.lost_work_supersteps =
        !died_in_preprocess_ && rep.crash_superstep >= rep.resume_superstep
            ? rep.crash_superstep - rep.resume_superstep + 1
            : 0;
    config_.faults = FaultSchedule{};
    config_.crash_after_superstep = -1;
    if (spec_.recovery.replacement_machines > 0) {
      config_.machines = spec_.recovery.replacement_machines;
    }
  }
  // Keep only what Resume reads: the committed checkpoint, if any (a slice
  // of an evolving job may have committed forced mutation checkpoints, so
  // its edge side and epoch too), not the stopped run's values.
  run.metrics = RunMetrics{};
  run.values = {};
  run.outputs = {};
  stopped_ = std::move(run);
  out.end_superstep = next_superstep();
  return out;
}

AlgoResult JobExecution::TakeResult() {
  CHAOS_CHECK_MSG(done_, "TakeResult before the job completed");
  return std::move(result_);
}

// Completes a recover job's report from its last run's metrics: the
// replacement's after a failure, else the only run's.
void JobExecution::FinishRecoveryReport(const RunMetrics& metrics) {
  RecoveryReport& rep = recovery_;
  rep.machines_after = config_.machines;
  rep.end_to_end_time = rep.crashed_run_time + metrics.total_time;
  if (!rep.crash_detected) {
    return;
  }
  // Time to recover: replacement-cluster time until the work the failure
  // destroyed has been re-done — the aborted superstep's gather barrier,
  // or the re-run pre-processing when the crash predated any superstep.
  // A crash between a checkpoint's commit and its phase-2 barrier can leave
  // resume_superstep past crash_superstep: nothing to re-execute.
  const auto& times = metrics.superstep_end_times;
  if (died_in_preprocess_) {
    rep.time_to_recover = metrics.preprocess_time;
  } else if (rep.crash_superstep < rep.resume_superstep) {
    rep.time_to_recover = 0;
  } else if (times.empty()) {
    rep.time_to_recover = metrics.total_time;
  } else {
    const uint64_t idx = rep.crash_superstep - rep.resume_superstep;
    rep.time_to_recover = times[std::min<uint64_t>(idx, times.size() - 1)];
  }
}

}  // namespace chaos
