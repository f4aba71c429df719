#include "core/engine_core.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "core/update_chunk_view.h"
#include "core/gather_phase.h"
#include "core/scatter_phase.h"
#include "util/parallel.h"  // DeriveSeed: the sweep-wide seed-derivation rule

namespace chaos {

EngineCore::EngineCore(EngineContext ctx, ProgramKernel* kernel, GraphMeta meta,
                       const Partitioning* parts, MachineMetrics* metrics)
    : ctx_(std::move(ctx)),
      kernel_(kernel),
      meta_(meta),
      parts_(parts),
      metrics_(metrics),
      rng_(HashCombine(ctx_.config->seed, static_cast<uint64_t>(ctx_.machine) + 0xce)),
      steal_rng_(DeriveSeed(HashCombine(ctx_.config->seed, static_cast<uint64_t>(ctx_.machine)),
                            0x57ea1)),
      stolen_ready_(ctx_.sim),
      stolen_taken_(ctx_.sim) {
  for (PartitionId p = 0; p < parts_->num_partitions(); ++p) {
    if (parts_->Master(p) == ctx_.machine) {
      own_partitions_.push_back(p);
    }
  }
}

void EngineCore::Start() {
  if (ctx_.machine == 0) {
    ctx_.sim->Spawn(BarrierService());
  }
  ctx_.sim->Spawn(ControlServer());
  ctx_.sim->Spawn(Main());
}

size_t EngineCore::NumOutputsBefore(uint64_t superstep) const {
  if (superstep <= start_superstep_) {
    return 0;
  }
  const uint64_t completed = superstep - start_superstep_;
  if (output_marks_.empty()) {
    return 0;
  }
  return output_marks_[std::min<size_t>(completed, output_marks_.size()) - 1];
}

// ------------------------------------------------------------- main loop

Task<> EngineCore::Main() {
  if (!ctx_.config->resume) {
    co_await Preprocess();
  } else {
    superstep_ = ctx_.config->resume_superstep;
    start_superstep_ = ctx_.config->resume_superstep;
  }
  if (!aborted_) {
    co_await Barrier(/*advance=*/false);
  }
  // Recorded on the healthy path only: a zero preprocess time is how a
  // crash-during-preprocessing run is recognized (no superstep entered).
  if (ctx_.machine == 0 && !aborted_) {
    preprocess_end_time_ = ctx_.sim->now();
  }
  while (!aborted_) {
    CHAOS_CHECK_MSG(superstep_ - start_superstep_ < ctx_.config->max_supersteps,
                    "superstep limit exceeded; algorithm not converging?");
    if (kernel_->WantScatter()) {
      {
        ScatterPhase scatter(this);
        co_await scatter.Run();
      }
      co_await Barrier(/*advance=*/false);
      if (aborted_) {
        break;
      }
    }
    {
      GatherPhase gather(this);
      co_await gather.Run();
    }
    const BarrierOutcome out = co_await Barrier(/*advance=*/true);
    if (out.crash) {
      break;
    }
    // Superstep completed cluster-wide: everything the kernel has output so
    // far is part of the committed output stream (see NumOutputsBefore).
    output_marks_.push_back(kernel_->num_outputs());
    if (out.mutate) {
      // The program converged but the mutation feed has a pending batch:
      // apply it (re-bin edges, reseed states, commit — its own forced
      // checkpoint replaces the periodic one this superstep) and keep
      // running; the reseeded changed flags drive re-convergence.
      co_await ApplyMutationStage();
      if (aborted_) {
        break;
      }
    } else {
      // The final superstep's checkpoint copy is written during its gather
      // but not committed (the computation is complete; recovery would use
      // the final vertex sets themselves). The uncommitted side is left
      // behind, as in any in-flight 2-phase protocol.
      const bool checkpoint_due = ctx_.config->checkpoint_interval > 0 && !out.done &&
                                  (superstep_ + 1) % ctx_.config->checkpoint_interval == 0;
      if (checkpoint_due) {
        co_await CommitCheckpoint();
        if (aborted_) {
          break;
        }
      }
    }
    ++superstep_;
    if (out.done) {
      break;
    }
  }
  crashed_ = aborted_;
  // Stop this machine's control server.
  ctx_.bus->PostSend(MakeMessage(ctx_.machine, ctx_.machine, kControlService, kControlShutdown,
                                 kControlMsgBytes));
  finished_ = true;
}

// --------------------------------------------------------- preprocessing

Task<> EngineCore::Preprocess() {
  BucketTimer t(ctx_.sim, metrics_, Bucket::kPreprocess);
  const auto& cost = ctx_.cost();
  {
    // Edge chunks are parked in the SoA layout so every later scatter
    // superstep runs the vectorized loop (core/edge_chunk_view.h).
    RecordBinner edge_binner(parts_, RecordBinner::Format::kEdgeSoA, meta_.edge_wire_bytes,
                             ctx_.config->chunk_bytes, ctx_.arena);
    ChunkWriter writer(&ctx_, &rng_, ctx_.config->fetch_window());
    std::unordered_map<VertexId, uint32_t> degree_counts;
    ChunkFetcher fetcher(&ctx_, &rng_, SetId{0, SetKind::kInput}, kInputEpoch,
                         ctx_.config->fetch_window(), LocalMasterTarget(ctx_.machine));
    fetcher.Start();
    const bool count_degrees = kernel_->needs_out_degrees();
    while (true) {
      if (Dead()) {
        co_await fetcher.Cancel();
        break;
      }
      std::optional<Chunk> chunk = co_await fetcher.Next();
      if (!chunk.has_value()) {
        break;
      }
      auto edges = ChunkSpan<Edge>(*chunk);
      co_await ctx_.sim->Delay(ctx_.CpuTime(edges.size(), cost.ns_per_edge_scatter) +
                               ctx_.MessageTime());
      for (const Edge& e : edges) {
        edge_binner.Add(parts_->PartitionOf(e.src), e);
        if (count_degrees && e.flags == kEdgeForward) {
          degree_counts[e.src]++;
        }
      }
      ++metrics_->chunks_fetched;
      co_await edge_binner.FlushPending(&writer, SetKind::kEdges);
    }
    co_await edge_binner.FlushAll(&writer, SetKind::kEdges);
    if (count_degrees) {
      RecordBinner degree_binner(parts_, RecordBinner::Format::kUpdateSoA,
                                 meta_.vertex_id_wire_bytes + 4, ctx_.config->chunk_bytes,
                                 ctx_.arena, sizeof(uint32_t));
      for (const auto& [vertex, count] : degree_counts) {
        degree_binner.AddUpdate(parts_->PartitionOf(vertex), vertex, count);
      }
      co_await degree_binner.FlushAll(&writer, SetKind::kDegrees);
    }
    co_await writer.Drain();
  }
  co_await Barrier(/*advance=*/false);
  if (aborted_) {
    co_return;  // a machine died during pre-processing: no state to init
  }

  // Vertex-set initialization for owned partitions.
  ChunkWriter writer(&ctx_, &rng_, ctx_.config->fetch_window());
  for (const PartitionId p : own_partitions_) {
    const uint64_t count = parts_->Count(p);
    const VertexId base = parts_->Base(p);
    std::vector<uint32_t> degrees;
    if (kernel_->needs_out_degrees()) {
      degrees.assign(count, 0);
      ChunkFetcher fetcher(&ctx_, &rng_, SetId{p, SetKind::kDegrees}, kDegreesEpoch,
                           ctx_.config->fetch_window(), LocalMasterTarget(parts_->Master(p)));
      fetcher.Start();
      while (true) {
        std::optional<Chunk> chunk = co_await fetcher.Next();
        if (!chunk.has_value()) {
          break;
        }
        const UpdateChunkView view(*chunk, sizeof(uint32_t));
        const VertexId* dst = view.dst();
        const uint32_t* value = view.values_as<uint32_t>();
        for (uint32_t i = 0; i < view.size(); ++i) {
          CHAOS_DCHECK(parts_->PartitionOf(dst[i]) == p);
          degrees[dst[i] - base] += value[i];
        }
      }
      const SetId degrees_set{p, SetKind::kDegrees};
      co_await DeleteSetEverywhere(&ctx_, degrees_set);
    }
    co_await WriteVertexSetFromInit(p, degrees, &writer);
  }
  co_await writer.Drain();
}

Task<> EngineCore::WriteVertexSetFromInit(PartitionId p, const std::vector<uint32_t>& degrees,
                                          ChunkWriter* writer) {
  const uint64_t count = parts_->Count(p);
  const VertexId base = parts_->Base(p);
  co_await ctx_.sim->Delay(ctx_.CpuTime(count, ctx_.cost().ns_per_vertex_apply));
  PooledBatch states;
  if (ctx_.pool != nullptr) {
    states.lease = co_await ctx_.pool->Acquire(count * kernel_->vertex_state_bytes());
  }
  states.batch = RecordBatch(ctx_.arena, kernel_->vertex_state_bytes(), count);
  kernel_->InitVertexBatch(&states.batch, base, degrees.empty() ? nullptr : degrees.data());
  co_await WriteVertexSet(p, states.batch, SetKind::kVertices, writer);
}

// --------------------------------------------------- vertex set load/store

Task<PooledBatch> EngineCore::LoadVertexSet(PartitionId p) {
  const uint64_t count = parts_->Count(p);
  const uint64_t record_bytes = kernel_->vertex_state_bytes();
  PooledBatch out;
  if (ctx_.pool != nullptr) {
    out.lease = co_await ctx_.pool->Acquire(count * record_bytes);
  }
  out.batch = RecordBatch(ctx_.arena, record_bytes, count);
  const uint64_t per_chunk = VertsPerChunk();
  const uint64_t nchunks = (count + per_chunk - 1) / per_chunk;
  Semaphore window(ctx_.sim, ctx_.config->fetch_window());
  TaskGroup group(ctx_.sim);
  for (uint64_t idx = 0; idx < nchunks; ++idx) {
    co_await window.Acquire();
    group.Spawn(LoadVertexChunk(p, idx, &out.batch, &window));
  }
  co_await group.Join();
  co_return out;
}

Task<> EngineCore::LoadVertexChunk(PartitionId p, uint64_t idx, RecordBatch* out,
                                   Semaphore* window) {
  const MachineId home = VertexChunkHome(p, idx, ctx_.machines());
  Message req = MakeMessage(ctx_.machine, home, kStorageService, kReadIndexedReq,
                            kControlMsgBytes,
                            ReadIndexedReq{SetId{p, SetKind::kVertices}, idx, false, 0});
  Message resp = co_await ctx_.bus->Call(std::move(req));
  const auto& r = resp.As<ReadChunkResp>();
  CHAOS_CHECK_MSG(r.ok, "missing vertex chunk " + std::to_string(idx) + " of partition " +
                            std::to_string(p));
  const uint64_t start = static_cast<uint64_t>(idx) * VertsPerChunk();
  CHAOS_CHECK_LE(start + r.chunk.count, out->count());
  out->CopyIn(start, r.chunk.data.get(), r.chunk.count);
  window->Release();
}

Task<> EngineCore::WriteVertexSet(PartitionId p, const RecordBatch& states, SetKind kind,
                                  ChunkWriter* writer) {
  const uint64_t per_chunk = VertsPerChunk();
  for (uint64_t start = 0, idx = 0; start < states.count(); start += per_chunk, ++idx) {
    const uint64_t n = std::min(per_chunk, states.count() - start);
    // Zero-copy: the chunk aliases the batch's buffer (record_batch.h); no
    // per-chunk slice vector is materialized. Vertex (and checkpoint)
    // chunks live at hashed homes (§6.4); the writer window still bounds
    // outstanding requests.
    Chunk chunk = states.BorrowChunk(idx, start, n, n * states.record_bytes());
    const MachineId home = VertexChunkHome(p, idx, ctx_.machines());
    const SetId target{p, kind};
    co_await writer->Write(target, std::move(chunk), home);
  }
}

Task<> EngineCore::TouchBatch(const PooledBatch& b) {
  if (ctx_.pool != nullptr && b.lease.active()) {
    co_await ctx_.pool->Touch(b.lease);
  }
}

// ------------------------------------------------------------- stealing

void EngineCore::ResetOwnStatuses() {
  own_status_.clear();
  for (const PartitionId p : own_partitions_) {
    own_status_.emplace(p, PartStatus{});
  }
}

void EngineCore::OnMasterStartsPartition(PartitionId p) {
  PartStatus& st = own_status_[p];
  st.s = PartStatus::S::kActive;
  ++st.workers;
}

void EngineCore::OnMasterFinishesPartition(PartitionId p) {
  PartStatus& st = own_status_[p];
  st.s = PartStatus::S::kClosed;
  --st.workers;
}

bool EngineCore::StealDecision(PartitionId p, EnginePhase phase) {
  auto it = own_status_.find(p);
  CHAOS_CHECK(it != own_status_.end());
  PartStatus& st = it->second;
  if (st.s == PartStatus::S::kClosed) {
    return false;
  }
  const SetId set = phase == EnginePhase::kScatter ? EdgesSet(p) : UpdatesSet(p, superstep_);
  const uint64_t epoch = phase == EnginePhase::kScatter ? ScatterEpoch() : GatherEpoch();
  const double d_local = static_cast<double>(ctx_.local_storage()->RemainingBytes(set, epoch));
  const double d = d_local * ctx_.machines();
  const double v = static_cast<double>(parts_->Count(p)) *
                   static_cast<double>(kernel_->vertex_state_bytes());
  return StealAccept(v, d, st.workers, ctx_.config->alpha);
}

std::vector<MachineId> EngineCore::StealVictimOrder() {
  const int m = ctx_.machines();
  const std::vector<uint32_t> perm = steal_rng_.Permutation(static_cast<uint32_t>(m));
  std::vector<MachineId> order;
  order.reserve(static_cast<size_t>(m) - 1);
  const int domain = ctx_.config->steal.steal_domain;
  if (domain <= 1 || domain >= m) {
    for (const uint32_t v : perm) {
      if (static_cast<MachineId>(v) != ctx_.machine) {
        order.push_back(static_cast<MachineId>(v));
      }
    }
    return order;
  }
  // 2-level routing: in-domain victims first (both halves keep the
  // permutation's relative order, so the whole order stays seeded).
  const int mine = ctx_.machine / domain;
  for (const uint32_t v : perm) {
    if (static_cast<MachineId>(v) != ctx_.machine && static_cast<int>(v) / domain == mine) {
      order.push_back(static_cast<MachineId>(v));
    }
  }
  for (const uint32_t v : perm) {
    if (static_cast<MachineId>(v) != ctx_.machine && static_cast<int>(v) / domain != mine) {
      order.push_back(static_cast<MachineId>(v));
    }
  }
  return order;
}

Task<> EngineCore::StealLoop(EnginePhase phase, std::function<Task<>(PartitionId)> work) {
  const StealPolicy& policy = ctx_.config->steal;
  if (ctx_.machines() <= 1) {
    co_return;
  }
  StealSweepState state(policy.mode);
  // Task-indicator hints: victims that reported no open work this phase.
  // O(machines) per engine and local to the loop — no per-pair state.
  std::vector<uint8_t> drained(static_cast<size_t>(ctx_.machines()), 0);
  BackoffWindow backoff(policy.backoff_initial, policy.backoff_max);
  int dry_rounds = 0;
  while (!Dead()) {
    bool any_grant = false;
    for (const MachineId victim : StealVictimOrder()) {
      if (Dead()) {
        break;
      }
      if (policy.victim_check && drained[static_cast<size_t>(victim)] != 0) {
        continue;
      }
      ++metrics_->steal_proposals_sent;
      Message req = MakeMessage(ctx_.machine, victim, kControlService, kHelpProposalReq,
                                kControlMsgBytes,
                                HelpProposalReq{phase, superstep_, state.steal_half()});
      Message resp = co_await ctx_.bus->Call(std::move(req));
      const auto& r = resp.As<HelpProposalResp>();
      if (!r.more_work) {
        drained[static_cast<size_t>(victim)] = 1;
        ++metrics_->victim_misses;
      }
      if (r.granted.empty()) {
        ++metrics_->steal_requests_declined;
        continue;
      }
      any_grant = true;
      state.OnGrant(r.more_work);
      // A multi-partition grant is streamed concurrently, not sequentially:
      // a stolen gather partition ends in a park-until-the-master-pulls
      // handshake, and the master pulls in its own partition order — a
      // sequential helper holding grant [p3, p0] while the master waits on
      // p0 would deadlock the superstep.
      TaskGroup group(ctx_.sim);
      for (const PartitionId p : r.granted) {
        ++metrics_->steals_worked;
        group.Spawn(work(p));
      }
      co_await group.Join();
    }
    if (any_grant) {
      backoff.Reset();
      dry_rounds = 0;
      continue;
    }
    if (!policy.backoff || dry_rounds >= policy.max_backoff_rounds) {
      break;
    }
    // Dry sweep with backoff on: park and retry — work that opens late
    // (behind a slow victim stream) still finds this helper.
    ++dry_rounds;
    ++metrics_->steal_backoffs;
    const TimeNs wait = backoff.Next();
    metrics_->steal_backoff_time += wait;
    co_await ctx_.sim->Delay(wait);
  }
}

// ------------------------------------------------------- control server

Task<> EngineCore::ControlServer() {
  SimQueue<Message>& inbox = ctx_.bus->Inbox(ctx_.machine, kControlService);
  while (true) {
    Message m = co_await inbox.Pop();
    // Per-message handling CPU (0MQ cost, §7), like the data path charges
    // per chunk. Handling is serial, so a proposal storm hitting a
    // CPU-degraded machine backs up its control queue — the large-N cost
    // that victim hints and backoff exist to cut.
    co_await ctx_.sim->Delay(ctx_.MessageTime());
    switch (m.type) {
      case kHelpProposalReq: {
        HandleHelpProposal(m);
        // Domain-level proposal combining (config steal_combine): proposals
        // from the same steal domain queued behind this one arrive as one
        // merged control message, so they share the MessageTime() charge
        // already paid above. Each member still gets its own grant decision
        // and reply; the drain stops at the first cross-domain (or
        // non-proposal) message so handling order is untouched.
        if (ctx_.config->steal_combine) {
          const int domain = ctx_.config->steal.steal_domain;
          while (!inbox.empty() && inbox.front().type == kHelpProposalReq &&
                 CoDomainSteal(inbox.front().src, m.src, domain)) {
            const Message merged = inbox.PopNow();
            ++metrics_->steal_proposals_combined;
            HandleHelpProposal(merged);
          }
        }
        break;
      }
      case kAccumPullReq:
        ctx_.sim->Spawn(HandleAccumPull(std::move(m)));
        break;
      case kControlShutdown:
        co_return;
      default:
        CHAOS_CHECK_MSG(false, "unknown control message type " + std::to_string(m.type));
    }
  }
}

void EngineCore::HandleHelpProposal(const Message& m) {
  const auto& req = m.As<HelpProposalReq>();
  ++metrics_->proposals_received;
  HelpProposalResp out;
  // A dead master accepts no new helpers (its superstep is doomed);
  // already-admitted stealers are drained by the handshake. A phase
  // or superstep mismatch means this victim has nothing left for the
  // proposer's phase: more_work stays false, so the helper's victim
  // check retires this victim for the rest of the phase.
  if (ctx_.config->stealing_enabled() && !Dead() && req.superstep == superstep_ &&
      req.phase == phase_ && !own_status_.empty()) {
    uint32_t open = 0;
    for (const PartitionId p : own_partitions_) {
      const auto it = own_status_.find(p);
      if (it != own_status_.end() && it->second.s != PartStatus::S::kClosed) {
        ++open;
      }
    }
    out.more_work = open > 0;
    const uint32_t limit = StealGrantLimit(req.steal_half, open);
    const size_t n = own_partitions_.size();
    for (size_t i = 0; i < n && out.granted.size() < limit; ++i) {
      const PartitionId p = own_partitions_[(grant_cursor_ + i) % n];
      if (!StealDecision(p, req.phase)) {
        continue;
      }
      PartStatus& st = own_status_[p];
      ++st.workers;
      if (st.s == PartStatus::S::kPending) {
        st.s = PartStatus::S::kActive;
      }
      if (req.phase == EnginePhase::kGather) {
        st.gather_stealers.push_back(m.src);
      }
      out.granted.push_back(p);
    }
    if (!out.granted.empty()) {
      ++metrics_->proposals_accepted;
      metrics_->partitions_granted += out.granted.size();
      grant_cursor_ = (grant_cursor_ + 1) % n;
    }
  }
  const uint64_t wire = kControlMsgBytes + 4ull * out.granted.size();
  ctx_.bus->PostReply(m, kHelpProposalResp, wire, std::move(out));
}

Task<> EngineCore::HandleAccumPull(Message m) {
  const auto& req = m.As<AccumPullReq>();
  while (stolen_accums_.count(req.partition) == 0) {
    co_await stolen_ready_.Wait();
  }
  auto node = stolen_accums_.extract(req.partition);
  Chunk accums = std::move(node.mapped());
  const uint64_t wire = accums.model_bytes + kControlMsgBytes;
  AccumPullResp resp{std::move(accums), 0};
  ctx_.bus->PostReply(m, kAccumPullResp, wire, std::move(resp));
  stolen_taken_.NotifyAll();
}

void EngineCore::ParkStolenAccums(PartitionId p, Chunk accums) {
  stolen_accums_[p] = std::move(accums);
  stolen_ready_.NotifyAll();
}

Task<> EngineCore::WaitStolenAccumsTaken(PartitionId p) {
  BucketTimer wait_t(ctx_.sim, metrics_, Bucket::kMergeWait);
  while (stolen_accums_.count(p) != 0) {
    co_await stolen_taken_.Wait();
  }
}

}  // namespace chaos
