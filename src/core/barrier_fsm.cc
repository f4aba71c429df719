// The barrier and 2-phase-checkpoint FSMs of the engine core (paper §5.2,
// §6.6). Untemplated: aggregator state crosses the wire as kernel-
// serialized blobs (protocol.h), and the coordinator folds them through
// the type-erased ProgramKernel.
#include <string>
#include <utility>
#include <vector>

#include "core/engine_core.h"
#include "core/mutation_feed.h"

namespace chaos {

Task<BarrierOutcome> EngineCore::Barrier(bool advance) {
  BucketTimer t(ctx_.sim, metrics_, Bucket::kBarrier);
  BarrierArriveMsg body;
  body.phase_id = next_phase_id_++;
  body.local = kernel_->TakeLocalBlob();  // snapshots and resets the delta
  body.vertices_changed = changed_;
  body.advance = advance;
  body.failed = Dead();  // barrier doubles as the failure detector (§6.6)
  body.superstep = superstep_;
  Message req = MakeMessage(ctx_.machine, 0, kComputeService, kBarrierArrive,
                            kControlMsgBytes + kernel_->global_wire_bytes(), std::move(body));
  changed_ = 0;
  Message resp = co_await ctx_.bus->Call(std::move(req));
  const auto& release = resp.As<BarrierReleaseMsg>();
  kernel_->SetGlobal(release.global);
  if (release.crash) {
    // The coordinator stops serving barriers after a crash release; every
    // caller must unwind to Main without arriving at another barrier.
    aborted_ = true;
  }
  co_return BarrierOutcome{release.done, release.crash, release.mutate};
}

Task<> EngineCore::BarrierService() {
  SimQueue<Message>& inbox = ctx_.bus->Inbox(0, kComputeService);
  std::vector<uint8_t> canonical = kernel_->GlobalBlob();
  const int m = ctx_.machines();
  while (true) {
    std::vector<Message> arrivals;
    arrivals.reserve(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      Message msg = co_await inbox.Pop();
      CHAOS_CHECK_EQ(msg.type, static_cast<uint32_t>(kBarrierArrive));
      arrivals.push_back(std::move(msg));
    }
    const auto& first = arrivals.front().As<BarrierArriveMsg>();
    const bool advance = first.advance;
    const uint64_t superstep = first.superstep;
    bool done = false;
    // Failure detection (§6.6): any flagged arrival — at any barrier —
    // aborts the run cluster-wide. Recovery is a fresh cluster resuming
    // from the last committed checkpoint (core/recovery.h).
    bool crash = false;
    bool mutate = false;
    for (const Message& msg : arrivals) {
      crash = crash || msg.As<BarrierArriveMsg>().failed;
    }
    if (advance) {
      std::vector<uint8_t> folded = canonical;
      uint64_t changed = 0;
      for (const Message& msg : arrivals) {
        const auto& body = msg.As<BarrierArriveMsg>();
        CHAOS_CHECK_EQ(body.phase_id, first.phase_id);
        CHAOS_CHECK_EQ(body.superstep, superstep);
        kernel_->ReduceGlobal(folded.data(), body.local.data());
        changed += body.vertices_changed;
      }
      done = kernel_->Advance(folded.data(), superstep, changed);
      canonical = std::move(folded);
      crash = crash || (ctx_.config->crash_after_superstep >= 0 &&
                        static_cast<uint64_t>(ctx_.config->crash_after_superstep) == superstep);
      // Evolving graphs: the program converged but mutation batches remain.
      // Plan the next epoch (a zero-sim-time host callback — every machine
      // is parked here, so reads of converged engine state are race-free)
      // and release with `mutate` instead of `done`: engines run the apply
      // stage and re-converge from the reseeded frontier.
      if (!crash && done && ctx_.mutations != nullptr && ctx_.mutations->HasPending()) {
        ctx_.mutations->Plan();
        mutate = true;
        done = false;
      }
      if (!crash) {
        superstep_end_times_.push_back(ctx_.sim->now());
      }
    }
    for (const Message& msg : arrivals) {
      BarrierReleaseMsg release;
      release.global = canonical;
      release.done = done;
      release.crash = crash;
      release.mutate = mutate;
      ctx_.bus->PostReply(msg, kBarrierRelease, kControlMsgBytes + kernel_->global_wire_bytes(),
                          std::move(release));
    }
    if (crash || (advance && done)) {
      co_return;
    }
  }
}

// ----------------------------------------------------------- checkpoint

Task<> EngineCore::CommitCheckpoint() {
  co_await Barrier(/*advance=*/false);  // phase 1: all writes acked cluster-wide
  if (aborted_) {
    co_return;  // failure before the commit point: this checkpoint never was
  }
  // Snapshot the in-flight update set of the resume superstep into the
  // incoming snapshot side. Updates emitted by the just-finished gather
  // (targeting superstep_ + 1) cannot be regenerated from the vertex
  // checkpoint — resume re-runs that superstep's *scatter*, not the
  // previous gather — so they are part of the recoverable state. For
  // pure-scatter programs (WantScatter always true) this set is empty and
  // the snapshot costs only the scan handshakes.
  const SetKind new_usnap =
      checkpoint_counter_ % 2 == 0 ? SetKind::kUpdatesCkptA : SetKind::kUpdatesCkptB;
  {
    BucketTimer t(ctx_.sim, metrics_, Bucket::kCheckpoint);
    ChunkWriter writer(&ctx_, &rng_, ctx_.config->fetch_window());
    for (const PartitionId p : own_partitions_) {
      ChunkFetcher fetcher(&ctx_, &rng_, UpdatesSet(p, superstep_ + 1), CheckpointScanEpoch(),
                           ctx_.config->fetch_window(), LocalMasterTarget(parts_->Master(p)),
                           /*preserve_payload=*/true);
      fetcher.Start();
      while (true) {
        auto chunk = co_await fetcher.Next();
        if (!chunk.has_value()) {
          break;
        }
        co_await writer.Write(SetId{p, new_usnap}, std::move(*chunk), ctx_.machine);
      }
    }
    co_await writer.Drain();
  }
  co_await Barrier(/*advance=*/false);  // update snapshots durable cluster-wide
  if (aborted_) {
    co_return;  // failure before the commit point: prior checkpoint intact
  }
  kernel_->CommitCheckpointGlobal();
  checkpointed_superstep_ = superstep_ + 1;
  has_checkpoint_ = true;
  // Evolving graphs: a recovery import needs the edge side and the number
  // of mutation epochs baked into this checkpoint. When forced from the
  // apply stage the flip has already committed, so EdgesKind() is the
  // post-batch side; planned epochs == durably applied epochs here.
  checkpoint_edges_kind_ = EdgesKind();
  checkpoint_epoch_ = ctx_.mutations == nullptr ? 0 : ctx_.mutations->applied_epochs();
  const SetKind old_side =
      checkpoint_counter_ % 2 == 0 ? SetKind::kCheckpointB : SetKind::kCheckpointA;
  const SetKind old_usnap =
      checkpoint_counter_ % 2 == 0 ? SetKind::kUpdatesCkptB : SetKind::kUpdatesCkptA;
  ++checkpoint_counter_;  // commit point passed: the new side is current
  {
    BucketTimer t(ctx_.sim, metrics_, Bucket::kCheckpoint);
    for (const PartitionId p : own_partitions_) {
      co_await DeleteSetEverywhere(&ctx_, SetId{p, old_side});
      co_await DeleteSetEverywhere(&ctx_, SetId{p, old_usnap});
    }
  }
  co_await Barrier(/*advance=*/false);  // phase 2: commit visible everywhere
}

// ------------------------------------------------------------ mutations

Task<> EngineCore::ApplyMutationStage() {
  CHAOS_CHECK(ctx_.mutations != nullptr);
  const MutationDelta& delta = ctx_.mutations->Current();
  const TimeNs start = ctx_.sim->now();
  const SetKind old_kind = EdgesKind();
  const SetKind new_kind =
      old_kind == SetKind::kEdges ? SetKind::kEdgesB : SetKind::kEdges;
  {
    BucketTimer t(ctx_.sim, metrics_, Bucket::kMutate);
    const auto& cost = ctx_.cost();
    ChunkWriter writer(&ctx_, &rng_, ctx_.config->fetch_window());
    RecordBinner binner(parts_, RecordBinner::Format::kEdgeSoA, meta_.edge_wire_bytes,
                        ctx_.config->chunk_bytes, ctx_.arena);
    for (const PartitionId p : own_partitions_) {
      // Stream the old edge side of the partition — the read cost of
      // retiring the pre-batch edge set. The payloads are discarded: the
      // replacement below is the host-planned full post-batch edge list,
      // so the output is deterministic regardless of chunk arrival order.
      ChunkFetcher fetcher(&ctx_, &rng_, SetId{p, old_kind}, MutateScanEpoch(),
                           ctx_.config->fetch_window(), LocalMasterTarget(parts_->Master(p)),
                           /*preserve_payload=*/true);
      fetcher.Start();
      while (true) {
        if (Dead()) {
          co_await fetcher.Cancel();
          break;
        }
        std::optional<Chunk> chunk = co_await fetcher.Next();
        if (!chunk.has_value()) {
          break;
        }
        co_await ctx_.sim->Delay(ctx_.CpuTime(chunk->count, cost.ns_per_edge_scatter) +
                                 ctx_.MessageTime());
        ++metrics_->chunks_fetched;
      }
      if (Dead()) {
        break;
      }
      // Bin the post-batch edge set of this partition to the other side.
      for (const Edge& e : delta.part_edges[p]) {
        binner.Add(p, e);
      }
      co_await binner.FlushPending(&writer, new_kind);
      co_await WriteSeedStates(p, &writer);
    }
    if (!Dead()) {
      co_await binner.FlushAll(&writer, new_kind);
    }
    co_await writer.Drain();
  }
  co_await Barrier(/*advance=*/false);  // commit point: new side durable cluster-wide
  if (aborted_) {
    co_return;  // old side + old checkpoint intact; this epoch replays on recovery
  }
  ++edges_flips_;  // committed: EdgesKind() now reads the post-batch side
  if (ctx_.config->checkpoint_interval > 0) {
    // Force a checkpoint commit so the durable checkpoint can never lag
    // behind the committed edge flip (recovery must resume on a consistent
    // (edges, states, epoch) triple). WriteSeedStates already wrote the hot
    // copy; this runs the ordinary 2-phase commit over it.
    co_await CommitCheckpoint();
    if (aborted_) {
      co_return;
    }
  }
  {
    BucketTimer t(ctx_.sim, metrics_, Bucket::kMutate);
    for (const PartitionId p : own_partitions_) {
      co_await DeleteSetEverywhere(&ctx_, SetId{p, old_kind});
    }
  }
  co_await Barrier(/*advance=*/false);  // old side retired everywhere
  if (aborted_) {
    co_return;
  }
  if (ctx_.machine == 0) {
    MutationEpochRecord rec;
    rec.epoch = ctx_.mutations->applied_epochs() - 1;
    rec.superstep = superstep_;
    rec.start_time = start;
    rec.end_time = ctx_.sim->now();
    rec.edges_inserted = delta.edges_inserted;
    rec.edges_deleted = delta.edges_deleted;
    rec.frontier = delta.frontier;
    rec.resets = delta.resets;
    mutation_records_.push_back(rec);
  }
}

Task<> EngineCore::WriteSeedStates(PartitionId p, ChunkWriter* writer) {
  const MutationDelta& delta = ctx_.mutations->Current();
  const uint64_t record_bytes = kernel_->vertex_state_bytes();
  CHAOS_CHECK_EQ(delta.vertex_state_bytes, record_bytes);
  const uint64_t count = parts_->Count(p);
  const VertexId base = parts_->Base(p);
  co_await ctx_.sim->Delay(ctx_.CpuTime(count, ctx_.cost().ns_per_vertex_apply));
  PooledBatch states;
  if (ctx_.pool != nullptr) {
    states.lease = co_await ctx_.pool->Acquire(count * record_bytes);
  }
  states.batch = RecordBatch(ctx_.arena, record_bytes, count);
  states.batch.CopyIn(0, delta.seed_states.data() + base * record_bytes, count);
  co_await WriteVertexSet(p, states.batch, SetKind::kVertices, writer);
  if (ctx_.config->checkpoint_interval > 0) {
    // Hot copy for the forced post-mutation checkpoint: the gather's
    // periodic copy (if any) holds pre-mutation states, and indexed
    // checkpoint chunks overwrite in place, so this replaces it.
    co_await WriteVertexSet(p, states.batch, CheckpointSide(), writer);
  }
}

}  // namespace chaos
