#include "core/gather_phase.h"

namespace chaos {

GatherPhase::GatherPhase(EngineCore* core)
    : core_(core),
      binner_(core->parts_, RecordBinner::Format::kUpdateSoA,
              core->kernel_->update_wire_bytes(), core->ctx_.config->chunk_bytes,
              core->ctx_.arena, core->kernel_->update_value_bytes()),
      writer_(&core->ctx_, &core->rng_, core->ctx_.config->fetch_window) {}

Task<> GatherPhase::Run() {
  EngineCore& c = *core_;
  c.phase_ = EnginePhase::kGather;
  c.ResetOwnStatuses();
  // A dead master still visits every owned partition: registered gather
  // stealers are parked on the accumulator handshake and must be released
  // even though the superstep is doomed (streams themselves abort early).
  for (const PartitionId p : c.own_partitions_) {
    co_await ProcessMaster(p);
  }
  if (c.ctx_.config->stealing_enabled() && !c.Dead()) {
    auto work = [this](PartitionId p) { return ProcessStolen(p); };
    co_await c.StealLoop(EnginePhase::kGather, work);
  }
  if (!c.Dead()) {
    co_await binner_.FlushAll(&writer_, UpdatesFor(c.superstep_ + 1));
  }
  co_await writer_.Drain();
  c.metrics_->updates_emitted += binner_.emitted();
  c.phase_ = EnginePhase::kScatter;
}

Task<GatherPhase::Streamed> GatherPhase::Stream(PartitionId p, bool stolen) {
  EngineCore& c = *core_;
  Streamed out;
  {
    BucketTimer load_t(c.ctx_.sim, c.metrics_, stolen ? Bucket::kCopy : Bucket::kGpMaster);
    out.vstate = co_await c.LoadVertexSet(p);
  }
  BucketTimer t(c.ctx_.sim, c.metrics_, stolen ? Bucket::kGpSteal : Bucket::kGpMaster);
  const uint64_t count = c.parts_->Count(p);
  out.accums = co_await c.AllocBatch(c.kernel_->accum_bytes(), count);
  c.kernel_->InitAccumBatch(&out.accums.batch);
  const VertexId base = c.parts_->Base(p);
  const auto& cost = c.ctx_.cost();
  ChunkFetcher fetcher(&c.ctx_, &c.rng_, c.UpdatesSet(p, c.superstep_), c.GatherEpoch(),
                       c.ctx_.config->fetch_window,
                       c.LocalMasterTarget(c.parts_->Master(p)));
  fetcher.Start();
  while (true) {
    if (c.Dead()) {
      co_await fetcher.Cancel();
      break;
    }
    std::optional<Chunk> chunk = co_await fetcher.Next();
    if (!chunk.has_value()) {
      break;
    }
    co_await c.ctx_.sim->Delay(c.ctx_.CpuTime(chunk->count, cost.ns_per_update_gather) +
                               c.ctx_.MessageTime());
    // Fault back any pages of the working batches the windows evicted.
    co_await c.TouchBatch(out.vstate);
    co_await c.TouchBatch(out.accums);
    c.kernel_->GatherChunk(*chunk, out.vstate.batch, &out.accums.batch, base, &binner_);
    c.metrics_->updates_processed += chunk->count;
    ++c.metrics_->chunks_fetched;
    if (stolen) {
      ++c.metrics_->stolen_chunks;
    }
    co_await binner_.FlushPending(&writer_, UpdatesFor(c.superstep_ + 1));
  }
  co_return out;
}

Task<> GatherPhase::ProcessMaster(PartitionId p) {
  EngineCore& c = *core_;
  c.OnMasterStartsPartition(p);
  Streamed s = co_await Stream(p, /*stolen=*/false);
  // Close: no new stealers; the registered set is now final (§5.3).
  EngineCore::PartStatus& st = c.own_status_[p];
  st.s = EngineCore::PartStatus::S::kClosed;
  const auto& cost = c.ctx_.cost();

  // Pull and merge the replica accumulators of every stealer.
  for (const MachineId stealer : st.gather_stealers) {
    Message req = MakeMessage(c.ctx_.machine, stealer, kControlService, kAccumPullReq,
                              kControlMsgBytes, AccumPullReq{p, c.superstep_});
    Message resp;
    {
      BucketTimer wait_t(c.ctx_.sim, c.metrics_, Bucket::kMergeWait);
      resp = co_await c.ctx_.bus->Call(std::move(req));
    }
    const auto& pull = resp.As<AccumPullResp>();
    BucketTimer merge_t(c.ctx_.sim, c.metrics_, Bucket::kMerge);
    co_await c.ctx_.sim->Delay(c.ctx_.CpuTime(pull.accums.count, cost.ns_per_vertex_merge));
    co_await c.TouchBatch(s.accums);
    c.kernel_->MergeAccumChunk(&s.accums.batch, pull.accums);
  }

  // Apply (folded into the gather phase, §4) and write the new vertex set.
  {
    BucketTimer t(c.ctx_.sim, c.metrics_, Bucket::kGpMaster);
    const VertexId base = c.parts_->Base(p);
    co_await c.ctx_.sim->Delay(
        c.ctx_.CpuTime(s.vstate.batch.count(), cost.ns_per_vertex_apply));
    co_await c.TouchBatch(s.vstate);
    co_await c.TouchBatch(s.accums);
    c.changed_ += c.kernel_->ApplyBatch(&s.vstate.batch, s.accums.batch, base, &binner_);
    co_await binner_.FlushPending(&writer_, UpdatesFor(c.superstep_ + 1));
    co_await c.WriteVertexSet(p, s.vstate.batch, SetKind::kVertices, &writer_);
  }

  // Checkpoint copy, written while the state is hot (2-phase step 1, §6.6).
  // A dead machine writes none — its superstep will never commit.
  if (c.CheckpointCopyDue()) {
    BucketTimer t(c.ctx_.sim, c.metrics_, Bucket::kCheckpoint);
    co_await c.WriteVertexSet(p, s.vstate.batch, c.CheckpointSide(), &writer_);
  }

  // Updates of this iteration are deleted after apply (Fig. 4 line 45).
  co_await DeleteSetEverywhere(&c.ctx_, c.UpdatesSet(p, c.superstep_));
}

Task<> GatherPhase::ProcessStolen(PartitionId p) {
  EngineCore& c = *core_;
  Streamed s = co_await Stream(p, /*stolen=*/true);
  // Park the replica accumulators for the master's pull (Fig. 4 line 52).
  // The chunk borrows the accumulator batch zero-copy; the batch's pool
  // lease stays live in this frame until the master has taken the replica.
  const uint64_t count = s.accums.batch.count();
  Chunk accums = s.accums.batch.BorrowChunk(0, 0, count, count * c.kernel_->accum_bytes());
  c.ParkStolenAccums(p, std::move(accums));
  co_await c.WaitStolenAccumsTaken(p);
}

}  // namespace chaos
