#include "core/scatter_phase.h"

namespace chaos {

ScatterPhase::ScatterPhase(EngineCore* core)
    : core_(core),
      binner_(core->parts_, RecordBinner::Format::kUpdateSoA,
              core->kernel_->update_wire_bytes(), core->ctx_.config->chunk_bytes,
              core->ctx_.arena, core->kernel_->update_value_bytes()),
      writer_(&core->ctx_, &core->rng_, core->ctx_.config->fetch_window) {}

Task<> ScatterPhase::Run() {
  EngineCore& c = *core_;
  c.phase_ = EnginePhase::kScatter;
  c.ResetOwnStatuses();
  for (const PartitionId p : c.own_partitions_) {
    co_await ProcessPartition(p, /*stolen=*/false);
  }
  if (c.ctx_.config->stealing_enabled() && !c.Dead()) {
    auto work = [this](PartitionId p) { return ProcessPartition(p, /*stolen=*/true); };
    co_await c.StealLoop(EnginePhase::kScatter, work);
  }
  if (!c.Dead()) {
    // A dead machine's buffered emissions are lost with it; the aborted
    // superstep is re-run from the checkpoint anyway.
    co_await binner_.FlushAll(&writer_, UpdatesFor(c.superstep_));
  }
  co_await writer_.Drain();
  c.metrics_->updates_emitted += binner_.emitted();
  c.phase_ = EnginePhase::kGather;  // proposals for scatter now rejected
}

Task<> ScatterPhase::ProcessPartition(PartitionId p, bool stolen) {
  EngineCore& c = *core_;
  const bool mine = c.parts_->Master(p) == c.ctx_.machine;
  if (mine) {
    c.OnMasterStartsPartition(p);
  }
  PooledBatch vstate;
  {
    BucketTimer load_t(c.ctx_.sim, c.metrics_, stolen ? Bucket::kCopy : Bucket::kGpMaster);
    vstate = co_await c.LoadVertexSet(p);
  }
  BucketTimer t(c.ctx_.sim, c.metrics_, stolen ? Bucket::kGpSteal : Bucket::kGpMaster);
  const VertexId base = c.parts_->Base(p);
  const auto& cost = c.ctx_.cost();
  const SetKind target_kind = UpdatesFor(c.superstep_);
  ChunkFetcher fetcher(&c.ctx_, &c.rng_, c.EdgesSet(p), c.ScatterEpoch(),
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
    co_await c.ctx_.sim->Delay(c.ctx_.CpuTime(chunk->count, cost.ns_per_edge_scatter) +
                               c.ctx_.MessageTime());
    // Fault back any vertex-state pages the streaming windows evicted.
    co_await c.TouchBatch(vstate);
    c.kernel_->ScatterChunk(*chunk, vstate.batch, base, &binner_);
    c.metrics_->edges_processed += chunk->count;
    ++c.metrics_->chunks_fetched;
    if (stolen) {
      ++c.metrics_->stolen_chunks;
    }
    co_await binner_.FlushPending(&writer_, target_kind);
  }
  if (mine) {
    c.OnMasterFinishesPartition(p);
  }
}

}  // namespace chaos
