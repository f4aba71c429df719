#include "core/chunk_io.h"

#include <algorithm>
#include <utility>

#include "core/update_chunk_view.h"

namespace chaos {
namespace {

Message StorageRequest(MachineId src, MachineId dst, uint32_t type, uint64_t wire_bytes,
                       std::any body) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.service = kStorageService;
  m.type = type;
  m.wire_bytes = wire_bytes;
  m.body = std::move(body);
  return m;
}

}  // namespace

ChunkFetcher::ChunkFetcher(EngineContext* ctx, Rng* rng, SetId set, uint64_t epoch, int window,
                           MachineId local_master_target, bool preserve_payload)
    : ctx_(ctx),
      rng_(rng),
      set_(set),
      epoch_(epoch),
      window_(window),
      preserve_payload_(preserve_payload),
      forced_target_(local_master_target),
      cond_(ctx->sim),
      credits_(window),
      engine_empty_(static_cast<size_t>(ctx->machines()), 0),
      in_flight_per_engine_(static_cast<size_t>(ctx->machines()), 0),
      engines_left_(ctx->machines()) {
  CHAOS_CHECK_GT(window_, 0);
  if (ctx_->config->placement == Placement::kLocalMaster) {
    CHAOS_CHECK(forced_target_ != kNoMachine);
    // Only the master's engine holds the set: others are empty by design.
    for (MachineId m = 0; m < ctx_->machines(); ++m) {
      if (m != forced_target_) {
        engine_empty_[static_cast<size_t>(m)] = 1;
        --engines_left_;
      }
    }
  }
}

void ChunkFetcher::Start() {
  CHAOS_CHECK(!started_);
  started_ = true;
  const bool directory = ctx_->config->placement == Placement::kCentralDirectory &&
                         set_.kind != SetKind::kVertices;
  for (int i = 0; i < window_; ++i) {
    ++workers_active_;
    ctx_->sim->Spawn(directory ? DirectoryWorker() : Worker());
  }
}

MachineId ChunkFetcher::PickTarget() {
  // Among engines not known-empty, pick uniformly among those with the
  // fewest in-flight requests from this fetcher.
  int best = INT32_MAX;
  int candidates = 0;
  for (MachineId m = 0; m < ctx_->machines(); ++m) {
    if (engine_empty_[static_cast<size_t>(m)]) {
      continue;
    }
    const int load = in_flight_per_engine_[static_cast<size_t>(m)];
    if (load < best) {
      best = load;
      candidates = 1;
    } else if (load == best) {
      ++candidates;
    }
  }
  if (candidates == 0) {
    return kNoMachine;
  }
  uint64_t pick = rng_->Below(static_cast<uint64_t>(candidates));
  for (MachineId m = 0; m < ctx_->machines(); ++m) {
    if (engine_empty_[static_cast<size_t>(m)] ||
        in_flight_per_engine_[static_cast<size_t>(m)] != best) {
      continue;
    }
    if (pick == 0) {
      return m;
    }
    --pick;
  }
  CHAOS_CHECK_MSG(false, "unreachable: candidate disappeared");
  return kNoMachine;
}

Task<> ChunkFetcher::Worker() {
  while (true) {
    // Backpressure: in-flight requests plus buffered-but-unconsumed chunks
    // never exceed the window. Without this the pipeline would drain whole
    // sets from storage far ahead of a slow consumer — an unbounded prefetch
    // buffer the real engine does not have (§6.5 keeps floor(phi*k) chunk
    // *requests* outstanding) — and the master's storage-side D estimate
    // (§5.4) would undercount remaining work whenever a scan is CPU-bound,
    // e.g. on a degraded straggler machine.
    while (credits_ == 0 && engines_left_ > 0 && !cancelled_) {
      co_await cond_.Wait();
    }
    if (cancelled_) {
      break;
    }
    const MachineId target = PickTarget();
    if (target == kNoMachine) {
      break;
    }
    --credits_;
    in_flight_per_engine_[static_cast<size_t>(target)]++;
    // Named locals around coroutine-call arguments (g++ 12 wrong-code with
    // braced aggregate temporaries in co_await expressions; see sim/task.h).
    ReadChunkReq body{set_, epoch_, preserve_payload_};
    Message req = StorageRequest(ctx_->machine, target, kReadChunkReq, kControlMsgBytes,
                                 std::move(body));
    Message resp = co_await ctx_->bus->Call(std::move(req));
    in_flight_per_engine_[static_cast<size_t>(target)]--;
    auto& r = std::any_cast<ReadChunkResp&>(resp.body);
    if (r.ok) {
      ++chunks_fetched_;
      bytes_fetched_ += r.chunk.model_bytes;
      // The buffered chunk occupies this machine's memory until the
      // consumer takes it; under budget pressure the admission spills
      // colder buffers (a simulated device write) before completing.
      Buffered b;
      b.chunk = std::move(r.chunk);
      if (ctx_->pool != nullptr) {
        b.lease = co_await ctx_->pool->Acquire(b.chunk.model_bytes);
      }
      ready_.push_back(std::move(b));
    } else {
      ++credits_;  // nothing buffered: return the credit
      if (!engine_empty_[static_cast<size_t>(target)]) {
        engine_empty_[static_cast<size_t>(target)] = 1;
        --engines_left_;
      }
    }
    cond_.NotifyAll();
  }
  if (--workers_active_ == 0) {
    cond_.NotifyAll();
  }
}

Task<> ChunkFetcher::DirectoryWorker() {
  DirectoryServer* dir = ctx_->directory;
  CHAOS_CHECK(dir != nullptr);
  while (!directory_exhausted_ && !cancelled_) {
    while (credits_ == 0 && !directory_exhausted_ && !cancelled_) {
      co_await cond_.Wait();
    }
    if (directory_exhausted_ || cancelled_) {
      break;
    }
    --credits_;
    Message req;
    req.src = ctx_->machine;
    req.dst = dir->home();
    req.service = kDirectoryService;
    req.type = kDirNextReq;
    req.wire_bytes = kControlMsgBytes;
    req.body = DirNextReq{set_, epoch_};
    Message dresp = co_await ctx_->bus->Call(std::move(req));
    const auto& next = std::any_cast<const DirNextResp&>(dresp.body);
    if (!next.ok) {
      directory_exhausted_ = true;
      ++credits_;
      cond_.NotifyAll();
      break;
    }
    // Snapshot scans must not free the update payloads the real gather
    // still has to drain (mirrors the preserve flag on sequential reads).
    ReadIndexedReq body{set_, next.index, /*consume=*/!preserve_payload_, epoch_};
    Message read = StorageRequest(ctx_->machine, next.engine, kReadIndexedReq,
                                  kControlMsgBytes, std::move(body));
    Message resp = co_await ctx_->bus->Call(std::move(read));
    auto& r = std::any_cast<ReadChunkResp&>(resp.body);
    CHAOS_CHECK_MSG(r.ok, "directory pointed at a missing chunk in " + SetIdName(set_));
    ++chunks_fetched_;
    bytes_fetched_ += r.chunk.model_bytes;
    Buffered b;
    b.chunk = std::move(r.chunk);
    if (ctx_->pool != nullptr) {
      b.lease = co_await ctx_->pool->Acquire(b.chunk.model_bytes);
    }
    ready_.push_back(std::move(b));
    cond_.NotifyAll();
  }
  if (--workers_active_ == 0) {
    cond_.NotifyAll();
  }
}

Task<> ChunkFetcher::Cancel() {
  CHAOS_CHECK(started_);
  cancelled_ = true;
  cond_.NotifyAll();
  while (workers_active_ > 0) {
    co_await cond_.Wait();
  }
  ready_.clear();
}

Task<std::optional<Chunk>> ChunkFetcher::Next() {
  CHAOS_CHECK(started_);
  while (true) {
    if (!ready_.empty()) {
      Buffered b = std::move(ready_.front());
      ready_.pop_front();
      ++credits_;  // consumed: let a worker issue the next request
      cond_.NotifyAll();
      // The lease is dropped on handoff: the consumer scans the chunk and
      // frees it within one loop iteration (sub-chunk transients are part
      // of the pool's streaming headroom).
      co_return std::move(b.chunk);
    }
    if (workers_active_ == 0) {
      co_return std::nullopt;
    }
    co_await cond_.Wait();
  }
}

ChunkWriter::ChunkWriter(EngineContext* ctx, Rng* rng, int window)
    : ctx_(ctx), rng_(rng), window_(ctx->sim, window), group_(ctx->sim) {}

uint64_t ChunkWriter::CombinedUpdateWire(const Chunk& chunk) const {
  // Per-record wire width is a chunk invariant (model_bytes = count *
  // UpdateWireBytes); the value column is what rides beyond the id.
  const uint64_t record_wire = chunk.model_bytes / chunk.count;
  CHAOS_DCHECK(record_wire * chunk.count == chunk.model_bytes);
  CHAOS_DCHECK(record_wire > vid_wire_);
  const uint64_t value_bytes = record_wire - vid_wire_;
  const VertexId* dst = UpdateChunkView(chunk, value_bytes).dst();
  UpdateWireSizer sizer;
  for (uint32_t i = 0; i < chunk.count; ++i) {
    sizer.Add(dst[i]);
  }
  return sizer.PackedWireBytes(record_wire, value_bytes);
}

Task<> ChunkWriter::WriteToEngine(SetId set, Chunk chunk, MachineId target) {
  const uint64_t bytes = chunk.model_bytes;
  // The in-flight payload occupies this machine's memory until the write
  // is acknowledged.
  BufferPool::Lease lease;
  if (ctx_->pool != nullptr) {
    lease = co_await ctx_->pool->Acquire(bytes);
  }
  // With wire combining on, outbound update batches are re-encoded columnar
  // for the transfer only (net/network.h, UpdateWireCodec): the NIC charge
  // shrinks, the stored chunk and its model_bytes do not.
  uint64_t wire = bytes;
  if (combine_updates_ && chunk.count > 0 &&
      (set.kind == SetKind::kUpdatesEven || set.kind == SetKind::kUpdatesOdd)) {
    wire = CombinedUpdateWire(chunk);
    if (metrics_ != nullptr) {
      metrics_->update_wire_bytes_saved += bytes - wire;
      if (wire < bytes) {
        ++metrics_->update_chunks_packed;
      }
    }
  }
  WriteChunkReq body{set, std::move(chunk)};
  Message req = StorageRequest(ctx_->machine, target, kWriteChunkReq, wire + kControlMsgBytes,
                               std::move(body));
  Message ack = co_await ctx_->bus->Call(std::move(req));
  CHAOS_CHECK_EQ(ack.type, static_cast<uint32_t>(kWriteAck));
  ++chunks_written_;
  bytes_written_ += bytes;
  window_.Release();
}

Task<> ChunkWriter::Write(SetId set, Chunk chunk, MachineId home_or_master) {
  co_await window_.Acquire();
  MachineId target = kNoMachine;
  if (IsIndexedKind(set.kind)) {
    // Vertex/checkpoint chunks live at deterministic hashed homes (§6.4).
    target = home_or_master;
    group_.Spawn(WriteToEngine(set, std::move(chunk), target));
    co_return;
  }
  switch (ctx_->config->placement) {
    case Placement::kRandom:
      target = static_cast<MachineId>(rng_->Below(static_cast<uint64_t>(ctx_->machines())));
      break;
    case Placement::kLocalMaster:
      target = home_or_master;
      break;
    case Placement::kCentralDirectory: {
      Message req;
      req.src = ctx_->machine;
      req.dst = ctx_->directory->home();
      req.service = kDirectoryService;
      req.type = kDirAllocReq;
      req.wire_bytes = kControlMsgBytes;
      req.body = DirAllocReq{set};
      Message resp = co_await ctx_->bus->Call(std::move(req));
      const auto& alloc = std::any_cast<const DirAllocResp&>(resp.body);
      target = alloc.engine;
      chunk.index = alloc.index;  // directory-assigned, unique within the set
      break;
    }
  }
  CHAOS_CHECK(target != kNoMachine);
  group_.Spawn(WriteToEngine(set, std::move(chunk), target));
}

Task<> ChunkWriter::Drain() { co_await group_.Join(); }

Task<> DeleteSetEverywhere(EngineContext* ctx, SetId set) {
  if (ctx->directory != nullptr) {
    // Invalidate the central directory's chunk locations first so no reader
    // is pointed at a deleted chunk.
    DirForgetReq body{set};
    Message req;
    req.src = ctx->machine;
    req.dst = ctx->directory->home();
    req.service = kDirectoryService;
    req.type = kDirForgetReq;
    req.wire_bytes = kControlMsgBytes;
    req.body = std::move(body);
    Message ack = co_await ctx->bus->Call(std::move(req));
    CHAOS_CHECK_EQ(ack.type, static_cast<uint32_t>(kDirForgetResp));
  }
  TaskGroup group(ctx->sim);
  for (MachineId m = 0; m < ctx->machines(); ++m) {
    group.Spawn([](EngineContext* ctx, SetId set, MachineId m) -> Task<> {
      DeleteSetReq body{set};
      Message req =
          StorageRequest(ctx->machine, m, kDeleteSetReq, kControlMsgBytes, std::move(body));
      Message ack = co_await ctx->bus->Call(std::move(req));
      CHAOS_CHECK_EQ(ack.type, static_cast<uint32_t>(kDeleteAck));
    }(ctx, set, m));
  }
  co_await group.Join();
}

}  // namespace chaos
