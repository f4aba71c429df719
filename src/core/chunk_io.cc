#include "core/chunk_io.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace chaos {

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
      targets_(ctx->machines(), window) {
  CHAOS_CHECK_GT(window_, 0);
  if (ctx_->config->placement == Placement::kLocalMaster) {
    CHAOS_CHECK(forced_target_ != kNoMachine);
    // Only the master's engine holds the set: others are empty by design.
    for (MachineId m = 0; m < ctx_->machines(); ++m) {
      if (m != forced_target_) {
        targets_.Retire(m);
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

TargetPicker::TargetPicker(int machines, int max_load)
    : words_((static_cast<size_t>(machines) + 63) / 64),
      bits_(static_cast<size_t>(max_load + 1) * words_, 0),
      count_(static_cast<size_t>(max_load + 1), 0),
      load_(static_cast<size_t>(machines), 0),
      retired_(static_cast<size_t>(machines), 0),
      live_(machines) {
  CHAOS_CHECK_GT(machines, 0);
  CHAOS_CHECK_GE(max_load, 0);
  for (MachineId m = 0; m < machines; ++m) {
    Level(0)[m / 64] |= uint64_t{1} << (m % 64);
  }
  count_[0] = machines;
}

MachineId TargetPicker::Pick(Rng* rng) {
  size_t level = 0;
  while (level < count_.size() && count_[level] == 0) {
    ++level;
  }
  if (level == count_.size()) {
    return kNoMachine;
  }
  uint64_t pick = rng->Below(static_cast<uint64_t>(count_[level]));
  const uint64_t* bits = Level(static_cast<int>(level));
  for (size_t w = 0;; ++w) {
    uint64_t word = bits[w];
    const auto set = static_cast<uint64_t>(std::popcount(word));
    if (pick >= set) {
      pick -= set;
      continue;
    }
    for (; pick > 0; --pick) {
      word &= word - 1;  // drop the lowest candidate
    }
    return static_cast<MachineId>(w * 64 + static_cast<size_t>(std::countr_zero(word)));
  }
}

void TargetPicker::Move(MachineId m, int delta) {
  const auto i = static_cast<size_t>(m);
  const int from = load_[i];
  const int to = from + delta;
  CHAOS_CHECK(to >= 0 && static_cast<size_t>(to) < count_.size());
  load_[i] = to;
  if (retired_[i] == 0) {
    const uint64_t bit = uint64_t{1} << (i % 64);
    Level(from)[i / 64] &= ~bit;
    Level(to)[i / 64] |= bit;
    --count_[static_cast<size_t>(from)];
    ++count_[static_cast<size_t>(to)];
  }
}

void TargetPicker::Retire(MachineId m) {
  const auto i = static_cast<size_t>(m);
  if (retired_[i] == 0) {
    retired_[i] = 1;
    --live_;
    Level(load_[i])[i / 64] &= ~(uint64_t{1} << (i % 64));
    --count_[static_cast<size_t>(load_[i])];
  }
}

Task<> ChunkFetcher::Worker() {
  while (true) {
    // Backpressure: in-flight requests plus buffered-but-unconsumed chunks
    // never exceed the window. Without this the pipeline would drain whole
    // sets from storage far ahead of a slow consumer — an unbounded prefetch
    // buffer the real engine does not have (§6.5 keeps phi*k chunk
    // *requests* outstanding) — and the master's storage-side D estimate
    // (§5.4) would undercount remaining work whenever a scan is CPU-bound,
    // e.g. on a degraded straggler machine.
    while (credits_ == 0 && targets_.live() > 0 && !cancelled_) {
      co_await cond_.Wait();
    }
    if (cancelled_) {
      break;
    }
    const MachineId target = targets_.Pick(rng_);
    if (target == kNoMachine) {
      break;
    }
    --credits_;
    targets_.Begin(target);
    // Named locals around coroutine-call arguments (g++ 12 wrong-code with
    // braced aggregate temporaries in co_await expressions; see sim/task.h).
    ReadChunkReq body{set_, epoch_, preserve_payload_};
    Message req = MakeMessage(ctx_->machine, target, kStorageService, kReadChunkReq,
                              kControlMsgBytes, std::move(body));
    Message resp = co_await ctx_->bus->Call(std::move(req));
    targets_.End(target);
    auto& r = resp.As<ReadChunkResp>();
    if (r.ok) {
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
      targets_.Retire(target);
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
    Message req = MakeMessage(ctx_->machine, dir->home(), kDirectoryService, kDirNextReq,
                              kControlMsgBytes, DirNextReq{set_, epoch_});
    Message dresp = co_await ctx_->bus->Call(std::move(req));
    const auto& next = dresp.As<DirNextResp>();
    if (!next.ok) {
      directory_exhausted_ = true;
      ++credits_;
      cond_.NotifyAll();
      break;
    }
    // Snapshot scans must not free the update payloads the real gather
    // still has to drain (mirrors the preserve flag on sequential reads).
    ReadIndexedReq body{set_, next.index, /*consume=*/!preserve_payload_, epoch_};
    Message read = MakeMessage(ctx_->machine, next.engine, kStorageService, kReadIndexedReq,
                               kControlMsgBytes, std::move(body));
    Message resp = co_await ctx_->bus->Call(std::move(read));
    auto& r = resp.As<ReadChunkResp>();
    CHAOS_CHECK_MSG(r.ok, "directory pointed at a missing chunk in " + SetIdName(set_));
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

Task<> ChunkWriter::WriteToEngine(SetId set, Chunk chunk, MachineId target) {
  const uint64_t bytes = chunk.model_bytes;
  // The in-flight payload occupies this machine's memory until the write
  // is acknowledged.
  BufferPool::Lease lease;
  if (ctx_->pool != nullptr) {
    lease = co_await ctx_->pool->Acquire(bytes);
  }
  WriteChunkReq body{set, std::move(chunk)};
  Message req = MakeMessage(ctx_->machine, target, kStorageService, kWriteChunkReq,
                            bytes + kControlMsgBytes, std::move(body));
  Message ack = co_await ctx_->bus->Call(std::move(req));
  CHAOS_CHECK_EQ(ack.type, static_cast<uint32_t>(kWriteAck));
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
      Message req = MakeMessage(ctx_->machine, ctx_->directory->home(), kDirectoryService,
                                kDirAllocReq, kControlMsgBytes, DirAllocReq{set});
      Message resp = co_await ctx_->bus->Call(std::move(req));
      const auto& alloc = resp.As<DirAllocResp>();
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
    Message req = MakeMessage(ctx->machine, ctx->directory->home(), kDirectoryService,
                              kDirForgetReq, kControlMsgBytes, DirForgetReq{set});
    Message ack = co_await ctx->bus->Call(std::move(req));
    CHAOS_CHECK_EQ(ack.type, static_cast<uint32_t>(kDirForgetResp));
  }
  TaskGroup group(ctx->sim);
  for (MachineId m = 0; m < ctx->machines(); ++m) {
    group.Spawn([](EngineContext* ctx, SetId set, MachineId m) -> Task<> {
      Message req = MakeMessage(ctx->machine, m, kStorageService, kDeleteSetReq,
                                kControlMsgBytes, DeleteSetReq{set});
      Message ack = co_await ctx->bus->Call(std::move(req));
      CHAOS_CHECK_EQ(ack.type, static_cast<uint32_t>(kDeleteAck));
    }(ctx, set, m));
  }
  co_await group.Join();
}

}  // namespace chaos
