#include "storage/storage_engine.h"

#include <cstdio>
#include <utility>

#include "core/buffer_pool.h"

namespace chaos {

StorageConfig StorageConfig::Ssd() {
  StorageConfig c;
  c.bandwidth_bps = 400e6;
  c.access_latency = 100 * kNsPerUs;
  return c;
}

StorageConfig StorageConfig::Hdd() {
  StorageConfig c;
  c.bandwidth_bps = 200e6;  // 2 x 6 TB disks in RAID0, paper §8
  c.access_latency = 5 * kNsPerMs;
  return c;
}

const char* SetKindName(SetKind kind) {
  switch (kind) {
    case SetKind::kInput:
      return "input";
    case SetKind::kEdges:
      return "edges";
    case SetKind::kUpdatesEven:
      return "updates0";
    case SetKind::kUpdatesOdd:
      return "updates1";
    case SetKind::kVertices:
      return "vertices";
    case SetKind::kCheckpointA:
      return "ckptA";
    case SetKind::kCheckpointB:
      return "ckptB";
    case SetKind::kDegrees:
      return "degrees";
    case SetKind::kUpdatesCkptA:
      return "uckptA";
    case SetKind::kUpdatesCkptB:
      return "uckptB";
    case SetKind::kEdgesB:
      return "edgesB";
  }
  return "?";
}

std::string SetIdName(const SetId& id) {
  return std::string(SetKindName(id.kind)) + "/p" + std::to_string(id.partition);
}

StorageEngine::StorageEngine(Simulator* sim, MessageBus* bus, MachineId machine,
                             const StorageConfig& config)
    : sim_(sim),
      bus_(bus),
      machine_(machine),
      config_(config),
      device_(sim, "device-" + std::to_string(machine)) {}

void StorageEngine::Start() {
  CHAOS_CHECK(!started_);
  started_ = true;
  sim_->Spawn(Serve());
}

StorageEngine::SetStore& StorageEngine::GetOrCreate(const SetId& set) { return sets_[set]; }

void StorageEngine::RollEpoch(SetStore& store, uint64_t epoch) const {
  if (store.epoch != epoch) {
    store.epoch = epoch;
    store.cursor = 0;
    store.bytes_served_epoch = 0;
  }
}

void StorageEngine::HostAddChunk(const SetId& set, Chunk chunk) {
  SetStore& store = GetOrCreate(set);
  store.bytes_total += chunk.model_bytes;
  if (IsIndexedKind(set.kind)) {
    auto pos = store.by_index.find(chunk.index);
    if (pos != store.by_index.end()) {
      store.bytes_total -= store.chunks[pos->second].model_bytes;
      store.chunks[pos->second] = std::move(chunk);
      return;
    }
  }
  store.by_index.emplace(chunk.index, store.chunks.size());
  store.chunks.push_back(std::move(chunk));
}

const std::vector<Chunk>* StorageEngine::HostGetSet(const SetId& set) const {
  auto it = sets_.find(set);
  return it == sets_.end() ? nullptr : &it->second.chunks;
}

std::vector<SetId> StorageEngine::HostListSets() const {
  std::vector<SetId> out;
  out.reserve(sets_.size());
  for (const auto& [id, store] : sets_) {
    out.push_back(id);
  }
  return out;
}

void StorageEngine::HostDeleteSet(const SetId& set) { sets_.erase(set); }

uint64_t StorageEngine::RemainingBytes(const SetId& set, uint64_t epoch) const {
  auto it = sets_.find(set);
  if (it == sets_.end()) {
    return 0;
  }
  const SetStore& store = it->second;
  if (store.epoch != epoch) {
    return store.bytes_total;  // nothing consumed in this epoch yet
  }
  return store.bytes_total - store.bytes_served_epoch;
}

uint64_t StorageEngine::NumChunks(const SetId& set) const {
  auto it = sets_.find(set);
  return it == sets_.end() ? 0 : it->second.chunks.size();
}

Task<> StorageEngine::Serve() {
  SimQueue<Message>& inbox = bus_->Inbox(machine_, kStorageService);
  while (true) {
    Message m = co_await inbox.Pop();
    switch (m.type) {
      case kReadChunkReq:
      case kReadIndexedReq:
        co_await HandleRead(std::move(m));
        break;
      case kWriteChunkReq:
        co_await HandleWrite(std::move(m));
        break;
      case kDeleteSetReq:
        co_await HandleDelete(std::move(m));
        break;
      case kStorageShutdown:
        co_return;
      default:
        CHAOS_CHECK_MSG(false, "unknown storage message type " + std::to_string(m.type));
    }
  }
}

// One handler for both read kinds; they differ in how they find the chunk
// and in when a read consumes it. A sequential read (kReadChunkReq) takes
// the set's next chunk of the epoch and always consumes it; an indexed read
// (kReadIndexedReq) takes the chunk with the requested index and consumes
// it only when asked. Consuming counts the chunk against the epoch's served
// bytes before the request waits on the pool or the device, since the D
// estimate (RemainingBytes) reads the store meanwhile.
Task<> StorageEngine::HandleRead(Message m) {
  const bool sequential = m.type == kReadChunkReq;
  const SetId& set = sequential ? m.As<ReadChunkReq>().set : m.As<ReadIndexedReq>().set;
  ReadChunkResp resp;
  auto it = sets_.find(set);
  if (it != sets_.end()) {
    SetStore& store = it->second;
    Chunk* stored = nullptr;
    bool consume = true;
    bool preserve_payload = false;
    if (sequential) {
      const auto& req = m.As<ReadChunkReq>();
      RollEpoch(store, req.epoch);
      if (store.cursor < store.chunks.size()) {
        stored = &store.chunks[store.cursor++];
      }
      // Checkpoint snapshot scans preserve consume-once payloads — the
      // superstep's real gather still has to drain this set.
      preserve_payload = req.preserve_payload;
    } else {
      const auto& req = m.As<ReadIndexedReq>();
      auto pos = store.by_index.find(req.index);
      if (pos != store.by_index.end()) {
        stored = &store.chunks[pos->second];
        consume = req.consume;
        if (consume) {
          RollEpoch(store, req.epoch);
        }
      }
    }
    if (stored != nullptr) {
      resp.ok = true;
      resp.chunk = *stored;
      if (consume) {
        store.bytes_served_epoch += stored->model_bytes;
        // Input and update chunks are consumed exactly once; free the
        // payload early.
        if (!preserve_payload &&
            (set.kind == SetKind::kInput || set.kind == SetKind::kUpdatesEven ||
             set.kind == SetKind::kUpdatesOdd)) {
          stored->data.reset();
        }
      }
    }
  }
  if (resp.ok) {
    // The served payload is staged in this machine's memory between the
    // device read and the wire handoff.
    BufferPool::Lease lease;
    if (pool_ != nullptr) {
      lease = co_await pool_->Acquire(resp.chunk.model_bytes);
    }
    // Serve the chunk from the device, in its entirety, FIFO (§6.2).
    co_await device_.Acquire(config_.access_latency +
                             TransferTimeNs(resp.chunk.model_bytes, config_.bandwidth_bps));
    bytes_read_ += resp.chunk.model_bytes;
    ++chunks_served_;
    const uint64_t wire = resp.chunk.model_bytes + kControlMsgBytes;
    bus_->PostReply(m, kReadChunkResp, wire, std::move(resp));
  } else {
    if (sequential) {
      ++empty_responses_;
    }
    bus_->PostReply(m, kReadChunkResp, kControlMsgBytes, std::move(resp));
  }
}

Task<> StorageEngine::HandleWrite(Message m) {
  auto& req = m.As<WriteChunkReq>();
  const uint64_t bytes = req.chunk.model_bytes;
  // Ingest staging: the arriving payload sits in memory until the device
  // write completes.
  BufferPool::Lease lease;
  if (pool_ != nullptr) {
    lease = co_await pool_->Acquire(bytes);
  }
  SetStore& store = GetOrCreate(req.set);
  bool appended = true;
  if (IsIndexedKind(req.set.kind)) {
    auto pos = store.by_index.find(req.chunk.index);
    if (pos != store.by_index.end()) {
      // Overwrite in place (vertex write-back path).
      store.bytes_total -= store.chunks[pos->second].model_bytes;
      store.bytes_total += bytes;
      store.chunks[pos->second] = std::move(req.chunk);
      appended = false;
    }
  }
  if (appended) {
    store.bytes_total += bytes;
    store.by_index.emplace(req.chunk.index, store.chunks.size());
    store.chunks.push_back(std::move(req.chunk));
  }
  co_await device_.Acquire(config_.access_latency + TransferTimeNs(bytes, config_.bandwidth_bps));
  bytes_written_ += bytes;
  bus_->PostReply(m, kWriteAck, kControlMsgBytes);
}

Task<> StorageEngine::HandleDelete(Message m) {
  const auto& req = m.As<DeleteSetReq>();
  sets_.erase(req.set);
  // Deletion is metadata-only: negligible device time.
  co_await device_.Acquire(0);
  bus_->PostReply(m, kDeleteAck, kControlMsgBytes);
}

}  // namespace chaos
