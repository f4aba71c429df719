// The Chaos storage engine (paper §6): one per machine, serving chunk
// requests over the message bus against a FIFO storage device.
//
// Key protocol properties implemented here:
//  * Sequential chunk reads: any unserved chunk of the requested set may be
//    returned; a per-(set, epoch) cursor guarantees each chunk is served
//    exactly once per epoch, which is what lets multiple computation engines
//    drain one partition without synchronizing (§6.3).
//  * Epoch reset: the first request of a new epoch rewinds the cursor — the
//    paper's "file pointer is reset at the end of each iteration" (§7).
//  * Indexed access for vertex chunks (§6.4), placed by hashing.
//  * A local remaining-bytes query backing the master's D estimate (§5.4).
#ifndef CHAOS_STORAGE_STORAGE_ENGINE_H_
#define CHAOS_STORAGE_STORAGE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/chunk.h"
#include "util/common.h"

namespace chaos {

class BufferPool;  // core/buffer_pool.h; serve/write staging charges pages

struct StorageConfig {
  double bandwidth_bps = 400e6;           // device bandwidth (SSD ~ 400 MB/s, §8)
  TimeNs access_latency = 100 * kNsPerUs; // per-request latency

  static StorageConfig Ssd();
  static StorageConfig Hdd();  // RAID0 of 2 disks, ~200 MB/s aggregate (§8)
};

// Serves kReadChunkReq, kReadIndexedReq, kWriteChunkReq and kDeleteSetReq
// until kStorageShutdown (bodies in net/wire.h).
class StorageEngine {
 public:
  StorageEngine(Simulator* sim, MessageBus* bus, MachineId machine, const StorageConfig& config);
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  // Spawns the serve loop. The engine runs until a kStorageShutdown message.
  void Start();

  // Attaches this machine's buffer pool: chunk payloads staged in memory
  // while being served or ingested acquire pages from it (the resident
  // sets themselves model the disk, not RAM). Optional; null = untracked.
  void set_pool(BufferPool* pool) { pool_ = pool; }

  // ---- Host-side (non-simulated) access, used for setup and inspection.
  void HostAddChunk(const SetId& set, Chunk chunk);
  // Returns nullptr if the set does not exist on this engine.
  const std::vector<Chunk>* HostGetSet(const SetId& set) const;
  std::vector<SetId> HostListSets() const;
  void HostDeleteSet(const SetId& set);

  // ---- Local queries (same-machine, free: used for the D estimate, §5.4).
  uint64_t RemainingBytes(const SetId& set, uint64_t epoch) const;
  uint64_t NumChunks(const SetId& set) const;

  // ---- Statistics.
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t chunks_served() const { return chunks_served_; }
  uint64_t empty_responses() const { return empty_responses_; }
  FifoResource& device() { return device_; }
  const FifoResource& device() const { return device_; }
  MachineId machine() const { return machine_; }

 private:
  struct SetStore {
    std::vector<Chunk> chunks;
    std::unordered_map<uint64_t, size_t> by_index;  // chunk.index -> position
    uint64_t bytes_total = 0;
    // Sequential-serve state for the current epoch.
    uint64_t epoch = std::numeric_limits<uint64_t>::max();
    size_t cursor = 0;
    uint64_t bytes_served_epoch = 0;
  };

  Task<> Serve();
  Task<> HandleRead(Message m);  // kReadChunkReq and kReadIndexedReq
  Task<> HandleWrite(Message m);
  Task<> HandleDelete(Message m);

  SetStore& GetOrCreate(const SetId& set);
  void RollEpoch(SetStore& store, uint64_t epoch) const;

  Simulator* sim_;
  MessageBus* bus_;
  MachineId machine_;
  StorageConfig config_;
  BufferPool* pool_ = nullptr;
  FifoResource device_;
  mutable std::unordered_map<SetId, SetStore, SetIdHash> sets_;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t chunks_served_ = 0;
  uint64_t empty_responses_ = 0;
  bool started_ = false;
};

// Returns the machine hosting vertex chunk `chunk_idx` of `partition`
// (paper §6.4: "the equivalent of hashing on the partition identifier and
// the chunk number").
inline MachineId VertexChunkHome(PartitionId partition, uint64_t chunk_idx, int machines) {
  CHAOS_CHECK_GT(machines, 0);
  return static_cast<MachineId>(Mix64(HashCombine(partition, chunk_idx)) %
                                static_cast<uint64_t>(machines));
}

// Vertex states per indexed vertex chunk: as many `record_bytes` records as
// fit in `chunk_bytes`, and at least one.
inline uint64_t VertexChunkCapacity(uint64_t chunk_bytes, uint64_t record_bytes) {
  return std::max<uint64_t>(1, chunk_bytes / record_bytes);
}

}  // namespace chaos

#endif  // CHAOS_STORAGE_STORAGE_ENGINE_H_
