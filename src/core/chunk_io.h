// Batched chunk I/O between a computation engine and the storage
// sub-system: the fetch pipeline implementing the paper's batching (§6.5)
// and the windowed chunk writer.
#ifndef CHAOS_CORE_CHUNK_IO_H_
#define CHAOS_CORE_CHUNK_IO_H_

#include <deque>
#include <optional>
#include <vector>

#include "core/buffer_pool.h"
#include "core/config.h"
#include "graph/types.h"
#include "net/network.h"
#include "sim/sync.h"
#include "storage/chunk.h"
#include "storage/directory.h"
#include "storage/storage_engine.h"
#include "util/rng.h"

namespace chaos {

// Graph facts an engine may know without holding the graph in memory.
struct GraphMeta {
  uint64_t num_vertices = 0;
  bool weighted = false;
  uint64_t edge_wire_bytes = 8;
  uint64_t vertex_id_wire_bytes = 4;

  // The facts of `g`; its edge list is not read, so a shape-only graph
  // (vertex count and weightedness, no edges) works too.
  static GraphMeta Of(const InputGraph& g) {
    return GraphMeta{g.num_vertices, g.weighted, g.edge_wire_bytes(), g.vertex_id_wire_bytes()};
  }
};

// Everything a computation engine needs to talk to the rest of the cluster.
// Storage engine pointers are used for *local* queries only (the D estimate,
// §5.4) — all data moves through the message bus.
struct EngineContext {
  Simulator* sim = nullptr;
  MessageBus* bus = nullptr;
  std::vector<StorageEngine*> storage;
  DirectoryServer* directory = nullptr;  // non-null in kCentralDirectory mode
  const ClusterConfig* config = nullptr;
  const FaultInjector* faults = nullptr;  // non-null when a schedule is set
  // This machine's buffer pool (core/buffer_pool.h): every sizable buffer
  // the engine and its I/O pipelines hold acquires pages here. May be null
  // (tests assembling a bare context), in which case memory is untracked.
  BufferPool* pool = nullptr;
  // Evolving-graph mutation feed (core/mutation_feed.h), shared by every
  // engine of the cluster; null for static runs. The coordinator plans
  // epochs at convergence barriers, every engine applies the planned delta.
  class MutationFeed* mutations = nullptr;
  // This machine's record arena (core/record_arena.h): binner fill blocks,
  // RecordBatch buffers and chunk payloads lease here. May be null (bare
  // test contexts) — consumers fall back to private arenas / direct
  // aligned allocation. Host memory only; invisible to the simulation.
  class RecordArena* arena = nullptr;
  MachineId machine = 0;

  int machines() const { return config->machines; }
  StorageEngine* local_storage() const { return storage[static_cast<size_t>(machine)]; }

  const CostModel& cost() const { return config->cost; }

  // Stretches a nominal CPU delay by any active fault on this machine; all
  // engine compute delays route through here so CPU degradation applies.
  TimeNs ScaleCpu(TimeNs t) const {
    return faults == nullptr ? t : faults->ScaleCpu(machine, t);
  }
  TimeNs CpuTime(uint64_t items, double ns_per_item) const {
    return ScaleCpu(cost().ItemsTime(items, ns_per_item));
  }
  TimeNs MessageTime() const { return ScaleCpu(cost().MessageTime()); }
};

// The target choice of a ChunkFetcher: uniform among the engines not known
// to be empty, restricted to those with the fewest of the fetcher's
// in-flight requests (approximates the k-distinct-engines window of the
// utilization analysis, §6.5). Candidates are kept in one machine bitset
// per in-flight level, so a pick reads the lowest non-empty level instead
// of scanning every machine. It draws rng->Below(candidates) and returns
// that candidate in ascending machine order; tests/core_test.cc checks the
// draw and the machine against a plain two-pass scan.
class TargetPicker {
 public:
  // Loads range over [0, max_load].
  TargetPicker(int machines, int max_load);

  // kNoMachine (and no draw) when every engine is retired.
  MachineId Pick(Rng* rng);
  void Begin(MachineId m) { Move(m, +1); }  // one more request in flight to m
  void End(MachineId m) { Move(m, -1); }    // one fewer
  // m reported the set empty: never a candidate again. Idempotent.
  void Retire(MachineId m);
  int live() const { return live_; }  // engines not retired

 private:
  uint64_t* Level(int load) { return &bits_[static_cast<size_t>(load) * words_]; }
  void Move(MachineId m, int delta);

  size_t words_;
  std::vector<uint64_t> bits_;  // level-major: (max_load + 1) x words_
  std::vector<int> count_;      // candidates per level
  std::vector<int> load_;       // in-flight requests per engine
  std::vector<uint8_t> retired_;
  int live_;
};

// Fetches all chunks of one (set, epoch), keeping `window` requests
// outstanding across distinct uniformly-chosen storage engines that have not
// yet reported the set empty. Exhaustion is detected when every engine has
// answered empty (§6.3). In kLocalMaster mode only the owning engine is
// queried; in kCentralDirectory mode targets come from the directory.
class ChunkFetcher {
 public:
  // `preserve_payload` marks a non-consuming scan (checkpoint snapshots):
  // the storage engines keep update-set payloads resident after serving.
  ChunkFetcher(EngineContext* ctx, Rng* rng, SetId set, uint64_t epoch, int window,
               MachineId local_master_target = kNoMachine, bool preserve_payload = false);

  // Must be called once; spawns the fetch workers.
  void Start();

  // Next chunk, or nullopt when the set is exhausted for this epoch.
  Task<std::optional<Chunk>> Next();

  // Abandons the scan: stops issuing requests, lets in-flight ones complete
  // and waits for every worker to exit, then discards buffered chunks.
  // Unserved chunks stay in storage. Used by an engine whose machine was
  // fault-killed mid-scan, so its coroutines drain instead of leaking.
  Task<> Cancel();

 private:
  Task<> Worker();
  Task<> DirectoryWorker();

  EngineContext* ctx_;
  Rng* rng_;
  SetId set_;
  uint64_t epoch_;
  int window_;
  bool preserve_payload_;
  MachineId forced_target_;

  // A fetched-but-unconsumed chunk and the pool lease backing its bytes.
  struct Buffered {
    Chunk chunk;
    BufferPool::Lease lease;
  };

  CondEvent cond_;
  std::deque<Buffered> ready_;
  int credits_;  // window minus (in-flight requests + unconsumed chunks)
  TargetPicker targets_;
  int workers_active_ = 0;
  bool directory_exhausted_ = false;
  bool cancelled_ = false;
  bool started_ = false;
};

// Writes chunks with bounded in-flight window; placement per config. Write
// completions are collected by Drain(), which must be awaited before the
// phase barrier (updates must be durable before gather starts).
class ChunkWriter {
 public:
  ChunkWriter(EngineContext* ctx, Rng* rng, int window);

  // Acquires a window slot, then transfers in the background. Sequential
  // sets are placed per the configured policy; indexed sets (vertex and
  // checkpoint chunks) always go to `home_or_master`, their hashed home.
  Task<> Write(SetId set, Chunk chunk, MachineId home_or_master);

  // Waits until every issued write has been acknowledged.
  Task<> Drain();

 private:
  Task<> WriteToEngine(SetId set, Chunk chunk, MachineId target);

  EngineContext* ctx_;
  Rng* rng_;
  Semaphore window_;
  TaskGroup group_;
};

// Broadcast helpers used by masters (update-set deletion, §6.1).
Task<> DeleteSetEverywhere(EngineContext* ctx, SetId set);

}  // namespace chaos

#endif  // CHAOS_CORE_CHUNK_IO_H_
