// Per-machine buffer pool (paper §3): turns ClusterConfig::memory_budget
// from an advisory partition-sizing scalar into an enforced, contended
// simulated resource.
//
// Every sizable in-memory buffer a machine holds — loaded vertex-state and
// accumulator batches, buffered fetch/write chunks, storage-engine staging,
// parked stolen accumulators, checkpoint snapshots — acquires a Lease for
// its byte footprint. While total resident bytes fit the budget, admission
// is free. When an acquisition pushes the machine over budget, the pool
// evicts pages of the coldest resident leases (strict last-touch FIFO,
// oldest first, partially if needed) to the machine's storage device: the
// evicted bytes are charged as a spill WRITE on the same FifoResource that
// serves chunk I/O, so memory pressure queues behind — and delays — real
// traffic. Touching a lease whose pages were evicted faults them back in
// (a spill READ) and may evict someone else. Releasing a lease drops its
// pages, resident and spilled alike, with no I/O.
//
// Properties:
//  * Deadlock-free: the pool never waits for another lease to be released,
//    only for the device FIFO, which always drains. Pressure surfaces as
//    simulated stall time and extra simulated I/O volume, never as a stuck
//    protocol.
//  * Deterministic: admission order is coroutine arrival order, eviction
//    order is the last-touch list — both fixed by the (seeded, single-
//    threaded) simulation, so runs are byte-identical across host thread
//    counts (--jobs 1 vs N).
//  * Monotone: for a fixed event sequence, total spill traffic is the
//    positive variation of max(0, used - budget), which is pointwise
//    non-decreasing as the budget shrinks — the measured backbone of the
//    bench_fig_memory degradation sweep (§9.3's scale-free-I/O story).
//
// A budget of 0 disables enforcement: the pool still accounts (peak bytes)
// but never spills — the "unconstrained RAM" baseline.
#ifndef CHAOS_CORE_BUFFER_POOL_H_
#define CHAOS_CORE_BUFFER_POOL_H_

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "sim/resource.h"
#include "sim/task.h"
#include "sim/time.h"
#include "util/common.h"

namespace chaos {

class BufferPool {
 public:
  // `device` is the machine's storage FifoResource; spill traffic is served
  // FIFO behind regular chunk reads/writes at the device's bandwidth and
  // access latency. `budget_bytes` 0 = unlimited (accounting only).
  BufferPool(Simulator* sim, FifoResource* device, double bandwidth_bps,
             TimeNs access_latency, uint64_t budget_bytes)
      : sim_(sim),
        device_(device),
        bandwidth_bps_(bandwidth_bps),
        access_latency_(access_latency),
        budget_(budget_bytes) {
    metrics_.budget_bytes = budget_bytes;
  }
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Move-only RAII handle for one buffer's pages. Destruction releases.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept : pool_(other.pool_), id_(other.id_) {
      other.pool_ = nullptr;
      other.id_ = 0;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Reset();
        pool_ = other.pool_;
        id_ = other.id_;
        other.pool_ = nullptr;
        other.id_ = 0;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Reset(); }

    bool active() const { return pool_ != nullptr; }
    void Reset() {
      if (pool_ != nullptr) {
        pool_->Release(id_);
        pool_ = nullptr;
        id_ = 0;
      }
    }

   private:
    friend class BufferPool;
    Lease(BufferPool* pool, uint64_t id) : pool_(pool), id_(id) {}
    BufferPool* pool_ = nullptr;
    uint64_t id_ = 0;
  };

  // Admits `bytes` of buffer pages, evicting the coldest leases when over
  // budget. Completes after any spill write has been served by the device.
  class [[nodiscard]] AcquireAwaiter : FifoResource::Request {
   public:
    AcquireAwaiter(BufferPool* pool, uint64_t bytes) : pool_(pool), bytes_(bytes) {}
    // The device's sleeper slot holds the awaiter's address.
    AcquireAwaiter(const AcquireAwaiter&) = delete;
    AcquireAwaiter& operator=(const AcquireAwaiter&) = delete;
    bool await_ready();
    bool await_suspend(std::coroutine_handle<> caller);
    Lease await_resume();

   private:
    BufferPool* pool_;
    uint64_t bytes_;
    uint64_t id_ = 0;
    uint64_t evicted_ = 0;
    TimeNs start_ = 0;
    std::coroutine_handle<> caller_;
  };
  AcquireAwaiter Acquire(uint64_t bytes) { return AcquireAwaiter(this, bytes); }

  // Faults the lease's evicted pages back in (device read; may evict other
  // leases) and marks it most-recently-used. No-op while fully resident.
  Task<> Touch(const Lease& lease);

  // ---- Inspection (tests, metrics extraction).
  uint64_t budget() const { return budget_; }
  bool enforced() const { return budget_ > 0; }
  uint64_t used_bytes() const { return resident_ + spilled_; }
  uint64_t resident_bytes() const { return resident_; }
  uint64_t spilled_bytes() const { return spilled_; }
  uint64_t lease_spilled_bytes(const Lease& lease) const;
  const PoolMetrics& metrics() const { return metrics_; }

 private:
  friend class Lease;

  struct Slot {
    uint64_t id = 0;
    uint64_t resident = 0;
    uint64_t spilled = 0;
  };

  void Release(uint64_t id);
  const Slot* Find(uint64_t id) const;
  // Evicts coldest-first (slots_ front) until resident_ <= budget_; the
  // caller charges the returned byte count as one spill write.
  uint64_t EvictToBudget();
  // Nominal device time of one spill transfer of `bytes`.
  TimeNs SpillService(uint64_t bytes) const {
    return access_latency_ + TransferTimeNs(bytes, bandwidth_bps_);
  }

  Simulator* sim_;
  FifoResource* device_;
  double bandwidth_bps_;
  TimeNs access_latency_;
  uint64_t budget_;
  uint64_t resident_ = 0;
  uint64_t spilled_ = 0;
  uint64_t next_id_ = 1;
  std::vector<Slot> slots_;  // last-touch order: front = coldest
  PoolMetrics metrics_;
};

}  // namespace chaos

#endif  // CHAOS_CORE_BUFFER_POOL_H_
