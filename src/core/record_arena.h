// Per-engine arena for record buffers and chunk payloads.
//
// The DES hot path used to regrow a std::vector<uint8_t> per partition in
// RecordBinner and make_shared a fresh payload per RecordBatch/Chunk; at
// paper-scale record counts that is one allocation (plus a growth memcpy)
// per chunk per partition per superstep. The arena designs that churn out:
//
//  * Blocks are pow2 size classes, recycled through freelists, so steady
//    state leases perform zero heap allocations
//    (tests/hotpath_alloc_test.cc pins this down).
//  * Every block is kAlign (64-byte, cache-line) aligned — strictly
//    stronger than the max_align_t alignment ChunkSpan<T> requires of
//    payloads, and enough for aligned SIMD loads over SoA edge arrays.
//  * Blocks may outlive the arena: the freelist state is shared
//    (shared_ptr), and chunk payload deleters hold a reference, so chunks
//    parked in a simulated StorageEngine stay valid after their producing
//    engine (and its arena) is destroyed. Returns after the arena's death
//    free directly instead of pooling.
//
// Host memory only: the arena is invisible to the simulation (BufferPool
// keeps modeling *simulated* memory; the two compose — pool leases account
// for bytes whose backing store happens to be arena blocks).
//
// Thread model: an arena belongs to one cluster, and a cluster runs on one
// SweepExecutor thread, but freelist ops take a mutex anyway so host-side
// importers (recovery) can safely release blocks from another job's thread.
#ifndef CHAOS_CORE_RECORD_ARENA_H_
#define CHAOS_CORE_RECORD_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "util/common.h"

namespace chaos {

class RecordArena {
  // Freelist state, shared with every outstanding block/payload deleter so
  // blocks may outlive the arena (returns after close free directly).
  struct State;

 public:
  static constexpr uint64_t kAlign = 64;
  static constexpr uint64_t kMinBlockBytes = 1ull << 12;  // 4 KiB
  static constexpr uint64_t kMaxBlockBytes = 1ull << 26;  // 64 MiB
  static_assert(kAlign >= alignof(std::max_align_t));

  // A leased block (move-only). Returns itself to the arena on destruction.
  class Block {
   public:
    Block() = default;
    Block(Block&& o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          capacity_(std::exchange(o.capacity_, 0)),
          state_(std::move(o.state_)) {}
    Block& operator=(Block&& o) noexcept {
      if (this != &o) {
        Release();
        data_ = std::exchange(o.data_, nullptr);
        capacity_ = std::exchange(o.capacity_, 0);
        state_ = std::move(o.state_);
      }
      return *this;
    }
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;
    ~Block() { Release(); }

    uint8_t* data() const { return data_; }
    uint64_t capacity() const { return capacity_; }
    explicit operator bool() const { return data_ != nullptr; }

    // Converts the block into a shared payload (for Chunk::data /
    // RecordBatch). The one control-block allocation here is per *chunk*,
    // never per record; the deleter keeps the freelist state alive so the
    // payload may outlive the arena.
    std::shared_ptr<uint8_t> ToShared() && {
      std::shared_ptr<State> state = std::move(state_);
      const uint64_t cap = std::exchange(capacity_, 0);
      uint8_t* p = std::exchange(data_, nullptr);
      return std::shared_ptr<uint8_t>(
          p, [state, cap](uint8_t* ptr) { State::Return(state.get(), ptr, cap); });
    }

   private:
    friend class RecordArena;
    Block(uint8_t* data, uint64_t capacity, std::shared_ptr<State> state)
        : data_(data), capacity_(capacity), state_(std::move(state)) {}
    void Release() {
      if (data_ != nullptr) {
        State::Return(state_.get(), data_, capacity_);
        data_ = nullptr;
      }
    }

    uint8_t* data_ = nullptr;
    uint64_t capacity_ = 0;
    std::shared_ptr<State> state_;
  };

  RecordArena() : state_(std::make_shared<State>()) {}
  RecordArena(const RecordArena&) = delete;
  RecordArena& operator=(const RecordArena&) = delete;
  ~RecordArena() {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->closed = true;
    state_->FreeAllLocked();
  }

  // Leases a block of at least `bytes` capacity (pow2 size class, 64-byte
  // aligned). Freelist hit: zero heap allocations. Contents are
  // uninitialized (possibly recycled — callers zero if they need zeros).
  Block Lease(uint64_t bytes) {
    const uint64_t cap = ClassBytes(bytes);
    State* s = state_.get();
    {
      std::lock_guard<std::mutex> lock(s->mu);
      const int cls = ClassIndex(cap);
      if (cls >= 0 && !s->free[cls].empty()) {
        uint8_t* p = s->free[cls].back();
        s->free[cls].pop_back();
        ++s->recycled;
        return Block(p, cap, state_);
      }
    }
    uint8_t* p = NewBlock(cap);
    ++s->allocated;  // stats only; single writer
    return Block(p, cap, state_);
  }

  // Lease + hand off as a shared payload in one step.
  std::shared_ptr<uint8_t> LeaseShared(uint64_t bytes) { return Lease(bytes).ToShared(); }
  // A directly allocated aligned block, for host-side callers without an arena.
  static std::shared_ptr<uint8_t> NewShared(uint64_t bytes) {
    return {NewBlock(bytes), DeleteBlock};
  }

  uint64_t blocks_allocated() const { return state_->allocated; }
  uint64_t blocks_recycled() const { return state_->recycled; }

 private:
  struct State {
    // Freelists per pow2 class: index i holds blocks of kMinBlockBytes<<i.
    static constexpr int kNumClasses = 15;  // 4 KiB .. 64 MiB
    std::mutex mu;
    std::vector<uint8_t*> free[kNumClasses];
    bool closed = false;
    uint64_t allocated = 0;
    uint64_t recycled = 0;

    ~State() {
      std::lock_guard<std::mutex> lock(mu);
      FreeAllLocked();
    }
    void FreeAllLocked() {
      for (auto& list : free) {
        for (uint8_t* p : list) {
          DeleteBlock(p);
        }
        list.clear();
      }
    }
    static void Return(State* s, uint8_t* p, uint64_t capacity) {
      const int cls = ClassIndex(capacity);
      if (s != nullptr && cls >= 0) {
        std::lock_guard<std::mutex> lock(s->mu);
        if (!s->closed) {
          s->free[cls].push_back(p);
          return;
        }
      }
      DeleteBlock(p);
    }
  };

  // Smallest pow2 class covering `bytes`; oversize requests (> 64 MiB) get
  // an exact-size unpooled block.
  static uint64_t ClassBytes(uint64_t bytes) {
    if (bytes > kMaxBlockBytes) {
      return bytes;
    }
    uint64_t cap = kMinBlockBytes;
    while (cap < bytes) {
      cap <<= 1;
    }
    return cap;
  }
  static int ClassIndex(uint64_t capacity) {
    if (capacity < kMinBlockBytes || capacity > kMaxBlockBytes ||
        (capacity & (capacity - 1)) != 0) {
      return -1;  // unpooled
    }
    int idx = 0;
    uint64_t c = kMinBlockBytes;
    while (c < capacity) {
      c <<= 1;
      ++idx;
    }
    return idx;
  }

  static uint8_t* NewBlock(uint64_t bytes) {
    return static_cast<uint8_t*>(::operator new(bytes, std::align_val_t{kAlign}));
  }
  static void DeleteBlock(uint8_t* p) { ::operator delete(p, std::align_val_t{kAlign}); }

  std::shared_ptr<State> state_;
};

}  // namespace chaos

#endif  // CHAOS_CORE_RECORD_ARENA_H_
