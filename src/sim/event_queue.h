// Deterministic event queue: events fire in (time, insertion sequence) order,
// so simultaneous events run in the order they were scheduled.
//
// The structure is a calendar queue (Brown '88) with pow2 bucket widths and
// lazily sorted buckets: amortized O(1) push/pop at the event rates the
// cluster simulation produces, and allocation-free in steady state
// (tests/hotpath_alloc_test.cc asserts this). Buckets hold 24-byte
// {time, seq, slot} keys; the callbacks sit in a slab with a free list, so
// sorting and mid-bucket inserts move keys only and a callback moves once
// on Push and once on Pop. It pops in strictly ascending (time, seq) order
// — a total order, since seq is unique — and tests/sim_test.cc checks that
// order against a std::push_heap/pop_heap reference on seeded streams.
#ifndef CHAOS_SIM_EVENT_QUEUE_H_
#define CHAOS_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/common.h"

namespace chaos {

// Move-only callable with small-buffer storage, sized for the DES hot path.
//
// Nearly every event callback captures a coroutine handle, sometimes plus a
// shared_ptr flag or a small pointer pair — well under kInlineBytes — so
// pushing an event performs no heap allocation at all, where std::function
// would allocate (libstdc++ inlines only 16 bytes) on every Push. This is
// the event "pooling" of the simulator: callback storage lives inside the
// slab slot the queue already owns. Oversized captures fall back to the
// heap transparently.
class EventFn {
 public:
  static constexpr size_t kInlineBytes = 48;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for lambdas
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() {
    CHAOS_DCHECK(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*move)(void* dst, void* src);  // move-construct dst from src
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* storage) { (*std::launder(reinterpret_cast<Fn*>(storage)))(); }
    static void Move(void* dst, void* src) {
      Fn* from = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); }
    static constexpr Ops kOps = {&Invoke, &Move, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Ptr(void* storage) { return *reinterpret_cast<Fn**>(storage); }
    static void Invoke(void* storage) { (*Ptr(storage))(); }
    static void Move(void* dst, void* src) {
      *reinterpret_cast<Fn**>(dst) = Ptr(src);
    }
    static void Destroy(void* storage) { delete Ptr(storage); }
    static constexpr Ops kOps = {&Invoke, &Move, &Destroy};
  };

  void MoveFrom(EventFn& other) {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->move(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  struct Event {
    TimeNs time = 0;
    uint64_t seq = 0;
    EventFn fn;
  };

  EventQueue();

  void Push(TimeNs time, EventFn&& fn);
  // Removes and returns the earliest event. Queue must be non-empty.
  Event Pop();
  // Time of the earliest event. Non-const because locating the minimum
  // advances the cursor and sorts its bucket (the logical contents are
  // unchanged).
  TimeNs PeekTime();

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  uint64_t total_pushed() const { return next_seq_; }

 private:
  // Calendar geometry. Buckets double whenever occupancy exceeds
  // kGrowOccupancy events per bucket (amortized rebuild, which also
  // re-estimates the bucket width from observed inter-event gaps).
  static constexpr size_t kInitialBuckets = 64;   // power of two
  static constexpr size_t kMaxBuckets = 1 << 20;  // power of two
  static constexpr size_t kGrowOccupancy = 4;
  static constexpr int kInitialShift = 12;  // 4096 ns buckets until tuned
  static constexpr int kMaxShift = 40;

  // An event's place in the calendar; `slot` indexes its callback in slab_.
  struct Key {
    TimeNs time;
    uint64_t seq;
    uint32_t slot;
  };

  static bool Earlier(const Key& a, const Key& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }
  // Buckets are kept sorted *descending* so the minimum is back() and Pop is
  // a pop_back. Strict order; (time, seq) keys are unique.
  static bool Later(const Key& a, const Key& b) { return Earlier(b, a); }

  size_t BucketOf(TimeNs time) const {
    return static_cast<size_t>(static_cast<uint64_t>(time) >> shift_) & (buckets_.size() - 1);
  }
  TimeNs BucketWidth() const { return TimeNs{1} << shift_; }
  // Positions cursor_ on the bucket holding the global minimum and sorts it;
  // afterwards buckets_[cursor_].back() is the minimum key. Requires
  // size_ > 0.
  void LocateMin();
  void JumpTo(TimeNs time);
  void SortCurrent();
  void Rebuild(size_t new_bucket_count);

  size_t size_ = 0;
  uint64_t next_seq_ = 0;

  std::vector<std::vector<Key>> buckets_;  // pow2 bucket count
  std::vector<Key> scratch_;               // reused by Rebuild
  std::vector<EventFn> slab_;              // callbacks, indexed by Key::slot
  std::vector<uint32_t> free_slots_;       // slab_ entries not in use
  int shift_ = kInitialShift;              // bucket width = 1 << shift_ ns
  size_t cursor_ = 0;                      // bucket being drained
  TimeNs cur_start_ = 0;                   // window of cursor_'s rotation
  TimeNs cur_end_ = 0;
  bool cur_sorted_ = false;  // buckets_[cursor_] sorted descending?
};

}  // namespace chaos

#endif  // CHAOS_SIM_EVENT_QUEUE_H_
