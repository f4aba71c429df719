#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/common.h"

namespace chaos {

EventQueue::EventQueue() : buckets_(kInitialBuckets), cur_end_(BucketWidth()) {}

// Invariants:
//  * cursor_ points at the bucket whose rotation window is
//    [cur_start_, cur_end_); no queued event has time < cur_start_
//    (Push rewinds the cursor if one arrives — the Simulator never
//    schedules behind `now`, so this is rare and cheap).
//  * cur_sorted_ means buckets_[cursor_] is sorted descending by
//    (time, seq), so back() is the bucket minimum and Pop is a pop_back.
//  * Buckets hold events from any rotation; events whose time falls
//    outside the current window are skipped until their rotation comes up.
//    A full fruitless rotation triggers a direct search for the global
//    minimum, bounding sparse-queue pops.

void EventQueue::JumpTo(TimeNs time) {
  cursor_ = BucketOf(time);
  const uint64_t base = (static_cast<uint64_t>(time) >> shift_) << shift_;
  cur_start_ = static_cast<TimeNs>(base);
  cur_end_ = cur_start_ + BucketWidth();
  cur_sorted_ = false;
}

void EventQueue::SortCurrent() {
  if (!cur_sorted_) {
    std::vector<Key>& b = buckets_[cursor_];
    std::sort(b.begin(), b.end(), Later);
    cur_sorted_ = true;
  }
}

void EventQueue::Push(TimeNs time, EventFn&& fn) {
  auto slot = static_cast<uint32_t>(slab_.size());
  if (free_slots_.empty()) {
    slab_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  }
  const Key ev{time, next_seq_++, slot};
  if (++size_ == 1) {
    // Sole event: jump straight to its window instead of rotating to it.
    JumpTo(ev.time);
  } else if (ev.time < cur_start_) {
    // Behind the cursor (still >= `now`; the window just advanced past it
    // during a Peek of a far-future event). Rewind so the scan finds it.
    JumpTo(ev.time);
  }
  const size_t idx = BucketOf(ev.time);
  std::vector<Key>& b = buckets_[idx];
  if (idx == cursor_ && cur_sorted_) {
    // Keep the drain bucket sorted: insert at the descending-order position.
    b.insert(std::upper_bound(b.begin(), b.end(), ev, Later), ev);
  } else {
    b.push_back(ev);
    if (idx == cursor_) {
      cur_sorted_ = false;
    }
  }
  if (size_ > buckets_.size() * kGrowOccupancy && buckets_.size() < kMaxBuckets) {
    Rebuild(buckets_.size() * 2);
  }
}

void EventQueue::LocateMin() {
  CHAOS_DCHECK(size_ > 0);
  size_t scanned = 0;
  while (true) {
    std::vector<Key>& b = buckets_[cursor_];
    if (!b.empty()) {
      SortCurrent();
      if (b.back().time < cur_end_) {
        // In-window bucket minimum: buckets already passed this rotation
        // only hold later-rotation events, and buckets ahead hold events
        // >= cur_end_, so this is the global minimum.
        return;
      }
    }
    cursor_ = (cursor_ + 1) & (buckets_.size() - 1);
    cur_start_ = cur_end_;
    cur_end_ += BucketWidth();
    cur_sorted_ = false;
    if (++scanned == buckets_.size()) {
      // Fruitless full rotation: the queue is sparse relative to the bucket
      // width. Find the global minimum directly and jump to its window.
      const Key* min_ev = nullptr;
      for (const std::vector<Key>& bucket : buckets_) {
        for (const Key& e : bucket) {
          if (min_ev == nullptr || Earlier(e, *min_ev)) {
            min_ev = &e;
          }
        }
      }
      CHAOS_DCHECK(min_ev != nullptr);
      JumpTo(min_ev->time);
      scanned = 0;
    }
  }
}

EventQueue::Event EventQueue::Pop() {
  CHAOS_CHECK(size_ > 0);
  LocateMin();  // before the decrement: LocateMin requires size_ > 0
  --size_;
  std::vector<Key>& b = buckets_[cursor_];
  const Key key = b.back();
  b.pop_back();  // remaining prefix stays sorted; cur_sorted_ still holds
  free_slots_.push_back(key.slot);
  return Event{key.time, key.seq, std::move(slab_[key.slot])};
}

void EventQueue::Rebuild(size_t new_bucket_count) {
  scratch_.clear();
  scratch_.reserve(size_);
  for (std::vector<Key>& b : buckets_) {
    scratch_.insert(scratch_.end(), b.begin(), b.end());
    b.clear();
  }
  CHAOS_DCHECK(scratch_.size() == size_);
  std::sort(scratch_.begin(), scratch_.end(), Earlier);

  // Re-estimate the bucket width from observed inter-event gaps so buckets
  // hold a handful of events each: width ~= 3x the mean gap over a sample
  // of the earliest events, rounded up to a power of two.
  const size_t sample = std::min<size_t>(scratch_.size(), 256);
  uint64_t gap_sum = 0;
  uint64_t gap_cnt = 0;
  for (size_t i = 1; i < sample; ++i) {
    const TimeNs d = scratch_[i].time - scratch_[i - 1].time;
    if (d > 0) {
      gap_sum += static_cast<uint64_t>(d);
      ++gap_cnt;
    }
  }
  if (gap_cnt > 0) {
    const uint64_t target = 3 * (gap_sum / gap_cnt);
    int shift = 0;
    while (shift < kMaxShift && (uint64_t{1} << shift) < target) {
      ++shift;
    }
    shift_ = shift;
  }

  buckets_.clear();
  buckets_.resize(new_bucket_count);
  JumpTo(scratch_.front().time);
  for (const Key& ev : scratch_) {
    buckets_[BucketOf(ev.time)].push_back(ev);
  }
  scratch_.clear();
}

}  // namespace chaos
