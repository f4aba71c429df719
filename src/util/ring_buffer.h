// FIFO ring buffer over a power-of-two vector that keeps its capacity.
//
// The queue shape of the simulator's hot paths (SimQueue mailboxes,
// FifoResource tickets): items churn through at the back and front, where a
// std::deque frees and reallocates a node every few hundred bytes. Slots
// are default-constructed up front and reused by move assignment; the
// buffer doubles when full and never shrinks.
#ifndef CHAOS_UTIL_RING_BUFFER_H_
#define CHAOS_UTIL_RING_BUFFER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/common.h"

namespace chaos {

template <typename T>
class RingBuffer {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& operator[](size_t i) {
    CHAOS_DCHECK(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  const T& operator[](size_t i) const {
    CHAOS_DCHECK(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  // Moves the front item out and drops it from the buffer.
  T take_front() {
    CHAOS_DCHECK(size_ > 0);
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

  // Removes item i, shifting the items behind it forward by one.
  void erase(size_t i) {
    CHAOS_DCHECK(i < size_);
    for (; i + 1 < size_; ++i) {
      (*this)[i] = std::move((*this)[i + 1]);
    }
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move((*this)[i]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // capacity is a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace chaos

#endif  // CHAOS_UTIL_RING_BUFFER_H_
