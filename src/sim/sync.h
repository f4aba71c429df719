// Coroutine synchronization primitives for the simulator: condition events,
// queues, semaphores, barriers, latches and task groups.
//
// All wakeups are routed through the event queue (same timestamp), so
// primitives are deterministic and safe against notify-before-wait races in
// the usual condition-variable style: waiters must re-check predicates.
#ifndef CHAOS_SIM_SYNC_H_
#define CHAOS_SIM_SYNC_H_

#include <coroutine>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/task.h"
#include "util/common.h"
#include "util/ring_buffer.h"

namespace chaos {

// Edge-triggered broadcast condition. Wait() always suspends until the next
// NotifyAll(); use in a predicate loop.
class CondEvent {
 public:
  explicit CondEvent(Simulator* sim) : sim_(sim) {}

  auto Wait() {
    struct Awaiter {
      CondEvent* cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { cond->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  // Resume() only posts events, so no waiter can register mid-loop; the
  // vector keeps its capacity for the next round of waits.
  void NotifyAll() {
    for (const auto h : waiters_) {
      sim_->Resume(h);
    }
    waiters_.clear();
  }

  size_t num_waiters() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Unbounded FIFO queue. Multiple concurrent consumers are supported.
template <typename T>
class SimQueue {
 public:
  explicit SimQueue(Simulator* sim) : cond_(sim) {}

  void Push(T value) {
    items_.push_back(std::move(value));
    cond_.NotifyAll();
  }

  Task<T> Pop() {
    while (items_.empty()) {
      co_await cond_.Wait();
    }
    co_return items_.take_front();
  }

  // Non-suspending accessors for consumers that batch over already-queued
  // items (e.g. the control server's proposal combining): peek the front,
  // then take it synchronously. Both require !empty().
  const T& front() const {
    CHAOS_CHECK(!items_.empty());
    return items_.front();
  }
  T PopNow() {
    CHAOS_CHECK(!items_.empty());
    return items_.take_front();
  }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

 private:
  CondEvent cond_;
  RingBuffer<T> items_;
};

// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulator* sim, int64_t initial) : cond_(sim), count_(initial) {
    CHAOS_CHECK_GE(initial, 0);
  }

  Task<> Acquire() {
    while (count_ == 0) {
      co_await cond_.Wait();
    }
    --count_;
  }

  void Release() {
    ++count_;
    cond_.NotifyAll();
  }

  int64_t count() const { return count_; }

 private:
  CondEvent cond_;
  int64_t count_;
};

// Reusable barrier for a fixed number of participants.
class SimBarrier {
 public:
  SimBarrier(Simulator* sim, int participants) : cond_(sim), participants_(participants) {
    CHAOS_CHECK_GT(participants, 0);
  }

  Task<> Arrive() {
    const uint64_t gen = generation_;
    if (++arrived_ == participants_) {
      arrived_ = 0;
      ++generation_;
      cond_.NotifyAll();
      co_return;
    }
    while (generation_ == gen) {
      co_await cond_.Wait();
    }
  }

  uint64_t generation() const { return generation_; }

 private:
  CondEvent cond_;
  int participants_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
};

// Count-down latch.
class Latch {
 public:
  Latch(Simulator* sim, int64_t count) : cond_(sim), count_(count) { CHAOS_CHECK_GE(count, 0); }

  void CountDown() {
    CHAOS_CHECK_GT(count_, 0);
    if (--count_ == 0) {
      cond_.NotifyAll();
    }
  }

  Task<> Wait() {
    while (count_ > 0) {
      co_await cond_.Wait();
    }
  }

  int64_t count() const { return count_; }

 private:
  CondEvent cond_;
  int64_t count_;
};

// Spawns sub-tasks and joins them. The group must outlive its sub-tasks.
class TaskGroup {
 public:
  explicit TaskGroup(Simulator* sim) : sim_(sim), cond_(sim) {}
  ~TaskGroup() { CHAOS_CHECK_MSG(pending_ == 0, "TaskGroup destroyed with pending tasks"); }

  void Spawn(Task<> task) {
    ++pending_;
    sim_->Spawn(Wrap(this, std::move(task)));
  }

  Task<> Join() {
    while (pending_ > 0) {
      co_await cond_.Wait();
    }
  }

  int64_t pending() const { return pending_; }

 private:
  static Task<> Wrap(TaskGroup* group, Task<> task) {
    co_await std::move(task);
    if (--group->pending_ == 0) {
      group->cond_.NotifyAll();
    }
  }

  Simulator* sim_;
  CondEvent cond_;
  int64_t pending_ = 0;
};

}  // namespace chaos

#endif  // CHAOS_SIM_SYNC_H_
