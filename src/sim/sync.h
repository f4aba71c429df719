// Coroutine synchronization primitives for the simulator: condition events,
// queues, semaphores and task groups.
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

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Unbounded FIFO queue. Multiple concurrent consumers are supported.
template <typename T>
class SimQueue {
 public:
  explicit SimQueue(Simulator* sim) : sim_(sim) {}

  // Wakes every waiting consumer through the event queue, as
  // CondEvent::NotifyAll does. A woken consumer that finds the queue
  // emptied by an earlier one waits again.
  void Push(T value) {
    items_.push_back(std::move(value));
    for (PopAwaiter* w : waiters_) {
      sim_->Post(0, [this, w] {
        if (items_.empty()) {
          waiters_.push_back(w);
        } else {
          w->caller_.resume();
        }
      });
    }
    waiters_.clear();
  }

  // Completes with the front item once the queue holds one.
  class [[nodiscard]] PopAwaiter {
   public:
    explicit PopAwaiter(SimQueue* queue) : queue_(queue) {}
    // The queue's waiter list holds the awaiter's address.
    PopAwaiter(const PopAwaiter&) = delete;
    PopAwaiter& operator=(const PopAwaiter&) = delete;
    bool await_ready() const noexcept { return !queue_->items_.empty(); }
    void await_suspend(std::coroutine_handle<> caller) {
      caller_ = caller;
      queue_->waiters_.push_back(this);
    }
    T await_resume() { return queue_->items_.take_front(); }

   private:
    friend class SimQueue;
    SimQueue* queue_;
    std::coroutine_handle<> caller_;
  };
  PopAwaiter Pop() { return PopAwaiter(this); }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

 private:
  Simulator* sim_;
  RingBuffer<T> items_;
  std::vector<PopAwaiter*> waiters_;
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
