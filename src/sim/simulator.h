// The discrete-event simulator driving every Chaos cluster run.
//
// All simulated machines' engines execute as coroutines over one Simulator.
// Time only advances between events; within an event, code runs instantly in
// simulated time. All cross-coroutine wakeups are routed through the event
// queue at the current timestamp, which makes runs fully deterministic.
#ifndef CHAOS_SIM_SIMULATOR_H_
#define CHAOS_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>

#include "sim/event_queue.h"
#include "sim/task.h"
#include "sim/time.h"
#include "util/common.h"

namespace chaos {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs now() const { return now_; }

  // Schedules `fn` to run `delay` (>= 0) after the current time. EventFn
  // stores typical captures inline (sim/event_queue.h), so posting an event
  // does not allocate.
  void Post(TimeNs delay, EventFn fn) {
    CHAOS_CHECK_GE(delay, 0);
    queue_.Push(now_ + delay, std::move(fn));
  }

  // Schedules `fn` at absolute time `when` (>= now).
  void PostAt(TimeNs when, EventFn fn) {
    CHAOS_CHECK_GE(when, now_);
    queue_.Push(when, std::move(fn));
  }

  // Resumes a suspended coroutine through the event queue (deterministic).
  void Resume(std::coroutine_handle<> h) {
    Post(0, [h] { h.resume(); });
  }

  // Awaitable that suspends the caller for `delay` nanoseconds.
  auto Delay(TimeNs delay) {
    struct Awaiter {
      Simulator* sim;
      TimeNs delay;
      bool await_ready() const noexcept { return delay <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->PostAt(sim->now_ + delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    CHAOS_CHECK_GE(delay, 0);
    return Awaiter{this, delay};
  }

  // Detaches `task` as a root task; it starts running immediately (at the
  // current simulated time) until its first suspension.
  void Spawn(Task<> task);

  // Runs until the event queue drains. Returns the number of events run.
  uint64_t Run();

  // Number of spawned root tasks that have not completed. A nonzero value
  // after Run() indicates a protocol deadlock (tests assert on this).
  size_t live_tasks() const { return live_tasks_; }
  uint64_t spawned_tasks() const { return spawned_; }
  uint64_t events_processed() const { return processed_; }

 private:
  static internal::DetachedTask RunDetached(Simulator* sim, Task<> task);

  EventQueue queue_;
  TimeNs now_ = 0;
  size_t live_tasks_ = 0;
  uint64_t spawned_ = 0;
  uint64_t processed_ = 0;
};

}  // namespace chaos

#endif  // CHAOS_SIM_SIMULATOR_H_
