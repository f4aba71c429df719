#include "sim/simulator.h"

#include <utility>

namespace chaos {

internal::DetachedTask Simulator::RunDetached(Simulator* sim, Task<> task) {
  co_await std::move(task);
  --sim->live_tasks_;
}

void Simulator::Spawn(Task<> task) {
  CHAOS_CHECK_MSG(task.valid(), "Spawn() requires a valid task");
  ++live_tasks_;
  ++spawned_;
  RunDetached(this, std::move(task));
}

uint64_t Simulator::Run() {
  uint64_t ran = 0;
  while (!queue_.empty()) {
    EventQueue::Event ev = queue_.Pop();
    CHAOS_CHECK_GE(ev.time, now_);
    now_ = ev.time;
    ev.fn();
    ++ran;
    ++processed_;
  }
  return ran;
}

bool Simulator::RunUntil(TimeNs deadline) {
  while (!queue_.empty()) {
    if (queue_.PeekTime() > deadline) {
      return false;
    }
    EventQueue::Event ev = queue_.Pop();
    CHAOS_CHECK_GE(ev.time, now_);
    now_ = ev.time;
    ev.fn();
    ++processed_;
  }
  return true;
}

}  // namespace chaos
