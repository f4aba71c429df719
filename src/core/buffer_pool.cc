#include "core/buffer_pool.h"

#include <algorithm>

namespace chaos {

bool BufferPool::AcquireAwaiter::await_ready() {
  id_ = pool_->next_id_++;
  pool_->slots_.push_back(Slot{id_, bytes_, 0});
  pool_->resident_ += bytes_;
  ++pool_->metrics_.acquires;
  evicted_ = pool_->EvictToBudget();
  // Peak is sampled after admission control: the high-water mark of bytes
  // RAM actually held, never above an enforced budget. Unenforced pools
  // never evict, so there it is the true peak working set (fig_memory's
  // B0 baseline).
  pool_->metrics_.peak_bytes = std::max(pool_->metrics_.peak_bytes, pool_->resident_);
  return evicted_ == 0;
}

bool BufferPool::AcquireAwaiter::await_suspend(std::coroutine_handle<> caller) {
  caller_ = caller;
  start_ = pool_->sim_->now();
  done = [](FifoResource::Request* r) { static_cast<AcquireAwaiter*>(r)->caller_.resume(); };
  return pool_->device_->Submit(this, pool_->SpillService(evicted_));
}

BufferPool::Lease BufferPool::AcquireAwaiter::await_resume() {
  if (evicted_ > 0) {
    pool_->metrics_.stall_time += pool_->sim_->now() - start_;
  }
  return Lease(pool_, id_);
}

Task<> BufferPool::Touch(const Lease& lease) {
  if (lease.pool_ == nullptr) {
    co_return;
  }
  CHAOS_CHECK(lease.pool_ == this);
  // Move to most-recently-used position regardless of spill state, so the
  // eviction order tracks actual access recency.
  auto it = std::find_if(slots_.begin(), slots_.end(),
                         [&](const Slot& s) { return s.id == lease.id_; });
  CHAOS_CHECK_MSG(it != slots_.end(), "Touch of unknown buffer-pool lease");
  Slot slot = *it;
  slots_.erase(it);
  slots_.push_back(slot);
  const uint64_t fault = slots_.back().spilled;
  if (fault == 0) {
    co_return;
  }
  // Fault the evicted pages back in; someone colder pays for the room.
  slots_.back().resident += fault;
  slots_.back().spilled = 0;
  resident_ += fault;
  spilled_ -= fault;
  metrics_.spill_in_bytes += fault;
  const uint64_t evicted = EvictToBudget();
  metrics_.peak_bytes = std::max(metrics_.peak_bytes, resident_);
  const TimeNs start = sim_->now();
  co_await device_->Acquire(SpillService(fault + evicted));
  metrics_.stall_time += sim_->now() - start;
}

uint64_t BufferPool::EvictToBudget() {
  if (!enforced()) {
    return 0;
  }
  uint64_t evicted = 0;
  for (Slot& slot : slots_) {
    if (resident_ <= budget_) {
      break;
    }
    if (slot.resident == 0) {
      continue;
    }
    const uint64_t take = std::min(slot.resident, resident_ - budget_);
    slot.resident -= take;
    slot.spilled += take;
    resident_ -= take;
    spilled_ += take;
    evicted += take;
  }
  if (evicted > 0) {
    metrics_.spill_out_bytes += evicted;
    ++metrics_.spill_events;
  }
  return evicted;
}

void BufferPool::Release(uint64_t id) {
  auto it = std::find_if(slots_.begin(), slots_.end(),
                         [&](const Slot& s) { return s.id == id; });
  CHAOS_CHECK_MSG(it != slots_.end(), "Release of unknown buffer-pool lease");
  // Dropped pages cost nothing: resident ones are simply freed, spilled
  // ones are dead blocks on the device.
  resident_ -= it->resident;
  spilled_ -= it->spilled;
  slots_.erase(it);
}

const BufferPool::Slot* BufferPool::Find(uint64_t id) const {
  for (const Slot& s : slots_) {
    if (s.id == id) {
      return &s;
    }
  }
  return nullptr;
}

uint64_t BufferPool::lease_spilled_bytes(const Lease& lease) const {
  const Slot* s = Find(lease.id_);
  return s == nullptr ? 0 : s->spilled;
}

}  // namespace chaos
