#include "core/buffer_pool.h"

#include <algorithm>

namespace chaos {

Task<BufferPool::Lease> BufferPool::Acquire(uint64_t bytes) {
  const uint64_t id = next_id_++;
  slots_.push_back(Slot{id, bytes, 0});
  resident_ += bytes;
  ++metrics_.acquires;
  const uint64_t evicted = EvictToBudget();
  // Peak is sampled after admission control: the high-water mark of bytes
  // RAM actually held, never above an enforced budget. Unenforced pools
  // never evict, so there it is the true peak working set (fig_memory's
  // B0 baseline).
  metrics_.peak_bytes = std::max(metrics_.peak_bytes, resident_);
  if (evicted > 0) {
    co_await ChargeSpill(evicted);
  }
  co_return Lease(this, id);
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
  co_await ChargeSpill(fault + evicted);
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

Task<> BufferPool::ChargeSpill(uint64_t bytes) {
  const TimeNs start = sim_->now();
  co_await device_->Acquire(access_latency_ + TransferTimeNs(bytes, bandwidth_bps_));
  metrics_.stall_time += sim_->now() - start;
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
