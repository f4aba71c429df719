// FIFO bandwidth resources: the timing model for storage devices, NIC links
// and per-machine CPUs.
//
// A FifoResource serves requests one at a time in arrival order. Issuing a
// request at time t with service time s completes at
//     done = max(t, busy_until) + s / rate,
// which models queueing delay behind earlier requests exactly the way the
// paper's storage engine behaves ("a storage engine always serves a request
// for a chunk in its entirety before serving the next request", §6.2).
//
// The rate multiplier (SetRate) is the degradation hook used by the fault
// injector: rate 1.0 is nominal hardware speed, rate 0.25 is a 4x-slower
// brownout. Rate changes apply to the *in-flight queue* as well — every
// queued request's projected completion is re-derived from its remaining
// work under the new rate, and sleeping waiters are woken to re-project, so
// a mid-run brownout stretches (and a recovery shrinks) the existing backlog
// instead of only affecting future requests.
#ifndef CHAOS_SIM_RESOURCE_H_
#define CHAOS_SIM_RESOURCE_H_

#include <cmath>
#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/time.h"
#include "util/common.h"
#include "util/ring_buffer.h"

namespace chaos {

class FifoResource {
 public:
  FifoResource(Simulator* sim, std::string name) : sim_(sim), name_(std::move(name)) {}
  // Pending wake events hold the resource's address.
  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  // Completes when the request has been fully serviced (FIFO behind all
  // earlier requests). `service` is the nominal (rate-1.0) service time.
  Task<> Acquire(TimeNs service) {
    CHAOS_CHECK_GE(service, 0);
    const uint64_t id = next_ticket_id_++;
    const TimeNs start = busy_until_ > sim_->now() ? busy_until_ : sim_->now();
    TimeNs target = start + Scaled(service, rate_);
    busy_until_ = target;
    total_busy_ += Scaled(service, rate_);
    ++num_requests_;
    queue_.push_back(Ticket{id, target, service});
    // Sleep until the projected completion. The cached target only goes
    // stale when SetRate re-projects the queue, so the O(queue) ticket scan
    // is paid per rate change, not per wake — the hot no-fault path stays
    // O(1) per request.
    uint64_t seen_epoch = rate_epoch_;
    while (target > sim_->now()) {
      co_await SleepAwaiter{this, target};
      if (rate_epoch_ != seen_epoch) {
        seen_epoch = rate_epoch_;
        target = DoneTimeOf(id);
      }
    }
    PopTicket(id);
  }

  // Changes the service-rate multiplier (> 0; 1.0 = nominal). Remaining work
  // of every queued request — including the one in service — is re-projected
  // under the new rate.
  void SetRate(double rate) {
    CHAOS_CHECK_GT(rate, 0.0);
    const TimeNs now = sim_->now();
    if (!queue_.empty()) {
      const TimeNs old_busy_until = busy_until_;
      TimeNs prev = now;
      for (size_t i = 0; i < queue_.size(); ++i) {
        Ticket& t = queue_[i];
        TimeNs remaining_nominal;
        if (i == 0) {
          // The head request is in service; convert its remaining span back
          // to nominal work under the outgoing rate.
          const TimeNs remaining = t.done > now ? t.done - now : 0;
          remaining_nominal =
              static_cast<TimeNs>(std::ceil(static_cast<double>(remaining) * rate_));
        } else {
          remaining_nominal = t.work;  // not started yet
        }
        t.done = prev + Scaled(remaining_nominal, rate);
        prev = t.done;
      }
      busy_until_ = queue_.back().done;
      // The queue is contiguous from `now`, so the busy-time delta equals
      // the shift of the last completion.
      total_busy_ += busy_until_ - old_busy_until;
    }
    rate_ = rate;
    ++rate_epoch_;
    WakeAllSleepers();
  }

  double rate() const { return rate_; }

  // Queueing backlog at time `now` (0 when idle).
  TimeNs Backlog(TimeNs now) const { return busy_until_ > now ? busy_until_ - now : 0; }

  TimeNs busy_until() const { return busy_until_; }
  // Total service time charged; busy fraction = total_busy / horizon.
  TimeNs total_busy() const { return total_busy_; }
  uint64_t num_requests() const { return num_requests_; }
  size_t queue_length() const { return queue_.size(); }
  const std::string& name() const { return name_; }
  Simulator* sim() const { return sim_; }

 private:
  struct Ticket {
    uint64_t id;
    TimeNs done;  // projected completion under the current rate
    TimeNs work;  // nominal (rate-1.0) service time
  };

  static TimeNs Scaled(TimeNs service, double rate) {
    if (rate == 1.0 || service == 0) {
      return service;
    }
    return static_cast<TimeNs>(std::ceil(static_cast<double>(service) / rate));
  }

  TimeNs DoneTimeOf(uint64_t id) const {
    for (size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i].id == id) {
        return queue_[i].done;
      }
    }
    CHAOS_CHECK_MSG(false, "FifoResource ticket vanished: " + name_);
    return 0;
  }

  void PopTicket(uint64_t id) {
    // Completions are FIFO except for same-timestamp wake reordering after
    // a rate change, so the front is the overwhelmingly common case.
    if (!queue_.empty() && queue_.front().id == id) {
      queue_.take_front();
      return;
    }
    for (size_t i = 1; i < queue_.size(); ++i) {
      if (queue_[i].id == id) {
        queue_.erase(i);
        return;
      }
    }
    CHAOS_CHECK_MSG(false, "FifoResource pop of unknown ticket: " + name_);
  }

  // Wake state of one sleeping Acquire, a slot in sleepers_. While armed
  // the slot sits in a list in registration order (prev/next); SetRate
  // detaches the whole list as one wake batch chained through `next`, and
  // a freed slot is chained on the free list. The timed wake carries the
  // slot's generation, so a wake that lost the race to SetRate finds the
  // slot disarmed or reused and does nothing.
  static constexpr uint32_t kNil = UINT32_MAX;
  struct Sleeper {
    std::coroutine_handle<> h;
    uint32_t gen = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
    bool armed = false;
  };

  // Suspends until absolute time `target`, or until the next SetRate if
  // that comes first. Both wakes go through the event queue, so order is
  // deterministic: one timed event per sleep, one event per SetRate.
  struct SleepAwaiter {
    FifoResource* res;
    TimeNs target;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      const uint32_t slot = res->Arm(h);
      res->sim_->PostAt(target, [res = res, slot, gen = res->sleepers_[slot].gen] {
        res->WakeTimed(slot, gen);
      });
    }
    void await_resume() const noexcept {}
  };

  uint32_t Arm(std::coroutine_handle<> h) {
    uint32_t slot = free_sleeper_;
    if (slot == kNil) {
      slot = static_cast<uint32_t>(sleepers_.size());
      sleepers_.emplace_back();
    } else {
      free_sleeper_ = sleepers_[slot].next;
    }
    Sleeper& s = sleepers_[slot];
    ++s.gen;
    s.h = h;
    s.armed = true;
    s.prev = armed_tail_;
    s.next = kNil;
    if (armed_tail_ == kNil) {
      armed_head_ = slot;
    } else {
      sleepers_[armed_tail_].next = slot;
    }
    armed_tail_ = slot;
    return slot;
  }

  void FreeSleeper(uint32_t slot) {
    sleepers_[slot].next = free_sleeper_;
    free_sleeper_ = slot;
  }

  void WakeTimed(uint32_t slot, uint32_t gen) {
    Sleeper& s = sleepers_[slot];
    if (s.gen != gen || !s.armed) {
      return;  // SetRate woke this sleep first
    }
    s.armed = false;
    if (s.prev == kNil) {
      armed_head_ = s.next;
    } else {
      sleepers_[s.prev].next = s.next;
    }
    if (s.next == kNil) {
      armed_tail_ = s.prev;
    } else {
      sleepers_[s.next].prev = s.prev;
    }
    const std::coroutine_handle<> h = s.h;
    FreeSleeper(slot);
    h.resume();
  }

  // Wakes every sleeper so it re-projects under the new rate. All of them
  // resume inside ONE posted event, in registration order, so a rate
  // change costs a single event-queue push however many requests sleep.
  void WakeAllSleepers() {
    const uint32_t batch = armed_head_;
    if (batch == kNil) {
      return;
    }
    for (uint32_t s = batch; s != kNil; s = sleepers_[s].next) {
      sleepers_[s].armed = false;  // their timed wakes become no-ops
    }
    armed_head_ = kNil;
    armed_tail_ = kNil;
    sim_->Post(0, [this, batch] {
      for (uint32_t s = batch; s != kNil;) {
        const uint32_t next = sleepers_[s].next;
        const std::coroutine_handle<> h = sleepers_[s].h;
        FreeSleeper(s);  // a resumed sleeper may re-arm this slot, not the rest
        h.resume();
        s = next;
      }
    });
  }

  Simulator* sim_;
  std::string name_;
  double rate_ = 1.0;
  uint64_t rate_epoch_ = 0;  // bumped by SetRate; waiters re-read on change
  TimeNs busy_until_ = 0;
  TimeNs total_busy_ = 0;
  uint64_t num_requests_ = 0;
  uint64_t next_ticket_id_ = 1;
  RingBuffer<Ticket> queue_;
  std::vector<Sleeper> sleepers_;
  uint32_t armed_head_ = kNil;
  uint32_t armed_tail_ = kNil;
  uint32_t free_sleeper_ = kNil;
};

}  // namespace chaos

#endif  // CHAOS_SIM_RESOURCE_H_
