#include "sim/fault_injector.h"

#include <algorithm>
#include <utility>

#include "util/rng.h"

namespace chaos {

const char* FaultTargetName(FaultTarget target) {
  switch (target) {
    case FaultTarget::kCpu:
      return "cpu";
    case FaultTarget::kStorage:
      return "storage";
    case FaultTarget::kNic:
      return "nic";
    case FaultTarget::kMachine:
      return "machine";
  }
  return "?";
}

bool ParseFaultTarget(const std::string& text, FaultTarget* out) {
  if (text == "cpu") {
    *out = FaultTarget::kCpu;
  } else if (text == "storage") {
    *out = FaultTarget::kStorage;
  } else if (text == "nic") {
    *out = FaultTarget::kNic;
  } else if (text == "machine") {
    *out = FaultTarget::kMachine;
  } else {
    return false;
  }
  return true;
}

FaultSchedule FaultSchedule::Straggler(MachineId machine, double severity, FaultTarget target,
                                       TimeNs at) {
  CHAOS_CHECK_GE(severity, 1.0);
  FaultSchedule s;
  FaultEvent e;
  e.at = at;
  e.duration = 0;  // permanent
  e.machine = machine;
  e.target = target;
  e.factor = 1.0 / severity;
  return s.Add(e);
}

FaultSchedule FaultSchedule::TransientSlowdown(MachineId machine, FaultTarget target,
                                               double factor, TimeNs at, TimeNs duration) {
  CHAOS_CHECK_GT(duration, 0);
  FaultSchedule s;
  FaultEvent e;
  e.at = at;
  e.duration = duration;
  e.machine = machine;
  e.target = target;
  e.factor = factor;
  return s.Add(e);
}

FaultSchedule FaultSchedule::StorageBrownout(MachineId machine, double factor, TimeNs at,
                                             TimeNs duration) {
  return TransientSlowdown(machine, FaultTarget::kStorage, factor, at, duration);
}

FaultSchedule FaultSchedule::MachineCrash(MachineId machine, TimeNs at) {
  FaultSchedule s;
  FaultEvent e;
  e.at = at;
  e.duration = 0;  // fail-stop: permanent
  e.machine = machine;
  e.target = FaultTarget::kMachine;
  e.factor = 1.0;  // unused for crashes
  e.kind = FaultKind::kMachineCrash;
  return s.Add(e);
}

FaultSchedule FaultSchedule::Random(uint64_t seed, int machines, int count, TimeNs horizon,
                                    double min_factor, double max_factor) {
  CHAOS_CHECK_GT(machines, 0);
  CHAOS_CHECK_GT(horizon, 0);
  CHAOS_CHECK_GT(min_factor, 0.0);
  CHAOS_CHECK_LE(min_factor, max_factor);
  Rng rng(HashCombine(seed, 0xfa017ULL));
  FaultSchedule s;
  for (int i = 0; i < count; ++i) {
    FaultEvent e;
    e.machine = static_cast<MachineId>(rng.Below(static_cast<uint64_t>(machines)));
    e.target = static_cast<FaultTarget>(rng.Below(4));
    e.factor = min_factor + rng.NextDouble() * (max_factor - min_factor);
    e.at = static_cast<TimeNs>(rng.Below(static_cast<uint64_t>(horizon)));
    e.duration = 1 + static_cast<TimeNs>(
                         rng.Below(std::max<uint64_t>(static_cast<uint64_t>(horizon) / 4, 1)));
    s.Add(e);
  }
  return s;
}

FaultInjector::FaultInjector(Simulator* sim, FaultSchedule schedule, int machines)
    : sim_(sim), schedule_(std::move(schedule)), machines_(machines) {
  CHAOS_CHECK_GT(machines, 0);
  hooks_.resize(static_cast<size_t>(machines));
  cpu_rate_.assign(static_cast<size_t>(machines), 1.0);
  dead_.assign(static_cast<size_t>(machines), 0);
  active_.resize(static_cast<size_t>(machines));
  records_.resize(schedule_.events.size());
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& e = schedule_.events[i];
    CHAOS_CHECK(e.machine >= 0 && e.machine < machines);
    records_[i].event = e;
    timeline_.push_back(Change{e.at, i, /*begin=*/true});
    if (!e.permanent()) {
      timeline_.push_back(Change{e.end(), i, /*begin=*/false});
    }
  }
  // Recoveries before onsets at the same instant, then schedule order.
  std::sort(timeline_.begin(), timeline_.end(), [](const Change& a, const Change& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    if (a.begin != b.begin) {
      return !a.begin;
    }
    return a.event_index < b.event_index;
  });
}

void FaultInjector::AttachMachine(MachineId machine, const MachineHooks& hooks) {
  CHAOS_CHECK(machine >= 0 && machine < machines_);
  hooks_[static_cast<size_t>(machine)] = hooks;
}

void FaultInjector::Start() {
  CHAOS_CHECK(!started_);
  started_ = true;
  if (!timeline_.empty()) {
    sim_->Spawn(Run());
  }
}

Task<> FaultInjector::Run() {
  for (const Change& change : timeline_) {
    if (change.at > sim_->now()) {
      co_await sim_->Delay(change.at - sim_->now());
    }
    if (cancelled_) {
      break;  // workload finished: the rest of the plan was never reached
    }
    Apply(change);
  }
}

bool FaultInjector::Covers(FaultTarget event_target, FaultTarget dimension) const {
  return event_target == dimension || event_target == FaultTarget::kMachine;
}

void FaultInjector::Apply(const Change& change) {
  const FaultEvent& event = schedule_.events[change.event_index];
  FaultRecord& record = records_[change.event_index];
  auto& active = active_[static_cast<size_t>(event.machine)];
  if (event.kind == FaultKind::kMachineCrash) {
    // Fail-stop: no rate effect, no recovery change. Idempotent against a
    // schedule that crashes the same machine twice.
    record.applied_at = sim_->now();
    if (probe_) {
      record.at_apply = probe_(event.machine);
    }
    ++events_applied_;
    dead_[static_cast<size_t>(event.machine)] = 1;
    return;
  }
  if (change.begin) {
    active.push_back(change.event_index);
    record.applied_at = sim_->now();
    if (probe_) {
      record.at_apply = probe_(event.machine);
    }
    ++events_applied_;
  } else {
    active.erase(std::find(active.begin(), active.end(), change.event_index));
    record.cleared_at = sim_->now();
    if (probe_) {
      record.at_clear = probe_(event.machine);
    }
  }
  RecomputeRates(event.machine, event.target);
}

void FaultInjector::RecomputeRates(MachineId machine, FaultTarget target) {
  const auto& active = active_[static_cast<size_t>(machine)];
  MachineHooks& hooks = hooks_[static_cast<size_t>(machine)];
  for (const FaultTarget dim : {FaultTarget::kCpu, FaultTarget::kStorage, FaultTarget::kNic}) {
    if (!Covers(target, dim)) {
      continue;
    }
    double rate = 1.0;
    for (const size_t idx : active) {
      const FaultEvent& e = schedule_.events[idx];
      if (Covers(e.target, dim)) {
        rate *= e.factor;
      }
    }
    switch (dim) {
      case FaultTarget::kCpu:
        cpu_rate_[static_cast<size_t>(machine)] = rate;
        break;
      case FaultTarget::kStorage:
        if (hooks.storage != nullptr) {
          hooks.storage->SetRate(rate);
        }
        break;
      case FaultTarget::kNic:
        if (hooks.nic_up != nullptr) {
          hooks.nic_up->SetRate(rate);
        }
        if (hooks.nic_down != nullptr) {
          hooks.nic_down->SetRate(rate);
        }
        break;
      case FaultTarget::kMachine:
        break;
    }
  }
}

}  // namespace chaos
