// Steal-policy subsystem: the paper's randomized steal-one baseline
// (§5.3-§5.4) generalized into a configurable policy, after the adaptive
// work-stealing runtime of aprell/tasking-2.0 (runtime.c). One field picks
// the mode:
//
//   * steal_one  — the paper: one partition per granted proposal, one flat
//               sweep over a seeded victim permutation, give up after the
//               first dry sweep.
//   * steal_half — the same sweep, but a granted proposal takes up to half
//               of the victim's still-open partitions in one exchange
//               (STEAL_ADAPTIVE's stealhalf requests).
//   * adaptive — the full runtime:
//       - escalation: start polite (steal-one); when a granted response
//         reports the victim STILL has open work (the task-indicator
//         hint), escalate subsequent proposals to steal-half, and
//         de-escalate once a grant exhausts its victim;
//       - STEAL_BACKOFF and VICTIM_CHECK: victims that said "no open work"
//         are skipped for the rest of the phase, cutting the request storm
//         at large N, and a helper whose whole sweep found nothing parks
//         for an exponentially growing window and retries, so work that
//         opens late (behind a straggler's slow stream) still finds takers;
//       - quiescence exit: once every victim has said "no open work" this
//         phase, a dry sweep goes to the barrier instead of backing off
//         (tasking-2.0's idle/quiescent flags);
//       - 2-level routing from kStealDomainMinMachines machines up: a
//         helper sweeps the victims of its own domain of kStealDomain
//         machines before crossing domains (the manager/worker channel
//         hierarchy of tasking-2.0, flattened into a sweep order).
//
// Everything here is pure decision math — no simulator, no cluster — so
// tests/steal_policy_test.cc can pin the per-mode behavior in isolation.
// The engine-side implementation lives in EngineCore::StealLoop and the
// control server (engine_core.cc); the wire format in net/wire.h.
#ifndef CHAOS_CORE_STEAL_POLICY_H_
#define CHAOS_CORE_STEAL_POLICY_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/common.h"

namespace chaos {

enum class StealMode : uint8_t {
  kStealOne = 0,
  kStealHalf = 1,
  kAdaptive = 2,
};

inline const char* StealModeName(StealMode m) {
  switch (m) {
    case StealMode::kStealOne:
      return "steal_one";
    case StealMode::kStealHalf:
      return "steal_half";
    case StealMode::kAdaptive:
      return "adaptive";
  }
  return "?";
}

inline bool ParseStealMode(const std::string& s, StealMode* out) {
  if (s == "steal_one") {
    *out = StealMode::kStealOne;
  } else if (s == "steal_half") {
    *out = StealMode::kStealHalf;
  } else if (s == "adaptive") {
    *out = StealMode::kAdaptive;
  } else {
    return false;
  }
  return true;
}

// Grant-free sweeps a backing-off adaptive helper retries before it gives up.
inline constexpr int kMaxBackoffRounds = 3;
// Adaptive's 2-level routing: domains of kStealDomain machines, in clusters
// of kStealDomainMinMachines or more. fig21's 32-machine tail gate needs the
// routing; at fig18's 16 machines it costs more than a flat sweep.
inline constexpr int kStealDomain = 8;
inline constexpr int kStealDomainMinMachines = 32;

struct StealPolicy {
  StealMode mode = StealMode::kStealOne;
  // Adaptive's park after a grant-free sweep: initial, doubled per round,
  // capped at max, up to kMaxBackoffRounds rounds.
  TimeNs backoff_initial = 20 * kNsPerUs;
  TimeNs backoff_max = 160 * kNsPerUs;
};

// The steal decision (§5.4): admit one more helper to a partition iff
//   V + D/(H+1) < alpha * D/H
// with V the partition's vertex-set bytes (the copy a helper must make),
// D the estimated remaining work bytes and H the current helper count.
// alpha = 0 disables stealing, infinity always accepts (while work remains).
inline bool StealAccept(double vertex_bytes, double remaining_bytes, int helpers,
                        double alpha) {
  if (remaining_bytes <= 0.0) {
    return false;
  }
  if (std::isinf(alpha)) {
    return true;
  }
  const int h = helpers > 0 ? helpers : 1;
  return vertex_bytes + remaining_bytes / (h + 1) < alpha * remaining_bytes / h;
}

// How many distinct partitions one granted proposal may take: 1 for
// steal-one, ceil(open/2) for steal-half (tasking-2.0's "half of the
// victim's deque"), 0 when the victim has nothing open.
inline uint32_t StealGrantLimit(bool steal_half, uint32_t open_partitions) {
  if (open_partitions == 0) {
    return 0;
  }
  return steal_half ? open_partitions - open_partitions / 2 : 1;
}

// Exponential backoff window: Next() returns the current wait and doubles
// it (capped); Reset() rewinds to the initial window after a grant.
class BackoffWindow {
 public:
  BackoffWindow(TimeNs initial, TimeNs max)
      : initial_(initial > 0 ? initial : 1), max_(max > initial_ ? max : initial_) {
    window_ = initial_;
  }

  TimeNs Next() {
    const TimeNs w = window_;
    window_ = window_ > max_ / 2 ? max_ : window_ * 2;
    return w;
  }
  void Reset() { window_ = initial_; }

 private:
  TimeNs initial_;
  TimeNs max_;
  TimeNs window_ = 0;
};

// Per-phase sweep state of one helper. For kAdaptive it carries the
// escalation bit, driven by the victims' task-indicator hints: a granted
// response that still reports open work means one-partition grants are not
// keeping up with that victim's backlog — the next proposal escalates to
// steal-half — while a grant that exhausted the victim de-escalates.
// Deterministic: the bit is a pure function of the response stream, never
// of timing.
class StealSweepState {
 public:
  explicit StealSweepState(StealMode mode) : mode_(mode) {}

  // Amount hint for the next proposal of this sweep.
  bool steal_half() const {
    return mode_ == StealMode::kStealHalf ||
           (mode_ == StealMode::kAdaptive && escalated_);
  }
  // Victim check and backoff: adaptive only.
  bool uses_hints() const { return mode_ == StealMode::kAdaptive; }
  // Call on every granted proposal; more_work is the victim's hint that
  // open partitions remained even after this grant.
  void OnGrant(bool more_work) {
    if (mode_ == StealMode::kAdaptive) {
      escalated_ = more_work;
    }
  }

 private:
  StealMode mode_;
  bool escalated_ = false;
};

// Victim order of one sweep by machine `self`, from `perm`, a seeded
// permutation of all machine ids: every other machine once, in permutation
// order — except that adaptive, in a cluster of kStealDomainMinMachines or
// more, sweeps its own domain of kStealDomain machines first. Both halves
// keep the permutation's relative order, so the whole order stays seeded.
inline std::vector<MachineId> StealVictimOrder(StealMode mode, MachineId self,
                                               const std::vector<uint32_t>& perm) {
  const bool by_domain =
      mode == StealMode::kAdaptive && perm.size() >= static_cast<size_t>(kStealDomainMinMachines);
  std::vector<MachineId> order;
  order.reserve(perm.size() - 1);
  for (const bool own_domain : {true, false}) {
    for (const uint32_t v : perm) {
      const auto m = static_cast<MachineId>(v);
      if (m != self && (!by_domain || (m / kStealDomain == self / kStealDomain) == own_domain)) {
        order.push_back(m);
      }
    }
    if (!by_domain) {
      break;  // the flat sweep is one pass
    }
  }
  return order;
}

}  // namespace chaos

#endif  // CHAOS_CORE_STEAL_POLICY_H_
