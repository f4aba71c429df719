// Steal-policy subsystem: the paper's randomized steal-one baseline
// (§5.3-§5.4) generalized into a configurable policy, after the adaptive
// work-stealing runtime of aprell/tasking-2.0 (runtime.c):
//
//   * mode      steal_one — the paper: one partition per granted proposal.
//               steal_half — a granted proposal takes up to half of the
//               victim's still-open partitions in one exchange
//               (STEAL_ADAPTIVE's stealhalf requests).
//               adaptive — start polite (steal-one); when a granted
//               response reports the victim STILL has open work (the
//               task-indicator hint), escalate subsequent proposals to
//               steal-half, and de-escalate once a grant exhausts its
//               victim.
//   * backoff_hints  STEAL_BACKOFF and VICTIM_CHECK, on together: a
//               helper whose whole sweep found nothing parks for an
//               exponentially growing window and retries instead of giving
//               up immediately — work that opens late (e.g. behind a
//               straggler's slow stream) still finds takers — and, since
//               every proposal response carries "I still have open work",
//               skips victims that said no for the rest of the phase,
//               cutting the request storm at large N.
//   * steal_domain  2-level steal routing for big clusters: machines are
//               grouped into domains of `steal_domain` machines and a
//               helper sweeps in-domain victims before crossing domains
//               (the manager/worker channel hierarchy of tasking-2.0,
//               flattened into a sweep order).
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

#include "sim/time.h"

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

// Grant-free sweeps a backing-off helper retries before it gives up.
inline constexpr int kMaxBackoffRounds = 3;

struct StealPolicy {
  StealMode mode = StealMode::kStealOne;

  // Skip victims that already reported "no open work" this phase, and
  // retry after a grant-free sweep, parking exponentially longer between
  // attempts (initial, doubled per round, capped at max), up to
  // kMaxBackoffRounds rounds; off = give up after the first dry sweep
  // (the pre-policy baseline behavior).
  bool backoff_hints = false;
  TimeNs backoff_initial = 20 * kNsPerUs;
  TimeNs backoff_max = 160 * kNsPerUs;

  // >0: sweep victims of my own domain (machine / steal_domain) first.
  int steal_domain = 0;
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
  TimeNs current() const { return window_; }

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
  // Call on every granted proposal; more_work is the victim's hint that
  // open partitions remained even after this grant.
  void OnGrant(bool more_work) {
    if (mode_ == StealMode::kAdaptive) {
      escalated_ = more_work;
    }
  }
  bool escalated() const { return escalated_; }

 private:
  StealMode mode_;
  bool escalated_ = false;
};

}  // namespace chaos

#endif  // CHAOS_CORE_STEAL_POLICY_H_
