// Ready-queue policy and machine bookkeeping for the job scheduler.
//
// Both pieces are deliberately dumb, fully deterministic data structures:
// the ready queue is a totally ordered list (policy key, then submission
// index as the final tie-break) and the ledger hands out the lowest-id free
// machines first, so a schedule is a pure function of the trace and the
// ServingConfig — never of host thread count or hash-map iteration order.
#ifndef CHAOS_CORE_JOB_QUEUE_H_
#define CHAOS_CORE_JOB_QUEUE_H_

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/common.h"

namespace chaos {

enum class SchedPolicy {
  kFifo,      // non-preemptive, strict arrival order
  kPriority,  // preemptive priority; arrival order within a class
};

inline const char* SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kPriority:
      return "priority";
  }
  return "?";
}

inline std::optional<SchedPolicy> SchedPolicyByName(const std::string& name) {
  if (name == "fifo") {
    return SchedPolicy::kFifo;
  }
  if (name == "priority") {
    return SchedPolicy::kPriority;
  }
  return std::nullopt;
}

// One queued job, identified by its submission index.
struct ReadyJob {
  int job = 0;
  int priority = 0;
  TimeNs arrival = 0;
};

// Policy-ordered ready queue. Front() is the job the scheduler must place
// next; the dispatch loop stops at the first Front() that does not fit, so
// a lower-ranked job can never overtake one the policy ranks higher (no
// backfill, hence no priority inversion by construction).
class ReadyQueue {
 public:
  explicit ReadyQueue(SchedPolicy policy) : policy_(policy) {}

  bool empty() const { return jobs_.empty(); }
  size_t size() const { return jobs_.size(); }

  void Push(const ReadyJob& job) {
    const auto pos = std::upper_bound(
        jobs_.begin(), jobs_.end(), job,
        [this](const ReadyJob& a, const ReadyJob& b) { return Before(a, b); });
    jobs_.insert(pos, job);
  }

  const ReadyJob& Front() const {
    CHAOS_DCHECK(!jobs_.empty());
    return jobs_.front();
  }

  void PopFront() {
    CHAOS_DCHECK(!jobs_.empty());
    jobs_.erase(jobs_.begin());
  }

 private:
  bool Before(const ReadyJob& a, const ReadyJob& b) const {
    if (policy_ == SchedPolicy::kPriority && a.priority != b.priority) {
      return a.priority > b.priority;
    }
    if (a.arrival != b.arrival) {
      return a.arrival < b.arrival;
    }
    return a.job < b.job;
  }

  SchedPolicy policy_;
  std::vector<ReadyJob> jobs_;  // kept sorted by Before()
};

// Tracks which serving-cluster machines are free. Placement is first-fit on
// machine id: a job asking for k machines gets the k lowest-id free ones.
class MachineLedger {
 public:
  explicit MachineLedger(int machines) : busy_(static_cast<size_t>(machines), false) {}

  int machines() const { return static_cast<int>(busy_.size()); }

  int FreeCount() const {
    int n = 0;
    for (const bool b : busy_) {
      n += b ? 0 : 1;
    }
    return n;
  }

  bool Fits(int count) const { return count <= FreeCount(); }

  // Claims the `count` lowest-id free machines. Caller must check Fits().
  std::vector<int> Claim(int count) {
    std::vector<int> ids;
    ids.reserve(static_cast<size_t>(count));
    for (size_t m = 0; m < busy_.size() && static_cast<int>(ids.size()) < count; ++m) {
      if (!busy_[m]) {
        busy_[m] = true;
        ids.push_back(static_cast<int>(m));
      }
    }
    CHAOS_CHECK_MSG(static_cast<int>(ids.size()) == count, "Claim() without a fitting hole");
    return ids;
  }

  void Release(const std::vector<int>& ids) {
    for (const int m : ids) {
      CHAOS_DCHECK(busy_[static_cast<size_t>(m)]);
      busy_[static_cast<size_t>(m)] = false;
    }
  }

 private:
  std::vector<bool> busy_;
};

}  // namespace chaos

#endif  // CHAOS_CORE_JOB_QUEUE_H_
