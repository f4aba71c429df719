// Deterministic parallel sweep execution.
//
// Every `Simulator` instance is fully self-contained (its own event queue,
// its own seeded xoshiro streams), so independent simulated runs — the
// points of a bench sweep or a test matrix — can execute concurrently on
// host threads without sharing any simulation state. The contract that
// keeps parallel sweeps trustworthy:
//
//  * A sweep point must be a pure function of its inputs (graph, config,
//    seed). Points never share Simulator, Cluster, Rng or accumulator
//    objects; per-point statistics are merged by the caller after the
//    sweep joins, in declaration order.
//  * Each point that needs its own randomness derives it as
//    DeriveSeed(base_seed, point_index) — a splitmix64 mix of the two —
//    never from thread ids, wall clock, or a shared generator. Result:
//    every point's output is bitwise independent of the thread count and
//    of the schedule, so `--jobs 1` and `--jobs 8` agree byte-for-byte.
//  * A point runs start-to-finish on one executor thread (points never
//    migrate), so thread-local facilities (e.g. the coroutine frame cache
//    of sim/frame_pool.h) serve exactly one point at a time.
#ifndef CHAOS_UTIL_PARALLEL_H_
#define CHAOS_UTIL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.h"
#include "util/rng.h"

namespace chaos {

// Per-point seed derivation rule (see file comment): mixes the sweep's base
// seed with the point index so neighboring points get statistically
// independent streams and the mapping is stable across schedules.
constexpr uint64_t DeriveSeed(uint64_t base_seed, uint64_t point_index) {
  return Mix64(base_seed, point_index);
}

// A bounded pool of host worker threads executing indexed sweep points.
//
// ParallelFor(n, fn) hands indices 0..n-1 to the pool via an atomic cursor
// and blocks until all have completed; the calling thread participates, so
// jobs = 1 runs everything inline on the caller (today's sequential
// behavior, no threads ever spawned). Results must be written by index into
// caller-owned, pre-sized storage (RunPoints does this for you), which
// makes output order schedule-independent by construction.
class SweepExecutor {
 public:
  // jobs <= 0 selects the hardware concurrency.
  explicit SweepExecutor(int jobs = 0) : jobs_(NormalizeJobs(jobs)) {}

  SweepExecutor(const SweepExecutor&) = delete;
  SweepExecutor& operator=(const SweepExecutor&) = delete;

  ~SweepExecutor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) {
      t.join();
    }
  }

  int jobs() const { return jobs_; }

  static int HardwareJobs() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  // Runs fn(i) for every i in [0, n); blocks until all points finished.
  // `fn` is invoked concurrently from up to jobs() threads and must only
  // touch per-point state (see the file comment for the full contract).
  // One sweep at a time per executor: ParallelFor calls from *distinct*
  // threads serialize on an internal mutex, while a nested call from
  // inside a running point (which would self-deadlock on that mutex) is
  // detected and runs its indices inline on the calling thread.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) {
      return;
    }
    if (jobs_ == 1 || n == 1 || t_in_sweep) {
      for (size_t i = 0; i < n; ++i) {
        fn(i);
      }
      return;
    }
    std::lock_guard<std::mutex> sweep_lock(sweep_mu_);
    EnsureWorkersStarted();
    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->limit = n;
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = batch;
    }
    work_cv_.notify_all();
    Drain(*batch);  // the caller is one of the jobs
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return batch->done == batch->limit; });
      current_.reset();
    }
  }

  // Runs every closure in `points` (index-parallel) and returns the results
  // in declaration order regardless of the schedule.
  template <typename R>
  std::vector<R> RunPoints(const std::vector<std::function<R()>>& points) {
    std::vector<R> results(points.size());
    ParallelFor(points.size(), [&](size_t i) { results[i] = points[i](); });
    return results;
  }

 private:
  // One ParallelFor invocation. Workers hold a shared_ptr, so a worker that
  // wakes late only ever touches the cursor of the batch it was handed —
  // never a successor's — and an exhausted cursor makes Drain a no-op.
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t limit = 0;
    std::atomic<size_t> next{0};
    size_t done = 0;  // guarded by the executor's mu_
  };

  // Real OS threads back each job; clamp so an absurd --jobs value cannot
  // exhaust the process thread limit (std::thread would throw, aborting).
  static constexpr int kMaxJobs = 512;
  static int NormalizeJobs(int jobs) {
    if (jobs <= 0) {
      return HardwareJobs();
    }
    return jobs < kMaxJobs ? jobs : kMaxJobs;
  }

  void EnsureWorkersStarted() {
    if (!threads_.empty()) {
      return;
    }
    threads_.reserve(static_cast<size_t>(jobs_ - 1));
    for (int i = 0; i < jobs_ - 1; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  // Claims and runs indices of `batch` until its cursor runs out.
  void Drain(Batch& batch) {
    t_in_sweep = true;  // nested ParallelFor from a point runs inline
    size_t finished = 0;
    for (;;) {
      const size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.limit) {
        break;
      }
      (*batch.fn)(i);
      ++finished;
    }
    t_in_sweep = false;
    if (finished > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      batch.done += finished;
      if (batch.done == batch.limit) {
        done_cv_.notify_all();
      }
    }
  }

  void WorkerLoop() {
    std::shared_ptr<Batch> last;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return shutdown_ || (current_ && current_ != last); });
        if (shutdown_) {
          return;
        }
        batch = current_;
      }
      last = batch;
      Drain(*batch);
    }
  }

  // True while this thread is executing a batch's points; a nested
  // ParallelFor (a point sweeping through the same shared executor) must
  // not block on sweep_mu_, which its own batch holds.
  static inline thread_local bool t_in_sweep = false;

  const int jobs_;
  std::mutex sweep_mu_;  // serializes ParallelFor calls from distinct threads

  std::mutex mu_;  // guards current_, Batch::done, shutdown_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Batch> current_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace chaos

#endif  // CHAOS_UTIL_PARALLEL_H_
