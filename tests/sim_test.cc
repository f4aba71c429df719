// Unit and property tests for the discrete-event simulator substrate:
// event queue ordering, coroutine tasks, synchronization primitives and
// FIFO bandwidth resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <coroutine>
#include <deque>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/rng.h"

namespace chaos {
namespace {

// ------------------------------------------------------------------ EventFn

TEST(EventFnTest, InvokesSmallAndLargeCaptures) {
  int hits = 0;
  EventFn small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);
  // A capture larger than the inline buffer takes the heap fallback and
  // must behave identically.
  std::array<uint64_t, 16> big{};
  big[15] = 7;
  uint64_t seen = 0;
  EventFn large([big, &seen] { seen = big[15]; });
  large();
  EXPECT_EQ(seen, 7u);
}

TEST(EventFnTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  EventFn a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*counter, 1);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
  c = EventFn{};  // destroying the stored callable releases the capture
  EXPECT_EQ(counter.use_count(), 1);
}

// ---------------------------------------------------------------- EventQueue

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.Push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.Pop().fn();
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, RandomizedHeapProperty) {
  EventQueue q;
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    q.Push(static_cast<TimeNs>(rng.Below(1000)), [] {});
  }
  TimeNs prev = -1;
  uint64_t prev_seq = 0;
  bool first = true;
  while (!q.empty()) {
    auto ev = q.Pop();
    if (!first && ev.time == prev) {
      EXPECT_GT(ev.seq, prev_seq);
    }
    EXPECT_GE(ev.time, prev);
    prev = ev.time;
    prev_seq = ev.seq;
    first = false;
  }
}

TEST(EventQueueTest, InterleavedPushPop) {
  EventQueue q;
  Rng rng(7);
  TimeNs now = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 5; ++i) {
      q.Push(now + static_cast<TimeNs>(rng.Below(50)), [] {});
    }
    for (int i = 0; i < 3 && !q.empty(); ++i) {
      auto ev = q.Pop();
      EXPECT_GE(ev.time, now);
      now = ev.time;
    }
  }
}

// ------------------------------------ calendar vs std-heap differential

// Reference queue: std::push_heap/pop_heap over the same (time, seq) keys,
// with seq numbered by push order exactly as EventQueue numbers it.
class HeapReference {
 public:
  struct Entry {
    TimeNs time;
    uint64_t seq;
  };
  void Push(TimeNs time) {
    heap_.push_back({time, next_seq_++});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }
  Entry Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    const Entry top = heap_.back();
    heap_.pop_back();
    return top;
  }
  bool empty() const { return heap_.empty(); }
  uint64_t total_pushed() const { return next_seq_; }

 private:
  // std heaps keep the greatest element on top; "later" puts the earliest.
  static bool Later(const Entry& a, const Entry& b) {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  }
  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

// Pops every remaining event and records its identity. (time, seq) is the
// full total order, so equal traces mean bitwise-identical pop order.
template <typename Q>
std::vector<std::pair<TimeNs, uint64_t>> DrainTrace(Q* q) {
  std::vector<std::pair<TimeNs, uint64_t>> trace;
  while (!q->empty()) {
    const auto ev = q->Pop();
    trace.emplace_back(ev.time, ev.seq);
  }
  return trace;
}

// Feeds the identical seeded stream of (push burst, pop burst) operations to
// the reference heap and the calendar queue and asserts the pop traces
// match element for element. `spread` shapes the time distribution: small
// spreads produce dense buckets, huge spreads force calendar rotations +
// rebuilds.
void RunQueueDifferential(uint64_t seed, int rounds, uint64_t spread) {
  HeapReference ref;
  EventQueue cal;
  Rng rng(seed);
  TimeNs now = 0;
  for (int round = 0; round < rounds; ++round) {
    const int pushes = 1 + static_cast<int>(rng.Below(8));
    for (int i = 0; i < pushes; ++i) {
      // Occasionally collide exactly (simultaneous events must break ties
      // by seq identically in both queues).
      const TimeNs t = rng.Below(4) == 0 ? now : now + static_cast<TimeNs>(rng.Below(spread));
      ref.Push(t);
      cal.Push(t, [] {});
    }
    const int pops = static_cast<int>(rng.Below(6));
    for (int i = 0; i < pops && !ref.empty(); ++i) {
      const auto re = ref.Pop();
      const auto ce = cal.Pop();
      ASSERT_EQ(re.time, ce.time);
      ASSERT_EQ(re.seq, ce.seq);
      now = re.time;  // like a simulator: never schedule behind now
    }
  }
  ASSERT_EQ(DrainTrace(&ref), DrainTrace(&cal));
  EXPECT_EQ(ref.total_pushed(), cal.total_pushed());
}

TEST(EventQueueDifferentialTest, DensePacked) {
  // Sub-bucket-width spread: most events land in the same calendar bucket.
  RunQueueDifferential(/*seed=*/1, /*rounds=*/3000, /*spread=*/64);
}

TEST(EventQueueDifferentialTest, MediumSpread) {
  RunQueueDifferential(/*seed=*/2, /*rounds=*/3000, /*spread=*/100'000);
}

TEST(EventQueueDifferentialTest, SparseForcesRotationSearch) {
  // Gaps far beyond bucket_count * width: every pop rotates fruitlessly and
  // falls back to the direct min search + jump.
  RunQueueDifferential(/*seed=*/3, /*rounds=*/1000, /*spread=*/1ull << 40);
}

TEST(EventQueueDifferentialTest, SimultaneousEventBursts) {
  // Large bursts at identical timestamps — the seq tiebreak carries the
  // entire ordering, as in barrier releases and CondEvent::NotifyAll storms.
  HeapReference ref;
  EventQueue cal;
  Rng rng(77);
  TimeNs now = 0;
  for (int round = 0; round < 200; ++round) {
    now += static_cast<TimeNs>(rng.Below(1000));
    const int burst = 1 + static_cast<int>(rng.Below(64));
    for (int i = 0; i < burst; ++i) {
      ref.Push(now);
      cal.Push(now, [] {});
    }
  }
  EXPECT_EQ(DrainTrace(&ref), DrainTrace(&cal));
}

TEST(EventQueueDifferentialTest, RateReprojectionStorm) {
  // SetRate-style storm (net/network.cc): a batch of far-future completion
  // events gets popped and re-pushed at nearer times when bandwidth is
  // re-projected. The near pushes land *behind* the calendar cursor window,
  // exercising the Push rewind path.
  HeapReference ref;
  EventQueue cal;
  Rng rng(1234);
  TimeNs now = 0;
  for (int storm = 0; storm < 50; ++storm) {
    for (int i = 0; i < 32; ++i) {
      const TimeNs far = now + 1'000'000 + static_cast<TimeNs>(rng.Below(1'000'000));
      ref.Push(far);
      cal.Push(far, [] {});
    }
    // Re-projection: new events at much nearer times than what's queued.
    for (int i = 0; i < 32; ++i) {
      const TimeNs near = now + static_cast<TimeNs>(rng.Below(1000));
      ref.Push(near);
      cal.Push(near, [] {});
    }
    for (int i = 0; i < 48; ++i) {
      const auto re = ref.Pop();
      const auto ce = cal.Pop();
      ASSERT_EQ(re.time, ce.time);
      ASSERT_EQ(re.seq, ce.seq);
      now = re.time;
    }
  }
  EXPECT_EQ(DrainTrace(&ref), DrainTrace(&cal));
}

TEST(EventQueueDifferentialTest, GrowthAndRebuild) {
  // Push enough to trigger several bucket-doubling rebuilds, then drain.
  HeapReference ref;
  EventQueue cal;
  Rng rng(5);
  for (int i = 0; i < 100'000; ++i) {
    const TimeNs t = static_cast<TimeNs>(rng.Below(1ull << 30));
    ref.Push(t);
    cal.Push(t, [] {});
  }
  EXPECT_EQ(cal.size(), 100'000u);
  EXPECT_EQ(DrainTrace(&ref), DrainTrace(&cal));
}

// ---------------------------------------------------------------- Simulator

TEST(SimulatorTest, TimeAdvancesMonotonically) {
  Simulator sim;
  std::vector<TimeNs> times;
  sim.Post(100, [&] { times.push_back(sim.now()); });
  sim.Post(50, [&] { times.push_back(sim.now()); });
  sim.Post(150, [&] { times.push_back(sim.now()); });
  sim.Run();
  EXPECT_EQ(times, (std::vector<TimeNs>{50, 100, 150}));
}

TEST(SimulatorTest, NestedPostsRunAtCorrectTime) {
  Simulator sim;
  TimeNs inner_time = -1;
  sim.Post(10, [&] { sim.Post(5, [&] { inner_time = sim.now(); }); });
  sim.Run();
  EXPECT_EQ(inner_time, 15);
}

TEST(SimulatorTest, RunReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.Post(i, [] {});
  }
  EXPECT_EQ(sim.Run(), 10u);
}

Task<> DelayTwice(Simulator* sim, std::vector<TimeNs>* log) {
  co_await sim->Delay(100);
  log->push_back(sim->now());
  co_await sim->Delay(200);
  log->push_back(sim->now());
}

TEST(SimulatorTest, CoroutineDelays) {
  Simulator sim;
  std::vector<TimeNs> log;
  sim.Spawn(DelayTwice(&sim, &log));
  sim.Run();
  EXPECT_EQ(log, (std::vector<TimeNs>{100, 300}));
  EXPECT_EQ(sim.live_tasks(), 0u);
}

Task<int> Answer(Simulator* sim) {
  co_await sim->Delay(1);
  co_return 42;
}

Task<> AwaitValue(Simulator* sim, int* out) {
  *out = co_await Answer(sim);
}

TEST(SimulatorTest, TaskReturnsValue) {
  Simulator sim;
  int out = 0;
  sim.Spawn(AwaitValue(&sim, &out));
  sim.Run();
  EXPECT_EQ(out, 42);
}

Task<int> Fib(Simulator* sim, int n) {
  if (n <= 1) {
    co_return n;
  }
  const int a = co_await Fib(sim, n - 1);
  const int b = co_await Fib(sim, n - 2);
  co_return a + b;
}

Task<> FibDriver(Simulator* sim, int* out) { *out = co_await Fib(sim, 12); }

// An exception escaping a task is the one failure no CHECK names: it must
// still say what it was before the process aborts.
TEST(TaskDeathTest, EscapedExceptionIsReported) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.Spawn([]() -> Task<> {
          throw std::runtime_error("disk on fire");
          co_return;
        }());
        sim.Run();
      },
      "exception escaped a coroutine: disk on fire");
}

TEST(SimulatorTest, DeeplyNestedTasks) {
  Simulator sim;
  int out = 0;
  sim.Spawn(FibDriver(&sim, &out));
  sim.Run();
  EXPECT_EQ(out, 144);
}

TEST(SimulatorTest, ManyConcurrentTasks) {
  Simulator sim;
  int done = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.Spawn([](Simulator* s, int* d, int delay) -> Task<> {
      co_await s->Delay(delay);
      ++*d;
    }(&sim, &done, i % 17));
  }
  sim.Run();
  EXPECT_EQ(done, 1000);
  EXPECT_EQ(sim.live_tasks(), 0u);
  EXPECT_EQ(sim.spawned_tasks(), 1000u);
}

TEST(SimulatorTest, ZeroDelayDoesNotSuspendOrReorder) {
  Simulator sim;
  std::vector<int> order;
  sim.Spawn([](Simulator* s, std::vector<int>* ord) -> Task<> {
    ord->push_back(1);
    co_await s->Delay(0);  // ready immediately
    ord->push_back(2);
  }(&sim, &order));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // ran synchronously at spawn
  sim.Run();
}

// ---------------------------------------------------------------- sync

TEST(SyncTest, CondEventWakesAllWaiters) {
  Simulator sim;
  CondEvent cond(&sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn([](CondEvent* c, int* w) -> Task<> {
      co_await c->Wait();
      ++*w;
    }(&cond, &woken));
  }
  sim.Post(10, [&] { cond.NotifyAll(); });
  sim.Run();
  EXPECT_EQ(woken, 5);
}

TEST(SyncTest, QueuePushPopFifo) {
  Simulator sim;
  SimQueue<int> q(&sim);
  std::vector<int> got;
  sim.Spawn([](SimQueue<int>* q, std::vector<int>* got) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      got->push_back(co_await q->Pop());
    }
  }(&q, &got));
  sim.Post(1, [&] { q.Push(10); });
  sim.Post(2, [&] { q.Push(20); });
  sim.Post(3, [&] { q.Push(30); });
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(SyncTest, QueueMultipleConsumersEachItemOnce) {
  Simulator sim;
  SimQueue<int> q(&sim);
  std::vector<int> got;
  for (int c = 0; c < 4; ++c) {
    sim.Spawn([](SimQueue<int>* q, std::vector<int>* got) -> Task<> {
      for (int i = 0; i < 25; ++i) {
        got->push_back(co_await q->Pop());
      }
    }(&q, &got));
  }
  for (int i = 0; i < 100; ++i) {
    q.Push(i);
  }
  sim.Run();
  ASSERT_EQ(got.size(), 100u);
  std::sort(got.begin(), got.end());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], i);
  }
}

TEST(SyncTest, SemaphoreLimitsConcurrency) {
  Simulator sim;
  Semaphore sem(&sim, 2);
  int active = 0;
  int max_active = 0;
  for (int i = 0; i < 10; ++i) {
    sim.Spawn([](Simulator* s, Semaphore* sem, int* active, int* max_active) -> Task<> {
      co_await sem->Acquire();
      ++*active;
      *max_active = std::max(*max_active, *active);
      co_await s->Delay(10);
      --*active;
      sem->Release();
    }(&sim, &sem, &active, &max_active));
  }
  sim.Run();
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(sem.count(), 2);
}

TEST(SyncTest, TaskGroupJoinsAll) {
  Simulator sim;
  sim.Spawn([](Simulator* s) -> Task<> {
    TaskGroup group(s);
    int done = 0;
    for (int i = 0; i < 8; ++i) {
      group.Spawn([](Simulator* s, int* done, int d) -> Task<> {
        co_await s->Delay(d);
        ++*done;
      }(s, &done, i * 5));
    }
    co_await group.Join();
    CHAOS_CHECK_EQ(done, 8);
    CHAOS_CHECK_EQ(s->now(), 35);
  }(&sim));
  sim.Run();
  EXPECT_EQ(sim.live_tasks(), 0u);
}

// ---------------------------------------------------------------- resources

TEST(ResourceTest, FifoServiceTimesAccumulate) {
  Simulator sim;
  FifoResource dev(&sim, "ssd");
  std::vector<TimeNs> completions;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](FifoResource* dev, std::vector<TimeNs>* out) -> Task<> {
      co_await dev->Acquire(100);
      out->push_back(dev->sim()->now());
    }(&dev, &completions));
  }
  sim.Run();
  // Three requests issued at t=0 serialize: 100, 200, 300.
  EXPECT_EQ(completions, (std::vector<TimeNs>{100, 200, 300}));
  EXPECT_EQ(dev.total_busy(), 300);
  EXPECT_EQ(dev.num_requests(), 3u);
}

TEST(ResourceTest, IdleGapsDoNotCount) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  sim.Spawn([](Simulator* s, FifoResource* dev) -> Task<> {
    co_await dev->Acquire(50);
    CHAOS_CHECK_EQ(s->now(), 50);
    co_await s->Delay(100);  // leave device idle
    co_await dev->Acquire(50);
    CHAOS_CHECK_EQ(s->now(), 200);  // 150 start + 50 service
  }(&sim, &dev));
  sim.Run();
  EXPECT_EQ(dev.total_busy(), 100);
  EXPECT_EQ(dev.busy_until(), 200);
}

Task<> AcquireOnce(FifoResource* dev, TimeNs service) { co_await dev->Acquire(service); }

TEST(ResourceTest, BacklogReflectsQueue) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  sim.Spawn(AcquireOnce(&dev, 100));
  sim.Spawn(AcquireOnce(&dev, 100));
  EXPECT_EQ(dev.Backlog(0), 200);
  EXPECT_EQ(dev.Backlog(150), 50);
  EXPECT_EQ(dev.Backlog(500), 0);
  sim.Run();
}

TEST(ResourceTest, AcquireProjectsCompletionTime) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  sim.Spawn(AcquireOnce(&dev, 10));
  EXPECT_EQ(dev.busy_until(), 10);
  sim.Spawn(AcquireOnce(&dev, 10));
  EXPECT_EQ(dev.busy_until(), 20);
  sim.Run();
}

TEST(ResourceTest, InterleavedArrivalsKeepFifoOrder) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  std::vector<std::pair<int, TimeNs>> completions;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn([](Simulator* s, FifoResource* dev, std::vector<std::pair<int, TimeNs>>* out,
                 int id) -> Task<> {
      co_await s->Delay(id * 10);  // arrive at 0, 10, 20, 30
      co_await dev->Acquire(100);
      out->push_back({id, s->now()});
    }(&sim, &dev, &completions, i));
  }
  sim.Run();
  ASSERT_EQ(completions.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(completions[static_cast<size_t>(i)].first, i);
    EXPECT_EQ(completions[static_cast<size_t>(i)].second, (i + 1) * 100);
  }
}

TEST(ResourceTest, TransferTimeMath) {
  EXPECT_EQ(TransferTimeNs(0, 400e6), 0);
  // 4 MiB at 400 MB/s ~ 10.5 ms.
  const TimeNs t = TransferTimeNs(4ull << 20, 400e6);
  EXPECT_NEAR(static_cast<double>(t), 10.486e6, 1e4);
  // Tiny transfers still take at least 1 ns.
  EXPECT_GE(TransferTimeNs(1, 1e12), 1);
}

// Property: N producers acquiring one FIFO device never overlap and the
// device's total busy time equals the sum of all service times.
TEST(ResourceTest, PropertyBusyTimeConservation) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  Rng rng(4242);
  TimeNs expected_busy = 0;
  for (int i = 0; i < 200; ++i) {
    const TimeNs service = static_cast<TimeNs>(1 + rng.Below(50));
    const TimeNs arrival = static_cast<TimeNs>(rng.Below(1000));
    expected_busy += service;
    sim.Spawn([](Simulator* s, FifoResource* dev, TimeNs arrival, TimeNs service) -> Task<> {
      co_await s->Delay(arrival);
      co_await dev->Acquire(service);
    }(&sim, &dev, arrival, service));
  }
  sim.Run();
  EXPECT_EQ(dev.total_busy(), expected_busy);
  EXPECT_EQ(dev.num_requests(), 200u);
  EXPECT_GE(dev.busy_until(), expected_busy);  // idle gaps only push it later
}

// ------------------------------------------------ FifoResource differential

// Reference FifoResource with the straightforward wake path: a shared_ptr
// fired-flag per sleep and a registry vector pruned on every registration.
// The generation-slot wake path must match it event for event (same role
// as HeapReference for the event queue).
class FifoReference {
 public:
  explicit FifoReference(Simulator* sim) : sim_(sim) {}

  Task<> Acquire(TimeNs service) {
    const uint64_t id = next_ticket_id_++;
    const TimeNs start = busy_until_ > sim_->now() ? busy_until_ : sim_->now();
    TimeNs target = start + Scaled(service, rate_);
    busy_until_ = target;
    total_busy_ += Scaled(service, rate_);
    queue_.push_back(Ticket{id, target, service});
    uint64_t seen_epoch = rate_epoch_;
    while (target > sim_->now()) {
      co_await RateChangeAwaiter{this, target};
      if (rate_epoch_ != seen_epoch) {
        seen_epoch = rate_epoch_;
        target = DoneTimeOf(id);
      }
    }
    PopTicket(id);
  }

  void SetRate(double rate) {
    const TimeNs now = sim_->now();
    if (!queue_.empty()) {
      const TimeNs old_busy_until = busy_until_;
      TimeNs prev = now;
      for (size_t i = 0; i < queue_.size(); ++i) {
        Ticket& t = queue_[i];
        TimeNs remaining_nominal;
        if (i == 0) {
          const TimeNs remaining = t.done > now ? t.done - now : 0;
          remaining_nominal =
              static_cast<TimeNs>(std::ceil(static_cast<double>(remaining) * rate_));
        } else {
          remaining_nominal = t.work;
        }
        t.done = prev + Scaled(remaining_nominal, rate);
        prev = t.done;
      }
      busy_until_ = queue_.back().done;
      total_busy_ += busy_until_ - old_busy_until;
    }
    rate_ = rate;
    ++rate_epoch_;
    std::vector<RateWaiter> waiters;
    waiters.swap(rate_waiters_);
    std::vector<std::coroutine_handle<>> to_resume;
    for (auto& w : waiters) {
      if (!*w.fired) {
        *w.fired = true;
        to_resume.push_back(w.h);
      }
    }
    if (to_resume.empty()) {
      return;
    }
    sim_->Post(0, [handles = std::move(to_resume)] {
      for (const auto h : handles) {
        h.resume();
      }
    });
  }

  TimeNs total_busy() const { return total_busy_; }
  TimeNs busy_until() const { return busy_until_; }

 private:
  struct Ticket {
    uint64_t id;
    TimeNs done;
    TimeNs work;
  };
  struct RateWaiter {
    std::shared_ptr<bool> fired;
    std::coroutine_handle<> h;
  };
  struct RateChangeAwaiter {
    FifoReference* res;
    TimeNs target;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      auto& waiters = res->rate_waiters_;
      std::erase_if(waiters, [](const RateWaiter& w) { return *w.fired; });
      auto fired = std::make_shared<bool>(false);
      waiters.push_back(RateWaiter{fired, h});
      res->sim_->PostAt(target, [fired, h] {
        if (!*fired) {
          *fired = true;
          h.resume();
        }
      });
    }
    void await_resume() const noexcept {}
  };

  static TimeNs Scaled(TimeNs service, double rate) {
    if (rate == 1.0 || service == 0) {
      return service;
    }
    return static_cast<TimeNs>(std::ceil(static_cast<double>(service) / rate));
  }
  TimeNs DoneTimeOf(uint64_t id) const {
    for (const Ticket& t : queue_) {
      if (t.id == id) {
        return t.done;
      }
    }
    CHAOS_CHECK_MSG(false, "reference ticket vanished");
    return 0;
  }
  void PopTicket(uint64_t id) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        queue_.erase(it);
        return;
      }
    }
    CHAOS_CHECK_MSG(false, "reference pop of unknown ticket");
  }

  Simulator* sim_;
  double rate_ = 1.0;
  uint64_t rate_epoch_ = 0;
  TimeNs busy_until_ = 0;
  TimeNs total_busy_ = 0;
  uint64_t next_ticket_id_ = 1;
  std::deque<Ticket> queue_;
  std::vector<RateWaiter> rate_waiters_;
};

// One scheduled operation: an Acquire (rate == 0) or a SetRate.
struct FifoOp {
  TimeNs time;
  TimeNs service;
  double rate;
};

struct FifoTrace {
  std::vector<std::pair<int, TimeNs>> resumes;  // (request, completion) in resume order
  uint64_t events = 0;
  TimeNs total_busy = 0;
  TimeNs busy_until = 0;

  bool operator==(const FifoTrace&) const = default;
};

// Replays `ops` against a fresh Res. Operations at one timestamp run in
// list order (PostAt breaks time ties by insertion order).
template <typename Res>
FifoTrace RunFifoSchedule(const std::vector<FifoOp>& ops) {
  Simulator sim;
  Res res(&sim);
  FifoTrace trace;
  int next_request = 0;
  for (const FifoOp& op : ops) {
    if (op.rate > 0.0) {
      sim.PostAt(op.time, [&res, rate = op.rate] { res.SetRate(rate); });
      continue;
    }
    const int request = next_request++;
    sim.PostAt(op.time, [&sim, &res, &trace, request, service = op.service] {
      sim.Spawn([](Simulator* s, Res* res, FifoTrace* t, int id, TimeNs service) -> Task<> {
        co_await res->Acquire(service);
        t->resumes.emplace_back(id, s->now());
      }(&sim, &res, &trace, request, service));
    });
  }
  sim.Run();
  CHAOS_CHECK_EQ(sim.live_tasks(), 0u);
  trace.events = sim.events_processed();
  trace.total_busy = res.total_busy();
  trace.busy_until = res.busy_until();
  return trace;
}

// A seeded random schedule: arrivals (some at the same instant, some with
// zero service) interleaved with rate changes that slow the resource down
// and speed it up while requests sleep, including two rate changes at one
// timestamp with arrivals between them.
std::vector<FifoOp> RandomFifoSchedule(uint64_t seed, int n, TimeNs spread) {
  static constexpr double kRates[] = {0.25, 0.5, 0.8, 1.0, 1.5, 3.0};
  Rng rng(seed);
  std::vector<FifoOp> ops;
  TimeNs now = 0;
  const auto rate = [&rng] { return kRates[rng.Below(std::size(kRates))]; };
  const auto service = [&rng] {
    return rng.Below(5) == 0 ? TimeNs{0} : static_cast<TimeNs>(1 + rng.Below(300));
  };
  for (int i = 0; i < n; ++i) {
    if (rng.Below(3) != 0) {
      now += static_cast<TimeNs>(rng.Below(static_cast<uint64_t>(spread)));
    }
    switch (rng.Below(10)) {
      case 0:
        ops.push_back(FifoOp{now, 0, rate()});
        break;
      case 1:
        ops.push_back(FifoOp{now, 0, rate()});
        for (uint64_t k = rng.Below(3); k > 0; --k) {
          ops.push_back(FifoOp{now, service(), 0.0});
        }
        ops.push_back(FifoOp{now, 0, rate()});
        break;
      default:
        ops.push_back(FifoOp{now, service(), 0.0});
        break;
    }
  }
  return ops;
}

struct SlotFifo : FifoResource {
  explicit SlotFifo(Simulator* sim) : FifoResource(sim, "dut") {}
};

TEST(FifoResourceDifferentialTest, MatchesRegistryReference) {
  int cases = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    // Small spreads keep long queues of sleepers for rate changes to hit;
    // large ones let the resource drain between arrivals.
    const TimeNs spread = seed % 2 == 0 ? 40 : 400;
    const std::vector<FifoOp> ops = RandomFifoSchedule(seed, 300, spread);
    const FifoTrace want = RunFifoSchedule<FifoReference>(ops);
    const FifoTrace got = RunFifoSchedule<SlotFifo>(ops);
    ASSERT_FALSE(want.resumes.empty());
    ASSERT_EQ(got.resumes, want.resumes) << "seed " << seed;
    ASSERT_EQ(got.events, want.events) << "seed " << seed;
    ASSERT_EQ(got.total_busy, want.total_busy) << "seed " << seed;
    ASSERT_EQ(got.busy_until, want.busy_until) << "seed " << seed;
    ++cases;
  }
  EXPECT_EQ(cases, 40);
}

// Determinism: the same seeded workload produces the identical completion
// trace on two separate simulators.
TEST(SimulatorTest, PropertyDeterministicReplay) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    FifoResource dev(&sim, "dev");
    Rng rng(seed);
    std::vector<TimeNs> trace;
    for (int i = 0; i < 300; ++i) {
      const TimeNs arrival = static_cast<TimeNs>(rng.Below(500));
      const TimeNs service = static_cast<TimeNs>(1 + rng.Below(20));
      sim.Spawn(
          [](Simulator* s, FifoResource* dev, std::vector<TimeNs>* t, TimeNs a, TimeNs sv)
              -> Task<> {
            co_await s->Delay(a);
            co_await dev->Acquire(sv);
            t->push_back(s->now());
          }(&sim, &dev, &trace, arrival, service));
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(321));
}

}  // namespace
}  // namespace chaos
