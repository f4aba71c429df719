// Allocation-count guard for the DES hot paths: after warmup, neither
// event Push/Pop (calendar queue, inline EventFn), nor the message path (a
// remote RPC round trip through both NIC FIFOs and a mailbox, sleeping
// FifoResource requests, CondEvent waits: pooled coroutine frames, typed
// message bodies, slot RPCs), nor the per-record RecordBinner::Add/AddUpdate
// paths may touch the heap.
// The global operator new/delete are replaced with counting wrappers, so
// any allocation creeping back into these loops fails loudly here — also
// under ASan/TSan, which route through the replaced operators.
//
// Chunk-granularity allocations (one shared_ptr control block per *parked
// chunk*) are explicitly allowed: the guarantee is per record and per
// event, where the old code paid a vector regrowth per chunk per partition.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/gas.h"
#include "core/partition.h"
#include "core/record_arena.h"
#include "core/record_binner.h"
#include "core/update_chunk_view.h"
#include "graph/types.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "util/rng.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  ++g_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

// Replace every global allocation entry point. posix_memalign-backed
// pointers free with free(), so one delete path serves both.
void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace chaos {
namespace {

// Runs `fn` and returns how many heap allocations it performed.
template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAllocTest, CalendarPushPopAllocFree) {
  EventQueue q;
  Rng rng(17);
  // Warm: same time values the measurement phase will use, so the calendar
  // bucket vectors retain the needed capacity.
  std::vector<TimeNs> times;
  times.reserve(4096);
  TimeNs now = 0;
  for (int i = 0; i < 4096; ++i) {
    now += static_cast<TimeNs>(rng.Below(5000));
    times.push_back(now);
  }
  for (const TimeNs t : times) {
    q.Push(t, [] {});
  }
  while (!q.empty()) {
    q.Pop();
  }
  // Steady state: identical stream again — zero heap allocations for both
  // the push and the pop side (EventFn capture is inline, containers keep
  // their capacity, no calendar rebuild below the growth threshold).
  const uint64_t push_allocs = CountAllocs([&] {
    for (const TimeNs t : times) {
      q.Push(t, [] {});
    }
  });
  EXPECT_EQ(push_allocs, 0u);
  const uint64_t pop_allocs = CountAllocs([&] {
    while (!q.empty()) {
      q.Pop();
    }
  });
  EXPECT_EQ(pop_allocs, 0u);
}

TEST(HotPathAllocTest, InterleavedPushPopAllocFree) {
  // The simulator's actual access pattern: pop one, push a few, forever.
  EventQueue q;
  Rng warm_rng(3);
  TimeNs now = 0;
  auto step = [&](Rng* rng) {
    for (int i = 0; i < 3; ++i) {
      q.Push(now + static_cast<TimeNs>(rng->Below(10'000)), [] {});
    }
    now = q.Pop().time;
    now = q.Pop().time;
    now = q.Pop().time;
  };
  for (int round = 0; round < 2000; ++round) {
    step(&warm_rng);  // warm: grows containers and calendar buckets
  }
  // Replay the warm schedule exactly (same rng stream, same time values,
  // so the same per-bucket occupancy peaks): the queue drained to empty,
  // so the first measured push re-anchors the calendar window via the
  // sole-event jump and the rest follows the warmed path.
  now = 0;
  Rng rng(3);
  const uint64_t allocs = CountAllocs([&] {
    for (int round = 0; round < 2000; ++round) {
      step(&rng);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

// Idles the simulator to the next 2^20 ns boundary. The calendar rotation
// (pow2 bucket width x pow2 bucket count) divides 2^20 ns at the default
// geometry, so a round started there lands its events in the same buckets
// as every earlier round and finds their vectors already grown.
void AlignRound(Simulator* sim) {
  constexpr TimeNs kPeriod = TimeNs{1} << 20;
  sim->PostAt((sim->now() / kPeriod + 1) * kPeriod, [] {});
  sim->Run();
}

// A remote RPC round trip: Call on machine 0, the request through machine
// 0's uplink and machine 1's downlink into machine 1's control mailbox
// (SimQueue::Pop), PostReply back through both NICs into the pending call.
// Frames come from the frame freelist, bodies are variant alternatives and
// the call sits in an RPC slot, so once warm nothing allocates.
TEST(HotPathAllocTest, WarmRemoteRpcRoundTripAllocFree) {
  Simulator sim;
  Network net(&sim, 2, NetworkConfig::FortyGigE());
  MessageBus bus(&sim, &net);
  uint64_t served = 0;
  uint64_t answered = 0;
  const auto round_trips = [&](int calls) {
    AlignRound(&sim);
    sim.Spawn([](MessageBus* bus, int calls, uint64_t* served) -> Task<> {
      for (int i = 0; i < calls; ++i) {
        Message req = co_await bus->Inbox(1, kControlService).Pop();
        AccumPullReq body = req.As<AccumPullReq>();
        ++body.superstep;
        bus->PostReply(req, kAccumPullReq, kControlMsgBytes, body);
        ++*served;
      }
    }(&bus, calls, &served));
    for (int i = 0; i < calls; ++i) {
      sim.Spawn([](MessageBus* bus, int i, uint64_t* answered) -> Task<> {
        Message req;
        req.src = 0;
        req.dst = 1;
        req.service = kControlService;
        req.type = kAccumPullReq;
        req.wire_bytes = kControlMsgBytes;
        AccumPullReq body;
        body.partition = static_cast<PartitionId>(i);
        req.body = body;
        Message resp = co_await bus->Call(std::move(req));
        CHAOS_CHECK_EQ(resp.As<AccumPullReq>().superstep, 1u);
        ++*answered;
      }(&bus, i, &answered));
    }
    sim.Run();
  };
  round_trips(8);  // warm: frames, RPC slots, mailbox ring, sleeper slots
  round_trips(8);
  const uint64_t allocs = CountAllocs([&] { round_trips(8); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(served, 24u);
  EXPECT_EQ(answered, 24u);
  EXPECT_EQ(sim.live_tasks(), 0u);
}

// Sleeping FifoResource requests: each of 6 queued requests sleeps until
// its projected completion, and a SetRate mid-queue wakes them all to
// re-project. Wake state lives in reused generation slots.
TEST(HotPathAllocTest, WarmFifoResourceSleepersAllocFree) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  uint64_t done = 0;
  const auto burst = [&] {
    AlignRound(&sim);
    for (int i = 0; i < 6; ++i) {
      sim.Spawn([](FifoResource* dev, uint64_t* done) -> Task<> {
        co_await dev->Acquire(1000);
        ++*done;
      }(&dev, &done));
    }
    sim.PostAt(sim.now() + 2500, [&dev] { dev.SetRate(0.5); });
    sim.PostAt(sim.now() + 4000, [&dev] { dev.SetRate(1.0); });
    CHAOS_CHECK_GE(dev.queue_length(), 4u);
    sim.Run();
  };
  burst();
  burst();
  const uint64_t allocs = CountAllocs(burst);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(done, 18u);
}

// A CondEvent wait/notify cycle keeps its waiter vector's capacity.
TEST(HotPathAllocTest, WarmCondEventCycleAllocFree) {
  Simulator sim;
  CondEvent cond(&sim);
  uint64_t woken = 0;
  const auto cycle = [&] {
    AlignRound(&sim);
    for (int i = 0; i < 5; ++i) {
      sim.Spawn([](CondEvent* cond, uint64_t* woken) -> Task<> {
        co_await cond->Wait();
        ++*woken;
      }(&cond, &woken));
    }
    cond.NotifyAll();
    sim.Run();
  };
  cycle();
  cycle();
  const uint64_t allocs = CountAllocs(cycle);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(woken, 15u);
}

TEST(HotPathAllocTest, SoaBinnerAddWithinBlockAllocFree) {
  auto parts = Partitioning::Compute(4096, 4, 16, 16 << 10);
  RecordArena arena;
  RecordBinner binner(&parts, RecordBinner::Format::kEdgeSoA, /*record_wire_bytes=*/16,
                      /*chunk_bytes=*/1 << 10, &arena);
  const Edge e{1, 2, 1.0f, 0};
  for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
    for (int i = 0; i < 64; ++i) {
      binner.Add(p, e);
    }
  }
  while (binner.HasPending()) {
    binner.PopPendingForTest();
  }
  const uint64_t allocs = CountAllocs([&] {
    for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
      for (int i = 0; i < 63; ++i) {
        binner.Add(p, e);
      }
    }
  });
  EXPECT_EQ(allocs, 0u);
}

// One warmed gather/apply update cycle, end to end: staged SoA AddUpdates
// (the apply side's re-binning), then a full SoA scan of a parked update
// chunk through UpdateChunkView plus the wire sizer (the gather side and
// the combined send-size computation) — all allocation-free per record.
TEST(HotPathAllocTest, UpdateSoaBinAndScanCycleAllocFree) {
  auto parts = Partitioning::Compute(4096, 4, 16, 16 << 10);
  RecordArena arena;
  // 12-byte wire updates, 768-byte chunks -> 64 per chunk.
  RecordBinner binner(&parts, RecordBinner::Format::kUpdateSoA, /*record_wire_bytes=*/12,
                      /*chunk_bytes=*/768, &arena, /*update_value_bytes=*/sizeof(float));
  // Warm: park one chunk per partition; keep one parked chunk to scan and
  // let the rest return their blocks to the arena freelist.
  for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
    for (int i = 0; i < 64; ++i) {
      binner.AddUpdate(p, parts.Base(p) + static_cast<VertexId>(i), 1.0f);
    }
  }
  Chunk scanned;
  while (binner.HasPending()) {
    scanned = binner.PopPendingForTest().second;
  }
  // `scanned` pins one block, so warm a second round to put a full set of
  // fill blocks back on the freelist before measuring.
  for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
    for (int i = 0; i < 64; ++i) {
      binner.AddUpdate(p, parts.Base(p) + static_cast<VertexId>(i), 1.0f);
    }
  }
  while (binner.HasPending()) {
    binner.PopPendingForTest();
  }
  float sink = 0.0f;
  const uint64_t allocs = CountAllocs([&] {
    for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
      for (int i = 0; i < 63; ++i) {  // 63: within-block, no park
        binner.AddUpdate(p, parts.Base(p) + static_cast<VertexId>(i), 2.0f);
      }
    }
    const UpdateChunkView view(scanned, sizeof(float));
    const VertexId* dst = view.dst();
    const float* value = view.values_as<float>();
    UpdateWireSizer sizer;
    for (uint32_t i = 0; i < view.size(); ++i) {
      sink += value[i] + static_cast<float>(dst[i] & 1);
      sizer.Add(dst[i]);
    }
    sink += static_cast<float>(sizer.PackedWireBytes(12, sizeof(float)));
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(sink, 0.0f);
  EXPECT_FALSE(binner.HasPending());
}

// The counting operators themselves must be live (otherwise the zero
// deltas above would be vacuously true).
TEST(HotPathAllocTest, CounterObservesAllocations) {
  const uint64_t allocs = CountAllocs([] {
    auto* p = new int(7);
    delete p;
    std::vector<uint8_t> v(1 << 16);
    (void)v;
  });
  EXPECT_GE(allocs, 2u);
}

}  // namespace
}  // namespace chaos
