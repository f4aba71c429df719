// Tests for the storage engine: serve-once-per-epoch semantics, epoch reset,
// indexed vertex chunks, remaining-bytes (D estimate), deletion, placement
// uniformity, file spill, and the centralized directory.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "storage/chunk.h"
#include "storage/directory.h"
#include "storage/storage_engine.h"
#include "util/rng.h"

namespace chaos {
namespace {

NetworkConfig FastNet() {
  NetworkConfig c;
  c.nic_bandwidth_bps = 1e9;
  c.one_way_latency = 100;
  c.local_latency = 10;
  c.model_incast = false;
  return c;
}

StorageConfig FastStorage() {
  StorageConfig c;
  c.bandwidth_bps = 1e9;
  c.access_latency = 50;
  c.chunk_bytes = 1024;
  return c;
}

struct Rig {
  Simulator sim;
  Network net;
  MessageBus bus;
  std::vector<std::unique_ptr<StorageEngine>> engines;

  explicit Rig(int machines, StorageConfig sc = FastStorage())
      : net(&sim, machines, FastNet()), bus(&sim, &net) {
    for (MachineId m = 0; m < machines; ++m) {
      engines.push_back(std::make_unique<StorageEngine>(&sim, &bus, m, sc));
      engines.back()->Start();
    }
  }

  void Shutdown() {
    for (auto& e : engines) {
      Message m;
      m.src = 0;
      m.dst = e->machine();
      m.service = kStorageService;
      m.type = kStorageShutdown;
      m.wire_bytes = kControlMsgBytes;
      bus.PostSend(std::move(m));
    }
  }
};

Chunk IntChunk(uint32_t index, std::vector<int> values, uint64_t model_bytes = 1000) {
  return MakeChunk<int>(index, model_bytes, std::move(values));
}

Message ReadReq(MachineId src, MachineId dst, SetId set, uint64_t epoch) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.service = kStorageService;
  m.type = kReadChunkReq;
  m.wire_bytes = kControlMsgBytes;
  m.body = ReadChunkReq{set, epoch};
  return m;
}

Message WriteReq(MachineId src, MachineId dst, SetId set, Chunk chunk) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.service = kStorageService;
  m.type = kWriteChunkReq;
  m.wire_bytes = chunk.model_bytes + kControlMsgBytes;
  m.body = WriteChunkReq{set, std::move(chunk)};
  return m;
}

// ------------------------------------------------------------------ chunks

TEST(ChunkTest, MakeAndViewRoundTrip) {
  auto c = IntChunk(3, {1, 2, 3, 4});
  EXPECT_EQ(c.index, 3u);
  EXPECT_EQ(c.count, 4u);
  EXPECT_EQ(c.payload_bytes, 4 * sizeof(int));
  auto span = ChunkSpan<int>(c);
  ASSERT_EQ(span.size(), 4u);
  EXPECT_EQ(span[0], 1);
  EXPECT_EQ(span[3], 4);
}

TEST(ChunkTest, EmptyChunkHasEmptySpan) {
  auto c = MakeChunk<int>(0, 0, {});
  EXPECT_TRUE(ChunkSpan<int>(c).empty());
}

TEST(ChunkTest, SharedPayloadSurvivesCopies) {
  auto c = IntChunk(0, {7});
  Chunk copy = c;
  c.data.reset();
  EXPECT_EQ(ChunkSpan<int>(copy)[0], 7);
}

TEST(ChunkTest, UpdatesParityAlternates) {
  EXPECT_EQ(UpdatesFor(0), SetKind::kUpdatesEven);
  EXPECT_EQ(UpdatesFor(1), SetKind::kUpdatesOdd);
  EXPECT_EQ(UpdatesFor(2), SetKind::kUpdatesEven);
}

TEST(ChunkTest, SetIdHashAndNames) {
  SetId a{1, SetKind::kEdges};
  SetId b{1, SetKind::kEdges};
  SetId c{2, SetKind::kEdges};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_NE(SetIdHash{}(a), SetIdHash{}(c));
  EXPECT_EQ(SetIdName(a), "edges/p1");
}

// ------------------------------------------------------------------ engine

TEST(StorageEngineTest, ServeOncePerEpoch) {
  Rig rig(1);
  const SetId set{0, SetKind::kEdges};
  for (uint32_t i = 0; i < 5; ++i) {
    rig.engines[0]->HostAddChunk(set, IntChunk(i, {static_cast<int>(i)}));
  }
  std::vector<int> got;
  rig.sim.Spawn([](Rig* rig, SetId set, std::vector<int>* got) -> Task<> {
    while (true) {
      Message resp = co_await rig->bus.Call(ReadReq(0, 0, set, /*epoch=*/1));
      const auto& r = resp.As<ReadChunkResp>();
      if (!r.ok) {
        break;
      }
      got->push_back(ChunkSpan<int>(r.chunk)[0]);
    }
    rig->Shutdown();
  }(&rig, set, &got));
  rig.sim.Run();
  EXPECT_EQ(rig.sim.live_tasks(), 0u);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rig.engines[0]->chunks_served(), 5u);
  EXPECT_EQ(rig.engines[0]->empty_responses(), 1u);
}

TEST(StorageEngineTest, NewEpochResetsCursor) {
  Rig rig(1);
  const SetId set{0, SetKind::kEdges};
  rig.engines[0]->HostAddChunk(set, IntChunk(0, {42}));
  int reads = 0;
  rig.sim.Spawn([](Rig* rig, SetId set, int* reads) -> Task<> {
    for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
      Message resp = co_await rig->bus.Call(ReadReq(0, 0, set, epoch));
      const auto& r = resp.As<ReadChunkResp>();
      CHAOS_CHECK(r.ok);
      CHAOS_CHECK_EQ(ChunkSpan<int>(r.chunk)[0], 42);
      ++*reads;
      // Second read within the same epoch must be empty.
      Message resp2 = co_await rig->bus.Call(ReadReq(0, 0, set, epoch));
      CHAOS_CHECK(!resp2.As<ReadChunkResp>().ok);
    }
    rig->Shutdown();
  }(&rig, set, &reads));
  rig.sim.Run();
  EXPECT_EQ(reads, 3);
}

TEST(StorageEngineTest, MissingSetReturnsEmpty) {
  Rig rig(1);
  rig.sim.Spawn([](Rig* rig) -> Task<> {
    Message resp = co_await rig->bus.Call(ReadReq(0, 0, SetId{9, SetKind::kEdges}, 1));
    CHAOS_CHECK(!resp.As<ReadChunkResp>().ok);
    rig->Shutdown();
  }(&rig));
  rig.sim.Run();
  EXPECT_EQ(rig.engines[0]->empty_responses(), 1u);
}

TEST(StorageEngineTest, WriteThenReadBack) {
  Rig rig(2);
  const SetId set{3, SetKind::kUpdatesEven};
  rig.sim.Spawn([](Rig* rig, SetId set) -> Task<> {
    std::vector<int> payload(3);
    payload[0] = 5;
    payload[1] = 6;
    payload[2] = 7;
    Message ack = co_await rig->bus.Call(WriteReq(0, 1, set, IntChunk(0, std::move(payload))));
    CHAOS_CHECK_EQ(ack.type, static_cast<uint32_t>(kWriteAck));
    Message resp = co_await rig->bus.Call(ReadReq(0, 1, set, 0));
    const auto& r = resp.As<ReadChunkResp>();
    CHAOS_CHECK(r.ok);
    auto span = ChunkSpan<int>(r.chunk);
    CHAOS_CHECK_EQ(span.size(), 3u);
    CHAOS_CHECK_EQ(span[2], 7);
    rig->Shutdown();
  }(&rig, set));
  rig.sim.Run();
  EXPECT_EQ(rig.engines[1]->bytes_written(), 1000u);
  EXPECT_EQ(rig.engines[1]->bytes_read(), 1000u);
}

TEST(StorageEngineTest, UpdatePayloadFreedAfterServe) {
  Rig rig(1);
  const SetId set{0, SetKind::kUpdatesEven};
  rig.engines[0]->HostAddChunk(set, IntChunk(0, {1}));
  rig.sim.Spawn([](Rig* rig, SetId set) -> Task<> {
    Message resp = co_await rig->bus.Call(ReadReq(0, 0, set, 0));
    CHAOS_CHECK(resp.As<ReadChunkResp>().ok);
    rig->Shutdown();
  }(&rig, set));
  rig.sim.Run();
  const auto* chunks = rig.engines[0]->HostGetSet(set);
  ASSERT_NE(chunks, nullptr);
  EXPECT_EQ((*chunks)[0].data, nullptr);  // payload released
}

TEST(StorageEngineTest, EdgePayloadRetainedAfterServe) {
  Rig rig(1);
  const SetId set{0, SetKind::kEdges};
  rig.engines[0]->HostAddChunk(set, IntChunk(0, {1}));
  rig.sim.Spawn([](Rig* rig, SetId set) -> Task<> {
    Message resp = co_await rig->bus.Call(ReadReq(0, 0, set, 0));
    CHAOS_CHECK(resp.As<ReadChunkResp>().ok);
    rig->Shutdown();
  }(&rig, set));
  rig.sim.Run();
  EXPECT_NE((*rig.engines[0]->HostGetSet(set))[0].data, nullptr);
}

TEST(StorageEngineTest, IndexedReadAndOverwrite) {
  Rig rig(1);
  const SetId set{0, SetKind::kVertices};
  rig.engines[0]->HostAddChunk(set, IntChunk(7, {100}));
  rig.sim.Spawn([](Rig* rig, SetId set) -> Task<> {
    // Read chunk #7.
    Message m;
    m.src = 0;
    m.dst = 0;
    m.service = kStorageService;
    m.type = kReadIndexedReq;
    m.wire_bytes = kControlMsgBytes;
    m.body = ReadIndexedReq{set, 7, false, 0};
    Message resp = co_await rig->bus.Call(std::move(m));
    const auto& r = resp.As<ReadChunkResp>();
    CHAOS_CHECK(r.ok);
    CHAOS_CHECK_EQ(ChunkSpan<int>(r.chunk)[0], 100);
    // Overwrite chunk #7 and read again.
    std::vector<int> payload(1, 200);
    (void)co_await rig->bus.Call(WriteReq(0, 0, set, IntChunk(7, std::move(payload))));
    Message m2;
    m2.src = 0;
    m2.dst = 0;
    m2.service = kStorageService;
    m2.type = kReadIndexedReq;
    m2.wire_bytes = kControlMsgBytes;
    m2.body = ReadIndexedReq{set, 7, false, 0};
    Message resp2 = co_await rig->bus.Call(std::move(m2));
    CHAOS_CHECK_EQ(ChunkSpan<int>(resp2.As<ReadChunkResp>().chunk)[0], 200);
    rig->Shutdown();
  }(&rig, set));
  rig.sim.Run();
  EXPECT_EQ(rig.engines[0]->NumChunks(set), 1u);  // overwrite, not append
}

TEST(StorageEngineTest, RemainingBytesTracksConsumption) {
  Rig rig(1);
  const SetId set{0, SetKind::kEdges};
  for (uint32_t i = 0; i < 4; ++i) {
    rig.engines[0]->HostAddChunk(set, IntChunk(i, {1}, 250));
  }
  EXPECT_EQ(rig.engines[0]->RemainingBytes(set, 1), 1000u);
  rig.sim.Spawn([](Rig* rig, SetId set) -> Task<> {
    (void)co_await rig->bus.Call(ReadReq(0, 0, set, 1));
    CHAOS_CHECK_EQ(rig->engines[0]->RemainingBytes(set, 1), 750u);
    (void)co_await rig->bus.Call(ReadReq(0, 0, set, 1));
    CHAOS_CHECK_EQ(rig->engines[0]->RemainingBytes(set, 1), 500u);
    // A fresh epoch sees the full size again.
    CHAOS_CHECK_EQ(rig->engines[0]->RemainingBytes(set, 2), 1000u);
    rig->Shutdown();
  }(&rig, set));
  rig.sim.Run();
}

TEST(StorageEngineTest, DeleteSetRemovesData) {
  Rig rig(1);
  const SetId set{0, SetKind::kUpdatesOdd};
  rig.engines[0]->HostAddChunk(set, IntChunk(0, {1}));
  rig.sim.Spawn([](Rig* rig, SetId set) -> Task<> {
    Message m;
    m.src = 0;
    m.dst = 0;
    m.service = kStorageService;
    m.type = kDeleteSetReq;
    m.wire_bytes = kControlMsgBytes;
    m.body = DeleteSetReq{set};
    Message ack = co_await rig->bus.Call(std::move(m));
    CHAOS_CHECK_EQ(ack.type, static_cast<uint32_t>(kDeleteAck));
    Message resp = co_await rig->bus.Call(ReadReq(0, 0, set, 5));
    CHAOS_CHECK(!resp.As<ReadChunkResp>().ok);
    rig->Shutdown();
  }(&rig, set));
  rig.sim.Run();
  EXPECT_EQ(rig.engines[0]->NumChunks(set), 0u);
}

// Property: N concurrent readers draining one set see every chunk exactly
// once, regardless of interleaving — the foundation of sync-free stealing.
TEST(StorageEngineTest, PropertyConcurrentReadersDisjointChunks) {
  Rig rig(4);
  const SetId set{0, SetKind::kEdges};
  constexpr int kChunks = 64;
  for (uint32_t i = 0; i < kChunks; ++i) {
    rig.engines[2]->HostAddChunk(set, IntChunk(i, {static_cast<int>(i)}));
  }
  std::vector<int> seen;
  int finished = 0;
  for (MachineId reader = 0; reader < 4; ++reader) {
    rig.sim.Spawn([](Rig* rig, SetId set, MachineId me, std::vector<int>* seen,
                     int* finished) -> Task<> {
      while (true) {
        Message resp = co_await rig->bus.Call(ReadReq(me, 2, set, 1));
        const auto& r = resp.As<ReadChunkResp>();
        if (!r.ok) {
          break;
        }
        seen->push_back(ChunkSpan<int>(r.chunk)[0]);
      }
      if (++*finished == 4) {
        rig->Shutdown();
      }
    }(&rig, set, reader, &seen, &finished));
  }
  rig.sim.Run();
  ASSERT_EQ(seen.size(), static_cast<size_t>(kChunks));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kChunks; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], i);
  }
}

TEST(StorageEngineTest, DeviceChargesLatencyPlusBandwidth) {
  Rig rig(1);
  const SetId set{0, SetKind::kEdges};
  rig.engines[0]->HostAddChunk(set, IntChunk(0, {1}, /*model_bytes=*/1000));
  rig.sim.Spawn([](Rig* rig, SetId set) -> Task<> {
    (void)co_await rig->bus.Call(ReadReq(0, 0, set, 1));
    rig->Shutdown();
  }(&rig, set));
  rig.sim.Run();
  // access latency 50 + 1000 B at 1 GB/s (1000 ns) = 1050 ns busy.
  EXPECT_EQ(rig.engines[0]->device().total_busy(), 1050);
}

TEST(StorageEngineTest, HostSetListing) {
  Rig rig(1);
  rig.engines[0]->HostAddChunk(SetId{0, SetKind::kEdges}, IntChunk(0, {1}));
  rig.engines[0]->HostAddChunk(SetId{1, SetKind::kVertices}, IntChunk(0, {2}));
  EXPECT_EQ(rig.engines[0]->HostListSets().size(), 2u);
  rig.engines[0]->HostDeleteSet(SetId{0, SetKind::kEdges});
  EXPECT_EQ(rig.engines[0]->HostListSets().size(), 1u);
  rig.Shutdown();
  rig.sim.Run();
}

// -------------------------------------------------------------- placement

TEST(PlacementTest, VertexChunkHomeDeterministic) {
  for (PartitionId p = 0; p < 8; ++p) {
    for (uint32_t c = 0; c < 8; ++c) {
      EXPECT_EQ(VertexChunkHome(p, c, 16), VertexChunkHome(p, c, 16));
      EXPECT_LT(VertexChunkHome(p, c, 16), 16);
      EXPECT_GE(VertexChunkHome(p, c, 16), 0);
    }
  }
}

TEST(PlacementTest, VertexChunkHomeRoughlyUniform) {
  constexpr int kMachines = 8;
  std::vector<int> counts(kMachines, 0);
  for (PartitionId p = 0; p < 64; ++p) {
    for (uint32_t c = 0; c < 64; ++c) {
      counts[static_cast<size_t>(VertexChunkHome(p, c, kMachines))]++;
    }
  }
  const double expected = 64.0 * 64.0 / kMachines;
  for (const int count : counts) {
    EXPECT_NEAR(count, expected, expected * 0.2);
  }
}

// ------------------------------------------------------------------ spill

TEST(FileSpillTest, RoundTripThroughRealFiles) {
  const std::string dir = ::testing::TempDir() + "/chaos_spill_test";
  {
    StorageConfig sc = FastStorage();
    sc.spill_dir = dir;
    Rig rig(1, sc);
    const SetId set{0, SetKind::kEdges};
    rig.engines[0]->HostAddChunk(set, IntChunk(0, {11, 22, 33}));
    // Payload must have been dropped from memory and written to disk.
    EXPECT_EQ((*rig.engines[0]->HostGetSet(set))[0].data, nullptr);
    EXPECT_FALSE(std::filesystem::is_empty(dir));
    std::vector<int> got;
    rig.sim.Spawn([](Rig* rig, SetId set, std::vector<int>* got) -> Task<> {
      Message resp = co_await rig->bus.Call(ReadReq(0, 0, set, 1));
      const auto& r = resp.As<ReadChunkResp>();
      CHAOS_CHECK(r.ok);
      for (int v : ChunkSpan<int>(r.chunk)) {
        got->push_back(v);
      }
      rig->Shutdown();
    }(&rig, set, &got));
    rig.sim.Run();
    EXPECT_EQ(got, (std::vector<int>{11, 22, 33}));
  }
  // Engine destructor cleans the spill directory.
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// -------------------------------------------------------------- directory

TEST(DirectoryTest, AllocThenNextRoundTrip) {
  Rig rig(4);
  DirectoryServer dir(&rig.sim, &rig.bus, /*home=*/0, /*machines=*/4, /*seed=*/7);
  dir.Start();
  const SetId set{2, SetKind::kEdges};
  rig.sim.Spawn([](Rig* rig, DirectoryServer* dir, SetId set) -> Task<> {
    // Allocate 8 chunks through the directory and write them there.
    for (uint32_t i = 0; i < 8; ++i) {
      Message req;
      req.src = 1;
      req.dst = dir->home();
      req.service = kDirectoryService;
      req.type = kDirAllocReq;
      req.wire_bytes = kControlMsgBytes;
      req.body = DirAllocReq{set};
      Message resp = co_await rig->bus.Call(std::move(req));
      const auto& alloc = resp.As<DirAllocResp>();
      CHAOS_CHECK(alloc.engine >= 0 && alloc.engine < 4);
      std::vector<int> payload(1, static_cast<int>(i));
      (void)co_await rig->bus.Call(
          WriteReq(1, alloc.engine, set, IntChunk(i, std::move(payload))));
    }
    // Drain via directory-guided indexed reads.
    std::set<int> seen;
    while (true) {
      Message req;
      req.src = 1;
      req.dst = dir->home();
      req.service = kDirectoryService;
      req.type = kDirNextReq;
      req.wire_bytes = kControlMsgBytes;
      req.body = DirNextReq{set, 1};
      Message resp = co_await rig->bus.Call(std::move(req));
      const auto& next = resp.As<DirNextResp>();
      if (!next.ok) {
        break;
      }
      Message read;
      read.src = 1;
      read.dst = next.engine;
      read.service = kStorageService;
      read.type = kReadIndexedReq;
      read.wire_bytes = kControlMsgBytes;
      read.body = ReadIndexedReq{set, next.index, true, 1};
      Message rresp = co_await rig->bus.Call(std::move(read));
      const auto& r = rresp.As<ReadChunkResp>();
      CHAOS_CHECK(r.ok);
      seen.insert(ChunkSpan<int>(r.chunk)[0]);
    }
    CHAOS_CHECK_EQ(seen.size(), 8u);
    // Shut the directory down as well.
    Message stop;
    stop.src = 1;
    stop.dst = dir->home();
    stop.service = kDirectoryService;
    stop.type = kDirShutdown;
    stop.wire_bytes = kControlMsgBytes;
    rig->bus.PostSend(std::move(stop));
    rig->Shutdown();
  }(&rig, &dir, set));
  rig.sim.Run();
  EXPECT_EQ(rig.sim.live_tasks(), 0u);
  EXPECT_GE(dir.lookups(), 17u);  // 8 allocs + 9 next lookups
}

TEST(DirectoryTest, SerializesLookupsOnCpu) {
  Rig rig(2);
  DirectoryServer dir(&rig.sim, &rig.bus, 0, 2, 7, /*lookup_cost=*/1000);
  dir.Start();
  rig.sim.Spawn([](Rig* rig, DirectoryServer* /*dir*/) -> Task<> {
    for (uint32_t i = 0; i < 10; ++i) {
      Message req;
      req.src = 1;
      req.dst = 0;
      req.service = kDirectoryService;
      req.type = kDirAllocReq;
      req.wire_bytes = kControlMsgBytes;
      req.body = DirAllocReq{SetId{0, SetKind::kEdges}};
      (void)co_await rig->bus.Call(std::move(req));
    }
    Message stop;
    stop.src = 1;
    stop.dst = 0;
    stop.service = kDirectoryService;
    stop.type = kDirShutdown;
    stop.wire_bytes = kControlMsgBytes;
    rig->bus.PostSend(std::move(stop));
    rig->Shutdown();
  }(&rig, &dir));
  rig.sim.Run();
  EXPECT_EQ(dir.cpu().total_busy(), 10000);
}

}  // namespace
}  // namespace chaos
