// Tests for the simulated network: NIC FIFO charging, local bypass, RPC
// correlation, incast penalty and many-to-one serialization.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace chaos {
namespace {

NetworkConfig TestConfig() {
  NetworkConfig c;
  c.nic_bandwidth_bps = 1e9;  // 1 GB/s: 1 byte == 1 ns
  c.one_way_latency = 1000;
  c.local_latency = 10;
  c.incast_backlog_threshold = std::numeric_limits<TimeNs>::max();
  return c;
}

TEST(NetworkTest, Presets) {
  EXPECT_DOUBLE_EQ(NetworkConfig::FortyGigE().nic_bandwidth_bps, 5e9);
  EXPECT_DOUBLE_EQ(NetworkConfig::OneGigE().nic_bandwidth_bps, 1.25e8);
  EXPECT_EQ(
      NetworkConfig::FortyGigE().nic_bandwidth_bps / NetworkConfig::OneGigE().nic_bandwidth_bps,
      40.0);
}

TEST(NetworkTest, TxTimeMatchesBandwidth) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  EXPECT_EQ(net.TxTime(1000), 1000);  // 1 GB/s -> 1 ns/B
  EXPECT_EQ(net.TxTime(0), 0);
}

Message TestMessage(MachineId src, MachineId dst, uint64_t wire_bytes) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.service = kComputeService;
  m.wire_bytes = wire_bytes;
  return m;
}

// A sent message is a transit record, not a task: PostSend spawns nothing,
// and nothing is left in flight once the simulation drains.
TEST(MessageBusTest, RemoteDeliveryTiming) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  TimeNs delivered_at = -1;
  sim.Spawn([](MessageBus* bus, Simulator* s, TimeNs* out) -> Task<> {
    Message m = co_await bus->Inbox(1, kComputeService).Pop();
    CHAOS_CHECK_EQ(m.type, 7u);
    *out = s->now();
  }(&bus, &sim, &delivered_at));
  const uint64_t spawned = sim.spawned_tasks();
  Message m = TestMessage(0, 1, 500);
  m.type = 7;
  bus.PostSend(std::move(m));
  EXPECT_EQ(sim.spawned_tasks(), spawned);
  EXPECT_EQ(bus.in_flight(), 1u);
  sim.Run();
  // uplink 500ns + latency 1000ns + downlink 500ns = 2000ns.
  EXPECT_EQ(delivered_at, 2000);
  EXPECT_EQ(net.bytes_sent(0), 500u);
  EXPECT_EQ(net.bytes_received(1), 500u);
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST(MessageBusTest, LocalDeliverySkipsNic) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  TimeNs delivered_at = -1;
  sim.Spawn([](MessageBus* bus, Simulator* s, TimeNs* out) -> Task<> {
    (void)co_await bus->Inbox(0, kComputeService).Pop();
    *out = s->now();
  }(&bus, &sim, &delivered_at));
  bus.PostSend(TestMessage(0, 0, 1 << 20));  // size is irrelevant locally
  sim.Run();
  EXPECT_EQ(delivered_at, 10);  // local latency only
  EXPECT_EQ(net.bytes_sent(0), 0u);
  EXPECT_EQ(net.total_bytes(), 0u);
  EXPECT_EQ(bus.in_flight(), 0u);
}

// A message holds the sender's uplink for its transmission only: a
// zero-length uplink request queued behind it completes at 500, not after
// the propagation latency and the receiver's downlink.
TEST(MessageBusTest, SenderBlocksOnlyForUplink) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  TimeNs sender_resumed = -1;
  sim.Spawn([](MessageBus* bus, Network* net, Simulator* s, TimeNs* out) -> Task<> {
    bus->PostSend(TestMessage(0, 1, 500));
    co_await net->Uplink(0).Acquire(0);
    *out = s->now();
  }(&bus, &net, &sim, &sender_resumed));
  sim.Spawn([](MessageBus* bus) -> Task<> {
    (void)co_await bus->Inbox(1, kComputeService).Pop();
  }(&bus));
  sim.Run();
  EXPECT_EQ(sender_resumed, 500);  // uplink only, not latency+downlink
}

// Bodies are read through Message::As<T>(), which checks the variant
// alternative and, on a mismatch, aborts naming the message type and both
// body types.
TEST(MessageTest, AsChecksTheBodyType) {
  Message m = MakeMessage(3, 5, kStorageService, kReadChunkReq, kControlMsgBytes,
                          ReadChunkReq{SetId{7, SetKind::kEdges}, 2, false});
  EXPECT_EQ(m.As<ReadChunkReq>().set.partition, 7u);
  EXPECT_EQ(m.As<ReadChunkReq>().epoch, 2u);
  EXPECT_DEATH((void)m.As<ReadChunkResp>(),
               "kReadChunkReq \\(100, machine 3 -> 5\\) carries ReadChunkReq, expected "
               "ReadChunkResp");
  const Message ack = MakeMessage(0, 1, kStorageService, kWriteAck, kControlMsgBytes);
  EXPECT_DEATH((void)ack.As<DirNextResp>(), "kWriteAck .* carries no body, expected DirNextResp");
}

TEST(MessageBusTest, RpcRoundTrip) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  // Server echoes the requested partition + 1.
  sim.Spawn([](MessageBus* bus) -> Task<> {
    Message req = co_await bus->Inbox(1, kStorageService).Pop();
    const PartitionId v = req.As<AccumPullReq>().partition;
    AccumPullReq reply;
    reply.partition = v + 1;
    bus->PostReply(req, 42, 100, reply);
  }(&bus));
  int got = 0;
  TimeNs finished = -1;
  const uint64_t spawned = sim.spawned_tasks() + 1;  // the caller below
  sim.Spawn([](MessageBus* bus, Simulator* s, int* got, TimeNs* finished) -> Task<> {
    Message req;
    req.src = 0;
    req.dst = 1;
    req.service = kStorageService;
    req.type = 1;
    req.wire_bytes = 100;
    AccumPullReq body;
    body.partition = 41;
    req.body = body;
    Message resp = co_await bus->Call(std::move(req));
    CHAOS_CHECK(resp.is_response);
    CHAOS_CHECK_EQ(resp.type, 42u);
    *got = static_cast<int>(resp.As<AccumPullReq>().partition);
    *finished = s->now();
  }(&bus, &sim, &got, &finished));
  EXPECT_EQ(bus.in_flight(), 1u);
  sim.Run();
  EXPECT_EQ(got, 42);
  // Request: 100 up + 1000 + 100 down = 1200. Reply likewise: 2400 total.
  EXPECT_EQ(finished, 2400);
  // Neither the call, its request nor the reply spawned a task.
  EXPECT_EQ(sim.spawned_tasks(), spawned);
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST(MessageBusTest, ManyConcurrentRpcsAllResolve) {
  Simulator sim;
  Network net(&sim, 4, TestConfig());
  MessageBus bus(&sim, &net);
  // Echo servers on machines 1..3.
  for (MachineId m = 1; m < 4; ++m) {
    sim.Spawn([](MessageBus* bus, MachineId me) -> Task<> {
      for (int i = 0; i < 50; ++i) {
        Message req = co_await bus->Inbox(me, kStorageService).Pop();
        bus->PostReply(req, req.type + 1000, 64, req.body);
      }
    }(&bus, m));
  }
  int completed = 0;
  for (int i = 0; i < 150; ++i) {
    const MachineId dst = static_cast<MachineId>(1 + i % 3);  // exactly 50 each
    sim.Spawn([](MessageBus* bus, MachineId dst, int tag, int* completed) -> Task<> {
      Message req;
      req.src = 0;
      req.dst = dst;
      req.service = kStorageService;
      req.type = static_cast<uint32_t>(tag);
      req.wire_bytes = 64;
      AccumPullReq body;
      body.partition = static_cast<PartitionId>(tag);
      req.body = body;
      Message resp = co_await bus->Call(std::move(req));
      CHAOS_CHECK_EQ(resp.As<AccumPullReq>().partition, static_cast<PartitionId>(tag));
      CHAOS_CHECK_EQ(resp.type, static_cast<uint32_t>(tag) + 1000);
      ++*completed;
    }(&bus, dst, i, &completed));
  }
  sim.Run();
  EXPECT_EQ(completed, 150);
  EXPECT_EQ(sim.live_tasks(), 0u);
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST(MessageBusTest, UplinkSerializesConcurrentSends) {
  Simulator sim;
  Network net(&sim, 3, TestConfig());
  MessageBus bus(&sim, &net);
  std::vector<TimeNs> deliveries;
  for (MachineId dst = 1; dst <= 2; ++dst) {
    sim.Spawn([](MessageBus* bus, Simulator* s, MachineId me, std::vector<TimeNs>* out)
                  -> Task<> {
      (void)co_await bus->Inbox(me, kComputeService).Pop();
      out->push_back(s->now());
    }(&bus, &sim, dst, &deliveries));
  }
  // Two 1000-byte messages from machine 0 to different destinations share
  // the single uplink: second delivery is pushed out by 1000ns.
  for (MachineId dst = 1; dst <= 2; ++dst) {
    Message m;
    m.src = 0;
    m.dst = dst;
    m.service = kComputeService;
    m.wire_bytes = 1000;
    bus.PostSend(std::move(m));
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  std::sort(deliveries.begin(), deliveries.end());
  EXPECT_EQ(deliveries[0], 1000 + 1000 + 1000);  // up + latency + down
  EXPECT_EQ(deliveries[1], 2000 + 1000 + 1000);  // queued behind first on uplink
}

TEST(MessageBusTest, IncastPenaltyTriggersOnBacklog) {
  NetworkConfig cfg = TestConfig();
  cfg.incast_backlog_threshold = 1500;
  cfg.incast_penalty = 100000;
  Simulator sim;
  Network net(&sim, 9, cfg);
  MessageBus bus(&sim, &net);
  int received = 0;
  sim.Spawn([](MessageBus* bus, int* received) -> Task<> {
    for (int i = 0; i < 8; ++i) {
      (void)co_await bus->Inbox(0, kComputeService).Pop();
      ++*received;
    }
  }(&bus, &received));
  // 8 senders each push 1000B to machine 0 simultaneously -> downlink backlog
  // exceeds 1500ns after the first two arrive.
  for (MachineId src = 1; src <= 8; ++src) {
    Message m;
    m.src = src;
    m.dst = 0;
    m.service = kComputeService;
    m.wire_bytes = 1000;
    bus.PostSend(std::move(m));
  }
  sim.Run();
  EXPECT_EQ(received, 8);
  EXPECT_GT(net.incast_events(), 0u);
}

TEST(MessageBusTest, NoIncastWhenDisabled) {
  Simulator sim;
  Network net(&sim, 9, TestConfig());
  MessageBus bus(&sim, &net);
  sim.Spawn([](MessageBus* bus) -> Task<> {
    for (int i = 0; i < 8; ++i) {
      (void)co_await bus->Inbox(0, kComputeService).Pop();
    }
  }(&bus));
  for (MachineId src = 1; src <= 8; ++src) {
    Message m;
    m.src = src;
    m.dst = 0;
    m.service = kComputeService;
    m.wire_bytes = 1000;
    bus.PostSend(std::move(m));
  }
  sim.Run();
  EXPECT_EQ(net.incast_events(), 0u);
}

TEST(MessageBusTest, DeliveredCountTracksMessages) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  MessageBus bus(&sim, &net);
  sim.Spawn([](MessageBus* bus) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      (void)co_await bus->Inbox(1, kControlService).Pop();
    }
  }(&bus));
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.service = kControlService;
    m.wire_bytes = 10;
    bus.PostSend(std::move(m));
  }
  sim.Run();
  EXPECT_EQ(bus.messages_delivered(), 5u);
}

// Regression for the 1B-edge regime: the per-link byte accumulators must be
// 64-bit. Fast-forward a link past 2^32 and check nothing wraps.
TEST(NetworkTest, ByteCountersSurvivePast32Bits) {
  Simulator sim;
  Network net(&sim, 2, TestConfig());
  const uint64_t step = 3ull << 30;  // 3 GiB per note
  for (int i = 0; i < 3; ++i) {
    net.NoteSent(0, step);
    net.NoteReceived(1, step);
  }
  EXPECT_EQ(net.bytes_sent(0), 9ull << 30);  // 9 GiB > 2^32
  EXPECT_EQ(net.bytes_received(1), 9ull << 30);
  EXPECT_EQ(net.total_bytes(), 9ull << 30);
  EXPECT_GT(net.total_bytes(), uint64_t{1} << 32);
}

}  // namespace
}  // namespace chaos
