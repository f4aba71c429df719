#include "net/network.h"

#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <variant>

#include "sim/frame_pool.h"

namespace chaos {
namespace {

const char* MessageTypeName(uint32_t type) {
  static constexpr std::pair<uint32_t, const char*> kNames[] = {
      {kReadChunkReq, "kReadChunkReq"},        {kReadChunkResp, "kReadChunkResp"},
      {kWriteChunkReq, "kWriteChunkReq"},      {kWriteAck, "kWriteAck"},
      {kReadIndexedReq, "kReadIndexedReq"},    {kDeleteSetReq, "kDeleteSetReq"},
      {kDeleteAck, "kDeleteAck"},              {kStorageShutdown, "kStorageShutdown"},
      {kDirAllocReq, "kDirAllocReq"},          {kDirAllocResp, "kDirAllocResp"},
      {kDirNextReq, "kDirNextReq"},            {kDirNextResp, "kDirNextResp"},
      {kDirForgetReq, "kDirForgetReq"},        {kDirForgetResp, "kDirForgetResp"},
      {kDirShutdown, "kDirShutdown"},          {kHelpProposalReq, "kHelpProposalReq"},
      {kHelpProposalResp, "kHelpProposalResp"}, {kAccumPullReq, "kAccumPullReq"},
      {kAccumPullResp, "kAccumPullResp"},      {kBarrierArrive, "kBarrierArrive"},
      {kBarrierRelease, "kBarrierRelease"},    {kControlShutdown, "kControlShutdown"},
  };
  for (const auto& [id, name] : kNames) {
    if (id == type) {
      return name;
    }
  }
  return "unknown";
}

const char* MessageBodyName(size_t index) {
  static constexpr const char* kNames[] = {
      "no body",          "ReadChunkReq",     "ReadChunkResp",
      "WriteChunkReq",    "ReadIndexedReq",   "DeleteSetReq",
      "DirAllocReq",      "DirAllocResp",     "DirNextReq",
      "DirNextResp",      "DirForgetReq",     "HelpProposalReq",
      "HelpProposalResp", "AccumPullReq",     "AccumPullResp",
      "BarrierArriveMsg", "BarrierReleaseMsg",
  };
  static_assert(std::size(kNames) == std::variant_size_v<MessageBody>);
  return index < std::size(kNames) ? kNames[index] : "invalid";
}

}  // namespace

void Message::BodyMismatch(size_t expected) const {
  CHAOS_CHECK_MSG(false, std::string("message ") + MessageTypeName(type) + " (" +
                             std::to_string(type) + ", machine " + std::to_string(src) +
                             " -> " + std::to_string(dst) + ") carries " +
                             MessageBodyName(body.index()) + ", expected " +
                             MessageBodyName(expected));
  std::abort();
}

Message MakeMessage(MachineId src, MachineId dst, int service, uint32_t type,
                    uint64_t wire_bytes, MessageBody body) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.service = service;
  m.type = type;
  m.wire_bytes = wire_bytes;
  m.body = std::move(body);
  return m;
}

NetworkConfig NetworkConfig::FortyGigE() {
  NetworkConfig c;
  c.nic_bandwidth_bps = 5e9;  // 40 Gbit/s
  c.one_way_latency = 50 * kNsPerUs;
  return c;
}

NetworkConfig NetworkConfig::OneGigE() {
  NetworkConfig c;
  c.nic_bandwidth_bps = 1.25e8;  // 1 Gbit/s
  c.one_way_latency = 50 * kNsPerUs;
  return c;
}

Network::Network(Simulator* sim, int machines, const NetworkConfig& config)
    : sim_(sim), machines_(machines), config_(config) {
  CHAOS_CHECK_GT(machines, 0);
  links_.resize(static_cast<size_t>(machines));
  for (int m = 0; m < machines; ++m) {
    links_[static_cast<size_t>(m)].up =
        std::make_unique<FifoResource>(sim, "nic-up-" + std::to_string(m));
    links_[static_cast<size_t>(m)].down =
        std::make_unique<FifoResource>(sim, "nic-down-" + std::to_string(m));
  }
}

uint64_t Network::total_bytes() const {
  uint64_t total = 0;
  for (const auto& link : links_) {
    total += link.bytes_sent;
  }
  return total;
}

MessageBus::MessageBus(Simulator* sim, Network* network) : sim_(sim), net_(network) {
  inboxes_.reserve(static_cast<size_t>(network->machines()) * kNumServices);
  for (int m = 0; m < network->machines(); ++m) {
    for (int s = 0; s < kNumServices; ++s) {
      inboxes_.push_back(std::make_unique<SimQueue<Message>>(sim));
    }
  }
}

SimQueue<Message>& MessageBus::Inbox(MachineId machine, int service) {
  CHAOS_CHECK(machine >= 0 && machine < net_->machines());
  CHAOS_CHECK(service >= 0 && service < kNumServices);
  return *inboxes_[static_cast<size_t>(machine) * kNumServices + static_cast<size_t>(service)];
}

// A message between send and delivery. It waits on one NIC request at a
// time, uplink then downlink, so one Request serves both.
struct MessageBus::Transit : FifoResource::Request, internal::PooledFrame {
  Transit(MessageBus* b, Message msg) : bus(b), m(std::move(msg)) {}
  // Sleeper slots and posted events hold the record's address.
  Transit(const Transit&) = delete;
  Transit& operator=(const Transit&) = delete;
  MessageBus* bus;
  Message m;
};

void MessageBus::PostSend(Message m) { Launch(new Transit(this, std::move(m))); }

void MessageBus::Launch(Transit* t) {
  const Message& m = t->m;
  CHAOS_CHECK(m.dst >= 0 && m.dst < net_->machines());
  ++in_flight_;
  if (m.src == m.dst) {
    // Same machine: no NIC involvement, just IPC latency.
    After(net_->config().local_latency, t, &MessageBus::Deliver);
    return;
  }
  net_->NoteSent(m.src, m.wire_bytes);
  // Off the sender's uplink, the message reaches the receiver's downlink
  // one propagation latency later.
  t->done = [](FifoResource::Request* r) {
    auto* t = static_cast<Transit*>(r);
    t->bus->After(t->bus->net_->config().one_way_latency, t, &MessageBus::Receive);
  };
  if (!net_->Uplink(m.src).Submit(t, net_->TxTime(m.wire_bytes))) {
    t->done(t);
  }
}

// As a coroutine's co_await Simulator::Delay would: at once for a delay of
// zero, else from an event posted `delay` ahead.
void MessageBus::After(TimeNs delay, Transit* t, void (MessageBus::*step)(Transit*)) {
  if (delay <= 0) {
    (this->*step)(t);
    return;
  }
  sim_->PostAt(sim_->now() + delay, [this, t, step] { (this->*step)(t); });
}

void MessageBus::Receive(Transit* t) {
  FifoResource& down = net_->Downlink(t->m.dst);
  TimeNs service = net_->TxTime(t->m.wire_bytes);
  const NetworkConfig& cfg = net_->config();
  if (down.Backlog(sim_->now()) > cfg.incast_backlog_threshold) {
    service += cfg.incast_penalty;
    net_->NoteIncast();
  }
  t->done = [](FifoResource::Request* r) {
    auto* t = static_cast<Transit*>(r);
    t->bus->net_->NoteReceived(t->m.dst, t->m.wire_bytes);
    t->bus->Deliver(t);
  };
  if (!down.Submit(t, service)) {
    t->done(t);
  }
}

void MessageBus::Deliver(Transit* t) {
  ++delivered_;
  --in_flight_;
  if (t->m.is_response) {
    const auto slot = static_cast<uint32_t>(t->m.rpc_id);
    CHAOS_CHECK_MSG(slot < rpc_slots_.size() && rpc_slots_[slot].rpc_id == t->m.rpc_id,
                    "response for unknown rpc_id " + std::to_string(t->m.rpc_id));
    CallAwaiter* call = rpc_slots_[slot].call;
    rpc_slots_[slot] = RpcSlot{};
    free_rpc_slots_.push_back(slot);
    call->response_ = t;
    sim_->Resume(call->caller_);
    return;
  }
  Inbox(t->m.dst, t->m.service).Push(std::move(t->m));
  delete t;
}

MessageBus::CallAwaiter MessageBus::Call(Message request) {
  return CallAwaiter(this, std::move(request));
}

void MessageBus::CallAwaiter::await_suspend(std::coroutine_handle<> caller) {
  caller_ = caller;
  CHAOS_CHECK_EQ(request_.rpc_id, 0u);
  CHAOS_CHECK(!request_.is_response);
  auto slot = static_cast<uint32_t>(bus_->rpc_slots_.size());
  if (bus_->free_rpc_slots_.empty()) {
    bus_->rpc_slots_.emplace_back();
  } else {
    slot = bus_->free_rpc_slots_.back();
    bus_->free_rpc_slots_.pop_back();
  }
  request_.rpc_id = (bus_->next_rpc_serial_++ << 32) | slot;
  bus_->rpc_slots_[slot] = RpcSlot{request_.rpc_id, this};
  bus_->Launch(new Transit(bus_, std::move(request_)));
}

Message MessageBus::CallAwaiter::await_resume() {
  CHAOS_CHECK(response_ != nullptr);
  Message response = std::move(response_->m);
  delete response_;
  return response;
}

void MessageBus::PostReply(const Message& request, uint32_t type, uint64_t wire_bytes,
                           MessageBody body) {
  CHAOS_CHECK_NE(request.rpc_id, 0u);
  Message response =
      MakeMessage(request.dst, request.src, request.service, type, wire_bytes, std::move(body));
  response.rpc_id = request.rpc_id;
  response.is_response = true;
  PostSend(std::move(response));
}

}  // namespace chaos
