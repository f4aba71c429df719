#include "net/network.h"

#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <variant>

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

void MessageBus::Deliver(Message m) {
  ++delivered_;
  if (m.is_response) {
    const auto slot = static_cast<uint32_t>(m.rpc_id);
    CHAOS_CHECK_MSG(slot < rpc_slots_.size() && rpc_slots_[slot].rpc_id == m.rpc_id,
                    "response for unknown rpc_id " + std::to_string(m.rpc_id));
    PendingCall* call = rpc_slots_[slot].call;
    rpc_slots_[slot] = RpcSlot{};
    free_rpc_slots_.push_back(slot);
    call->response = std::move(m);
    call->ready = true;
    if (call->waiter) {
      sim_->Resume(call->waiter);
    }
    return;
  }
  Inbox(m.dst, m.service).Push(std::move(m));
}

internal::DetachedTask MessageBus::FinishRemote(Message m, TimeNs extra_latency) {
  co_await sim_->Delay(extra_latency);
  FifoResource& down = net_->Downlink(m.dst);
  TimeNs service = net_->TxTime(m.wire_bytes);
  const NetworkConfig& cfg = net_->config();
  if (down.Backlog(sim_->now()) > cfg.incast_backlog_threshold) {
    service += cfg.incast_penalty;
    net_->NoteIncast();
  }
  co_await down.Acquire(service);
  net_->NoteReceived(m.dst, m.wire_bytes);
  Deliver(std::move(m));
}

Task<> MessageBus::Send(Message m) {
  CHAOS_CHECK(m.dst >= 0 && m.dst < net_->machines());
  if (m.src == m.dst) {
    // Same machine: no NIC involvement, just IPC latency.
    co_await sim_->Delay(net_->config().local_latency);
    Deliver(std::move(m));
    co_return;
  }
  net_->NoteSent(m.src, m.wire_bytes);
  co_await net_->Uplink(m.src).Acquire(net_->TxTime(m.wire_bytes));
  // Propagation and receiver-side work continue without blocking the sender.
  FinishRemote(std::move(m), net_->config().one_way_latency);
}

Task<Message> MessageBus::Call(Message request) {
  CHAOS_CHECK_EQ(request.rpc_id, 0u);
  CHAOS_CHECK(!request.is_response);
  auto slot = static_cast<uint32_t>(rpc_slots_.size());
  if (free_rpc_slots_.empty()) {
    rpc_slots_.emplace_back();
  } else {
    slot = free_rpc_slots_.back();
    free_rpc_slots_.pop_back();
  }
  request.rpc_id = (next_rpc_serial_++ << 32) | slot;
  PendingCall call;
  rpc_slots_[slot] = RpcSlot{request.rpc_id, &call};
  co_await Send(std::move(request));
  struct ResponseAwaiter {
    PendingCall* call;
    bool await_ready() const noexcept { return call->ready; }
    void await_suspend(std::coroutine_handle<> h) { call->waiter = h; }
    void await_resume() const noexcept {}
  };
  co_await ResponseAwaiter{&call};
  CHAOS_CHECK(call.ready);
  co_return std::move(call.response);
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
