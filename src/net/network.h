// Simulated cluster network: one NIC (uplink + downlink FIFO resource pair)
// per machine behind a full-bisection switch, plus a message bus with typed
// messages (net/wire.h) and RPC correlation.
//
// The full-bisection assumption mirrors the paper (§1, §7): the switch is
// never the bottleneck, only per-machine NICs are. An incast model adds a
// retransmission penalty when a downlink's backlog exceeds a buffer
// threshold; the paper observes this regime past the batching sweet spot
// (§10.1, Fig. 16).
#ifndef CHAOS_NET_NETWORK_H_
#define CHAOS_NET_NETWORK_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/wire.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/time.h"
#include "util/common.h"

namespace chaos {

struct NetworkConfig {
  double nic_bandwidth_bps = 5e9;            // bytes/sec; 40 GigE ~ 5 GB/s
  TimeNs one_way_latency = 50 * kNsPerUs;    // propagation + stack, one way
  TimeNs local_latency = 5 * kNsPerUs;       // same-machine IPC cost
  TimeNs incast_backlog_threshold = 500 * kNsPerUs;  // downlink backlog -> drops
  TimeNs incast_penalty = kNsPerMs;                  // retransmission delay

  // The paper's cluster: 40 GigE links, full bisection (§8).
  static NetworkConfig FortyGigE();
  // The slow-network experiment (§9.4, Fig. 12).
  static NetworkConfig OneGigE();
};

// Well-known message bus services (mailboxes) per machine.
enum Service : int {
  kStorageService = 0,
  kComputeService = 1,
  kControlService = 2,
  kDirectoryService = 3,
  kNumServices = 4,
};

struct Message {
  MachineId src = 0;
  MachineId dst = 0;
  int service = kStorageService;
  uint64_t rpc_id = 0;  // nonzero when part of an RPC exchange
  bool is_response = false;
  uint32_t type = 0;        // MessageType (net/wire.h)
  uint64_t wire_bytes = 0;  // modeled size on the wire
  MessageBody body;

  // The body as a T; aborts, naming the message type, when it holds another.
  template <typename T>
  T& As() {
    T* b = std::get_if<T>(&body);
    if (b == nullptr) [[unlikely]] {
      BodyMismatch(MessageBody(std::in_place_type<T>).index());
    }
    return *b;
  }
  template <typename T>
  const T& As() const {
    return const_cast<Message*>(this)->As<T>();
  }

 private:
  [[noreturn]] void BodyMismatch(size_t expected) const;
};

// A request or one-way message from `src` to the `service` mailbox of `dst`.
Message MakeMessage(MachineId src, MachineId dst, int service, uint32_t type,
                    uint64_t wire_bytes, MessageBody body = {});

class Network {
 public:
  Network(Simulator* sim, int machines, const NetworkConfig& config);

  // Time to push `bytes` through a NIC link. Every machine's NIC has the
  // configured speed; a degraded one is a FifoResource::SetRate fault on
  // its links.
  TimeNs TxTime(uint64_t bytes) const {
    return TransferTimeNs(bytes, config_.nic_bandwidth_bps);
  }

  FifoResource& Uplink(MachineId m) { return *links_[Index(m)].up; }
  FifoResource& Downlink(MachineId m) { return *links_[Index(m)].down; }

  const NetworkConfig& config() const { return config_; }
  int machines() const { return machines_; }
  Simulator* sim() const { return sim_; }
  // Allocation counter for the large-N regression tests: per-machine link
  // records only, O(machines) by construction — never per-pair state.
  size_t link_count() const { return links_.size(); }

  uint64_t bytes_sent(MachineId m) const { return links_[Index(m)].bytes_sent; }
  uint64_t bytes_received(MachineId m) const { return links_[Index(m)].bytes_received; }
  uint64_t total_bytes() const;
  uint64_t incast_events() const { return incast_events_; }

  // Accounting hooks used by the bus.
  void NoteSent(MachineId m, uint64_t bytes) { links_[Index(m)].bytes_sent += bytes; }
  void NoteReceived(MachineId m, uint64_t bytes) { links_[Index(m)].bytes_received += bytes; }
  void NoteIncast() { ++incast_events_; }

 private:
  struct Link {
    std::unique_ptr<FifoResource> up;
    std::unique_ptr<FifoResource> down;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
  };

  size_t Index(MachineId m) const {
    CHAOS_CHECK(m >= 0 && m < machines_);
    return static_cast<size_t>(m);
  }

  Simulator* sim_;
  int machines_;
  NetworkConfig config_;
  std::vector<Link> links_;
  uint64_t incast_events_ = 0;
};

// Message delivery and RPC correlation on top of Network.
//
// A message in flight is a transit record from the thread's frame pool
// (sim/frame_pool.h), not a coroutine. Callbacks move it along: a request
// on the sender's uplink, the propagation delay, a request on the
// receiver's downlink, then delivery to the destination mailbox (or to the
// pending RPC it answers). Same-machine messages skip the NIC and pay the
// local IPC latency only.
class MessageBus {
 public:
  MessageBus(Simulator* sim, Network* network);

  SimQueue<Message>& Inbox(MachineId machine, int service);

  // Fire-and-forget send. The sender does not wait, not even for its uplink.
  void PostSend(Message m);

  // Sends `request` and completes with the matched response.
  class [[nodiscard]] CallAwaiter;
  CallAwaiter Call(Message request);

  // Builds and sends the response for `request`. Fire-and-forget.
  void PostReply(const Message& request, uint32_t type, uint64_t wire_bytes,
                 MessageBody body = {});

  uint64_t messages_delivered() const { return delivered_; }
  // Messages sent and not yet delivered; 0 once a simulation has drained.
  uint64_t in_flight() const { return in_flight_; }
  // Allocation counter for the large-N regression tests: machines *
  // kNumServices mailboxes, O(machines) by construction.
  size_t inbox_count() const { return inboxes_.size(); }

 private:
  struct Transit;

  // An in-flight RPC. Its rpc id is (serial << 32) | slot index, so a
  // response finds its call without a lookup, and a stale or duplicate id
  // cannot match a reused slot (its serial differs).
  struct RpcSlot {
    uint64_t rpc_id = 0;  // 0 while the slot is free
    CallAwaiter* call = nullptr;
  };

  void Launch(Transit* t);
  void After(TimeNs delay, Transit* t, void (MessageBus::*step)(Transit*));
  void Receive(Transit* t);
  void Deliver(Transit* t);

  Simulator* sim_;
  Network* net_;
  std::vector<std::unique_ptr<SimQueue<Message>>> inboxes_;  // machine * kNumServices
  std::vector<RpcSlot> rpc_slots_;
  std::vector<uint32_t> free_rpc_slots_;
  uint64_t next_rpc_serial_ = 1;
  uint64_t delivered_ = 0;
  uint64_t in_flight_ = 0;
};

// The pending-call record of one RPC, kept in the caller's frame: its
// request until the call is sent, then the response's transit record once
// it lands.
class MessageBus::CallAwaiter {
 public:
  // The call's RPC slot holds the awaiter's address.
  CallAwaiter(const CallAwaiter&) = delete;
  CallAwaiter& operator=(const CallAwaiter&) = delete;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> caller);
  Message await_resume();

 private:
  friend class MessageBus;
  CallAwaiter(MessageBus* bus, Message request) : bus_(bus), request_(std::move(request)) {}

  MessageBus* bus_;
  Message request_;
  Transit* response_ = nullptr;
  std::coroutine_handle<> caller_;
};

}  // namespace chaos

#endif  // CHAOS_NET_NETWORK_H_
