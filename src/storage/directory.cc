#include "storage/directory.h"

#include "storage/storage_engine.h"

#include <utility>

namespace chaos {

DirectoryServer::DirectoryServer(Simulator* sim, MessageBus* bus, MachineId home, int machines,
                                 uint64_t seed, TimeNs lookup_cost)
    : sim_(sim),
      bus_(bus),
      home_(home),
      machines_(machines),
      rng_(HashCombine(seed, 0xd12ec7031ULL)),
      cpu_(sim, "directory-cpu") {
  lookup_cost_ = lookup_cost;
}

void DirectoryServer::Start() {
  CHAOS_CHECK(!started_);
  started_ = true;
  sim_->Spawn(Serve());
}

void DirectoryServer::HostRecord(const SetId& set, uint64_t index, MachineId engine) {
  Entry& entry = entries_[set];
  entry.locations.emplace_back(engine, index);
  if (index >= entry.next_index) {
    entry.next_index = index + 1;
  }
}

Task<> DirectoryServer::Serve() {
  SimQueue<Message>& inbox = bus_->Inbox(home_, kDirectoryService);
  while (true) {
    Message m = co_await inbox.Pop();
    if (m.type == kDirShutdown) {
      co_return;
    }
    ++lookups_;
    co_await cpu_.Acquire(lookup_cost_);
    switch (m.type) {
      case kDirAllocReq: {
        const auto& req = m.As<DirAllocReq>();
        Entry& entry = entries_[req.set];
        DirAllocResp resp;
        resp.engine = static_cast<MachineId>(rng_.Below(static_cast<uint64_t>(machines_)));
        resp.index = entry.next_index++;
        entry.locations.emplace_back(resp.engine, resp.index);
        bus_->PostReply(m, kDirAllocResp, kControlMsgBytes, resp);
        break;
      }
      case kDirNextReq: {
        const auto& req = m.As<DirNextReq>();
        DirNextResp resp;
        auto it = entries_.find(req.set);
        if (it != entries_.end()) {
          Entry& entry = it->second;
          if (entry.epoch != req.epoch) {
            entry.epoch = req.epoch;
            entry.cursor = 0;
          }
          if (entry.cursor < entry.locations.size()) {
            const auto& [engine, index] = entry.locations[entry.cursor++];
            resp.ok = true;
            resp.engine = engine;
            resp.index = index;
          }
        }
        bus_->PostReply(m, kDirNextResp, kControlMsgBytes, resp);
        break;
      }
      case kDirForgetReq: {
        const auto& req = m.As<DirForgetReq>();
        entries_.erase(req.set);
        bus_->PostReply(m, kDirForgetResp, kControlMsgBytes);
        break;
      }
      default:
        CHAOS_CHECK_MSG(false, "unknown directory message type " + std::to_string(m.type));
    }
  }
}

}  // namespace chaos
