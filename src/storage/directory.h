// Centralized chunk directory: the baseline design Chaos argues against
// (paper §10.1, Fig. 15).
//
// In directory mode, every chunk write first asks the directory which engine
// to place the chunk on, and every sequential-set read first asks the
// directory which (engine, chunk) to fetch. The directory runs on one
// machine behind a FIFO CPU resource, so it serializes all placement
// decisions — the central bottleneck whose cost Fig. 15 measures.
#ifndef CHAOS_STORAGE_DIRECTORY_H_
#define CHAOS_STORAGE_DIRECTORY_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/chunk.h"
#include "util/common.h"
#include "util/rng.h"

namespace chaos {

// Serves kDirAllocReq, kDirNextReq and kDirForgetReq until kDirShutdown
// (bodies in net/wire.h).
class DirectoryServer {
 public:
  DirectoryServer(Simulator* sim, MessageBus* bus, MachineId home, int machines, uint64_t seed,
                  TimeNs lookup_cost = 2 * kNsPerUs);

  void Start();

  // Host-side registration of chunks placed during (non-simulated) ingest.
  void HostRecord(const SetId& set, uint64_t index, MachineId engine);

  MachineId home() const { return home_; }
  uint64_t lookups() const { return lookups_; }
  FifoResource& cpu() { return cpu_; }

 private:
  struct Entry {
    std::vector<std::pair<MachineId, uint64_t>> locations;
    uint64_t next_index = 0;
    uint64_t epoch = std::numeric_limits<uint64_t>::max();
    size_t cursor = 0;
  };

  Task<> Serve();

  Simulator* sim_;
  MessageBus* bus_;
  MachineId home_;
  int machines_;
  Rng rng_;
  FifoResource cpu_;
  TimeNs lookup_cost_ = 2 * kNsPerUs;
  std::unordered_map<SetId, Entry, SetIdHash> entries_;
  uint64_t lookups_ = 0;
  bool started_ = false;
};

}  // namespace chaos

#endif  // CHAOS_STORAGE_DIRECTORY_H_
