#include "probe.h"

#include <map>
#include <memory_resource>

namespace e2e {

namespace {

constexpr uint64_t kTableWords = uint64_t{1} << 20;  // 8 MiB: past L2, within L3
constexpr int kMemorySteps = 1 << 17;
constexpr int kComputeSteps = 1 << 19;
constexpr int kTreeSteps = 1 << 13;
constexpr size_t kArenaBytes = size_t{1} << 20;  // room for every node kTreeSteps inserts make

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

SpeedProbe::SpeedProbe() : table_(kTableWords), arena_(kArenaBytes) {
  for (uint64_t i = 0; i < kTableWords; ++i) {
    table_[i] = Mix(i + 1);
  }
}

uint64_t SpeedProbe::Run() {
  // The addresses come from a counter, not from loaded values, so several
  // misses are in flight at once; the branch goes each way about half the
  // time.
  uint64_t acc = 0;
  for (int i = 0; i < kMemorySteps; ++i) {
    const uint64_t h = Mix(static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
    uint64_t& slot = table_[h & (kTableWords - 1)];
    const uint64_t v = slot;
    if (v & 1) {
      acc += v >> 3;
    } else {
      acc ^= v * 5;
    }
    slot = v + h;
  }
  for (int i = 0; i < kComputeSteps; ++i) {
    acc = Mix(acc + static_cast<uint64_t>(i));
  }
  // The map is built afresh in the same arena every call, so every call
  // does the same work on the same addresses.
  std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                            std::pmr::null_memory_resource());
  std::pmr::map<uint64_t, uint64_t> tree(&arena);
  for (int i = 0; i < kTreeSteps; ++i) {
    const auto key = static_cast<uint64_t>(i);
    tree.emplace(Mix(key), key);
    if (i % 2 == 1) {
      const auto victim = tree.lower_bound(Mix(key ^ 0x5bd1e995));
      if (victim != tree.end()) {
        acc += victim->second;
        tree.erase(victim);
      }
    }
  }
  return acc + tree.size();
}

}  // namespace e2e
