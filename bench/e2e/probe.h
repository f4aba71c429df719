// The benchmark's speed probe: a fixed piece of work whose CPU time tracks
// how fast the core runs at the moment (its clock, and what other tenants
// of a shared host take from its caches and pipeline).
//
// It is built as its own library with only this directory's flags, and it
// allocates only from its own arena, so a change to the chaos library, its
// build or its allocator cannot change the probe.
#ifndef CHAOS_BENCH_E2E_PROBE_H_
#define CHAOS_BENCH_E2E_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

class SpeedProbe {
 public:
  SpeedProbe();

  // Runs the probe once, about 4 ms on a 2 GHz Xeon, in three parts, each
  // like a part of the simulator's work:
  //   - read-modify-writes that miss the private caches, with
  //     data-dependent branches (the scans over chunks);
  //   - a dependent chain of hashing (arithmetic on the critical path);
  //   - building an ordered map of a few thousand nodes while erasing half
  //     as many (the event queue and message bookkeeping: pointer chasing,
  //     branches and node allocation).
  // Returns a value that depends on all of it, so none is elided.
  uint64_t Run();

 private:
  std::vector<uint64_t> table_;
  std::vector<std::byte> arena_;
};

}  // namespace e2e

#endif  // CHAOS_BENCH_E2E_PROBE_H_
