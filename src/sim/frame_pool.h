// Per-thread freelist for coroutine frames and the message bus's transit
// records.
//
// Simulated programs run as coroutines, and every simulated message is a
// short-lived transit record (net/network.h), so these blocks would
// otherwise be the largest heap cost of a simulation. The promise types of
// sim/task.h and the transit record allocate here: a freed block is cached
// on the freeing thread by size class (64-byte steps up to 2 KiB; larger
// blocks go straight to the heap) and handed to the next block of that
// class, so a warmed simulation allocates neither frames nor transit
// records (tests/hotpath_alloc_test.cc).
//
// A thread's cached blocks go back to the heap when the thread exits, so
// sweep worker threads leave nothing behind for LeakSanitizer. Under
// AddressSanitizer a cached block is poisoned, so a use after free of a
// frame or a transit record is still reported.
#ifndef CHAOS_SIM_FRAME_POOL_H_
#define CHAOS_SIM_FRAME_POOL_H_

#include <cstddef>

namespace chaos::internal {

void* AllocateFrame(std::size_t size);
void FreeFrame(void* frame, std::size_t size) noexcept;

// Base of the promise types and of the transit record: routes allocation
// through the per-thread cache. Deletion passes the allocation size back,
// which selects the size class without a block header.
struct PooledFrame {
  static void* operator new(std::size_t size) { return AllocateFrame(size); }
  static void operator delete(void* frame, std::size_t size) noexcept { FreeFrame(frame, size); }
};

}  // namespace chaos::internal

#endif  // CHAOS_SIM_FRAME_POOL_H_
