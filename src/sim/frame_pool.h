// Per-thread freelist for coroutine frames.
//
// Every simulated message creates a handful of short-lived coroutines
// (MessageBus::Send, Call and FinishRemote, SimQueue::Pop,
// FifoResource::Acquire, Simulator::RunDetached), so frame allocation
// would otherwise be the largest heap cost of the message path. The
// promise types of sim/task.h allocate their frames here: a freed frame is
// cached on the freeing thread by size class (64-byte steps up to 2 KiB;
// larger frames go straight to the heap) and handed to the next frame of
// that class, so a warmed simulation allocates no frames at all
// (tests/hotpath_alloc_test.cc).
//
// A thread's cached blocks go back to the heap when the thread exits, so
// sweep worker threads leave nothing behind for LeakSanitizer. Under
// AddressSanitizer a cached block is poisoned, so a use after free of a
// frame is still reported.
#ifndef CHAOS_SIM_FRAME_POOL_H_
#define CHAOS_SIM_FRAME_POOL_H_

#include <cstddef>

namespace chaos::internal {

void* AllocateFrame(std::size_t size);
void FreeFrame(void* frame, std::size_t size) noexcept;

// Base of the promise types: routes coroutine frame allocation through the
// per-thread cache. Frame deletion passes the allocation size back, which
// selects the size class without a block header.
struct PooledFrame {
  static void* operator new(std::size_t size) { return AllocateFrame(size); }
  static void operator delete(void* frame, std::size_t size) noexcept { FreeFrame(frame, size); }
};

}  // namespace chaos::internal

#endif  // CHAOS_SIM_FRAME_POOL_H_
