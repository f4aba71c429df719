#include "sim/frame_pool.h"

#include <new>

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace chaos::internal {
namespace {

constexpr std::size_t kFrameGranule = 64;
constexpr std::size_t kFrameClasses = 32;  // larger frames bypass the cache

struct FreeBlock {
  FreeBlock* next;
};

// Set when the thread's cache is torn down: frames freed later in thread
// teardown (say, a static simulator destroyed after the cache) go straight
// to the heap.
thread_local bool t_cache_gone = false;

// Singly linked stacks of cached blocks, one per size class. The
// destructor runs at thread exit and returns every cached block.
struct FrameCache {
  FreeBlock* heads[kFrameClasses] = {};

  ~FrameCache() {
    t_cache_gone = true;
    for (std::size_t c = 0; c < kFrameClasses; ++c) {
      while (heads[c] != nullptr) {
        FreeBlock* block = heads[c];
        ASAN_UNPOISON_MEMORY_REGION(block, (c + 1) * kFrameGranule);
        heads[c] = block->next;
        ::operator delete(block);
      }
    }
  }
};

thread_local FrameCache t_cache;

std::size_t ClassOf(std::size_t size) { return (size - 1) / kFrameGranule; }

}  // namespace

void* AllocateFrame(std::size_t size) {
  const std::size_t c = ClassOf(size);
  if (c < kFrameClasses && !t_cache_gone) {
    FreeBlock*& head = t_cache.heads[c];
    if (head != nullptr) {
      FreeBlock* block = head;
      ASAN_UNPOISON_MEMORY_REGION(block, (c + 1) * kFrameGranule);
      head = block->next;
      return block;
    }
  }
  // A pooled size always gets a whole class block: whichever thread frees
  // it may cache it for any frame of the class.
  return ::operator new(c < kFrameClasses ? (c + 1) * kFrameGranule : size);
}

void FreeFrame(void* frame, std::size_t size) noexcept {
  const std::size_t c = ClassOf(size);
  if (c >= kFrameClasses || t_cache_gone) {
    ::operator delete(frame);
    return;
  }
  FreeBlock*& head = t_cache.heads[c];
  FreeBlock* block = ::new (frame) FreeBlock{head};
  head = block;
  ASAN_POISON_MEMORY_REGION(block, (c + 1) * kFrameGranule);
}

}  // namespace chaos::internal
