// RecordBatch: the type-erased, mutable array of fixed-width POD records
// the untemplated engine core (engine_core.h) moves between storage and the
// typed program kernels (gas_kernel.h). A batch owns one contiguous buffer;
// chunks written to storage *borrow* sub-ranges of it zero-copy (shared
// ownership through Chunk's aliasing payload pointer), which is what
// removed the per-chunk slice copies of the old WriteVertexSet path.
//
// Buffers lease from the owning engine's RecordArena (core/record_arena.h)
// when one is supplied — 64-byte aligned, recycled across supersteps, no
// per-batch heap allocation in steady state — and fall back to a direct
// aligned allocation otherwise (host-side and test callers).
//
// Contract: once a range has been borrowed into a Chunk, the batch must not
// be mutated again (stored chunks are immutable); the engine's phase flow
// mutates first (gather/apply), borrows last (vertex + checkpoint
// write-back), then drops the batch.
#ifndef CHAOS_CORE_RECORD_BATCH_H_
#define CHAOS_CORE_RECORD_BATCH_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "core/record_arena.h"
#include "storage/chunk.h"
#include "util/common.h"

namespace chaos {

class RecordBatch {
 public:
  RecordBatch() = default;
  // Allocates `count` zero-initialized records of `record_bytes` each,
  // leased from `arena` (or directly allocated if `arena` is null).
  RecordBatch(RecordArena* arena, uint64_t record_bytes, uint64_t count)
      : record_bytes_(record_bytes), count_(count) {
    const uint64_t bytes = record_bytes * count;
    if (bytes == 0) {
      return;
    }
    data_ = arena != nullptr ? arena->LeaseShared(bytes) : RecordArena::NewShared(bytes);
    std::memset(data_.get(), 0, bytes);  // arena blocks are recycled dirty
  }
  RecordBatch(uint64_t record_bytes, uint64_t count)
      : RecordBatch(nullptr, record_bytes, count) {}

  uint64_t record_bytes() const { return record_bytes_; }
  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  void* data() { return data_.get(); }
  const void* data() const { return data_.get(); }

  // Typed views for the kernels; the width must match exactly. The buffer
  // is at least 64-byte aligned, so any POD record is aligned.
  template <typename T>
  std::span<T> Span() {
    CHAOS_DCHECK(sizeof(T) == record_bytes_ || count_ == 0);
    return std::span<T>(static_cast<T*>(data()), count_);
  }
  template <typename T>
  std::span<const T> Span() const {
    CHAOS_DCHECK(sizeof(T) == record_bytes_ || count_ == 0);
    return std::span<const T>(static_cast<const T*>(data()), count_);
  }

  // Copies `n` records from `src` into records [dst_index, dst_index + n).
  void CopyIn(uint64_t dst_index, const void* src, uint64_t n) {
    CHAOS_CHECK_LE(dst_index + n, count_);
    if (n > 0) {
      std::memcpy(data_.get() + dst_index * record_bytes_, src, n * record_bytes_);
    }
  }

  // Borrows records [start, start + n) as a chunk payload without copying:
  // the chunk shares ownership of the whole buffer and aliases the range,
  // keeping it alive after the batch is gone (and, for arena-backed
  // buffers, returning the block to the arena only when the last chunk
  // referencing it is dropped).
  Chunk BorrowChunk(uint64_t index, uint64_t start, uint64_t n, uint64_t model_bytes) const {
    CHAOS_CHECK_LE(start + n, count_);
    Chunk c;
    c.index = index;
    c.model_bytes = model_bytes;
    c.count = static_cast<uint32_t>(n);
    c.payload_bytes = n * record_bytes_;
    c.data = std::shared_ptr<const void>(data_, data_.get() + start * record_bytes_);
    return c;
  }

 private:
  uint64_t record_bytes_ = 0;
  uint64_t count_ = 0;
  std::shared_ptr<uint8_t> data_;
};

}  // namespace chaos

#endif  // CHAOS_CORE_RECORD_BATCH_H_
