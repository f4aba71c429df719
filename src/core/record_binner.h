// RecordBinner: bins emitted records by destination partition into
// chunk-sized buffers. Untemplated — buffer management, parking and chunk
// flushing compile once in the untyped engine core — while Add()/AddUpdate()
// are tiny inline functions so the per-record hot path (called from the
// typed kernels' per-edge loops) stays free of virtual dispatch.
//
// A binner has one of two formats, one per binned record kind, and each
// format is a list of column widths: kEdgeSoA is {8, 8, 4, 4} (src, dst,
// weight, flags; core/edge_chunk_view.h) and kUpdateSoA is {8, value_bytes}
// (dst, packed value; core/update_chunk_view.h). A chunk of n records
// stores column c at byte offset n * (sum of the widths before c).
//
// Records travel in two steps, with one store path for both formats:
//
//  * Add()/AddUpdate<U>() only append to the partition's stage: kQuantum
//    records, laid out by column like a kQuantum-record chunk, in one
//    64-byte-aligned slab that stays L1-resident. No counter, fill block or
//    lease is touched per record.
//  * Every kQuantum-th record, Flush() writes the whole stage into the
//    partition's fill block (core/record_arena.h), column by column, at
//    capacity-based offsets. With SSE2 the copy uses non-temporal stores:
//    fill blocks total partitions × chunk_bytes, far beyond L2, so plain
//    stores would pay a read-for-ownership miss per line and evict the
//    caller's working set. Without SSE2 it is a memcpy. A block that fills
//    parks as the chunk payload itself, with no copy.
//
// RecordsPerChunk() is always a whole number of quanta, so flushes land on
// quantum boundaries, every flush destination is 16-byte aligned (the
// block base is 64-byte aligned, each column region starts at a multiple of
// 64 and a quantum of any column is a multiple of 16 bytes), and a block at
// a quantum boundary always has a quantum of room. ParkAll() sends a
// part-filled stage through the same Flush(): the stale slots past its
// count land past the fill, and the tail chunk is compacted by count into
// an exact-size payload, so they never reach a chunk.
//
// The per-record path allocates nothing (tests/hotpath_alloc_test.cc).
// Add() is synchronous; parked chunks are written by the owning coroutine
// between chunks (FlushPending / FlushAll), or drained by PopPending.
#ifndef CHAOS_CORE_RECORD_BINNER_H_
#define CHAOS_CORE_RECORD_BINNER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#define CHAOS_BINNER_HAS_NT_STORES 1
#else
#define CHAOS_BINNER_HAS_NT_STORES 0
#endif

#include "core/chunk_io.h"
#include "core/edge_chunk_view.h"
#include "core/gas.h"
#include "core/partition.h"
#include "core/record_arena.h"
#include "storage/chunk.h"
#include "util/common.h"

namespace chaos {

class RecordBinner {
 public:
  // How parked chunks are laid out, one format per binned record kind:
  // kEdgeSoA (edge sets, Add()) or kUpdateSoA (update-shaped sets,
  // AddUpdate<U>()).
  enum class Format : uint8_t { kEdgeSoA, kUpdateSoA };

  // Records staged per partition between flushes.
  static constexpr uint32_t kQuantum = 16;

  // `record_wire_bytes` is the modeled on-disk/wire width the paper charges
  // per record. `arena` is the owning engine's arena; null falls back to a
  // private one (host-side and test callers). `update_value_bytes` is
  // sizeof(U) for Format::kUpdateSoA (the packed value-column width) and
  // ignored for kEdgeSoA.
  RecordBinner(const Partitioning* parts, Format format, uint64_t record_wire_bytes,
               uint64_t chunk_bytes, RecordArena* arena = nullptr,
               uint64_t update_value_bytes = 0)
      : parts_(parts),
        format_(format),
        num_columns_(format == Format::kEdgeSoA ? 4 : 2),
        widths_(format == Format::kEdgeSoA
                    ? std::array<uint64_t, 4>{8, 8, 4, 4}
                    : std::array<uint64_t, 4>{sizeof(VertexId), update_value_bytes, 0, 0}),
        record_bytes_(widths_[0] + widths_[1] + widths_[2] + widths_[3]),
        record_wire_(record_wire_bytes),
        records_per_chunk_(RecordsPerChunk(chunk_bytes, record_wire_bytes)),
        bins_(parts->num_partitions()) {
    static_assert(sizeof(Edge) == 24, "kEdgeSoA columns are the 24-byte Edge's fields");
    if (format_ == Format::kUpdateSoA) {
      CHAOS_CHECK_GT(update_value_bytes, 0u);
    }
    if (arena == nullptr) {
      own_arena_ = std::make_unique<RecordArena>();
      arena = own_arena_.get();
    }
    arena_ = arena;
    // One stage slot per partition, each rounded up to whole cache lines so
    // every slot (and every column in it) starts 64-byte aligned. Slot
    // addresses are precomputed (no multiply on the store-address chain)
    // and the counts are byte-wide (the whole partition set's counts share
    // one or two cache lines).
    const uint64_t stride = (kQuantum * record_bytes_ + RecordArena::kAlign - 1) &
                            ~static_cast<uint64_t>(RecordArena::kAlign - 1);
    stage_ = arena_->Lease(stride * bins_.size());
    std::memset(stage_.data(), 0, stride * bins_.size());
    stage_slot_ = std::make_unique<uint8_t*[]>(bins_.size());
    for (size_t p = 0; p < bins_.size(); ++p) {
      stage_slot_[p] = stage_.data() + p * stride;
    }
    stage_count_ = std::make_unique<uint8_t[]>(bins_.size());
  }

  // Chunk capacity in records: chunk_bytes / record_wire_bytes rounded down
  // to a whole number of staging quanta, floored at one quantum so records
  // wider than the chunk still make progress. Zero-width records (empty
  // payloads) never fill a chunk by byte count, so they are binned as if
  // one byte wide instead of dividing by zero.
  static uint64_t RecordsPerChunk(uint64_t chunk_bytes, uint64_t record_wire_bytes) {
    const uint64_t wire = record_wire_bytes < 1 ? 1 : record_wire_bytes;
    const uint64_t quanta = chunk_bytes / wire / kQuantum;
    return (quanta < 1 ? 1 : quanta) * kQuantum;
  }

  // Edge hot path (kEdgeSoA).
  void Add(PartitionId p, const Edge& record) {
    CHAOS_DCHECK(format_ == Format::kEdgeSoA);
    uint8_t* const slot = stage_slot_[p];
    const uint32_t s = stage_count_[p];
    reinterpret_cast<VertexId*>(slot)[s] = record.src;
    reinterpret_cast<VertexId*>(slot + 8 * kQuantum)[s] = record.dst;
    reinterpret_cast<float*>(slot + 16 * kQuantum)[s] = record.weight;
    reinterpret_cast<uint32_t*>(slot + 20 * kQuantum)[s] = record.flags;
    Staged(p, s + 1);
  }

  // Update-record hot path (kUpdateSoA): the kernels' emit lambdas call
  // this instead of materializing an UpdateRecord<U>, so dst and value go
  // straight into their columns (no padded AoS temp).
  template <typename U>
  void AddUpdate(PartitionId p, VertexId dst, const U& value) {
    static_assert(std::is_trivially_copyable_v<U>, "binned records must be POD");
    static_assert(alignof(U) <= 8, "kUpdateSoA requires alignof(value) <= 8");
    CHAOS_DCHECK(format_ == Format::kUpdateSoA && sizeof(U) == widths_[1]);
    uint8_t* const slot = stage_slot_[p];
    const uint32_t s = stage_count_[p];
    reinterpret_cast<VertexId*>(slot)[s] = dst;
    reinterpret_cast<U*>(slot + 8 * kQuantum)[s] = value;
    Staged(p, s + 1);
  }

  bool HasPending() const { return pending_head_ < pending_.size(); }

  // Records accepted so far: everything parked plus the partial fills and
  // stages. The per-bin sum keeps this O(partitions), which is fine for its
  // once-per-phase metrics callers and keeps the per-record path free of
  // counters.
  uint64_t emitted() const {
    uint64_t n = parked_records_;
    for (size_t p = 0; p < bins_.size(); ++p) {
      n += bins_[p].filled + stage_count_[p];
    }
    return n;
  }
  const RecordArena& arena() const { return *arena_; }

  // Test hook: fast-forwards chunk numbering (regression coverage for
  // 32-bit index wraparound without binning 2^32 chunks).
  void set_next_index_for_test(uint64_t index) { next_index_ = index; }

  // Drains the oldest parked chunk, for callers that store chunks without a
  // ChunkWriter (the X-Stream baseline, tests).
  std::pair<PartitionId, Chunk> PopPending() {
    CHAOS_CHECK(HasPending());
    std::pair<PartitionId, Chunk> out = std::move(pending_[pending_head_]);
    ++pending_head_;
    if (pending_head_ == pending_.size()) {
      pending_.clear();  // keeps capacity; the park path stays alloc-free
      pending_head_ = 0;
    }
    return out;
  }

  Task<> FlushPending(ChunkWriter* writer, SetKind kind) {
    while (HasPending()) {
      // NOTE: named locals (not braced temporaries) around coroutine calls;
      // g++ 12 miscompiles braced aggregate temporaries passed directly as
      // coroutine arguments (see docs in sim/task.h).
      std::pair<PartitionId, Chunk> parked = PopPending();
      const SetId target{parked.first, kind};
      co_await writer->Write(target, std::move(parked.second), parts_->Master(parked.first));
    }
  }

  Task<> FlushAll(ChunkWriter* writer, SetKind kind) {
    ParkAll();
    co_await FlushPending(writer, kind);
  }

  // Parks every partial fill, staged records included: the tail chunk of
  // each partition with records left.
  void ParkAll() {
    for (PartitionId p = 0; p < bins_.size(); ++p) {
      if (stage_count_[p] != 0) {
        Flush(p);  // a part-filled stage leaves the block short of full
      }
      if (bins_[p].filled != 0) {
        Park(p);
      }
    }
  }

 private:
  struct Bin {
    uint64_t filled = 0;       // records flushed into the block so far
    RecordArena::Block block;  // fixed-capacity fill buffer; empty until the first flush
  };

  void Staged(PartitionId p, uint32_t count) {
    stage_count_[p] = static_cast<uint8_t>(count);
    if (count == kQuantum) {
      Flush(p);
    }
  }

  // Writes partition p's whole stage into its fill block at the next
  // quantum boundary, leasing the block on first use, and advances the fill
  // by the staged count. A block that fills parks.
  void Flush(PartitionId p) {
    Bin& bin = bins_[p];
    CHAOS_DCHECK(bin.filled % kQuantum == 0 && bin.filled < records_per_chunk_);
    if (!bin.block) {
      // The leased block may be a larger pow2 class; the chunk boundary is
      // still records_per_chunk_, so chunk record counts are
      // capacity-independent.
      bin.block = arena_->Lease(records_per_chunk_ * record_bytes_);
    }
    uint8_t* const block = bin.block.data();
    const uint8_t* const slot = stage_slot_[p];
    uint64_t before = 0;  // bytes per record in the columns before this one
    for (uint32_t c = 0; c < num_columns_; ++c) {
      const uint64_t width = widths_[c];
      StoreQuantum(block + before * records_per_chunk_ + bin.filled * width,
                   slot + before * kQuantum, width * kQuantum);
      before += width;
    }
    bin.filled += stage_count_[p];
    stage_count_[p] = 0;
    if (bin.filled == records_per_chunk_) {
      Park(p);
    }
  }

  // Copies one column's quantum from a stage slot to a fill block; both
  // ends are 16-byte aligned and `bytes` is a multiple of 16.
  static void StoreQuantum(uint8_t* to, const uint8_t* from, uint64_t bytes) {
#if CHAOS_BINNER_HAS_NT_STORES
    auto* d = reinterpret_cast<__m128i*>(to);
    const auto* s = reinterpret_cast<const __m128i*>(from);
    for (uint64_t k = 0; k < bytes / 16; ++k) {
      _mm_stream_si128(d + k, _mm_load_si128(s + k));
    }
#else
    std::memcpy(to, from, bytes);
#endif
  }

  // Finishes the partition's fill block as a pending chunk.
  void Park(PartitionId p) {
#if CHAOS_BINNER_HAS_NT_STORES
    // Drain the write-combining buffers before the payload is published:
    // NT stores are weakly ordered, and the chunk may be consumed on
    // another thread.
    _mm_sfence();
#endif
    Bin& bin = bins_[p];
    const auto count = static_cast<uint32_t>(bin.filled);
    parked_records_ += count;
    Chunk chunk;
    chunk.index = next_index_++;
    chunk.model_bytes = count * record_wire_;
    chunk.count = count;
    chunk.payload_bytes = count * record_bytes_;
    chunk.layout = format_ == Format::kEdgeSoA ? ChunkLayout::kEdgeSoA
                                               : ChunkLayout::kUpdateSoA;
    if (count == records_per_chunk_) {
      // Full block: the column regions already are the payload; a fresh
      // block is leased on the partition's next flush.
      chunk.data = std::move(bin.block).ToShared();
    } else {
      // Tail chunk: column offsets depend on the count, so copy `count`
      // records of each capacity-offset column into an exact-size payload.
      // Only ParkAll parks part-filled blocks.
      std::shared_ptr<uint8_t> payload = arena_->LeaseShared(chunk.payload_bytes);
      uint64_t before = 0;
      for (uint32_t c = 0; c < num_columns_; ++c) {
        std::memcpy(payload.get() + before * count,
                    bin.block.data() + before * records_per_chunk_, widths_[c] * count);
        before += widths_[c];
      }
      chunk.data = std::shared_ptr<const void>(payload, payload.get());
    }
    bin = Bin{};
    pending_.emplace_back(p, std::move(chunk));
  }

  const Partitioning* parts_;
  Format format_;
  uint32_t num_columns_;
  std::array<uint64_t, 4> widths_;  // column widths in bytes; unused entries 0
  uint64_t record_bytes_;           // payload bytes per record: sum of widths_
  uint64_t record_wire_;
  uint64_t records_per_chunk_;
  RecordArena* arena_ = nullptr;
  std::unique_ptr<RecordArena> own_arena_;
  std::vector<Bin> bins_;
  // The stage slots. Declared after own_arena_ so the block returns to a
  // private arena before that arena is destroyed.
  RecordArena::Block stage_;
  std::unique_ptr<uint8_t*[]> stage_slot_;
  std::unique_ptr<uint8_t[]> stage_count_;
  // Drained front-to-back by FlushPending; vector + head cursor instead of
  // a deque so steady-state parking reuses capacity.
  std::vector<std::pair<PartitionId, Chunk>> pending_;
  size_t pending_head_ = 0;
  uint64_t next_index_ = 0;
  uint64_t parked_records_ = 0;
};

// The host-side counterpart of a parked chunk: `count` records in `layout`
// from their columns, stored back to back in a directly allocated block.
inline Chunk MakeSoaChunk(uint64_t index, uint64_t model_bytes, ChunkLayout layout,
                          uint32_t count, std::span<const std::vector<std::byte>> columns) {
  Chunk c;
  c.index = index;
  c.model_bytes = model_bytes;
  c.count = count;
  c.layout = layout;
  for (const std::vector<std::byte>& column : columns) {
    c.payload_bytes += column.size();
  }
  std::shared_ptr<uint8_t> payload = RecordArena::NewShared(c.payload_bytes);
  auto* at = reinterpret_cast<std::byte*>(payload.get());
  for (const std::vector<std::byte>& column : columns) {
    at = std::copy(column.begin(), column.end(), at);
  }
  c.data = std::shared_ptr<const void>(payload, payload.get());
  return c;
}

}  // namespace chaos

#endif  // CHAOS_CORE_RECORD_BINNER_H_
