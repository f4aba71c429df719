// RecordBinner: bins emitted records by destination partition into
// chunk-sized buffers. Untemplated — buffer management, parking and chunk
// flushing compile once in the untyped engine core — while Add()/AddUpdate()
// are tiny inline functions so the per-record hot path (called from the
// typed kernels' per-edge loops) stays free of virtual dispatch.
//
// Buffering is arena-backed (core/record_arena.h): each partition fills a
// fixed-capacity 64-byte-aligned block, so the per-record path is one
// bounds check plus a few fixed-size stores — no std::vector regrowth, and
// zero heap allocations (tests/hotpath_alloc_test.cc asserts this). A full
// block is parked as a finished Chunk zero-copy: the fill block itself
// becomes the payload. A binner has one of two formats, one per binned
// record kind. kEdgeSoA writes edges straight into the SoA region layout
// (core/edge_chunk_view.h), so each record is stored exactly once — there
// is no transpose pass re-reading a by-then-cold fill block on park.
// kUpdateSoA does the same for update records (core/update_chunk_view.h):
// AddUpdate<U>() splits each emission into the dst and value regions in
// place, parameterized by the program's value width at construction. Only
// tail chunks (FlushAll with a part-filled block) pay a compaction copy,
// because SoA region offsets depend on the record count.
//
// Both formats additionally use software write-combining: records are
// staged 16-at-a-time in a small L1-resident per-partition buffer and
// flushed to the fill block's SoA regions with non-temporal stores, as
// whole cache lines per flush (six for edges; 128 B of dsts plus
// 16 * value_bytes of values for updates). Fill blocks total partitions ×
// chunk_bytes — far beyond L2 — so plain stores would pay a
// read-for-ownership miss per line (doubling DRAM traffic) and evict the
// caller's working set; streaming stores do neither. The NT path needs
// records_per_chunk to be a multiple of the staging quantum (keeps every
// flush 16-byte aligned and park boundaries on flush boundaries) and falls
// back to plain in-place stores otherwise, or when SSE2 is unavailable.
//
// Add() is synchronous; parked chunks are flushed by the owning coroutine
// between chunks (FlushPending / FlushAll).
#ifndef CHAOS_CORE_RECORD_BINNER_H_
#define CHAOS_CORE_RECORD_BINNER_H_

#include <cstdint>
#include <cstring>
#include <memory>
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
  // kEdgeSoA (edge sets, Add()) fills the ChunkLayout::kEdgeSoA regions for
  // the vectorized scatter loop; kUpdateSoA (update-shaped sets,
  // AddUpdate<U>()) fills the ChunkLayout::kUpdateSoA dst/value regions.
  // Either way the full block parks as the chunk payload without a copy.
  enum class Format : uint8_t { kEdgeSoA, kUpdateSoA };

  // `record_wire_bytes` is the modeled on-disk/wire width the paper charges
  // per record. `arena` is the owning engine's arena; null falls back to a
  // private one (host-side and test callers). `update_value_bytes` is
  // sizeof(U) for Format::kUpdateSoA (the packed value-region stride) and
  // ignored for kEdgeSoA.
  RecordBinner(const Partitioning* parts, Format format, uint64_t record_wire_bytes,
               uint64_t chunk_bytes, RecordArena* arena = nullptr,
               uint64_t update_value_bytes = 0)
      : parts_(parts),
        record_wire_(record_wire_bytes),
        value_bytes_(format == Format::kUpdateSoA ? update_value_bytes : 0),
        record_bytes_(format == Format::kEdgeSoA ? sizeof(Edge)
                                                 : sizeof(VertexId) + value_bytes_),
        records_per_chunk_(RecordsPerChunk(chunk_bytes, record_wire_bytes)),
        fill_bytes_(records_per_chunk_ * record_bytes_),
        format_(format),
        soa_dst_off_(8ull * records_per_chunk_),
        soa_weight_off_(16ull * records_per_chunk_),
        soa_flags_off_(20ull * records_per_chunk_),
        soa_value_off_(8ull * records_per_chunk_),
        wc_enabled_(CHAOS_BINNER_HAS_NT_STORES && format == Format::kEdgeSoA &&
                    records_per_chunk_ % kWcStage == 0),
        uwc_enabled_(CHAOS_BINNER_HAS_NT_STORES &&
                     format == Format::kUpdateSoA &&
                     records_per_chunk_ % kWcStage == 0),
        bins_(parts->num_partitions()) {
    if (format_ == Format::kUpdateSoA) {
      CHAOS_CHECK_GT(value_bytes_, 0u);
    }
    if (wc_enabled_) {
      stage_ = std::make_unique<WcStage[]>(bins_.size());
    }
    if (uwc_enabled_) {
      // Update staging is runtime-sized (value width is a program property),
      // so it lives in one 64-byte-aligned slab: per partition, kWcStage
      // dsts then kWcStage packed values, the slot rounded up to keep every
      // partition's dst block 16-byte aligned for the streaming loads.
      ustage_stride_ = (kUwcDstBytes + kWcStage * value_bytes_ +
                        (RecordArena::kAlign - 1)) &
                       ~static_cast<uint64_t>(RecordArena::kAlign - 1);
      const uint64_t total = ustage_stride_ * bins_.size();
      ustage_.reset(static_cast<uint8_t*>(
          ::operator new(total, std::align_val_t{RecordArena::kAlign})));
      std::memset(ustage_.get(), 0, total);
      // Per-record path helpers: precomputed slot pointers (no
      // multiply on the store-address chain) and byte-wide counts (the
      // whole partition set's counts share one or two cache lines).
      ustage_slot_ = std::make_unique<uint8_t*[]>(bins_.size());
      for (size_t p = 0; p < bins_.size(); ++p) {
        ustage_slot_[p] = ustage_.get() + p * ustage_stride_;
      }
      ustage_count_ = std::make_unique<uint8_t[]>(bins_.size());
      std::memset(ustage_count_.get(), 0, bins_.size());
    }
    if (arena == nullptr) {
      own_arena_ = std::make_unique<RecordArena>();
      arena = own_arena_.get();
    }
    arena_ = arena;
  }

  // Chunk capacity in records. Floored at one record per chunk so records
  // wider than the chunk still make progress; zero-width records (empty
  // payloads) never fill a chunk by byte count, so they are binned as if
  // one byte wide instead of dividing by zero.
  static uint64_t RecordsPerChunk(uint64_t chunk_bytes, uint64_t record_wire_bytes) {
    const uint64_t wire = record_wire_bytes < 1 ? 1 : record_wire_bytes;
    const uint64_t per = chunk_bytes / wire;
    return per < 1 ? 1 : per;
  }

  // Edge hot path (kEdgeSoA).
  void Add(PartitionId p, const Edge& record) {
    CHAOS_DCHECK(format_ == Format::kEdgeSoA);
    // The whole per-record path: a few fixed-size stores plus a cursor bump
    // (or a staging-buffer append on the write-combining path). Nothing
    // else (record counts, fill thresholds) is read or written per record —
    // emitted() derives counts from the cursors and staging fills instead.
    if (wc_enabled_) {
      // Write-combining path: stage into the partition's L1-resident
      // buffer; every 16th record flushes six whole cache lines to the
      // fill block with non-temporal stores (no read-for-ownership, no
      // cache pollution from the partitions × chunk_bytes fill set). The
      // bin itself — and its lease — is only touched at flush time.
      WcStage& st = stage_[p];
      const uint32_t s = st.count;
      st.src[s] = record.src;
      st.dst[s] = record.dst;
      st.weight[s] = record.weight;
      st.flags[s] = record.flags;
      st.count = s + 1;
      if (st.count == kWcStage) {
        FlushStage(p);
      }
      return;
    }
    Bin& bin = bins_[p];
    if (bin.cursor == bin.end) {  // unleased bins have cursor == end == null
      LeaseBin(&bin);
    }
    // Store each field straight into its SoA region: the cursor walks the
    // 8-byte src region, the dst slot sits at a constant offset from it,
    // and the 4-byte weight/flags slots at half the cursor's progress past
    // the region base.
    uint8_t* const cur = bin.cursor;
    uint8_t* const base = bin.end - soa_dst_off_;
    const auto half = static_cast<uint64_t>(cur - base) >> 1;
    *reinterpret_cast<VertexId*>(cur) = record.src;
    *reinterpret_cast<VertexId*>(cur + soa_dst_off_) = record.dst;
    *reinterpret_cast<float*>(base + soa_weight_off_ + half) = record.weight;
    *reinterpret_cast<uint32_t*>(base + soa_flags_off_ + half) = record.flags;
    bin.cursor = cur + sizeof(VertexId);
    if (bin.cursor == bin.end) {
      Park(p);
    }
  }

  // Update-record hot path (kUpdateSoA): the kernels' emit lambdas call
  // this instead of materializing an UpdateRecord<U>, so dst and value go
  // straight into their regions (no padded AoS temp).
  template <typename U>
  void AddUpdate(PartitionId p, VertexId dst, const U& value) {
    static_assert(std::is_trivially_copyable_v<U>, "binned records must be POD");
    static_assert(alignof(U) <= 8, "kUpdateSoA requires alignof(value) <= 8");
    CHAOS_DCHECK(format_ == Format::kUpdateSoA && sizeof(U) == value_bytes_);
    if (uwc_enabled_) {
      // Write-combining path, mirroring the edge staging: per-record stores
      // land in the partition's L1-resident slot; every 16th record streams
      // whole lines into the fill block.
      uint8_t* const slot = ustage_slot_[p];
      const uint32_t s = ustage_count_[p];
      reinterpret_cast<VertexId*>(slot)[s] = dst;
      *reinterpret_cast<U*>(slot + kUwcDstBytes + s * sizeof(U)) = value;
      ustage_count_[p] = static_cast<uint8_t>(s + 1);
      if (s + 1 == kWcStage) {
        FlushUpdateStage(p);
      }
      return;
    }
    Bin& bin = bins_[p];
    if (bin.cursor == bin.end) {
      LeaseBin(&bin);
    }
    // The cursor walks the 8-byte dst region; the value slot sits in the
    // packed region at the same record index.
    uint8_t* const cur = bin.cursor;
    uint8_t* const base = bin.end - soa_value_off_;
    const auto idx = static_cast<uint64_t>(cur - base) >> 3;
    *reinterpret_cast<VertexId*>(cur) = dst;
    *reinterpret_cast<U*>(base + soa_value_off_ + idx * sizeof(U)) = value;
    bin.cursor = cur + sizeof(VertexId);
    if (bin.cursor == bin.end) {
      Park(p);
    }
  }

  bool HasPending() const { return pending_head_ < pending_.size(); }

  // Records accepted so far: everything parked plus the partial fills. The
  // per-bin sum keeps this O(partitions), which is fine for its once-per-
  // phase metrics callers and keeps the per-record path free of counters.
  uint64_t emitted() const {
    uint64_t filling = 0;
    for (const Bin& bin : bins_) {
      filling += static_cast<uint64_t>(bin.cursor - bin.block.data());
    }
    uint64_t staged = 0;
    if (wc_enabled_) {
      for (size_t p = 0; p < bins_.size(); ++p) {
        staged += stage_[p].count;
      }
    }
    if (uwc_enabled_) {
      for (size_t p = 0; p < bins_.size(); ++p) {
        staged += ustage_count_[p];
      }
    }
    return parked_records_ + filling / sizeof(VertexId) + staged;
  }
  const RecordArena& arena() const { return *arena_; }

  // Test hook: fast-forwards chunk numbering (regression coverage for
  // 32-bit index wraparound without binning 2^32 chunks).
  void set_next_index_for_test(uint64_t index) { next_index_ = index; }

  // Test hook: drains the oldest parked chunk without a ChunkWriter.
  std::pair<PartitionId, Chunk> PopPendingForTest() {
    CHAOS_CHECK(HasPending());
    std::pair<PartitionId, Chunk> out = std::move(pending_[pending_head_]);
    ++pending_head_;
    if (pending_head_ == pending_.size()) {
      pending_.clear();
      pending_head_ = 0;
    }
    return out;
  }

  Task<> FlushPending(ChunkWriter* writer, SetKind kind) {
    while (pending_head_ < pending_.size()) {
      // NOTE: named locals (not braced temporaries) around coroutine calls;
      // g++ 12 miscompiles braced aggregate temporaries passed directly as
      // coroutine arguments (see docs in sim/task.h).
      const PartitionId p = pending_[pending_head_].first;
      Chunk chunk = std::move(pending_[pending_head_].second);
      ++pending_head_;
      if (pending_head_ == pending_.size()) {
        pending_.clear();  // keeps capacity; the park path stays alloc-free
        pending_head_ = 0;
      }
      const SetId target{p, kind};
      co_await writer->Write(target, std::move(chunk), parts_->Master(p));
    }
  }

  Task<> FlushAll(ChunkWriter* writer, SetKind kind) {
    ParkPartialFills();
    co_await FlushPending(writer, kind);
  }

  // Test hook: parks every partial fill — including write-combining tails
  // still sitting in staging buffers — without needing a ChunkWriter.
  void ParkAllForTest() { ParkPartialFills(); }

 private:
  struct Bin {
    // Hot pair, first in the struct: Add() touches nothing else until the
    // block fills. An unleased bin has cursor == end == nullptr.
    uint8_t* cursor = nullptr;  // next write position in the fill block
    uint8_t* end = nullptr;     // end of the block's 8-byte src/dst region
    RecordArena::Block block;   // owns the fixed-capacity fill buffer
  };

  // Per-partition write-combining staging buffer (kEdgeSoA NT path): one
  // flush quantum of records, SoA, 16-byte aligned for the streaming
  // copies. All partitions' buffers together stay L1-resident (384 bytes
  // per partition), which is the point: per-record stores land here, and
  // only whole lines ever travel to the (cache-bypassing) fill blocks.
  static constexpr uint32_t kWcStage = 16;
  struct WcStage {
    uint32_t count = 0;  // records currently staged
    alignas(16) VertexId src[kWcStage];
    alignas(16) VertexId dst[kWcStage];
    alignas(16) float weight[kWcStage];
    alignas(16) uint32_t flags[kWcStage];
  };

  void LeaseBin(Bin* bin) {
    bin->block = arena_->Lease(fill_bytes_);
    bin->cursor = bin->block.data();
    // The leased block may be a larger pow2 class; the chunk boundary is
    // still records_per_chunk_ so chunk record counts are
    // capacity-independent. The cursor walks the 8-byte src (edges) or dst
    // (updates) region, so the boundary is that region's end.
    bin->end = bin->cursor + records_per_chunk_ * sizeof(VertexId);
  }

  void ParkPartialFills() {
    for (PartitionId p = 0; p < bins_.size(); ++p) {
      if (wc_enabled_) {
        DrainStagePlain(p);  // staged records become part of the tail fill
      }
      if (uwc_enabled_) {
        DrainUpdateStagePlain(p);
      }
      if (bins_[p].cursor != bins_[p].block.data()) {  // partial fill
        Park(p);
      }
    }
  }

  // Flushes a full staging buffer to the partition's fill block as six
  // whole cache lines of non-temporal stores: two 128-byte runs (src, dst)
  // and two 64-byte runs (weight, flags). All destinations stay 16-byte
  // aligned because the block base is 64-byte aligned, flushes advance in
  // kWcStage-record quanta, and the region offsets are multiples of
  // 8 * records_per_chunk_ with records_per_chunk_ % kWcStage == 0.
  void FlushStage(PartitionId p) {
#if CHAOS_BINNER_HAS_NT_STORES
    Bin& bin = bins_[p];
    if (bin.cursor == bin.end) {
      LeaseBin(&bin);
    }
    WcStage& st = stage_[p];
    uint8_t* const cur = bin.cursor;
    uint8_t* const base = bin.end - soa_dst_off_;  // == block start
    const auto half = static_cast<uint64_t>(cur - base) >> 1;
    const auto* s_src = reinterpret_cast<const __m128i*>(st.src);
    const auto* s_dst = reinterpret_cast<const __m128i*>(st.dst);
    auto* d_src = reinterpret_cast<__m128i*>(cur);
    auto* d_dst = reinterpret_cast<__m128i*>(cur + soa_dst_off_);
    for (uint32_t k = 0; k < kWcStage / 2; ++k) {
      _mm_stream_si128(d_src + k, _mm_load_si128(s_src + k));
      _mm_stream_si128(d_dst + k, _mm_load_si128(s_dst + k));
    }
    const auto* s_weight = reinterpret_cast<const __m128i*>(st.weight);
    const auto* s_flags = reinterpret_cast<const __m128i*>(st.flags);
    auto* d_weight = reinterpret_cast<__m128i*>(base + soa_weight_off_ + half);
    auto* d_flags = reinterpret_cast<__m128i*>(base + soa_flags_off_ + half);
    for (uint32_t k = 0; k < kWcStage / 4; ++k) {
      _mm_stream_si128(d_weight + k, _mm_load_si128(s_weight + k));
      _mm_stream_si128(d_flags + k, _mm_load_si128(s_flags + k));
    }
    st.count = 0;
    bin.cursor = cur + kWcStage * sizeof(VertexId);
    if (bin.cursor == bin.end) {
      Park(p);
    }
#else
    (void)p;
#endif
  }

  // Writes a part-filled staging buffer into the fill block with plain
  // stores (tail records at FlushAll time — cold path). The cursor sits on
  // a flush boundary, so the fill can't complete mid-drain.
  void DrainStagePlain(PartitionId p) {
    WcStage& st = stage_[p];
    if (st.count == 0) {
      return;
    }
    Bin& bin = bins_[p];
    if (bin.cursor == bin.end) {
      LeaseBin(&bin);
    }
    uint8_t* const base = bin.end - soa_dst_off_;
    for (uint32_t i = 0; i < st.count; ++i) {
      uint8_t* const cur = bin.cursor;
      const auto half = static_cast<uint64_t>(cur - base) >> 1;
      *reinterpret_cast<VertexId*>(cur) = st.src[i];
      *reinterpret_cast<VertexId*>(cur + soa_dst_off_) = st.dst[i];
      *reinterpret_cast<float*>(base + soa_weight_off_ + half) = st.weight[i];
      *reinterpret_cast<uint32_t*>(base + soa_flags_off_ + half) = st.flags[i];
      bin.cursor = cur + sizeof(VertexId);
    }
    CHAOS_DCHECK(bin.cursor < bin.end);
    st.count = 0;
  }

  // Flushes a full update staging slot to the partition's fill block with
  // non-temporal stores: two cache lines of dsts plus kWcStage packed
  // values (16 * value_bytes, always a 16-byte multiple). Alignment mirrors
  // the edge path: the block base is 64-byte aligned, flushes advance in
  // kWcStage-record quanta, and the value-region offset is a multiple of
  // 8 * records_per_chunk_ with records_per_chunk_ % kWcStage == 0.
  void FlushUpdateStage(PartitionId p) {
#if CHAOS_BINNER_HAS_NT_STORES
    Bin& bin = bins_[p];
    if (bin.cursor == bin.end) {
      LeaseBin(&bin);
    }
    const uint8_t* const slot = ustage_slot_[p];
    uint8_t* const cur = bin.cursor;
    uint8_t* const base = bin.end - soa_value_off_;  // == block start
    const auto idx = static_cast<uint64_t>(cur - base) >> 3;
    const auto* s_dst = reinterpret_cast<const __m128i*>(slot);
    auto* d_dst = reinterpret_cast<__m128i*>(cur);
    for (uint32_t k = 0; k < kWcStage / 2; ++k) {
      _mm_stream_si128(d_dst + k, _mm_load_si128(s_dst + k));
    }
    const auto* s_val = reinterpret_cast<const __m128i*>(slot + kUwcDstBytes);
    auto* d_val =
        reinterpret_cast<__m128i*>(base + soa_value_off_ + idx * value_bytes_);
    const auto val_vecs = static_cast<uint32_t>(kWcStage * value_bytes_ / 16);
    for (uint32_t k = 0; k < val_vecs; ++k) {
      _mm_stream_si128(d_val + k, _mm_load_si128(s_val + k));
    }
    ustage_count_[p] = 0;
    bin.cursor = cur + kWcStage * sizeof(VertexId);
    if (bin.cursor == bin.end) {
      Park(p);
    }
#else
    (void)p;
#endif
  }

  // Writes a part-filled update staging slot into the fill block with plain
  // stores (tail records at FlushAll time — cold path).
  void DrainUpdateStagePlain(PartitionId p) {
    const uint32_t n = ustage_count_[p];
    if (n == 0) {
      return;
    }
    Bin& bin = bins_[p];
    if (bin.cursor == bin.end) {
      LeaseBin(&bin);
    }
    const uint8_t* const slot = ustage_slot_[p];
    const auto* s_dst = reinterpret_cast<const VertexId*>(slot);
    const uint8_t* const s_val = slot + kUwcDstBytes;
    uint8_t* const base = bin.end - soa_value_off_;
    for (uint32_t i = 0; i < n; ++i) {
      uint8_t* const cur = bin.cursor;
      const auto idx = static_cast<uint64_t>(cur - base) >> 3;
      *reinterpret_cast<VertexId*>(cur) = s_dst[i];
      std::memcpy(base + soa_value_off_ + idx * value_bytes_,
                  s_val + i * value_bytes_, value_bytes_);
      bin.cursor = cur + sizeof(VertexId);
    }
    CHAOS_DCHECK(bin.cursor < bin.end);
    ustage_count_[p] = 0;
  }

  // Finishes the partition's fill block as a pending chunk.
  void Park(PartitionId p) {
#if CHAOS_BINNER_HAS_NT_STORES
    if (wc_enabled_ || uwc_enabled_) {
      // Drain the write-combining buffers before the payload is published:
      // NT stores are weakly ordered, and the chunk may be consumed on
      // another thread.
      _mm_sfence();
    }
#endif
    Bin& bin = bins_[p];
    const auto count = static_cast<uint32_t>(
        static_cast<uint64_t>(bin.cursor - bin.block.data()) / sizeof(VertexId));
    parked_records_ += count;
    Chunk chunk;
    chunk.index = next_index_++;
    chunk.model_bytes = count * record_wire_;
    chunk.count = count;
    // Packed payload: no AoS padding between an update's dst and value, so
    // its in-memory footprint is count * (8 + value_bytes).
    chunk.payload_bytes = count * record_bytes_;
    chunk.layout = format_ == Format::kEdgeSoA ? ChunkLayout::kEdgeSoA
                                               : ChunkLayout::kUpdateSoA;
    if (count == records_per_chunk_) {
      // Full block: the in-place SoA fill already is the payload; a fresh
      // block is leased on the partition's next Add.
      chunk.data = std::move(bin.block).ToShared();
    } else {
      // Tail chunk: region offsets depend on the count, so compact the
      // capacity-offset regions into an exact-count payload. Rare — only
      // FlushAll parks part-filled blocks.
      std::shared_ptr<uint8_t> payload = arena_->LeaseShared(chunk.payload_bytes);
      CompactSoaTail(bin.block.data(), count, payload.get());
      chunk.data = std::shared_ptr<const void>(payload, payload.get());
    }
    bin = Bin{};
    pending_.emplace_back(p, std::move(chunk));
  }

  // Copies the part-filled SoA regions (at capacity-based offsets in the
  // fill block) into `out` at count-based offsets: src, dst, weight and
  // flags for edges; dsts then packed values for updates.
  void CompactSoaTail(const uint8_t* block, uint32_t count, uint8_t* out) const {
    std::memcpy(out, block, 8ull * count);
    if (format_ == Format::kUpdateSoA) {
      std::memcpy(out + 8ull * count, block + soa_value_off_, value_bytes_ * count);
      return;
    }
    std::memcpy(out + 8ull * count, block + soa_dst_off_, 8ull * count);
    std::memcpy(out + 16ull * count, block + soa_weight_off_, 4ull * count);
    std::memcpy(out + 20ull * count, block + soa_flags_off_, 4ull * count);
  }

  struct AlignedSlabDelete {
    void operator()(uint8_t* p) const {
      ::operator delete(p, std::align_val_t{RecordArena::kAlign});
    }
  };

  const Partitioning* parts_;
  uint64_t record_wire_;
  // sizeof(U) for kUpdateSoA (packed value-region stride); 0 otherwise.
  uint64_t value_bytes_;
  // Payload bytes per record: sizeof(Edge), or 8 + value_bytes_.
  uint64_t record_bytes_;
  uint64_t records_per_chunk_;
  uint64_t fill_bytes_;
  Format format_;
  // SoA region offsets within a full fill block (capacity-based).
  uint64_t soa_dst_off_;
  uint64_t soa_weight_off_;
  uint64_t soa_flags_off_;
  uint64_t soa_value_off_;  // kUpdateSoA value region (== 8 * capacity)
  // True when the kEdgeSoA / kUpdateSoA fill runs through the respective
  // write-combining staging path (SSE2 present and records_per_chunk_ a
  // staging-quantum multiple).
  bool wc_enabled_;
  bool uwc_enabled_;
  RecordArena* arena_ = nullptr;
  std::unique_ptr<RecordArena> own_arena_;
  std::vector<Bin> bins_;
  std::unique_ptr<WcStage[]> stage_;  // one per partition; null unless wc_enabled_
  // Update staging slab (uwc_enabled_ only): bins_.size() slots of
  // ustage_stride_ bytes, each kWcStage dsts followed by kWcStage packed
  // values; fill counts live separately so slots stay store-only.
  // ustage_slot_ caches each partition's slot address (keeps the
  // per-record store-address chain multiply-free) and the byte-wide
  // counts pack the whole partition set into one or two cache lines.
  static constexpr uint64_t kUwcDstBytes = kWcStage * sizeof(VertexId);
  uint64_t ustage_stride_ = 0;
  std::unique_ptr<uint8_t, AlignedSlabDelete> ustage_;
  std::unique_ptr<uint8_t*[]> ustage_slot_;
  std::unique_ptr<uint8_t[]> ustage_count_;
  // Drained front-to-back by FlushPending; vector + head cursor instead of
  // a deque so steady-state parking reuses capacity.
  std::vector<std::pair<PartitionId, Chunk>> pending_;
  size_t pending_head_ = 0;
  uint64_t next_index_ = 0;
  uint64_t parked_records_ = 0;
};

}  // namespace chaos

#endif  // CHAOS_CORE_RECORD_BINNER_H_
