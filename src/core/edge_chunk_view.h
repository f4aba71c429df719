// SoA edge-chunk layout + its reader.
//
// Partitioned edge sets (kEdges/kEdgesB) are the hottest read path in the
// system: every scatter superstep streams every edge chunk. Stored AoS, the
// per-edge loop strides 24 bytes and the compiler cannot vectorize across
// the struct. ChunkLayout::kEdgeSoA instead packs four arrays into one
// payload of identical total size (so model_bytes — the simulated footprint
// — is unchanged and results stay bitwise identical):
//
//   offset 0            : uint64_t src[count]
//   offset 8 * count    : uint64_t dst[count]
//   offset 16 * count   : float    weight[count]
//   offset 20 * count   : uint32_t flags[count]      (24 * count total)
//
// Each array starts naturally aligned for its element type for any count
// (8n, 16n, 20n are multiples of 8/4), given a max_align_t-or-better base —
// which arena payloads guarantee at 64 bytes (core/record_arena.h).
//
// kEdgeSoA is the only layout of a partitioned edge set. Producers either
// write records into the regions as they bin (core/record_binner.h flushes
// 16-record column quanta into kEdgeSoA blocks — no transpose pass) or
// convert a host-side vector (MakeSoaEdgeChunk). Raw kInput chunks stay
// AoS and are read through ChunkSpan<Edge>.
#ifndef CHAOS_CORE_EDGE_CHUNK_VIEW_H_
#define CHAOS_CORE_EDGE_CHUNK_VIEW_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/record_arena.h"
#include "graph/types.h"
#include "storage/chunk.h"
#include "util/common.h"

namespace chaos {

static_assert(sizeof(Edge) == 24, "SoA layout assumes the 24-byte Edge");
static_assert(sizeof(VertexId) == 8 && alignof(Edge) == 8);

// Transposes `n` AoS edges into the SoA payload layout above. `out` must
// hold 24 * n bytes and be at least 8-byte aligned.
inline void TransposeEdgesToSoa(const Edge* aos, uint32_t n, uint8_t* out) {
  CHAOS_DCHECK(reinterpret_cast<uintptr_t>(out) % alignof(VertexId) == 0);
  auto* src = reinterpret_cast<VertexId*>(out);
  auto* dst = reinterpret_cast<VertexId*>(out + 8ull * n);
  auto* weight = reinterpret_cast<float*>(out + 16ull * n);
  auto* flags = reinterpret_cast<uint32_t*>(out + 20ull * n);
  for (uint32_t i = 0; i < n; ++i) {
    src[i] = aos[i].src;
    dst[i] = aos[i].dst;
    weight[i] = aos[i].weight;
    flags[i] = aos[i].flags;
  }
}

// Builds a kEdgeSoA chunk from a host-side edge vector. `arena` may be null
// (host-side callers without an engine); the payload is then a directly
// allocated aligned block.
inline Chunk MakeSoaEdgeChunk(uint64_t index, uint64_t model_bytes,
                              const std::vector<Edge>& edges, RecordArena* arena) {
  Chunk c;
  c.index = index;
  c.model_bytes = model_bytes;
  c.count = static_cast<uint32_t>(edges.size());
  c.payload_bytes = edges.size() * sizeof(Edge);
  c.layout = ChunkLayout::kEdgeSoA;
  if (!edges.empty()) {
    std::shared_ptr<uint8_t> payload;
    if (arena != nullptr) {
      payload = arena->LeaseShared(c.payload_bytes);
    } else {
      payload = std::shared_ptr<uint8_t>(
          static_cast<uint8_t*>(::operator new(c.payload_bytes,
                                               std::align_val_t{RecordArena::kAlign})),
          [](uint8_t* p) { ::operator delete(p, std::align_val_t{RecordArena::kAlign}); });
    }
    TransposeEdgesToSoa(edges.data(), c.count, payload.get());
    c.data = std::shared_ptr<const void>(payload, payload.get());
  }
  return c;
}

// Zero-copy reader over a kEdgeSoA chunk. A chunk of any other layout is a
// producer bug and aborts here, once per chunk, rather than being misread.
class EdgeChunkView {
 public:
  explicit EdgeChunkView(const Chunk& c) : count_(c.count) {
    if (count_ == 0) {
      return;
    }
    CHAOS_CHECK(c.layout == ChunkLayout::kEdgeSoA);
    CHAOS_CHECK(c.data != nullptr);
    CHAOS_DCHECK(c.payload_bytes == 24ull * count_);
    const auto* base = static_cast<const uint8_t*>(c.data.get());
    src_ = reinterpret_cast<const VertexId*>(base);
    dst_ = reinterpret_cast<const VertexId*>(base + 8ull * count_);
    weight_ = reinterpret_cast<const float*>(base + 16ull * count_);
    flags_ = reinterpret_cast<const uint32_t*>(base + 20ull * count_);
  }

  uint32_t size() const { return count_; }
  const VertexId* src() const { return src_; }
  const VertexId* dst() const { return dst_; }
  const float* weight() const { return weight_; }
  const uint32_t* flags() const { return flags_; }

  // Materializes one edge (cold paths / tests).
  Edge At(uint32_t i) const {
    CHAOS_DCHECK(i < count_);
    return Edge{src_[i], dst_[i], weight_[i], flags_[i]};
  }

 private:
  uint32_t count_ = 0;
  const VertexId* src_ = nullptr;
  const VertexId* dst_ = nullptr;
  const float* weight_ = nullptr;
  const uint32_t* flags_ = nullptr;
};

}  // namespace chaos

#endif  // CHAOS_CORE_EDGE_CHUNK_VIEW_H_
