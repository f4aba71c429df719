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
// kEdgeSoA is the only layout of a partitioned edge set. Producers write
// records into the regions as they bin (core/record_binner.h flushes
// 16-record column quanta into kEdgeSoA blocks — no transpose pass) or
// build host-side chunks from columns (MakeSoaChunk there). Raw kInput
// chunks stay AoS and are read through ChunkSpan<Edge>.
#ifndef CHAOS_CORE_EDGE_CHUNK_VIEW_H_
#define CHAOS_CORE_EDGE_CHUNK_VIEW_H_

#include <cstdint>

#include "graph/types.h"
#include "storage/chunk.h"
#include "util/common.h"

namespace chaos {

static_assert(sizeof(Edge) == 24, "SoA layout assumes the 24-byte Edge");
static_assert(sizeof(VertexId) == 8 && alignof(Edge) == 8);

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
