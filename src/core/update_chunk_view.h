// SoA update-chunk layout + its reader.
//
// Update sets (kUpdatesEven/kUpdatesOdd, their checkpoint snapshots and the
// pre-processing kDegrees sets) are the other half of the hot
// streaming path: every gather superstep reads every update chunk, and the
// scatter/gather emit loops write every record through RecordBinner. Stored
// AoS, each UpdateRecord<U> strides sizeof(UpdateRecord<U>) — 16 bytes for
// a 4-byte value because of alignment padding — and the gather loop cannot
// vectorize across the struct. ChunkLayout::kUpdateSoA instead packs two
// regions into one payload (model_bytes — the simulated footprint — is
// unchanged, so results stay bitwise identical):
//
//   offset 0            : VertexId dst[count]
//   offset 8 * count    : U        value[count]   (packed at sizeof(U))
//
// payload_bytes == count * (8 + sizeof(U)) — for 4-byte values that is 12
// bytes per record instead of 16, a smaller resident footprint on top of
// the vectorizable layout. The value region starts at a multiple of 8, so
// it is naturally aligned for any U with alignof(U) <= 8 given an
// 8-byte-or-better base (arena payloads guarantee 64; core/record_arena.h).
// kUpdateSoA is the only layout of an update-shaped set, so GasKernel
// static_asserts that bound on every program's update value.
//
// Unlike edges — whose record type the untyped engine core knows — update
// values are program-defined, so the view is untemplated and parameterized
// by the value width: typed readers (the kernels) reinterpret the packed
// value region, and the host-side re-bin (cluster.cc) moves it as bytes.
#ifndef CHAOS_CORE_UPDATE_CHUNK_VIEW_H_
#define CHAOS_CORE_UPDATE_CHUNK_VIEW_H_

#include <cstdint>

#include "graph/types.h"
#include "storage/chunk.h"
#include "util/common.h"

namespace chaos {

// Zero-copy reader over a kUpdateSoA chunk. Hot loops read the raw dst()
// and values_as<U>() arrays; untyped readers (wire packing) use dst() alone.
// `value_bytes` is sizeof(U) for the owning program's update value. A chunk
// of any other layout is a producer bug and aborts here, once per chunk,
// rather than being misread.
class UpdateChunkView {
 public:
  UpdateChunkView(const Chunk& c, uint64_t value_bytes)
      : count_(c.count), value_bytes_(value_bytes) {
    if (count_ == 0) {
      return;
    }
    CHAOS_CHECK(c.layout == ChunkLayout::kUpdateSoA);
    CHAOS_CHECK(c.data != nullptr);
    CHAOS_DCHECK(c.payload_bytes == count_ * (8ull + value_bytes_));
    const auto* base = static_cast<const uint8_t*>(c.data.get());
    dst_ = reinterpret_cast<const VertexId*>(base);
    values_ = base + 8ull * count_;
  }

  uint32_t size() const { return count_; }
  const VertexId* dst() const { return dst_; }
  // The packed value region, value_bytes per record: raw, then typed.
  const uint8_t* values() const { return values_; }
  template <typename U>
  const U* values_as() const {
    static_assert(alignof(U) <= 8, "kUpdateSoA requires alignof(value) <= 8");
    CHAOS_DCHECK(sizeof(U) == value_bytes_);
    return reinterpret_cast<const U*>(values_);
  }

 private:
  uint32_t count_ = 0;
  uint64_t value_bytes_ = 0;
  const VertexId* dst_ = nullptr;
  const uint8_t* values_ = nullptr;
};

}  // namespace chaos

#endif  // CHAOS_CORE_UPDATE_CHUNK_VIEW_H_
