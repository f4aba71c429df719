// Chunks: the unit of storage, distribution and stealing (paper §6.2).
//
// A chunk couples a real payload (a contiguous array of POD records, shared
// and immutable once stored) with the size it is modeled to occupy on
// storage and on the wire. Payload bytes are what the algorithms compute on;
// model_bytes is what the simulator charges devices and NICs for, using the
// paper's compact/non-compact on-disk record sizes rather than C++ struct
// sizes.
#ifndef CHAOS_STORAGE_CHUNK_H_
#define CHAOS_STORAGE_CHUNK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/common.h"
#include "util/rng.h"

namespace chaos {

// The named data sets Chaos keeps per streaming partition (paper §6.1), plus
// the raw input and checkpoint sets.
enum class SetKind : uint8_t {
  kInput = 0,        // unsorted input edge list (pre-processing input)
  kEdges = 1,        // partitioned edge set, re-read every scatter epoch
  kUpdatesEven = 2,  // update set for even iterations
  kUpdatesOdd = 3,   // update set for odd iterations
  kVertices = 4,     // vertex set, indexed access
  kCheckpointA = 5,  // 2-phase checkpoint, side A
  kCheckpointB = 6,  // 2-phase checkpoint, side B
  kDegrees = 7,      // degree-count updates produced during pre-processing
  // Commit-time snapshot of the resume superstep's in-flight update set
  // (gather-phase emissions are not regenerable from the vertex checkpoint
  // alone — scatter re-runs on resume, the previous gather does not). Side
  // parity follows kCheckpointA/B. Empty for pure-scatter programs.
  kUpdatesCkptA = 8,
  kUpdatesCkptB = 9,
  // Second edge side for evolving graphs: an apply-mutations stage writes
  // the post-batch edge set to the side the engine is NOT reading, commits
  // at a barrier, then flips EngineCore::EdgesSet and deletes the old side
  // — mutation application is atomic with respect to crashes, like the
  // two-phase checkpoint (engine_core.cc, ApplyMutationStage).
  kEdgesB = 10,
};

// The update-snapshot side paired with a committed checkpoint side.
constexpr SetKind UpdatesCkptFor(SetKind checkpoint_side) {
  return checkpoint_side == SetKind::kCheckpointA ? SetKind::kUpdatesCkptA
                                                  : SetKind::kUpdatesCkptB;
}

const char* SetKindName(SetKind kind);

// Indexed kinds are addressed by chunk index (hash-placed, overwritable);
// sequential kinds are append-only pools drained once per epoch.
constexpr bool IsIndexedKind(SetKind kind) {
  return kind == SetKind::kVertices || kind == SetKind::kCheckpointA ||
         kind == SetKind::kCheckpointB;
}

// Update-set parity for a given iteration (scatter of iteration i writes the
// set that gather of iteration i reads; gather/apply emissions write the
// other one, consumed by gather of iteration i+1).
inline SetKind UpdatesFor(uint64_t iteration) {
  return (iteration % 2 == 0) ? SetKind::kUpdatesEven : SetKind::kUpdatesOdd;
}

struct SetId {
  PartitionId partition = 0;
  SetKind kind = SetKind::kInput;

  friend bool operator==(const SetId& a, const SetId& b) {
    return a.partition == b.partition && a.kind == b.kind;
  }
};

struct SetIdHash {
  size_t operator()(const SetId& id) const {
    return static_cast<size_t>(
        HashCombine(id.partition, static_cast<uint64_t>(id.kind) + 0x9e37));
  }
};

std::string SetIdName(const SetId& id);

// In-memory layout of a chunk payload; each set kind has exactly one.
// kAoS: `count` records of the set's record type back to back (raw input,
// vertex, accumulator and checkpoint-vertex sets). kEdgeSoA: partitioned
// edge sets, four packed arrays src[count] | dst[count] | weight[count] |
// flags[count] (see core/edge_chunk_view.h). kUpdateSoA: every update-shaped
// set (updates, their checkpoint snapshots, pre-processing degree counts),
// dst[count] followed by the packed update values (see
// core/update_chunk_view.h). Layout is a payload property — model_bytes
// (the simulated footprint) is identical for every layout, so the
// simulation cannot observe it.
enum class ChunkLayout : uint8_t {
  kAoS = 0,
  kEdgeSoA = 1,
  kUpdateSoA = 2,
};

struct Chunk {
  // Unique within its set. 64-bit: paper-scale runs with miniaturized
  // chunk_bytes push sequential-set chunk counts past what 32 bits can
  // index without silent wraparound (tests/core_test.cc pins this).
  uint64_t index = 0;
  uint64_t model_bytes = 0;    // modeled storage/wire footprint
  uint32_t count = 0;          // number of records in the payload
  uint64_t payload_bytes = 0;  // in-memory byte length of the payload array
  ChunkLayout layout = ChunkLayout::kAoS;
  std::shared_ptr<const void> data;  // payload array (layout above)
};

// Builds a chunk from a typed record vector. The vector is moved to shared
// storage; readers view it zero-copy through ChunkSpan<T>().
template <typename T>
Chunk MakeChunk(uint64_t index, uint64_t model_bytes, std::vector<T> records) {
  static_assert(std::is_trivially_copyable_v<T>, "chunk records must be POD");
  Chunk c;
  c.index = index;
  c.model_bytes = model_bytes;
  c.count = static_cast<uint32_t>(records.size());
  c.payload_bytes = records.size() * sizeof(T);
  auto holder = std::make_shared<std::vector<T>>(std::move(records));
  c.data = std::shared_ptr<const void>(holder, holder->data());
  return c;
}

// Zero-copy typed view of a chunk payload. The caller must know the record
// type from the set kind (enforced by protocol, checked by tests). Only
// valid for AoS payloads — SoA chunks are read through EdgeChunkView and
// UpdateChunkView.
template <typename T>
std::span<const T> ChunkSpan(const Chunk& c) {
  static_assert(std::is_trivially_copyable_v<T>, "chunk records must be POD");
  if (c.count == 0) {
    return {};
  }
  CHAOS_CHECK(c.data != nullptr);
  CHAOS_DCHECK(c.layout == ChunkLayout::kAoS);
  // Arena-backed payloads are 64-byte aligned; vector-backed ones at least
  // max_align_t. Either way the typed view must be properly aligned.
  CHAOS_DCHECK(reinterpret_cast<uintptr_t>(c.data.get()) % alignof(T) == 0);
  return std::span<const T>(static_cast<const T*>(c.data.get()), c.count);
}

}  // namespace chaos

#endif  // CHAOS_STORAGE_CHUNK_H_
