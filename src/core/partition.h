// Streaming partitions (paper §3).
//
// The number of partitions is the smallest multiple of the number of
// machines such that each partition's vertex state (plus accumulators) fits
// in the per-machine memory budget. Vertices are partitioned into ranges of
// consecutive ids; an edge belongs to the partition of its source vertex.
// This is the only pre-processing Chaos does.
#ifndef CHAOS_CORE_PARTITION_H_
#define CHAOS_CORE_PARTITION_H_

#include <cstdint>

#include "graph/types.h"
#include "util/common.h"

namespace chaos {

class Partitioning {
 public:
  // `bytes_per_vertex` covers the in-memory footprint per vertex while a
  // partition is loaded (vertex state + accumulator).
  static Partitioning Compute(uint64_t num_vertices, int machines, uint64_t bytes_per_vertex,
                              uint64_t memory_budget_bytes);

  // A fixed partition count (tests and baselines).
  static Partitioning WithPartitions(uint64_t num_vertices, int machines,
                                     uint32_t num_partitions);

  // v / verts_per_partition(), as a shift when that is a power of two.
  PartitionId PartitionOf(VertexId v) const {
    CHAOS_CHECK_LT(v, num_vertices_);
    return static_cast<PartitionId>(pow2_ ? v >> shift_ : v / verts_per_partition_);
  }

  VertexId Base(PartitionId p) const {
    CHAOS_CHECK_LT(p, num_partitions_);
    return static_cast<VertexId>(p) * verts_per_partition_;
  }

  uint64_t Count(PartitionId p) const {
    CHAOS_CHECK_LT(p, num_partitions_);
    const VertexId base = Base(p);
    // Ceil-rounded verts_per_partition can push trailing partitions past the
    // vertex range entirely; they are empty (guards the unsigned underflow
    // of num_vertices - base, which made phantom vertices appear past the
    // end of the graph).
    if (base >= num_vertices_) {
      return 0;
    }
    const uint64_t remaining = num_vertices_ - base;
    return remaining < verts_per_partition_ ? remaining : verts_per_partition_;
  }

  // Initial assignment: engine i is the master of partitions i, i+m, i+2m...
  MachineId Master(PartitionId p) const {
    CHAOS_CHECK_LT(p, num_partitions_);
    return static_cast<MachineId>(p % static_cast<uint32_t>(machines_));
  }

  uint32_t num_partitions() const { return num_partitions_; }
  uint64_t num_vertices() const { return num_vertices_; }
  int machines() const { return machines_; }
  uint64_t verts_per_partition() const { return verts_per_partition_; }
  // k in §5: partitions initially assigned to each computation engine.
  uint32_t partitions_per_machine() const {
    return num_partitions_ / static_cast<uint32_t>(machines_);
  }

 private:
  Partitioning(uint64_t num_vertices, int machines, uint32_t num_partitions);

  uint64_t num_vertices_;
  int machines_;
  uint32_t num_partitions_;
  uint64_t verts_per_partition_;
  // verts_per_partition_ == 1 << shift_ when pow2_.
  bool pow2_;
  uint8_t shift_;
};

}  // namespace chaos

#endif  // CHAOS_CORE_PARTITION_H_
