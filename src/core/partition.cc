#include "core/partition.h"

#include <bit>

namespace chaos {

Partitioning::Partitioning(uint64_t num_vertices, int machines, uint32_t num_partitions)
    : num_vertices_(num_vertices), machines_(machines), num_partitions_(num_partitions) {
  CHAOS_CHECK_GT(num_vertices, 0u);
  CHAOS_CHECK_GT(machines, 0);
  CHAOS_CHECK_GT(num_partitions, 0u);
  CHAOS_CHECK_EQ(num_partitions % static_cast<uint32_t>(machines), 0u);
  verts_per_partition_ = (num_vertices + num_partitions - 1) / num_partitions;
  CHAOS_CHECK_GT(verts_per_partition_, 0u);
  pow2_ = std::has_single_bit(verts_per_partition_);
  shift_ = static_cast<uint8_t>(std::countr_zero(verts_per_partition_));
}

Partitioning Partitioning::Compute(uint64_t num_vertices, int machines,
                                   uint64_t bytes_per_vertex, uint64_t memory_budget_bytes) {
  CHAOS_CHECK_GT(bytes_per_vertex, 0u);
  CHAOS_CHECK_GE(memory_budget_bytes, bytes_per_vertex);
  const auto m = static_cast<uint32_t>(machines);
  // Smallest multiple of `machines` such that each partition's vertex state
  // fits in the budget (§3).
  for (uint32_t k = 1;; ++k) {
    const uint32_t parts = k * m;
    const uint64_t verts = (num_vertices + parts - 1) / parts;
    if (verts * bytes_per_vertex <= memory_budget_bytes) {
      return Partitioning(num_vertices, machines, parts);
    }
    CHAOS_CHECK_MSG(static_cast<uint64_t>(parts) <= num_vertices,
                    "memory budget too small: one vertex does not fit");
  }
}

Partitioning Partitioning::WithPartitions(uint64_t num_vertices, int machines,
                                          uint32_t num_partitions) {
  return Partitioning(num_vertices, machines, num_partitions);
}

}  // namespace chaos
