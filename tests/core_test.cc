// Core engine integration tests: partitioning math, the batching theory,
// and full cluster runs of basic GAS programs validated against in-memory
// references across machine counts, placements and stealing settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "algorithms/basic.h"
#include "core/chunk_io.h"
#include "core/cluster.h"
#include "core/edge_chunk_view.h"
#include "core/record_arena.h"
#include "core/record_binner.h"
#include "core/update_chunk_view.h"
#include "graph/generators.h"
#include "graph/ref/reference.h"

namespace chaos {
namespace {

// ------------------------------------------------------------ partitioning

TEST(PartitioningTest, MultipleOfMachinesAndFitsBudget) {
  // 10000 vertices, 16 B per vertex, 20 KB budget -> >= 8 partitions, and
  // the count must be a multiple of 4.
  auto parts = Partitioning::Compute(10000, 4, 16, 20000);
  EXPECT_EQ(parts.num_partitions() % 4, 0u);
  EXPECT_LE(parts.verts_per_partition() * 16, 20000u);
  // Smallest such multiple: 10000*16/20000 = 8 partitions exactly.
  EXPECT_EQ(parts.num_partitions(), 8u);
}

TEST(PartitioningTest, RangesCoverAllVerticesOnce) {
  auto parts = Partitioning::Compute(1000, 3, 8, 1024);
  uint64_t total = 0;
  for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
    total += parts.Count(p);
    if (p > 0) {
      EXPECT_EQ(parts.Base(p), parts.Base(p - 1) + parts.Count(p - 1));
    }
  }
  EXPECT_EQ(total, 1000u);
  for (VertexId v = 0; v < 1000; v += 7) {
    const PartitionId p = parts.PartitionOf(v);
    EXPECT_GE(v, parts.Base(p));
    EXPECT_LT(v, parts.Base(p) + parts.Count(p));
  }
}

TEST(PartitioningTest, MastersRoundRobin) {
  auto parts = Partitioning::WithPartitions(100, 4, 12);
  for (PartitionId p = 0; p < 12; ++p) {
    EXPECT_EQ(parts.Master(p), static_cast<MachineId>(p % 4));
  }
  EXPECT_EQ(parts.partitions_per_machine(), 3u);
}

TEST(PartitioningTest, SingleVertexBudgetAborts) {
  EXPECT_DEATH(Partitioning::Compute(100, 1, 2000, 1000), "memory_budget");
}

// Regression: with ceil-rounded verts-per-partition, trailing partitions can
// start past the vertex range (4096 / 112 partitions -> 37 per partition,
// partition 111 would start at 4107). Their count must be 0, not an
// underflowed full range of phantom vertices — the overflow corrupted
// result extraction for any (n, partitions) pair of this shape.
TEST(PartitioningTest, TrailingPartitionsPastTheRangeAreEmpty) {
  auto parts = Partitioning::WithPartitions(4096, 16, 112);
  EXPECT_EQ(parts.verts_per_partition(), 37u);
  uint64_t total = 0;
  for (PartitionId p = 0; p < parts.num_partitions(); ++p) {
    total += parts.Count(p);
    if (parts.Count(p) > 0) {
      EXPECT_LE(parts.Base(p) + parts.Count(p), 4096u);
    }
  }
  EXPECT_EQ(total, 4096u);
  EXPECT_EQ(parts.Count(111), 0u);
  EXPECT_EQ(parts.PartitionOf(4095), 110u);  // no vertex maps to an empty one
}

// PartitionOf shifts instead of dividing when verts_per_partition() is a
// power of two; it must agree with the division for every divisor shape
// (1, powers of two, their neighbours) and every numerator, across the
// 32-bit boundary and at 2^40.
TEST(PartitioningTest, PartitionOfMatchesDivision) {
  uint64_t checked = 0;
  uint64_t wrong = 0;
  std::string first_wrong;
  auto expect_exact = [&](const Partitioning& parts, VertexId v) {
    ++checked;
    if (parts.PartitionOf(v) != v / parts.verts_per_partition() && wrong++ == 0) {
      first_wrong = std::to_string(parts.num_vertices()) + "/" +
                    std::to_string(parts.num_partitions()) + " v=" + std::to_string(v);
    }
  };
  auto expect_edges = [&](const Partitioning& parts) {
    const uint64_t d = parts.verts_per_partition();
    const uint64_t n = parts.num_vertices();
    for (const VertexId v : {uint64_t{0}, d - 1, d, d + 1, n - 1}) {
      if (v < n) {
        expect_exact(parts, v);
      }
    }
  };
  // Divisors by shape, each from n = d * partitions so verts_per_partition
  // is exactly d.
  std::vector<uint64_t> divisors = {1, 3, 5, 6, 7, 10, 12, 37, 641, 1000};
  for (int k = 1; k <= 40; ++k) {
    divisors.push_back(uint64_t{1} << k);
    divisors.push_back((uint64_t{1} << k) - 1);
    divisors.push_back((uint64_t{1} << k) + 1);
  }
  for (const uint64_t d : divisors) {
    for (const uint32_t partitions : {1u, 3u, 1000u, 65537u}) {
      const auto parts = Partitioning::WithPartitions(d * partitions, 1, partitions);
      ASSERT_EQ(parts.verts_per_partition(), d);
      expect_edges(parts);
    }
  }
  // Vertex counts across the 32-bit boundary and near 2^40, including
  // verts_per_partition == 1 and == num_vertices.
  for (const uint64_t n : {(uint64_t{1} << 32) - 1, uint64_t{1} << 32, (uint64_t{1} << 32) + 1,
                           (uint64_t{1} << 40) + 12345}) {
    for (const uint32_t partitions : {1u, 2u, 3u, 7u, 64u, 1000u, 65536u, 1u << 31, UINT32_MAX}) {
      const auto parts = Partitioning::WithPartitions(n, 1, partitions);
      expect_edges(parts);
    }
  }
  // Seeded random draws: 10^5 (n, partitions) pairs, 100 vertices each.
  Rng rng(0x5eed);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t n = 1 + (rng.Next() >> (1 + rng.Below(63)));
    const auto partitions = static_cast<uint32_t>(1 + rng.Below(UINT32_MAX));
    const auto parts = Partitioning::WithPartitions(n, 1, partitions);
    for (int j = 0; j < 100; ++j) {
      expect_exact(parts, rng.Below(n));
    }
  }
  EXPECT_EQ(wrong, 0u) << "first mismatch (num_vertices/partitions): " << first_wrong;
  EXPECT_GT(checked, 10'000'000u);
}

TEST(PartitioningTest, PartitionOfPastTheRangeAborts) {
  const auto parts = Partitioning::WithPartitions(1000, 1, 7);
  EXPECT_EQ(parts.PartitionOf(999), 6u);
  EXPECT_DEATH(parts.PartitionOf(1000), "num_vertices_");
}

// ---------------------------------------------------------- batching math

TEST(BatchingTheoryTest, UtilizationFormula) {
  // rho(m, k) = 1 - (1 - k/m)^m; spot values from the paper's Fig. 5.
  EXPECT_DOUBLE_EQ(TheoreticalUtilization(1, 1), 1.0);
  EXPECT_NEAR(TheoreticalUtilization(32, 1), 1.0 - std::pow(1.0 - 1.0 / 32, 32), 1e-12);
  EXPECT_GT(TheoreticalUtilization(32, 5), 0.993);  // paper: k=5 -> >= 99.3%
  EXPECT_NEAR(UtilizationLowerBound(5), 1.0 - std::exp(-5.0), 1e-12);
  // Monotone in k, decreasing in m toward the bound.
  for (int k = 1; k <= 5; ++k) {
    EXPECT_GT(TheoreticalUtilization(16, k + 1), TheoreticalUtilization(16, k));
    EXPECT_GT(TheoreticalUtilization(8, k), TheoreticalUtilization(32, k));
    EXPECT_GT(TheoreticalUtilization(32, k), UtilizationLowerBound(k));
  }
}

TEST(ConfigTest, FetchWindowAndStealing) {
  ClusterConfig cfg;
  EXPECT_EQ(cfg.fetch_window, 10);  // the paper's phi*k = 2*5 (§6.5)
  cfg.alpha = 0.0;
  EXPECT_FALSE(cfg.stealing_enabled());
  cfg.alpha = 1.0;
  EXPECT_TRUE(cfg.stealing_enabled());
}

// ------------------------------------------------------------ record binner

TEST(RecordBinnerTest, RecordsPerChunkRoundsToWholeQuanta) {
  constexpr uint64_t kQ = RecordBinner::kQuantum;
  // Normal regime: the chunk holds many records, already whole quanta.
  EXPECT_EQ(RecordBinner::RecordsPerChunk(4 << 20, 8), (4u << 20) / 8);
  // Rounded down to the quantum: 32 KiB / 12 B = 2730 -> 2720 records and
  // 8 KiB / 12 B = 682 -> 672 (12-byte updates into small chunks).
  EXPECT_EQ(RecordBinner::RecordsPerChunk(32 << 10, 12), 2720u);
  EXPECT_EQ(RecordBinner::RecordsPerChunk(8 << 10, 12), 672u);
  // Fewer than one quantum fits, or the record is wider than the chunk:
  // floor at one quantum so binning still makes progress.
  EXPECT_EQ(RecordBinner::RecordsPerChunk(15 * 8, 8), kQ);
  EXPECT_EQ(RecordBinner::RecordsPerChunk(16, 64), kQ);
  EXPECT_EQ(RecordBinner::RecordsPerChunk(0, 64), kQ);
  // Zero-width records must not divide by zero; they bin as one byte wide.
  EXPECT_EQ(RecordBinner::RecordsPerChunk(1 << 10, 0), 1u << 10);
  EXPECT_EQ(RecordBinner::RecordsPerChunk(0, 0), kQ);
  // Any input: a nonzero multiple of the quantum, and never more records
  // than fit unless the floor applies.
  Rng rng(15);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t chunk = rng.Below(1 << 16);
    const uint64_t wire = rng.Below(80);
    const uint64_t per = RecordBinner::RecordsPerChunk(chunk, wire);
    ASSERT_GT(per, 0u) << chunk << " / " << wire;
    ASSERT_EQ(per % kQ, 0u) << chunk << " / " << wire;
    ASSERT_TRUE(per == kQ || per * std::max<uint64_t>(wire, 1) <= chunk)
        << chunk << " / " << wire;
  }
}

TEST(RecordBinnerTest, ZeroWireWidthBinsWithoutCrashing) {
  auto parts = Partitioning::Compute(64, 2, 16, 1 << 10);
  RecordBinner binner(&parts, RecordBinner::Format::kUpdateSoA, /*record_wire_bytes=*/0,
                      /*chunk_bytes=*/1 << 10, /*arena=*/nullptr,
                      /*update_value_bytes=*/sizeof(float));
  for (VertexId v = 0; v < 64; ++v) {
    binner.AddUpdate(parts.PartitionOf(v), v, 1.0f);
  }
  EXPECT_EQ(binner.emitted(), 64u);
}

// Records wider than the chunk still make progress: each chunk holds one
// quantum of them (its modeled bytes exceed chunk_bytes), so every
// quantum of adds parks a chunk.
TEST(RecordBinnerTest, OversizedRecordsParkEveryQuantum) {
  constexpr uint32_t kQ = RecordBinner::kQuantum;
  auto parts = Partitioning::Compute(64, 2, 16, 1 << 10);
  RecordBinner binner(&parts, RecordBinner::Format::kUpdateSoA, /*record_wire_bytes=*/64,
                      /*chunk_bytes=*/16, /*arena=*/nullptr,
                      /*update_value_bytes=*/sizeof(float));
  const PartitionId p = parts.PartitionOf(0);
  for (uint32_t i = 0; i < 2 * kQ; ++i) {
    binner.AddUpdate(p, VertexId{i}, static_cast<float>(i));
    EXPECT_EQ(binner.HasPending(), i + 1 >= kQ) << "after add " << i;
  }
  for (uint32_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(binner.HasPending());
    const auto parked = binner.PopPending();
    EXPECT_EQ(parked.first, p);
    EXPECT_EQ(parked.second.count, kQ);
    EXPECT_EQ(parked.second.model_bytes, kQ * 64u);
    const UpdateChunkView view(parked.second, sizeof(float));
    for (uint32_t i = 0; i < kQ; ++i) {
      EXPECT_EQ(view.dst()[i], k * kQ + i);
    }
  }
  EXPECT_FALSE(binner.HasPending());
}

// Regression: chunk indices used to be uint32_t and wrapped silently at
// 2^32 chunks (paper-scale edge sets with small chunk_bytes get there),
// colliding indexed-set keys. Indices are uint64_t end to end now.
TEST(RecordBinnerTest, IndexCrossesThirtyTwoBitsWithoutWrapping) {
  auto parts = Partitioning::Compute(64, 2, 16, 1 << 10);
  RecordBinner binner(&parts, RecordBinner::Format::kUpdateSoA, /*record_wire_bytes=*/64,
                      /*chunk_bytes=*/16, /*arena=*/nullptr,
                      /*update_value_bytes=*/sizeof(float));  // one quantum per chunk
  binner.set_next_index_for_test((1ull << 32) - 1);
  for (uint32_t i = 0; i < 2 * RecordBinner::kQuantum; ++i) {
    binner.AddUpdate(parts.PartitionOf(0), VertexId{0}, static_cast<float>(i));
  }
  auto first = binner.PopPending();
  auto second = binner.PopPending();
  EXPECT_EQ(first.second.index, (1ull << 32) - 1);
  EXPECT_EQ(second.second.index, 1ull << 32);  // not 0
  static_assert(std::is_same_v<decltype(Chunk::index), uint64_t>);
}

// The binner against a reference model: per-partition vectors cut every
// RecordsPerChunk records in add order, plus one tail chunk per non-empty
// partition (in partition order) at the final park. Every parked chunk's
// partition, index, count, model_bytes and records, read back through the
// chunk view, must match the model. `Value` is the update value type, or
// Edge for edge sets. Cases are seeded; chunk sizes fall below, at and
// above one quantum of records. Returns the number of tail chunks checked.
template <typename Value>
uint64_t ExpectBinnerMatchesReference(uint64_t seed) {
  constexpr bool kEdges = std::is_same_v<Value, Edge>;
  using Record = std::conditional_t<kEdges, Edge, UpdateRecord<Value>>;
  constexpr uint64_t kQ = RecordBinner::kQuantum;
  Rng rng(seed);
  const auto partitions = static_cast<PartitionId>(1 + rng.Below(64));
  const auto parts = Partitioning::WithPartitions(4096, 1, partitions);
  const uint64_t wire = 4 + 4 * rng.Below(6);
  uint64_t chunk_bytes = 0;
  switch (rng.Below(3)) {
    case 0:  // below one quantum: the floor applies
      chunk_bytes = wire * rng.Below(kQ);
      break;
    case 1:  // one quantum and a partial record
      chunk_bytes = wire * kQ + rng.Below(wire);
      break;
    default:  // several quanta plus a remainder that rounds away
      chunk_bytes = wire * (kQ * (1 + rng.Below(8)) + rng.Below(kQ)) + rng.Below(wire);
      break;
  }
  const uint64_t per = RecordBinner::RecordsPerChunk(chunk_bytes, wire);
  const std::string what = "seed " + std::to_string(seed) + " partitions " +
                           std::to_string(partitions) + " wire " + std::to_string(wire) +
                           " chunk_bytes " + std::to_string(chunk_bytes);
  RecordArena arena;
  RecordBinner binner(&parts,
                      kEdges ? RecordBinner::Format::kEdgeSoA : RecordBinner::Format::kUpdateSoA,
                      wire, chunk_bytes, &arena, kEdges ? 0 : sizeof(Value));

  struct Expected {
    PartitionId partition;
    uint64_t index;
    std::vector<Record> records;
  };
  std::vector<Expected> want;
  std::vector<std::vector<Record>> bins(partitions);
  std::vector<std::pair<PartitionId, Chunk>> got;
  const uint64_t total = rng.Below(3 * per * partitions + 1);
  for (uint64_t i = 0; i < total; ++i) {
    // Skewed destinations: partition 0 gets about half of the records.
    const auto p = static_cast<PartitionId>(rng.Below(2) == 0 ? 0 : rng.Below(partitions));
    Record r{};
    if constexpr (kEdges) {
      r = Edge{rng.Next(), rng.Next(), static_cast<float>(rng.Below(1000)) * 0.25f,
               static_cast<uint32_t>(rng.Next())};
      binner.Add(p, r);
    } else {
      r.dst = rng.Next();
      r.value = static_cast<Value>(rng.Next());
      binner.AddUpdate(p, r.dst, r.value);
    }
    bins[p].push_back(r);
    if (bins[p].size() == per) {
      want.push_back(Expected{p, want.size(), std::move(bins[p])});
      bins[p].clear();
    }
    if (rng.Below(64) == 0) {  // drain between adds, like FlushPending
      while (binner.HasPending()) {
        got.push_back(binner.PopPending());
      }
    }
  }
  EXPECT_EQ(binner.emitted(), total) << what;
  binner.ParkAll();
  while (binner.HasPending()) {
    got.push_back(binner.PopPending());
  }
  for (PartitionId p = 0; p < partitions; ++p) {
    if (!bins[p].empty()) {
      want.push_back(Expected{p, want.size(), std::move(bins[p])});
    }
  }
  EXPECT_EQ(binner.emitted(), total) << what;

  EXPECT_EQ(got.size(), want.size()) << what;
  uint64_t tails = 0;
  for (size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
    const Chunk& c = got[k].second;
    const Expected& w = want[k];
    const std::string at = what + " chunk " + std::to_string(k);
    EXPECT_EQ(got[k].first, w.partition) << at;
    EXPECT_EQ(c.index, w.index) << at;
    EXPECT_EQ(c.model_bytes, w.records.size() * wire) << at;
    EXPECT_EQ(c.payload_bytes, w.records.size() * (kEdges ? sizeof(Edge) : 8 + sizeof(Value)))
        << at;
    if (c.count != w.records.size()) {
      ADD_FAILURE() << at << ": count " << c.count << " != " << w.records.size();
      continue;
    }
    tails += c.count < per ? 1 : 0;
    if constexpr (kEdges) {
      const EdgeChunkView view(c);
      for (uint32_t i = 0; i < c.count; ++i) {
        const Edge e = view.At(i);
        const Edge& r = w.records[i];
        if (!(e.src == r.src && e.dst == r.dst && e.weight == r.weight && e.flags == r.flags)) {
          ADD_FAILURE() << at << " record " << i;
          break;
        }
      }
    } else {
      const UpdateChunkView view(c, sizeof(Value));
      for (uint32_t i = 0; i < c.count; ++i) {
        if (!(view.dst()[i] == w.records[i].dst &&
              view.values_as<Value>()[i] == w.records[i].value)) {
          ADD_FAILURE() << at << " record " << i;
          break;
        }
      }
    }
  }
  return tails;
}

TEST(RecordBinnerTest, MatchesPerPartitionReferenceCuts) {
  uint64_t tails = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    tails += ExpectBinnerMatchesReference<Edge>(seed);
    tails += ExpectBinnerMatchesReference<uint32_t>(seed);
    tails += ExpectBinnerMatchesReference<uint64_t>(seed);
  }
  EXPECT_GT(tails, 100u);  // the seeds exercise the tail path, not just full chunks
}

// ------------------------------------------------- arena & chunk alignment

TEST(RecordArenaTest, LeasesAreAlignedAndRecycled) {
  RecordArena arena;
  uint8_t* first = nullptr;
  {
    auto block = arena.Lease(1000);
    ASSERT_TRUE(block);
    EXPECT_GE(block.capacity(), 1000u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(block.data()) % RecordArena::kAlign, 0u);
    first = block.data();
  }  // returned to the freelist
  EXPECT_EQ(arena.blocks_allocated(), 1u);
  auto again = arena.Lease(1000);
  EXPECT_EQ(again.data(), first);  // freelist hit, no new allocation
  EXPECT_EQ(arena.blocks_allocated(), 1u);
  EXPECT_EQ(arena.blocks_recycled(), 1u);
}

TEST(RecordArenaTest, SharedPayloadsOutliveTheArena) {
  std::shared_ptr<uint8_t> payload;
  {
    RecordArena arena;
    payload = arena.LeaseShared(256);
    std::memset(payload.get(), 0xAB, 256);
  }  // arena destroyed with the payload still out
  EXPECT_EQ(payload.get()[255], 0xAB);
  payload.reset();  // returns after close: freed directly, no crash/leak
}

TEST(RecordBatchTest, ArenaBackedZeroedAlignedAndBorrowable) {
  RecordArena arena;
  RecordBatch batch(&arena, sizeof(double), 100);
  auto span = batch.Span<double>();
  ASSERT_EQ(span.size(), 100u);
  for (double v : span) {
    EXPECT_EQ(v, 0.0);  // recycled blocks are dirty; the batch must zero
  }
  span[42] = 3.5;
  Chunk c = batch.BorrowChunk(/*index=*/0, /*start=*/40, /*n=*/10, /*model_bytes=*/80);
  auto view = ChunkSpan<double>(c);
  ASSERT_EQ(view.size(), 10u);
  EXPECT_EQ(view[2], 3.5);  // aliases the batch buffer, zero copy
}

// ----------------------------------------------------------- SoA edge chunks

std::vector<Edge> TestEdges(uint32_t n) {
  std::vector<Edge> edges(n);
  for (uint32_t i = 0; i < n; ++i) {
    edges[i] = Edge{i, 2 * i + 1, static_cast<float>(i) * 0.5f, i % 3};
  }
  return edges;
}

// Appends `v`'s bytes to a MakeSoaChunk column.
template <typename T>
void AppendColumn(std::vector<std::byte>* column, const T& v) {
  const auto bytes = std::as_bytes(std::span(&v, 1));
  column->insert(column->end(), bytes.begin(), bytes.end());
}

TEST(EdgeChunkViewTest, SoaRoundTripsAndIsAligned) {
  const auto edges = TestEdges(129);  // odd count: no accidental padding luck
  std::vector<std::vector<std::byte>> columns(4);
  for (const Edge& e : edges) {
    AppendColumn(&columns[0], e.src);
    AppendColumn(&columns[1], e.dst);
    AppendColumn(&columns[2], e.weight);
    AppendColumn(&columns[3], e.flags);
  }
  Chunk c = MakeSoaChunk(/*index=*/0, /*model_bytes=*/edges.size() * 8, ChunkLayout::kEdgeSoA,
                         static_cast<uint32_t>(edges.size()), columns);
  EXPECT_EQ(c.layout, ChunkLayout::kEdgeSoA);
  EXPECT_EQ(c.count, edges.size());
  EXPECT_EQ(c.payload_bytes, edges.size() * sizeof(Edge));
  EdgeChunkView view(c);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view.src()) % alignof(VertexId), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view.weight()) % alignof(float), 0u);
  for (uint32_t i = 0; i < view.size(); ++i) {
    const Edge e = view.At(i);
    EXPECT_EQ(e.src, edges[i].src);
    EXPECT_EQ(e.dst, edges[i].dst);
    EXPECT_EQ(e.weight, edges[i].weight);
    EXPECT_EQ(e.flags, edges[i].flags);
  }
}

TEST(EdgeChunkViewTest, BinnerParksSoaChunksThatRoundTrip) {
  auto parts = Partitioning::Compute(1024, 2, 16, 4 << 10);
  RecordArena arena;
  // 16-byte wire edges, 1 KiB chunks -> 64 edges per chunk.
  RecordBinner binner(&parts, RecordBinner::Format::kEdgeSoA, /*record_wire_bytes=*/16,
                      /*chunk_bytes=*/1 << 10, &arena);
  const auto edges = TestEdges(64);
  for (const Edge& e : edges) {
    binner.Add(/*p=*/0, e);
  }
  ASSERT_TRUE(binner.HasPending());
  auto parked = binner.PopPending();
  const Chunk& c = parked.second;
  EXPECT_EQ(c.layout, ChunkLayout::kEdgeSoA);
  EXPECT_EQ(c.count, 64u);
  EdgeChunkView view(c);
  for (uint32_t i = 0; i < 64; ++i) {
    const Edge e = view.At(i);
    EXPECT_EQ(e.src, edges[i].src);
    EXPECT_EQ(e.dst, edges[i].dst);
    EXPECT_EQ(e.weight, edges[i].weight);
    EXPECT_EQ(e.flags, edges[i].flags);
  }
}

// Tail parks must fold in records still sitting in the write-combining
// staging buffers: partition 0 gets two full 16-record flushes plus a
// 5-record staged remainder, partition 1 only staged records (its fill
// block is never leased until the drain).
TEST(EdgeChunkViewTest, BinnerParksStagedSoaTailsThatRoundTrip) {
  auto parts = Partitioning::Compute(1024, 2, 16, 4 << 10);
  RecordArena arena;
  // 16-byte wire edges, 1 KiB chunks -> 64 edges per chunk.
  RecordBinner binner(&parts, RecordBinner::Format::kEdgeSoA, /*record_wire_bytes=*/16,
                      /*chunk_bytes=*/1 << 10, &arena);
  const auto edges = TestEdges(40);
  for (uint32_t i = 0; i < 37; ++i) {
    binner.Add(/*p=*/0, edges[i]);
  }
  for (uint32_t i = 37; i < 40; ++i) {
    binner.Add(/*p=*/1, edges[i]);
  }
  EXPECT_EQ(binner.emitted(), 40u);
  EXPECT_FALSE(binner.HasPending());  // nothing filled a chunk
  binner.ParkAll();
  ASSERT_TRUE(binner.HasPending());
  auto first = binner.PopPending();
  ASSERT_TRUE(binner.HasPending());
  auto second = binner.PopPending();
  EXPECT_FALSE(binner.HasPending());
  const Chunk& c0 = first.first == 0 ? first.second : second.second;
  const Chunk& c1 = first.first == 0 ? second.second : first.second;
  ASSERT_EQ(c0.count, 37u);
  ASSERT_EQ(c1.count, 3u);
  EXPECT_EQ(c0.layout, ChunkLayout::kEdgeSoA);
  EdgeChunkView v0(c0);
  for (uint32_t i = 0; i < 37; ++i) {
    const Edge e = v0.At(i);
    EXPECT_EQ(e.src, edges[i].src);
    EXPECT_EQ(e.dst, edges[i].dst);
    EXPECT_EQ(e.weight, edges[i].weight);
    EXPECT_EQ(e.flags, edges[i].flags);
  }
  EdgeChunkView v1(c1);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(v1.At(i).dst, edges[37 + i].dst);
  }
  EXPECT_EQ(binner.emitted(), 40u);  // parked records still counted
}

// Edge sets have one layout: a stray AoS chunk is a producer bug and must
// abort in every build type rather than be misread as SoA.
TEST(EdgeChunkViewTest, AosChunkAborts) {
  const Chunk c = MakeChunk<Edge>(/*index=*/0, /*model_bytes=*/128, TestEdges(16));
  EXPECT_DEATH(EdgeChunkView{c}, "kEdgeSoA");
}

// ------------------------------------------------- update chunk SoA layout

std::vector<UpdateRecord<float>> TestUpdates(uint32_t n) {
  std::vector<UpdateRecord<float>> updates;
  updates.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    updates.push_back(UpdateRecord<float>{static_cast<VertexId>(i * 37 % 1024),
                                          static_cast<float>(i) * 0.5f + 1.0f});
  }
  return updates;
}

TEST(UpdateChunkViewTest, SoaRoundTripsAndIsAligned) {
  const auto updates = TestUpdates(129);  // odd count: no accidental padding luck
  std::vector<std::vector<std::byte>> columns(2);
  for (const auto& u : updates) {
    AppendColumn(&columns[0], u.dst);
    AppendColumn(&columns[1], u.value);
  }
  Chunk c = MakeSoaChunk(/*index=*/0, /*model_bytes=*/updates.size() * 12,
                         ChunkLayout::kUpdateSoA, static_cast<uint32_t>(updates.size()), columns);
  EXPECT_EQ(c.layout, ChunkLayout::kUpdateSoA);
  EXPECT_EQ(c.count, updates.size());
  EXPECT_EQ(c.payload_bytes, updates.size() * (sizeof(VertexId) + sizeof(float)));
  UpdateChunkView view(c, sizeof(float));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view.dst()) % alignof(VertexId), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view.values_as<float>()) % alignof(float), 0u);
  for (uint32_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.dst()[i], updates[i].dst);
    EXPECT_EQ(view.values_as<float>()[i], updates[i].value);
  }
}

TEST(UpdateChunkViewTest, BinnerParksSoaUpdateChunksThatRoundTrip) {
  auto parts = Partitioning::Compute(1024, 2, 16, 4 << 10);
  RecordArena arena;
  // 12-byte wire updates, 768-byte chunks -> 64 updates per chunk.
  RecordBinner binner(&parts, RecordBinner::Format::kUpdateSoA, /*record_wire_bytes=*/12,
                      /*chunk_bytes=*/768, &arena, /*update_value_bytes=*/sizeof(float));
  const auto updates = TestUpdates(64);
  for (const auto& u : updates) {
    binner.AddUpdate(/*p=*/0, u.dst, u.value);
  }
  ASSERT_TRUE(binner.HasPending());
  auto parked = binner.PopPending();
  const Chunk& c = parked.second;
  EXPECT_EQ(c.layout, ChunkLayout::kUpdateSoA);
  EXPECT_EQ(c.count, 64u);
  EXPECT_EQ(c.payload_bytes, 64u * (sizeof(VertexId) + sizeof(float)));
  UpdateChunkView view(c, sizeof(float));
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(view.dst()[i], updates[i].dst);
    EXPECT_EQ(view.values_as<float>()[i], updates[i].value);
  }
}

// Tail parks must fold in updates still sitting in the write-combining
// staging slots: partition 0 gets two full 16-record flushes plus a staged
// remainder, partition 1 only staged records.
TEST(UpdateChunkViewTest, BinnerParksStagedUpdateTailsThatRoundTrip) {
  auto parts = Partitioning::Compute(1024, 2, 16, 4 << 10);
  RecordArena arena;
  RecordBinner binner(&parts, RecordBinner::Format::kUpdateSoA, /*record_wire_bytes=*/12,
                      /*chunk_bytes=*/768, &arena, /*update_value_bytes=*/sizeof(float));
  const auto updates = TestUpdates(40);
  for (uint32_t i = 0; i < 37; ++i) {
    binner.AddUpdate(/*p=*/0, updates[i].dst, updates[i].value);
  }
  for (uint32_t i = 37; i < 40; ++i) {
    binner.AddUpdate(/*p=*/1, updates[i].dst, updates[i].value);
  }
  EXPECT_EQ(binner.emitted(), 40u);
  EXPECT_FALSE(binner.HasPending());  // nothing filled a chunk
  binner.ParkAll();
  ASSERT_TRUE(binner.HasPending());
  auto first = binner.PopPending();
  ASSERT_TRUE(binner.HasPending());
  auto second = binner.PopPending();
  EXPECT_FALSE(binner.HasPending());
  const Chunk& c0 = first.first == 0 ? first.second : second.second;
  const Chunk& c1 = first.first == 0 ? second.second : first.second;
  ASSERT_EQ(c0.count, 37u);
  ASSERT_EQ(c1.count, 3u);
  EXPECT_EQ(c0.layout, ChunkLayout::kUpdateSoA);
  UpdateChunkView v0(c0, sizeof(float));
  for (uint32_t i = 0; i < 37; ++i) {
    EXPECT_EQ(v0.dst()[i], updates[i].dst);
    EXPECT_EQ(v0.values_as<float>()[i], updates[i].value);
  }
  UpdateChunkView v1(c1, sizeof(float));
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(v1.dst()[i], updates[37 + i].dst);
  }
  EXPECT_EQ(binner.emitted(), 40u);  // parked records still counted
}

// Update-shaped sets have one layout: a stray AoS chunk must abort in every
// build type rather than be misread as SoA.
TEST(UpdateChunkViewTest, AosChunkAborts) {
  const Chunk c =
      MakeChunk<UpdateRecord<float>>(/*index=*/0, /*model_bytes=*/16 * 12, TestUpdates(16));
  EXPECT_DEATH((UpdateChunkView{c, sizeof(float)}), "kUpdateSoA");
}

// ------------------------------------------------ chunk fetcher targets

// Reference target choice: two scans over every machine, the first
// counting the least-loaded live engines, the second walking to the drawn
// one.
MachineId ReferencePick(const std::vector<int>& load, const std::vector<uint8_t>& empty,
                        Rng* rng) {
  const auto machines = static_cast<MachineId>(load.size());
  int best = INT32_MAX;
  int candidates = 0;
  for (MachineId m = 0; m < machines; ++m) {
    if (empty[static_cast<size_t>(m)]) {
      continue;
    }
    const int l = load[static_cast<size_t>(m)];
    if (l < best) {
      best = l;
      candidates = 1;
    } else if (l == best) {
      ++candidates;
    }
  }
  if (candidates == 0) {
    return kNoMachine;
  }
  uint64_t pick = rng->Below(static_cast<uint64_t>(candidates));
  for (MachineId m = 0; m < machines; ++m) {
    if (empty[static_cast<size_t>(m)] || load[static_cast<size_t>(m)] != best) {
      continue;
    }
    if (pick == 0) {
      return m;
    }
    --pick;
  }
  return kNoMachine;
}

// Random in-flight loads and empty flags over 1-130 machines (crossing the
// 64-machine word boundary twice): every pick equals the two-pass scan's
// from the same Rng state and consumes the same draws.
TEST(TargetPickerTest, MatchesTwoPassScan) {
  Rng gen(2024);
  uint64_t picks = 0;
  uint64_t none = 0;
  for (int round = 0; round < 400; ++round) {
    const int machines = 1 + static_cast<int>(gen.Below(130));
    const int max_load = 1 + static_cast<int>(gen.Below(8));
    TargetPicker picker(machines, max_load);
    std::vector<int> load(static_cast<size_t>(machines), 0);
    std::vector<uint8_t> empty(static_cast<size_t>(machines), 0);
    const uint64_t seed = gen.Next();
    Rng mine(seed);
    Rng ref(seed);
    for (int step = 0; step < 300; ++step) {
      const auto m = static_cast<MachineId>(gen.Below(static_cast<uint64_t>(machines)));
      const size_t i = static_cast<size_t>(m);
      switch (gen.Below(8)) {
        case 0:
          if (gen.Below(4) == 0) {  // keep most engines live for longer
            picker.Retire(m);
            empty[i] = 1;
          }
          break;
        case 1:
        case 2:
          if (load[i] > 0) {
            picker.End(m);
            --load[i];
          }
          break;
        case 3:
        case 4:
          if (load[i] < max_load) {
            picker.Begin(m);
            ++load[i];
          }
          break;
        default: {
          const MachineId want = ReferencePick(load, empty, &ref);
          const MachineId got = picker.Pick(&mine);
          ASSERT_EQ(got, want) << "round " << round << " step " << step;
          ++(want == kNoMachine ? none : picks);
          break;
        }
      }
    }
    ASSERT_EQ(picker.live(), std::count(empty.begin(), empty.end(), 0));
    // Same number of draws: the two generators are still in lockstep.
    ASSERT_EQ(mine.Next(), ref.Next()) << "round " << round;
  }
  EXPECT_GT(picks, 10000u);
  EXPECT_GT(none, 0u);
}

// --------------------------------------------------------------- clusters

ClusterConfig SmallConfig(int machines) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.memory_budget_bytes = 4 << 10;  // force several partitions per machine
  cfg.chunk_bytes = 2 << 10;          // many small chunks -> stealing units
  cfg.seed = 42;
  return cfg;
}

InputGraph TestGraph(uint64_t seed = 7) {
  RmatOptions opt;
  opt.scale = 9;  // 512 vertices, 8192 edges
  opt.edges_per_vertex = 16;
  opt.seed = seed;
  return GenerateRmat(opt);
}

TEST(ClusterPageRankTest, MatchesReferenceOnOneMachine) {
  InputGraph g = TestGraph();
  Cluster cluster(SmallConfig(1), PageRankProgram(5));
  auto result = cluster.Run(g);
  EXPECT_EQ(result.supersteps, 5u);
  EXPECT_FALSE(result.crashed);
  auto expect = ref::PageRank(g, 5);
  ASSERT_EQ(result.values.size(), expect.size());
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR(result.values[v], expect[v], 1e-3 * (1.0 + std::abs(expect[v])))
        << "vertex " << v;
  }
  EXPECT_GT(result.metrics.total_time, 0);
  EXPECT_GT(result.metrics.StorageBytesMoved(), 0u);
}

TEST(ClusterPageRankTest, MatchesReferenceAcrossMachineCounts) {
  InputGraph g = TestGraph();
  auto expect = ref::PageRank(g, 5);
  for (const int machines : {2, 4, 8}) {
    Cluster cluster(SmallConfig(machines), PageRankProgram(5));
    auto result = cluster.Run(g);
    ASSERT_EQ(result.values.size(), expect.size());
    for (size_t v = 0; v < expect.size(); ++v) {
      ASSERT_NEAR(result.values[v], expect[v], 1e-3 * (1.0 + std::abs(expect[v])))
          << "machines=" << machines << " vertex " << v;
    }
  }
}

// Pre-processing counts each vertex's out-degree from the input stream:
// every kEdgeForward record counts (self-loops and parallel edges too),
// kEdgeReverse mirrors do not, and vertices without edges get 0. The counts
// reach each vertex state exactly, at any machine count, with partitions
// that do not divide the vertex range evenly.
TEST(ClusterPageRankTest, DegreesMatchOutDegrees) {
  InputGraph g;
  g.num_vertices = 1001;  // vertices 0 and 1000 have no edges
  auto add = [&g](VertexId src, VertexId dst) {
    Edge e;
    e.src = src;
    e.dst = dst;
    g.edges.push_back(e);
  };
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const VertexId src = 1 + rng.Below(999);
    add(src, 1 + rng.Below(999));
  }
  // Two self-loops, three parallel edges, and edges at the ends of the range.
  add(5, 5);
  add(5, 5);
  for (int i = 0; i < 3; ++i) {
    add(7, 9);
  }
  add(999, 1);
  add(1, 999);
  g = MakeBidirected(g);
  const std::vector<uint32_t> expect = OutDegrees(g);
  ASSERT_EQ(expect[0], 0u);
  ASSERT_EQ(expect[1000], 0u);
  for (const int machines : {1, 3, 4}) {
    Cluster cluster(SmallConfig(machines), PageRankProgram(1));
    cluster.Run(g);
    ASSERT_NE(g.num_vertices % cluster.partitioning().num_partitions(), 0u);
    std::vector<PageRankProgram::VertexState> states;
    cluster.HostReadStates(SetKind::kVertices, &states);
    ASSERT_EQ(states.size(), g.num_vertices);
    for (VertexId v = 0; v < g.num_vertices; ++v) {
      ASSERT_EQ(states[v].degree, expect[v]) << "machines=" << machines << " vertex " << v;
    }
  }
}

TEST(ClusterBfsTest, MatchesReferenceUndirected) {
  InputGraph g = MakeUndirected(TestGraph(11));
  auto expect = ref::BfsDepths(g, 0);
  for (const int machines : {1, 4}) {
    Cluster cluster(SmallConfig(machines), BfsProgram(0));
    auto result = cluster.Run(g);
    for (size_t v = 0; v < expect.size(); ++v) {
      ASSERT_DOUBLE_EQ(result.values[v], static_cast<double>(expect[v]))
          << "machines=" << machines << " vertex " << v;
    }
  }
}

TEST(ClusterWccTest, MatchesUnionFind) {
  // Use a sparser graph so several components exist.
  InputGraph g = MakeUndirected(GenerateUniformRandom(600, 500, false, 13));
  auto expect = ref::ComponentLabels(g);
  Cluster cluster(SmallConfig(4), WccProgram{});
  auto result = cluster.Run(g);
  for (size_t v = 0; v < expect.size(); ++v) {
    ASSERT_DOUBLE_EQ(result.values[v], static_cast<double>(expect[v])) << "vertex " << v;
  }
}

TEST(ClusterSsspTest, MatchesDijkstra) {
  RmatOptions opt;
  opt.scale = 8;
  opt.weighted = true;
  opt.seed = 17;
  InputGraph g = MakeUndirected(GenerateRmat(opt));
  auto expect = ref::DijkstraDistances(g, 3);
  Cluster cluster(SmallConfig(4), SsspProgram(3));
  auto result = cluster.Run(g);
  for (size_t v = 0; v < expect.size(); ++v) {
    if (std::isinf(expect[v])) {
      ASSERT_TRUE(std::isinf(result.values[v])) << "vertex " << v;
    } else {
      ASSERT_NEAR(result.values[v], expect[v], 1e-2) << "vertex " << v;
    }
  }
}

TEST(ClusterSpmvTest, MatchesReference) {
  RmatOptions opt;
  opt.scale = 8;
  opt.weighted = true;
  opt.seed = 19;
  InputGraph g = GenerateRmat(opt);
  std::vector<double> x(g.num_vertices);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    x[v] = SpmvProgram::InputVector(v);
  }
  auto expect = ref::SpMV(g, x);
  Cluster cluster(SmallConfig(2), SpmvProgram{});
  auto result = cluster.Run(g);
  EXPECT_EQ(result.supersteps, 1u);
  for (size_t v = 0; v < expect.size(); ++v) {
    ASSERT_NEAR(result.values[v], expect[v], 1e-2 * (1.0 + std::abs(expect[v])))
        << "vertex " << v;
  }
}

TEST(ClusterConductanceTest, MatchesReference) {
  InputGraph g = TestGraph(23);
  std::vector<uint8_t> member(g.num_vertices);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    member[v] = ConductanceProgram::InSubset(v) ? 1 : 0;
  }
  const double expect = ref::Conductance(g, member);
  Cluster cluster(SmallConfig(4), ConductanceProgram{});
  auto result = cluster.Run(g);
  EXPECT_EQ(result.supersteps, 1u);
  EXPECT_NEAR(result.scalar, expect, 1e-12);
}

TEST(ClusterBpTest, MatchesDenseReference) {
  RmatOptions opt;
  opt.scale = 8;
  opt.weighted = true;
  opt.seed = 29;
  InputGraph g = GenerateRmat(opt);
  std::vector<double> priors(g.num_vertices);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    priors[v] = static_cast<double>(BpProgram::Prior(v));
  }
  auto expect = ref::BeliefPropagation(g, priors, 4, 0.5);
  Cluster cluster(SmallConfig(2), BpProgram(4, 0.5f));
  auto result = cluster.Run(g);
  for (size_t v = 0; v < expect.size(); ++v) {
    ASSERT_NEAR(result.values[v], expect[v], 1e-2 * (1.0 + std::abs(expect[v])))
        << "vertex " << v;
  }
}

// Order-independence property (§2): the same run with different stealing
// bias, placement or seed produces the same answer.
TEST(ClusterPropertyTest, ResultInvariantUnderStealingAndPlacement) {
  InputGraph g = MakeUndirected(TestGraph(31));
  auto expect = ref::BfsDepths(g, 0);
  for (const double alpha : {0.0, 1.0, std::numeric_limits<double>::infinity()}) {
    ClusterConfig cfg = SmallConfig(4);
    cfg.alpha = alpha;
    Cluster cluster(cfg, BfsProgram(0));
    auto result = cluster.Run(g);
    for (size_t v = 0; v < expect.size(); ++v) {
      ASSERT_DOUBLE_EQ(result.values[v], static_cast<double>(expect[v]))
          << "alpha=" << alpha << " vertex " << v;
    }
  }
  for (const Placement placement :
       {Placement::kLocalMaster, Placement::kCentralDirectory}) {
    ClusterConfig cfg = SmallConfig(4);
    cfg.placement = placement;
    Cluster cluster(cfg, BfsProgram(0));
    auto result = cluster.Run(g);
    for (size_t v = 0; v < expect.size(); ++v) {
      ASSERT_DOUBLE_EQ(result.values[v], static_cast<double>(expect[v]))
          << "placement=" << static_cast<int>(placement) << " vertex " << v;
    }
  }
}

TEST(ClusterPropertyTest, DeterministicRuntimeForSameSeed) {
  InputGraph g = TestGraph(37);
  auto run = [&](uint64_t seed) {
    ClusterConfig cfg = SmallConfig(4);
    cfg.seed = seed;
    Cluster cluster(cfg, PageRankProgram(3));
    return cluster.Run(g).metrics.total_time;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));  // placement randomness shifts timing
}

TEST(ClusterPropertyTest, ChunkSizeDoesNotChangeResults) {
  InputGraph g = TestGraph(41);
  auto expect = ref::PageRank(g, 3);
  for (const uint64_t chunk : {512u, 4096u, 65536u}) {
    ClusterConfig cfg = SmallConfig(2);
    cfg.chunk_bytes = chunk;
    Cluster cluster(cfg, PageRankProgram(3));
    auto result = cluster.Run(g);
    for (size_t v = 0; v < expect.size(); ++v) {
      ASSERT_NEAR(result.values[v], expect[v], 1e-3 * (1.0 + std::abs(expect[v])))
          << "chunk=" << chunk << " vertex " << v;
    }
  }
}

// Run() ingests its edge list as one batch through the streaming ingest, so
// RunStreaming must give the same run bit for bit whatever the batch size:
// one edge, 7 edges, one edge short of and past a chunk, the whole list.
// Weighted 12-byte edges make a chunk 170 edges, not a power of two.
TEST(ClusterIngestTest, StreamingMatchesRunAtAnyBatchSize) {
  RmatOptions gen;
  gen.scale = 9;
  gen.edges_per_vertex = 16;
  gen.weighted = true;
  gen.seed = 53;
  const InputGraph g = GenerateRmat(gen);
  for (const Placement placement : {Placement::kRandom, Placement::kCentralDirectory}) {
    ClusterConfig cfg = SmallConfig(4);
    cfg.placement = placement;
    const auto want = Cluster(cfg, PageRankProgram(3)).Run(g);
    const uint64_t per_chunk = cfg.chunk_bytes / g.edge_wire_bytes();
    ASSERT_EQ(per_chunk, 170u);
    for (const uint64_t batch : {uint64_t{1}, uint64_t{7}, per_chunk - 1, per_chunk + 1,
                                 uint64_t{g.edges.size()}}) {
      Cluster cluster(cfg, PageRankProgram(3));
      const auto got = cluster.RunStreaming(
          g.num_vertices, g.weighted, [&](const Cluster::BatchSink& sink) {
            for (uint64_t start = 0; start < g.edges.size(); start += batch) {
              const uint64_t end = std::min<uint64_t>(start + batch, g.edges.size());
              sink(std::vector<Edge>(g.edges.begin() + static_cast<int64_t>(start),
                                     g.edges.begin() + static_cast<int64_t>(end)));
            }
          });
      EXPECT_EQ(got.values, want.values) << "batch " << batch;
      EXPECT_EQ(got.metrics.total_time, want.metrics.total_time) << "batch " << batch;
      EXPECT_EQ(got.metrics.network_bytes, want.metrics.network_bytes) << "batch " << batch;
      EXPECT_EQ(got.metrics.superstep_end_times, want.metrics.superstep_end_times)
          << "batch " << batch;
    }
  }
}

TEST(ClusterMetricsTest, AccountingSane) {
  InputGraph g = TestGraph(43);
  Cluster cluster(SmallConfig(4), PageRankProgram(3));
  auto result = cluster.Run(g);
  const RunMetrics& m = result.metrics;
  EXPECT_EQ(m.machines.size(), 4u);
  EXPECT_EQ(m.devices.size(), 4u);
  EXPECT_GT(m.preprocess_time, 0);
  EXPECT_LT(m.preprocess_time, m.total_time);
  // All edges processed once per scatter superstep.
  uint64_t edges = 0;
  for (const auto& mm : m.machines) {
    edges += mm.edges_processed;
  }
  EXPECT_EQ(edges, g.num_edges() * 3u);  // 3 supersteps (PR runs scatter each)
  // Every update emitted is gathered exactly once.
  uint64_t emitted = 0;
  uint64_t gathered = 0;
  for (const auto& mm : m.machines) {
    emitted += mm.updates_emitted;
    gathered += mm.updates_processed;
  }
  EXPECT_EQ(emitted, gathered);
  // Device utilization within [0, 1]; some bytes on every device.
  EXPECT_GT(m.MeanDeviceUtilization(), 0.0);
  EXPECT_LE(m.MeanDeviceUtilization(), 1.0);
  for (const auto& d : m.devices) {
    EXPECT_GT(d.bytes_read + d.bytes_written, 0u);
  }
  EXPECT_GT(m.network_bytes, 0u);
}

TEST(ClusterMetricsTest, BreakdownBucketsCoverRuntime) {
  InputGraph g = TestGraph(47);
  Cluster cluster(SmallConfig(4), PageRankProgram(3));
  auto result = cluster.Run(g);
  for (const auto& mm : result.metrics.machines) {
    const TimeNs tracked = mm.TotalTracked();
    EXPECT_GT(tracked, 0);
    // Buckets are measured on the main engine coroutine; they may not sum
    // exactly to wall time but must never exceed it (plus scheduling slop).
    EXPECT_LE(tracked, result.metrics.total_time + kNsPerMs);
  }
}

TEST(ClusterStealingTest, StealsHappenOnSkewedLoad) {
  // Unpermuted RMAT concentrates edges at low vertex ids -> partition 0 is
  // heavy -> other machines should steal.
  RmatOptions opt;
  opt.scale = 10;
  opt.permute_ids = false;
  opt.seed = 5;
  InputGraph g = GenerateRmat(opt);
  ClusterConfig cfg = SmallConfig(4);
  Cluster cluster(cfg, PageRankProgram(3));
  auto result = cluster.Run(g);
  uint64_t steals = 0;
  for (const auto& mm : result.metrics.machines) {
    steals += mm.steals_worked;
  }
  EXPECT_GT(steals, 0u);
}

TEST(ClusterStealingTest, AlphaZeroDisablesStealing) {
  RmatOptions opt;
  opt.scale = 10;
  opt.permute_ids = false;
  opt.seed = 5;
  InputGraph g = GenerateRmat(opt);
  ClusterConfig cfg = SmallConfig(4);
  cfg.alpha = 0.0;
  Cluster cluster(cfg, PageRankProgram(3));
  auto result = cluster.Run(g);
  for (const auto& mm : result.metrics.machines) {
    EXPECT_EQ(mm.steals_worked, 0u);
    EXPECT_EQ(mm.bucket(Bucket::kGpSteal), 0);
  }
}

}  // namespace
}  // namespace chaos
