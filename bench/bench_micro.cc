// Host-time microbenchmarks of the simulator itself: per-edge scatter and
// grid-partitioning cost, event queue, coroutine and chunk throughput, and
// generator speed, then paired A/Bs of each hot-path structure against the
// one it replaced. The per-edge figures can be set beside CostModel's fixed
// defaults (core/config.h) and fig20's --grid-ns-per-edge; nothing here
// changes either.
//
// Self-contained timing harness (no google-benchmark dependency): each
// benchmark body is run for an adaptive number of iterations until the
// measured window exceeds --min-ms, then ns/op and items/s are reported.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "algorithms/basic.h"
#include "baselines/grid_partitioner.h"
#include "bench/bench_common.h"
#include "core/edge_chunk_view.h"
#include "core/gas.h"
#include "core/partition.h"
#include "core/record_arena.h"
#include "core/record_binner.h"
#include "core/update_chunk_view.h"
#include "graph/generators.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "storage/chunk.h"
#include "util/rng.h"

namespace chaos {
namespace {

template <typename T>
inline void DoNotOptimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

struct MicroCase {
  const char* name;
  // Runs `iters` iterations of the benchmark body and returns the number of
  // logical items processed (edges, events, ...) across all iterations.
  std::function<uint64_t(uint64_t iters)> run;
};

InputGraph& BenchGraph() {
  static InputGraph g = [] {
    RmatOptions opt;
    opt.scale = 14;
    opt.seed = 7;
    return GenerateRmat(opt);
  }();
  return g;
}

// Per-edge cost of the PageRank scatter path (binning included): the basis
// for CostModel::ns_per_edge_scatter.
uint64_t RunScatterPerEdge(uint64_t iters) {
  const InputGraph& g = BenchGraph();
  auto parts = Partitioning::Compute(g.num_vertices, 4, 16, 1 << 20);
  PageRankProgram prog(1);
  PageRankProgram::GlobalState global{1};
  std::vector<PageRankProgram::VertexState> states(g.num_vertices,
                                                   PageRankProgram::VertexState{1.0f, 16});
  std::vector<std::vector<UpdateRecord<float>>> bins(parts.num_partitions());
  for (uint64_t it = 0; it < iters; ++it) {
    for (auto& bin : bins) {
      bin.clear();
    }
    auto emit = [&](VertexId dst, const float& value) {
      bins[parts.PartitionOf(dst)].push_back(UpdateRecord<float>{dst, value});
    };
    for (const Edge& e : g.edges) {
      prog.Scatter(global, e.src, states[e.src], e, emit);
    }
    DoNotOptimize(bins);
  }
  return iters * g.num_edges();
}

// Per-edge cost of grid partitioning: the basis for --grid-ns-per-edge.
uint64_t RunGridPartitionPerEdge(uint64_t iters) {
  const InputGraph& g = BenchGraph();
  for (uint64_t it = 0; it < iters; ++it) {
    auto result = GridPartition(g, 16, 7);
    DoNotOptimize(result);
  }
  return iters * g.num_edges();
}

uint64_t RunEventQueueThroughput(uint64_t iters) {
  for (uint64_t it = 0; it < iters; ++it) {
    EventQueue q;
    for (int i = 0; i < 10000; ++i) {
      q.Push((i * 2654435761u) % 100000, [] {});
    }
    while (!q.empty()) {
      DoNotOptimize(q.Pop());
    }
  }
  return iters * 10000;
}

// Event push/pop with a realistic wakeup capture (shared flag + pointer,
// ~24 B — what FifoResource and the sync primitives post): the case EventFn
// stores inline where a std::function-based queue heap-allocated per Push.
uint64_t RunEventQueueCapturedPush(uint64_t iters) {
  auto flag = std::make_shared<bool>(false);
  uint64_t sink = 0;
  for (uint64_t it = 0; it < iters; ++it) {
    EventQueue q;
    for (int i = 0; i < 10000; ++i) {
      q.Push((i * 2654435761u) % 100000, [flag, &sink] {
        if (!*flag) {
          ++sink;
        }
      });
    }
    while (!q.empty()) {
      q.Pop().fn();
    }
  }
  DoNotOptimize(sink);
  return iters * 10000;
}

uint64_t RunCoroutineDelayRoundtrip(uint64_t iters) {
  for (uint64_t it = 0; it < iters; ++it) {
    Simulator sim;
    sim.Spawn([](Simulator* s) -> Task<> {
      for (int i = 0; i < 1000; ++i) {
        co_await s->Delay(10);
      }
    }(&sim));
    sim.Run();
  }
  return iters * 1000;
}

uint64_t RunRmatGeneration(uint64_t iters) {
  RmatOptions opt;
  opt.scale = 12;
  opt.seed = 7;
  for (uint64_t it = 0; it < iters; ++it) {
    auto g = GenerateRmat(opt);
    DoNotOptimize(g);
  }
  return iters * (16ull << 12);
}

uint64_t RunChunkRoundTrip(uint64_t iters) {
  std::vector<Edge> edges(8192);
  for (uint64_t it = 0; it < iters; ++it) {
    auto copy = edges;
    Chunk c = MakeChunk<Edge>(0, copy.size() * 8, std::move(copy));
    auto span = ChunkSpan<Edge>(c);
    DoNotOptimize(span);
  }
  return iters * 8192;
}

const std::vector<MicroCase>& MicroCases() {
  static const std::vector<MicroCase> kCases = {
      {"ScatterPerEdge", RunScatterPerEdge},
      {"GridPartitionPerEdge", RunGridPartitionPerEdge},
      {"EventQueueThroughput", RunEventQueueThroughput},
      {"EventQueueCapturedPush", RunEventQueueCapturedPush},
      {"CoroutineDelayRoundtrip", RunCoroutineDelayRoundtrip},
      {"RmatGeneration", RunRmatGeneration},
      {"ChunkRoundTrip", RunChunkRoundTrip},
  };
  return kCases;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------- paired A/B micros
//
// Baseline-vs-optimized pairs for the DES hot-path work: the calendar queue
// against the binary heap, the arena-backed binner against the old
// regrow-a-vector-per-chunk binner (replicated here verbatim as the A side),
// and the same SoA bin/scan cycle for the update plane. Host timings —
// recorded as metrics so the pinned BENCH json documents the measured
// speedups, but excluded from the cross-host byte-compare.

// Baseline for the hold pair: the textbook binary heap (std::push_heap /
// std::pop_heap) over the same (time, seq, EventFn) events EventQueue
// stores, in the same pop order.
class StdHeapQueue {
 public:
  void Push(TimeNs time, EventFn fn) {
    heap_.push_back({time, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }
  EventQueue::Event Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    EventQueue::Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

 private:
  static bool Later(const EventQueue::Event& a, const EventQueue::Event& b) {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  }
  std::vector<EventQueue::Event> heap_;
  uint64_t next_seq_ = 0;
};

// Classic hold model: a large resident event population; every op pops the
// minimum and schedules a replacement at a random future offset. This is
// the simulator's steady-state shape, where a binary heap pays O(log n)
// sifts per op and the calendar queue stays O(1).
template <typename Queue>
class HoldWorkload {
 public:
  HoldWorkload() : rng_(42) {
    for (int i = 0; i < kResident; ++i) {
      q_.Push(now_ + Jitter(), [] {});
    }
  }

  uint64_t RunBatch() {
    for (int i = 0; i < kBatch; ++i) {
      now_ = q_.Pop().time;
      q_.Push(now_ + Jitter(), [] {});
    }
    DoNotOptimize(now_);
    return kBatch;
  }

  static constexpr int kResident = 1 << 20;  // 1M queued events: RMAT-32-
                                             // cluster-scale outstanding I/O

 private:
  // Reschedule offsets up to ~65 us (in sim ns): the spread of storage and
  // network completion latencies that dominate the simulator's event mix.
  // Dense timestamps at a large resident count are exactly where the heap's
  // O(log n) sift (random leaf paths through a multi-MB array) loses to the
  // calendar's O(1) bucket ops.
  TimeNs Jitter() { return static_cast<TimeNs>(1 + rng_.Below(1 << 16)); }
  static constexpr int kBatch = 1 << 17;
  Queue q_;
  Rng rng_;
  TimeNs now_ = 0;
};

// The edge-record lifecycle, both eras: bin a full edge set by partition,
// park chunks as they fill, then stream every parked chunk kScanPasses
// times — edge sets are written once at preprocessing and re-scanned every
// superstep (fig_scale's default BFS runs more supersteps than this). The
// set is larger than any server L3 so the scan passes stream from DRAM,
// like real supersteps walking a partition's whole edge set, rather than
// re-reading a still-cached just-parked chunk.
constexpr int kBinnerPartitions = 64;
// Chunk size in the range the figure-bench configs compute (fig_scale's
// default lands at ~262 KB chunks); large enough that the legacy path's
// per-cycle buffer regrowth churns the allocator's large-block machinery.
constexpr uint64_t kBinnerChunkBytes = 256 << 10;
constexpr uint64_t kEdgeWireBytes = 16;  // paper wire format: two 8-byte ids
constexpr int kScanPasses = 8;
constexpr uint64_t kBinnerBatchEdges = 16ull << 20;  // 384 MB AoS working set

// AoS scan as the pre-SoA GasKernel did it: 24-byte-stride Edge loads.
uint64_t ScanEdgesAos(const Edge* e, uint32_t n) {
  uint64_t acc = 0;
  for (uint32_t i = 0; i < n; ++i) {
    acc += e[i].flags == kEdgeForward ? e[i].dst : 0;
  }
  return acc;
}

// SoA scan as GasKernel::ScatterChunk does it: contiguous per-field arrays
// (see core/edge_chunk_view.h).
uint64_t ScanEdgesSoa(const EdgeChunkView& view) {
  const VertexId* __restrict dst = view.dst();
  const uint32_t* __restrict flags = view.flags();
  uint64_t acc = 0;
  const uint32_t n = view.size();
  for (uint32_t i = 0; i < n; ++i) {
    acc += flags[i] == kEdgeForward ? dst[i] : 0;
  }
  return acc;
}

// The pre-arena RecordBinner path, replicated from its last vector
// incarnation: per-record vector::insert, and a park that moves the buffer
// into a make_shared holder — so every chunk cycle regrows the partition's
// vector from scratch (the moved-from buffer has no capacity left) and
// allocates a fresh payload per chunk. Parked payloads are retained, like
// chunks written to a partition's edge set.
class LegacyVectorBinner {
 public:
  LegacyVectorBinner(size_t partitions, uint64_t records_per_chunk)
      : records_per_chunk_(records_per_chunk), buffers_(partitions) {}

  // Mirrors the old Add() line for line, including the per-record counter
  // and the fill check's multiply.
  void Add(PartitionId p, const Edge& record) {
    auto& buffer = buffers_[p];
    const auto* raw = reinterpret_cast<const uint8_t*>(&record);
    buffer.insert(buffer.end(), raw, raw + sizeof(Edge));
    ++emitted_;
    if (buffer.size() >= records_per_chunk_ * sizeof(Edge)) {
      parked_.push_back(std::make_shared<std::vector<uint8_t>>(std::move(buffer)));
      buffer.clear();
    }
  }

  // One superstep: stream every parked chunk with the AoS loop.
  uint64_t ScanAll() const {
    uint64_t acc = 0;
    for (const auto& holder : parked_) {
      acc += ScanEdgesAos(reinterpret_cast<const Edge*>(holder->data()),
                          static_cast<uint32_t>(holder->size() / sizeof(Edge)));
    }
    return acc;
  }

  void DropParked() { parked_.clear(); }

 private:
  uint64_t records_per_chunk_;
  uint64_t emitted_ = 0;
  std::vector<std::vector<uint8_t>> buffers_;
  std::vector<std::shared_ptr<std::vector<uint8_t>>> parked_;
};

uint64_t RunLegacyBinnerBatch(LegacyVectorBinner* binner) {
  for (uint64_t i = 0; i < kBinnerBatchEdges; ++i) {
    Edge e{i, i ^ 0x9e3779b9u, 1.0f, kEdgeForward};
    binner->Add(static_cast<PartitionId>(i & (kBinnerPartitions - 1)), e);
  }
  uint64_t acc = 0;
  for (int s = 0; s < kScanPasses; ++s) {
    acc += binner->ScanAll();
  }
  DoNotOptimize(acc);
  binner->DropParked();  // chunks freed after their last superstep scan
  return kBinnerBatchEdges;
}

uint64_t RunArenaBinnerBatch(RecordBinner* binner) {
  std::vector<Chunk> parked;
  for (uint64_t i = 0; i < kBinnerBatchEdges; ++i) {
    Edge e{i, i ^ 0x9e3779b9u, 1.0f, kEdgeForward};
    binner->Add(static_cast<PartitionId>(i & (kBinnerPartitions - 1)), e);
  }
  // Drain parked chunks after the bin loop, like the engine's between-chunk
  // FlushPending (the per-record path never polls the pending queue).
  while (binner->HasPending()) {
    parked.push_back(binner->PopPending().second);
  }
  uint64_t acc = 0;
  for (int s = 0; s < kScanPasses; ++s) {
    for (const Chunk& chunk : parked) {
      EdgeChunkView view(chunk);
      acc += ScanEdgesSoa(view);
    }
  }
  DoNotOptimize(acc);
  parked.clear();  // payload blocks return to the arena freelist
  return kBinnerBatchEdges;
}

// The update-record lifecycle, same cycle at gather scale: updates are
// binned by destination partition during scatter and the parked chunks are
// re-scanned by gather. 12-byte wire records (8-byte dst id + 4-byte float
// value, PageRank's shape); the chunk holds 16384 records.
// Unlike edge sets (re-scanned every superstep, kScanPasses), an update
// chunk is consumed exactly once by gather, so this pair scans once —
// the bin/park side carries its real per-superstep weight. The batch
// matches the edge pair's record count (256 MB AoS here): update streams
// are superstep-sized, and the batch has to clear even the largest server
// L3s so both eras stream from DRAM instead of measuring cache residency.
constexpr uint64_t kUpdateWireBytes = 12;
constexpr uint64_t kUpdateChunkBytes = 16384 * kUpdateWireBytes;
constexpr int kUpdateScanPasses = 1;
constexpr uint64_t kUpdateBatch = 16ull << 20;

// AoS update scan as the pre-SoA gather loop did it: 16-byte-stride
// UpdateRecord<float> loads for an 8+4-byte logical payload.
uint64_t ScanUpdatesAos(const UpdateRecord<float>* r, uint32_t n) {
  uint64_t acc = 0;
  for (uint32_t i = 0; i < n; ++i) {
    acc += r[i].value > 0.0f ? r[i].dst : 0;
  }
  return acc;
}

// SoA update scan as GasKernel::GatherChunk does it: contiguous dst and
// value columns under __restrict (core/update_chunk_view.h).
uint64_t ScanUpdatesSoa(const UpdateChunkView& view) {
  const VertexId* __restrict dst = view.dst();
  const float* __restrict value = view.values_as<float>();
  uint64_t acc = 0;
  const uint32_t n = view.size();
  for (uint32_t i = 0; i < n; ++i) {
    acc += value[i] > 0.0f ? dst[i] : 0;
  }
  return acc;
}

// The pre-SoA update path, mirroring LegacyVectorBinner's incarnation for
// the update plane: per-partition std::vector<UpdateRecord<float>> bins
// (the shape the kernel's emit lambdas materialized before the binner
// grew AddUpdate), each full bin moved into a fresh make_shared holder —
// so every chunk cycle regrows the partition's vector from scratch and
// allocates a fresh payload per chunk — and re-scanned with AoS loads.
class LegacyUpdateBinner {
 public:
  LegacyUpdateBinner(size_t partitions, uint64_t records_per_chunk)
      : records_per_chunk_(records_per_chunk), buffers_(partitions) {}

  void Add(PartitionId p, VertexId dst, float value) {
    auto& buffer = buffers_[p];
    buffer.push_back(UpdateRecord<float>{dst, value});
    if (buffer.size() >= records_per_chunk_) {
      parked_.push_back(
          std::make_shared<std::vector<UpdateRecord<float>>>(std::move(buffer)));
      buffer.clear();
    }
  }

  uint64_t ScanAll() const {
    uint64_t acc = 0;
    for (const auto& holder : parked_) {
      acc += ScanUpdatesAos(holder->data(), static_cast<uint32_t>(holder->size()));
    }
    return acc;
  }

  void DropParked() { parked_.clear(); }

 private:
  uint64_t records_per_chunk_;
  std::vector<std::vector<UpdateRecord<float>>> buffers_;
  std::vector<std::shared_ptr<std::vector<UpdateRecord<float>>>> parked_;
};

uint64_t RunLegacyUpdateBatch(LegacyUpdateBinner* binner) {
  for (uint64_t i = 0; i < kUpdateBatch; ++i) {
    binner->Add(static_cast<PartitionId>(i & (kBinnerPartitions - 1)),
                i ^ 0x9e3779b9u, static_cast<float>(i & 0xff) + 1.0f);
  }
  uint64_t acc = 0;
  for (int s = 0; s < kUpdateScanPasses; ++s) {
    acc += binner->ScanAll();
  }
  DoNotOptimize(acc);
  binner->DropParked();  // chunks freed after their gather scan
  return kUpdateBatch;
}

uint64_t RunSoaUpdateBatch(RecordBinner* binner) {
  std::vector<Chunk> parked;
  for (uint64_t i = 0; i < kUpdateBatch; ++i) {
    binner->AddUpdate(static_cast<PartitionId>(i & (kBinnerPartitions - 1)),
                      i ^ 0x9e3779b9u, static_cast<float>(i & 0xff) + 1.0f);
  }
  while (binner->HasPending()) {
    parked.push_back(binner->PopPending().second);
  }
  uint64_t acc = 0;
  for (int s = 0; s < kUpdateScanPasses; ++s) {
    for (const Chunk& chunk : parked) {
      const UpdateChunkView view(chunk, sizeof(float));
      acc += ScanUpdatesSoa(view);
    }
  }
  DoNotOptimize(acc);
  parked.clear();  // payload blocks return to the arena freelist
  return kUpdateBatch;
}

// Adaptive ns-per-item over a persistent-state batch body.
double MeasureNsPerItem(const std::function<uint64_t()>& batch, double min_ms) {
  batch();  // warm: containers, arena freelists, calendar buckets
  uint64_t reps = 1;
  for (;;) {
    const double start = NowMs();
    uint64_t items = 0;
    for (uint64_t r = 0; r < reps; ++r) {
      items += batch();
    }
    const double elapsed_ms = NowMs() - start;
    if (elapsed_ms >= min_ms || reps >= (1ull << 24)) {
      return elapsed_ms * 1e6 / static_cast<double>(items);
    }
    const double growth = elapsed_ms > 0.0 ? (min_ms * 1.4) / elapsed_ms : 16.0;
    reps = std::max<uint64_t>(reps + 1, static_cast<uint64_t>(reps * growth));
  }
}

}  // namespace
}  // namespace chaos

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(micro, "Host-time microbenchmarks and hot-path A/B pairs") {
  Options opt;
  // Up to an hour: iteration caps end longer windows early anyway.
  opt.AddDouble("min-ms", 100.0, "minimum measured window per benchmark, in ms", 0.0, 3.6e6);
  opt.AddString("filter", "", "only run benchmarks whose name contains this substring");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const double min_ms = opt.GetDouble("min-ms");
  const std::string& filter = opt.GetString("filter");

  PrintHeader({"benchmark", "iters", "ns/op", "items/s"});
  for (const MicroCase& c : MicroCases()) {
    if (!filter.empty() && std::string(c.name).find(filter) == std::string::npos) {
      continue;
    }
    // Warm up once, then grow the iteration count until the window is long
    // enough to be trustworthy.
    c.run(1);
    uint64_t iters = 1;
    double elapsed_ms = 0.0;
    uint64_t items = 0;
    for (;;) {
      const double start = NowMs();
      items = c.run(iters);
      elapsed_ms = NowMs() - start;
      if (elapsed_ms >= min_ms || iters >= (1ull << 30)) {
        break;
      }
      const double growth = elapsed_ms > 0.0 ? (min_ms * 1.4) / elapsed_ms : 16.0;
      iters = std::max<uint64_t>(iters + 1, static_cast<uint64_t>(iters * growth));
    }
    const double ns_per_op = elapsed_ms * 1e6 / static_cast<double>(iters);
    const double items_per_sec =
        elapsed_ms > 0.0 ? static_cast<double>(items) * 1e3 / elapsed_ms : 0.0;
    PrintCell(c.name);
    PrintCell(static_cast<double>(iters), "%.0f");
    PrintCell(ns_per_op, "%.1f");
    PrintCell(items_per_sec, "%.3g");
    EndRow();
  }

  // Paired A/B hot-path micros (see the section comment above). Each row is
  // baseline-vs-optimized on the identical workload; the speedups are
  // recorded as metrics so the pinned BENCH json carries them.
  struct Pair {
    const char* name;
    const char* metric;  // metric key prefix
    std::function<double(double)> baseline_ns;
    std::function<double(double)> optimized_ns;
  };
  const std::vector<Pair> pairs = {
      {"EventQueueHold1M", "micro.event_queue_hold",
       [](double ms) {
         HoldWorkload<StdHeapQueue> w;
         return MeasureNsPerItem([&] { return w.RunBatch(); }, ms);
       },
       [](double ms) {
         HoldWorkload<EventQueue> w;
         return MeasureNsPerItem([&] { return w.RunBatch(); }, ms);
       }},
      {"EdgeBinParkScanCycle", "micro.binner_cycle",
       [](double ms) {
         LegacyVectorBinner binner(
             kBinnerPartitions,
             RecordBinner::RecordsPerChunk(kBinnerChunkBytes, kEdgeWireBytes));
         return MeasureNsPerItem([&] { return RunLegacyBinnerBatch(&binner); }, ms);
       },
       [](double ms) {
         auto parts = Partitioning::WithPartitions(4096, 4, kBinnerPartitions);
         RecordArena arena;
         RecordBinner binner(&parts, RecordBinner::Format::kEdgeSoA, kEdgeWireBytes,
                             kBinnerChunkBytes, &arena);
         return MeasureNsPerItem([&] { return RunArenaBinnerBatch(&binner); }, ms);
       }},
      {"UpdateBinGatherCycle", "micro.update_bin_cycle",
       [](double ms) {
         LegacyUpdateBinner binner(
             kBinnerPartitions,
             RecordBinner::RecordsPerChunk(kUpdateChunkBytes, kUpdateWireBytes));
         return MeasureNsPerItem([&] { return RunLegacyUpdateBatch(&binner); }, ms);
       },
       [](double ms) {
         auto parts = Partitioning::WithPartitions(4096, 4, kBinnerPartitions);
         RecordArena arena;
         RecordBinner binner(&parts, RecordBinner::Format::kUpdateSoA, kUpdateWireBytes,
                             kUpdateChunkBytes, &arena, sizeof(float));
         return MeasureNsPerItem([&] { return RunSoaUpdateBatch(&binner); }, ms);
       }},
  };
  std::printf("\n");
  PrintHeader({"pair", "baseline", "optimized", "speedup"});
  for (const Pair& p : pairs) {
    if (!filter.empty() && std::string(p.name).find(filter) == std::string::npos) {
      continue;
    }
    const double base_ns = p.baseline_ns(min_ms);
    const double opt_ns = p.optimized_ns(min_ms);
    const double speedup = opt_ns > 0.0 ? base_ns / opt_ns : 0.0;
    RecordMetric(std::string(p.metric) + ".baseline_ns_per_op", base_ns);
    RecordMetric(std::string(p.metric) + ".optimized_ns_per_op", opt_ns);
    RecordMetric(std::string(p.metric) + ".speedup", speedup);
    PrintCell(p.name);
    PrintCell(base_ns, "%.1f");
    PrintCell(opt_ns, "%.1f");
    PrintCell(speedup, "%.2fx");
    EndRow();
  }
  return 0;
}
