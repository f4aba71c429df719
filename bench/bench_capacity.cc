// §9.3 capacity scaling: the paper's trillion-edge milestone. RMAT-36
// (250 B vertices, 1 T edges, 16 TB input) ran BFS in ~9 h and 5 PR
// iterations in ~19 h on 32 machines / 64 HDDs at ~7 GB/s aggregate,
// moving 214 TB (BFS) and 395 TB (PR).
//
// We run the largest graph that fits this host at a tiny per-machine memory
// budget (deep out-of-core regime), report the simulated I/O volume and
// aggregate bandwidth, and project linearly to RMAT-36 — the system's I/O
// volume per edge is scale-free.
#include "bench/bench_common.h"

using namespace chaos;
using namespace chaos::bench;

CHAOS_BENCH_MAIN(capacity, "Sec 9.3 capacity scaling toward the trillion-edge milestone") {
  Options opt;
  opt.AddInt("scale", 15, "RMAT scale (paper: 36)", 0, kMaxBenchScale);
  opt.AddInt("machines", 32, "machines", 1, kMaxBenchMachines);
  opt.AddInt("mem-mb", 0,
             "enforced per-machine memory budget in MiB (0 = derived: the partition "
             "working set plus streaming headroom; smaller budgets spill)",
             0, INT64_MAX >> 20);
  opt.AddInt("seed", 1, "seed");
  if (!ParseFlags(opt, argc, argv)) {
    return 1;
  }
  const auto scale = static_cast<uint32_t>(opt.GetInt("scale"));
  const int machines = static_cast<int>(opt.GetInt("machines"));
  const auto mem_mb = static_cast<uint64_t>(opt.GetInt("mem-mb"));
  const auto seed = static_cast<uint64_t>(opt.GetInt("seed"));
  const std::vector<std::string> algos = {"bfs", "pagerank"};

  struct CapacityPoint {
    AlgoResult result;
    uint64_t num_edges = 0;
  };
  Sweep<CapacityPoint> sweep;
  for (const std::string& name : algos) {
    sweep.Add([name, scale, machines, mem_mb, seed] {
      InputGraph prepared = PrepareInput(name, BenchRmat(scale, false, seed));
      ClusterConfig cfg =
          BenchClusterConfig(prepared, machines, seed, StorageConfig::Hdd());
      // Deep out-of-core: ~8 partitions per machine, with the per-machine
      // memory budget ENFORCED by the buffer pool (not just the advisory
      // partition-sizing scalar): --mem-mb squeezes real RAM, and any
      // overflow shows up as measured spill I/O in the table below.
      cfg.memory_budget_bytes =
          std::max<uint64_t>(prepared.num_vertices * 48 / (8ull * machines) + 1, 4 << 10);
      if (mem_mb > 0) {
        cfg.pool_budget_bytes = mem_mb << 20;
      }
      CapacityPoint point;
      point.result = RunJob(MakeJob(name, prepared, cfg));
      point.num_edges = prepared.num_edges();
      return point;
    });
  }
  const std::vector<CapacityPoint> points = sweep.Run();

  std::printf("== Capacity scaling (paper 9.3): RMAT-%u on %d machines, HDD ==\n", scale,
              machines);
  PrintHeader({"algorithm", "time", "io-moved", "spill", "peak-mem", "agg-bw", "supersteps"});
  const double kPaperEdges = 1.1e12;  // RMAT-36
  size_t idx = 0;
  for (const std::string& name : algos) {
    const CapacityPoint& point = points[idx++];
    const AlgoResult& result = point.result;
    PrintCell(name);
    PrintCell(FormatSeconds(result.metrics.total_seconds()));
    PrintCell(FormatBytes(result.metrics.StorageBytesMoved()));
    PrintCell(FormatBytes(result.metrics.SpillBytesMoved()));
    PrintCell(FormatBytes(result.metrics.PeakMemoryBytes()));
    PrintCell(FormatBandwidth(result.metrics.AggregateStorageBandwidth()));
    PrintCell(static_cast<double>(result.supersteps), "%.0f");
    EndRow();
    const double io_per_edge = static_cast<double>(result.metrics.StorageBytesMoved()) /
                               static_cast<double>(point.num_edges);
    RecordMetric("capacity." + name + ".sim_s", result.metrics.total_seconds());
    RecordMetric("capacity." + name + ".io_bytes_per_edge", io_per_edge);
    RecordMetric("capacity." + name + ".spill_bytes",
                 static_cast<double>(result.metrics.SpillBytesMoved()));
    RecordMetric("capacity." + name + ".peak_mem_bytes",
                 static_cast<double>(result.metrics.PeakMemoryBytes()));
    std::printf("  -> %.1f B of I/O per input edge; linear projection to RMAT-36: %s\n",
                io_per_edge, FormatBytes(static_cast<uint64_t>(io_per_edge * kPaperEdges))
                                 .c_str());
  }
  std::printf("\npaper: 214 TB (BFS) / 395 TB (5-iteration PR) of I/O at 7 GB/s aggregate\n");
  return 0;
}
