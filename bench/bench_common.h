// Shared helpers for the per-table/per-figure benchmark binaries.
//
// Every bench accepts --scale / --machines / --seed flags so the paper-scale
// experiments can be approached on bigger hosts; defaults are sized for a
// laptop-class machine. Times reported are simulated cluster times.
#ifndef CHAOS_BENCH_BENCH_COMMON_H_
#define CHAOS_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/runner.h"
#include "graph/generators.h"
#include "util/options.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace chaos::bench {

inline const std::vector<int>& MachineSweep() {
  static const std::vector<int> kSweep = {1, 2, 4, 8, 16, 32};
  return kSweep;
}

// Cluster configuration mirroring the paper's testbed shape at reduced
// scale: the memory budget targets ~4 streaming partitions per machine and
// the chunk size targets ~128 chunks per machine per scan, preserving the
// work-stealing granularity of the 4 MB / RMAT-32 regime.
//
// Miniaturization: when the chunk shrinks below the paper's 4 MB, every
// fixed per-request latency (device access, network propagation, IPC,
// per-message CPU, the adaptive steal policy's backoff windows) is scaled by
// the same factor, so the system stays in the paper's bandwidth-bound regime
// (latency/transfer ratios preserved) and runtime ratios remain meaningful.
// Without this, kilobyte chunks would be latency-dominated — a regime the
// real system never operates in.
// Sized variant for streamed inputs (bench_fig_scale): the graph never
// materializes, so the caller passes the two facts the formula needs.
inline ClusterConfig BenchClusterConfigSized(uint64_t num_vertices, uint64_t input_wire_bytes,
                                             int machines, uint64_t seed = 1,
                                             StorageConfig storage = StorageConfig::Ssd(),
                                             NetworkConfig net = NetworkConfig::FortyGigE()) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.seed = seed;
  cfg.storage = storage;
  cfg.net = net;
  constexpr uint64_t kBytesPerVertex = 48;  // generous bound over all programs
  const uint64_t total_vertex_bytes = num_vertices * kBytesPerVertex;
  cfg.memory_budget_bytes =
      std::max<uint64_t>(total_vertex_bytes / (4 * static_cast<uint64_t>(machines)) + 1,
                         4 << 10);
  const uint64_t wire = input_wire_bytes;
  cfg.chunk_bytes = std::min<uint64_t>(
      std::max<uint64_t>(wire / (static_cast<uint64_t>(machines) * 128) + 1, 2 << 10),
      4ull << 20);
  const double miniature =
      std::min(1.0, static_cast<double>(cfg.chunk_bytes) / static_cast<double>(4ull << 20));
  auto shrink = [miniature](TimeNs t) {
    const auto scaled = static_cast<TimeNs>(static_cast<double>(t) * miniature);
    return scaled > 1 ? scaled : 1;
  };
  cfg.storage.access_latency = shrink(cfg.storage.access_latency);
  cfg.net.one_way_latency = shrink(cfg.net.one_way_latency);
  cfg.net.local_latency = shrink(cfg.net.local_latency);
  cfg.net.incast_backlog_threshold = shrink(cfg.net.incast_backlog_threshold);
  cfg.net.incast_penalty = shrink(cfg.net.incast_penalty);
  cfg.cost.ns_per_message = std::max(1.0, cfg.cost.ns_per_message * miniature);
  cfg.steal.backoff_initial = shrink(cfg.steal.backoff_initial);
  cfg.steal.backoff_max = shrink(cfg.steal.backoff_max);
  return cfg;
}

inline ClusterConfig BenchClusterConfig(const InputGraph& graph, int machines,
                                        uint64_t seed = 1,
                                        StorageConfig storage = StorageConfig::Ssd(),
                                        NetworkConfig net = NetworkConfig::FortyGigE()) {
  return BenchClusterConfigSized(graph.num_vertices, graph.input_wire_bytes(), machines,
                                 seed, storage, net);
}

// The latency-miniaturization ratio BenchClusterConfig applied (configured
// chunk size vs the paper's 4 MB). Only bench/e2e's steal_storm32 still
// calls these, on backoff windows BenchClusterConfig has already scaled;
// bench/e2e's next change drops those calls, then these two helpers
// (ROADMAP item 4).
inline double BenchMiniature(const ClusterConfig& cfg) {
  return std::min(1.0,
                  static_cast<double>(cfg.chunk_bytes) / static_cast<double>(4ull << 20));
}

inline TimeNs BenchShrinkTime(const ClusterConfig& cfg, TimeNs t) {
  const auto scaled = static_cast<TimeNs>(static_cast<double>(t) * BenchMiniature(cfg));
  return scaled > 1 ? scaled : 1;
}

inline InputGraph BenchRmat(uint32_t scale, bool weighted, uint64_t seed) {
  RmatOptions opt;
  opt.scale = scale;
  opt.weighted = weighted;
  opt.seed = seed;
  return GenerateRmat(opt);
}

// Column-aligned row printing for paper-style tables.
inline void PrintHeader(const std::vector<std::string>& columns) {
  for (const auto& c : columns) {
    std::printf("%14s", c.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%14s", "------------");
  }
  std::printf("\n");
}

inline void PrintCell(const std::string& value) { std::printf("%14s", value.c_str()); }
inline void PrintCell(double value, const char* fmt = "%.2f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  std::printf("%14s", buf);
}
inline void EndRow() { std::printf("\n"); }

inline std::string Fixed(double value, int digits = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

// Declared flag ranges. RmatCore takes scales up to 31 with permuted ids
// (BenchRmat's default), and a weak-scaling sweep adds one per doubling
// of MachineSweep()'s machine counts, up to 32 machines.
inline constexpr int64_t kMaxBenchScale = 31;
inline constexpr int64_t kMaxBaseScale = kMaxBenchScale - 5;
inline constexpr int64_t kMaxBenchMachines = INT32_MAX;
// --seed flags keep the full int64 range: each value is a distinct uint64
// seed.

// Standard flag set; returns false after one error line for a bad flag, or
// after printing help if --help given.
inline bool ParseFlags(Options& opt, int argc, char** argv) {
  auto err = opt.Parse(argc - 1, argv + 1);
  if (err.has_value()) {
    std::fprintf(stderr, "%s: %s (--help lists the flags)\n", argv[0], err->c_str());
    return false;
  }
  if (opt.help_requested()) {
    opt.PrintHelp(argv[0]);
    return false;
  }
  return true;
}

// ----------------------------------------------------------------------
// Parallel sweep plumbing (--jobs).
//
// The driver parses --jobs and calls SetSweepJobs() before dispatching any
// bench; the shared SweepExecutor is created lazily with that setting on
// the first sweep. 0 = hardware concurrency, 1 = fully sequential (no
// threads spawned — today's behavior, bit-for-bit).
inline int& SweepJobsSetting() {
  static int jobs = 0;
  return jobs;
}

inline void SetSweepJobs(int jobs) { SweepJobsSetting() = jobs; }

inline SweepExecutor& SharedSweepExecutor() {
  static SweepExecutor executor(SweepJobsSetting());
  return executor;
}

// ----------------------------------------------------------------------
// Point-list sweep API: benches declare their trial grid as a list of
// self-contained closures, run them all (in parallel under --jobs), then
// print tables from the results — which arrive indexed in declaration
// order regardless of the schedule, so output and statistics are bitwise
// independent of the thread count (see util/parallel.h for the contract).
//
// Pattern:
//   Sweep<double> sweep;
//   for (...) sweep.Add([=] { return RunJob(MakeJob(...)).metrics.total_seconds(); });
//   const auto seconds = sweep.Run();
//   // print phase: walk the same loop nest with a running index.
template <typename R>
class Sweep {
 public:
  // Declares a point; returns its index into Run()'s result vector.
  size_t Add(std::function<R()> point) {
    points_.push_back(std::move(point));
    return points_.size() - 1;
  }

  size_t size() const { return points_.size(); }

  std::vector<R> Run() { return SharedSweepExecutor().RunPoints(points_); }

 private:
  std::vector<std::function<R()>> points_;
};

// ----------------------------------------------------------------------
// Deterministic metric record. Benches record named simulation-derived
// values (simulated seconds, speedups, counts — never host wall-clock);
// the driver emits them per trial under "metrics", sorted by key. Sorted
// emission + sim-only values is what makes the metric JSON byte-identical
// between --jobs=1 and --jobs=N runs. Thread-safe so points may record
// from executor threads, though most benches record in the print phase.
inline std::mutex& RecordedMetricsMutex() {
  static std::mutex mu;
  return mu;
}

inline std::map<std::string, double>& RecordedMetricsMap() {
  static std::map<std::string, double> metrics;
  return metrics;
}

inline void RecordMetric(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(RecordedMetricsMutex());
  RecordedMetricsMap()[key] = value;
}

// Driver-side: drains everything recorded since the last call (one trial).
inline std::map<std::string, double> TakeRecordedMetrics() {
  std::lock_guard<std::mutex> lock(RecordedMetricsMutex());
  std::map<std::string, double> out;
  out.swap(RecordedMetricsMap());
  return out;
}

// ----------------------------------------------------------------------
// Machine-count scaling figures (Figs. 7-12, 14, 15, 19): one harness for
// the algorithm x MachineSweep() loop each of them runs.

// How a scaling point builds its cluster and what it measures. The storage
// and network profiles go through BenchClusterConfig, which miniaturizes
// their latencies with the chunk size; `tweak` edits the config after that.
struct ScalingSetup {
  uint64_t seed = 1;
  StorageConfig storage = StorageConfig::Ssd();
  NetworkConfig net = NetworkConfig::FortyGigE();
  std::function<void(ClusterConfig&)> tweak;
  std::function<double(const RunMetrics&)> metric;  // unset: simulated seconds
};

// The value one curve of a scaling figure measures at `m` machines.
using ScalingPoint = std::function<double(int m)>;

inline double RunScalingPoint(const std::string& algo, const InputGraph& prepared, int m,
                              const ScalingSetup& setup) {
  ClusterConfig cfg = BenchClusterConfig(prepared, m, setup.seed, setup.storage, setup.net);
  if (setup.tweak) {
    setup.tweak(cfg);
  }
  const JobResult result = RunJob(MakeJob(algo, prepared, cfg));
  return setup.metric ? setup.metric(result.metrics) : result.metrics.total_seconds();
}

// Strong scaling: every point runs on one prepared graph, shared read-only.
inline ScalingPoint StrongScalingPoint(std::string algo,
                                       std::shared_ptr<const InputGraph> prepared,
                                       ScalingSetup setup) {
  return [=](int m) { return RunScalingPoint(algo, *prepared, m, setup); };
}

// Weak scaling: the RMAT scale grows by one per doubling of m, from
// `base_scale` at m=1; each point generates and prepares its own graph.
inline ScalingPoint WeakScalingPoint(std::string algo, uint32_t base_scale,
                                     ScalingSetup setup) {
  return [=](int m) {
    const auto doublings = static_cast<uint32_t>(std::bit_width(static_cast<unsigned>(m)) - 1);
    const InputGraph prepared = PrepareInput(
        algo, BenchRmat(base_scale + doublings, AlgorithmByName(algo).needs_weights, setup.seed));
    return RunScalingPoint(algo, prepared, m, setup);
  };
}

// A scaling figure's table: one row per curve, one cell per MachineSweep()
// count. Run() measures every point (in parallel under --jobs); Print()
// shows each cell normalized to the m=1 value of the row's base row.
class ScalingTable {
 public:
  struct Row {
    std::string label;  // first column
    std::string key;    // metric prefix
    ScalingPoint point;
    size_t base_row;
    std::vector<double> values;      // measured, one per MachineSweep() count
    std::vector<double> normalized;  // over the base row's m=1 value (0 if that is 0)

    // The inverse of the normalized value at the largest m (0 if that is 0).
    double Speedup() const { return normalized.back() > 0 ? 1.0 / normalized.back() : 0.0; }
  };

  const std::vector<Row>& rows() const { return rows_; }

  // Adds a curve normalized to the m=1 value of row `base_row`, an earlier
  // row (default: its own).
  void Add(std::string label, std::string key, ScalingPoint point,
           std::optional<size_t> base_row = std::nullopt) {
    CHAOS_CHECK_LE(base_row.value_or(0), rows_.size());
    rows_.push_back(Row{std::move(label), std::move(key), std::move(point),
                        base_row.value_or(rows_.size()), {}, {}});
  }

  void Run() {
    Sweep<double> sweep;
    for (const Row& row : rows_) {
      for (const int m : MachineSweep()) {
        sweep.Add([&row, m] { return row.point(m); });
      }
    }
    const std::vector<double> values = sweep.Run();
    const auto per_row = static_cast<ptrdiff_t>(MachineSweep().size());
    auto next = values.begin();
    for (Row& row : rows_) {
      row.values.assign(next, next + per_row);
      next += per_row;
      const double base = rows_[row.base_row].values.front();
      for (const double v : row.values) {
        row.normalized.push_back(base > 0 ? v / base : 0.0);
      }
    }
  }

  // Prints the header and one line per row: its label, its normalized cells
  // in `fmt`, then whatever `extra` prints under `extra_columns`. Records
  // each measured value as "<key>.m<m>.<metric>".
  void Print(const std::string& corner, const std::string& metric, const char* fmt = "%.2f",
             const std::vector<std::string>& extra_columns = {},
             const std::function<void(const Row&)>& extra = {}) const {
    std::vector<std::string> header = {corner};
    for (const int m : MachineSweep()) {
      header.push_back("m=" + std::to_string(m));
    }
    header.insert(header.end(), extra_columns.begin(), extra_columns.end());
    PrintHeader(header);
    for (const Row& row : rows_) {
      PrintCell(row.label);
      for (size_t i = 0; i < row.values.size(); ++i) {
        PrintCell(row.normalized[i], fmt);
        RecordMetric(row.key + ".m" + std::to_string(MachineSweep()[i]) + "." + metric,
                     row.values[i]);
      }
      if (extra) {
        extra(row);
      }
      EndRow();
    }
  }

  // The speedup@32 column of the strong-scaling figures.
  static void SpeedupCell(const Row& row) {
    PrintCell(row.Speedup(), "%.1fx");
    RecordMetric(row.key + ".speedup_at_32", row.Speedup());
  }

 private:
  std::vector<Row> rows_;
};

// ----------------------------------------------------------------------
// Bench registry: every bench translation unit registers itself here and
// the unified driver (bench_main.cc) dispatches by name, times each trial,
// and emits the BENCH JSON schema (see README.md).
using BenchFn = int (*)(int argc, char** argv);

struct BenchEntry {
  std::string name;
  std::string description;
  BenchFn fn;
};

inline std::vector<BenchEntry>& BenchRegistry() {
  static std::vector<BenchEntry> registry;
  return registry;
}

inline bool RegisterBench(const char* name, const char* description, BenchFn fn) {
  BenchRegistry().push_back(BenchEntry{name, description, fn});
  return true;
}

// Defines a bench entry point and registers it under `id`. Usage:
//   CHAOS_BENCH_MAIN(fig8, "Figure 8: strong scaling") { ... return 0; }
// The body receives (int argc, char** argv) with argv[0] set to the bench
// name and driver-level flags already stripped.
#define CHAOS_BENCH_MAIN(id, description)                                   \
  static int ChaosBenchRun_##id(int argc, char** argv);                     \
  static const bool chaos_bench_registered_##id [[maybe_unused]] =          \
      ::chaos::bench::RegisterBench(#id, description, &ChaosBenchRun_##id); \
  static int ChaosBenchRun_##id(int argc, char** argv)

}  // namespace chaos::bench

#endif  // CHAOS_BENCH_BENCH_COMMON_H_
