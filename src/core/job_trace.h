// Synthetic arrival traces for the serving layer: deterministic generators
// for the load shapes real clusters see — uniform background load, bursty
// batch submission, and a diurnal (sinusoidal-rate) day cycle.
//
// A trace entry carries only scheduling metadata (arrival, priority) plus a
// per-entry seed derived as DeriveSeed(trace_seed, index); the consumer
// (bench/bench_serving.cc, examples/chaos_run.cpp --trace-preset) maps each
// entry onto a concrete JobSpec, drawing algorithm/graph/shape choices from
// that seed so the whole trace is a pure function of (options, seed).
#ifndef CHAOS_CORE_JOB_TRACE_H_
#define CHAOS_CORE_JOB_TRACE_H_

#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace chaos {

enum class TracePreset { kUniform, kBursty, kDiurnal };

const char* TracePresetName(TracePreset preset);
std::optional<TracePreset> TracePresetByName(const std::string& name);

struct TraceOptions {
  TracePreset preset = TracePreset::kBursty;
  int num_jobs = 12;
  // Arrivals land in [0, horizon).
  TimeNs horizon = 60'000'000'000;  // 60 s
  uint64_t seed = 1;
  // Two-class priority mix: each entry is high (priority 2) with this
  // probability, else low (priority 0).
  double high_fraction = 0.25;
};

struct TraceEntry {
  TimeNs arrival = 0;
  int priority = 0;
  uint64_t seed = 0;  // DeriveSeed(options.seed, submission index)
};

// Generates `options.num_jobs` entries sorted by (arrival, index). Entry
// seeds are assigned by submission index *after* the sort, so entry i's
// derived choices are stable for a given (options, seed) pair.
std::vector<TraceEntry> GenerateTrace(const TraceOptions& options);

}  // namespace chaos

#endif  // CHAOS_CORE_JOB_TRACE_H_
