#include "core/job_trace.h"

#include <algorithm>
#include <cmath>

#include "util/common.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace chaos {

const char* TracePresetName(TracePreset preset) {
  switch (preset) {
    case TracePreset::kUniform:
      return "uniform";
    case TracePreset::kBursty:
      return "bursty";
    case TracePreset::kDiurnal:
      return "diurnal";
  }
  return "?";
}

std::optional<TracePreset> TracePresetByName(const std::string& name) {
  if (name == "uniform") {
    return TracePreset::kUniform;
  }
  if (name == "bursty") {
    return TracePreset::kBursty;
  }
  if (name == "diurnal") {
    return TracePreset::kDiurnal;
  }
  return std::nullopt;
}

namespace {

// The two priority classes GenerateTrace draws from.
constexpr int kHighPriority = 2;
constexpr int kLowPriority = 0;

TimeNs UniformArrival(Rng& rng, TimeNs horizon) {
  return static_cast<TimeNs>(rng.Below(static_cast<uint64_t>(horizon)));
}

// Bursty: jobs cluster around a handful of burst centers (batch submission,
// retrained-pipeline kicks), each with a small jitter.
TimeNs BurstyArrival(Rng& rng, TimeNs horizon, const std::vector<TimeNs>& centers) {
  const TimeNs center = centers[rng.Below(centers.size())];
  const TimeNs jitter_span = horizon / 32;
  const TimeNs jitter = static_cast<TimeNs>(rng.Below(static_cast<uint64_t>(jitter_span))) -
                        jitter_span / 2;
  return std::clamp<TimeNs>(center + jitter, 0, horizon - 1);
}

// Diurnal: sinusoidal rate over one "day" (the horizon), peak at mid-day.
// Sampled by rejection against lambda(t) = (1 + 0.8 sin(2 pi t / H)) / 1.8,
// which stays deterministic because every draw comes from the seeded stream.
TimeNs DiurnalArrival(Rng& rng, TimeNs horizon) {
  for (;;) {
    const TimeNs t = static_cast<TimeNs>(rng.Below(static_cast<uint64_t>(horizon)));
    const double phase =
        2.0 * 3.14159265358979323846 * static_cast<double>(t) / static_cast<double>(horizon);
    const double accept = (1.0 + 0.8 * std::sin(phase)) / 1.8;
    if (rng.NextDouble() < accept) {
      return t;
    }
  }
}

}  // namespace

std::vector<TraceEntry> GenerateTrace(const TraceOptions& options) {
  CHAOS_CHECK_MSG(options.num_jobs >= 1, "trace needs at least one job");
  CHAOS_CHECK_MSG(options.horizon >= 1, "trace horizon must be positive");
  Rng rng(options.seed);

  std::vector<TimeNs> centers;
  if (options.preset == TracePreset::kBursty) {
    const int num_centers = std::max(1, options.num_jobs / 4);
    centers.reserve(static_cast<size_t>(num_centers));
    for (int i = 0; i < num_centers; ++i) {
      centers.push_back(UniformArrival(rng, options.horizon));
    }
  }

  std::vector<TraceEntry> entries(static_cast<size_t>(options.num_jobs));
  for (TraceEntry& entry : entries) {
    switch (options.preset) {
      case TracePreset::kUniform:
        entry.arrival = UniformArrival(rng, options.horizon);
        break;
      case TracePreset::kBursty:
        entry.arrival = BurstyArrival(rng, options.horizon, centers);
        break;
      case TracePreset::kDiurnal:
        entry.arrival = DiurnalArrival(rng, options.horizon);
        break;
    }
    entry.priority = rng.Bernoulli(options.high_fraction) ? kHighPriority : kLowPriority;
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const TraceEntry& a, const TraceEntry& b) { return a.arrival < b.arrival; });
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].seed = DeriveSeed(options.seed, i);
  }
  return entries;
}

}  // namespace chaos
