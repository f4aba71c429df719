// Lightweight descriptive statistics and pretty-printers used by the metrics
// subsystem and by the benchmark harnesses.
#ifndef CHAOS_UTIL_STATS_H_
#define CHAOS_UTIL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace chaos {

// Streaming mean, by Welford's update (benches record it, so its rounding
// is part of their pinned metrics).
class RunningStat {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
};

// Exact quantile over a sample vector (copies and sorts). q in [0, 1].
double ExactQuantile(std::vector<double> samples, double q);

// Pretty-printers used by benches and metrics dumps.
std::string FormatBytes(uint64_t bytes);
std::string FormatSeconds(double seconds);
std::string FormatBandwidth(double bytes_per_second);

}  // namespace chaos

#endif  // CHAOS_UTIL_STATS_H_
