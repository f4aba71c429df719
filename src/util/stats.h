// Lightweight descriptive statistics and pretty-printers used by the metrics
// subsystem and by the benchmark harnesses.
#ifndef CHAOS_UTIL_STATS_H_
#define CHAOS_UTIL_STATS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace chaos {

// Streaming summary: count / mean / variance (Welford) / min / max.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact quantile over a sample vector (copies and sorts). q in [0, 1].
double ExactQuantile(std::vector<double> samples, double q);

// Pretty-printers used by benches and metrics dumps.
std::string FormatBytes(uint64_t bytes);
std::string FormatSeconds(double seconds);
std::string FormatBandwidth(double bytes_per_second);

}  // namespace chaos

#endif  // CHAOS_UTIL_STATS_H_
