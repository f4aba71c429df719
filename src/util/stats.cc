#include "util/stats.h"

#include <algorithm>
#include <cstdio>

#include "util/common.h"

namespace chaos {

void RunningStat::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
}

double ExactQuantile(std::vector<double> samples, double q) {
  CHAOS_CHECK(!samples.empty());
  CHAOS_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

std::string FormatBytes(uint64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < sizeof(units) / sizeof(units[0])) {
    value /= 1024.0;
    ++unit;
  }
  char buffer[64];
  if (unit == 0) {
    std::snprintf(buffer, sizeof(buffer), "%llu B", static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f %s", value, units[unit]);
  }
  return buffer;
}

std::string FormatSeconds(double seconds) {
  char buffer[64];
  if (seconds < 1e-6) {
    std::snprintf(buffer, sizeof(buffer), "%.0f ns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buffer, sizeof(buffer), "%.2f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f ms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f s", seconds);
  } else if (seconds < 7200.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1f min", seconds / 60.0);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f h", seconds / 3600.0);
  }
  return buffer;
}

std::string FormatBandwidth(double bytes_per_second) {
  char buffer[64];
  if (bytes_per_second >= 1e9) {
    std::snprintf(buffer, sizeof(buffer), "%.2f GB/s", bytes_per_second / 1e9);
  } else if (bytes_per_second >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.2f MB/s", bytes_per_second / 1e6);
  } else if (bytes_per_second >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.2f KB/s", bytes_per_second / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f B/s", bytes_per_second);
  }
  return buffer;
}

}  // namespace chaos
