#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/stats.h"

namespace chaos {

const char* BucketName(Bucket b) {
  switch (b) {
    case Bucket::kGpMaster:
      return "gp,master==me";
    case Bucket::kGpSteal:
      return "gp,master!=me";
    case Bucket::kCopy:
      return "copy";
    case Bucket::kMerge:
      return "merge";
    case Bucket::kMergeWait:
      return "merge wait";
    case Bucket::kBarrier:
      return "barrier";
    case Bucket::kPreprocess:
      return "preprocess";
    case Bucket::kCheckpoint:
      return "checkpoint";
    case Bucket::kMutate:
      return "mutate";
    case Bucket::kNumBuckets:
      break;
  }
  return "?";
}

TimeNs MachineMetrics::TotalTracked() const {
  TimeNs total = 0;
  for (const TimeNs t : buckets) {
    total += t;
  }
  return total;
}

uint64_t RunMetrics::PeakMemoryBytes() const {
  uint64_t peak = 0;
  for (const PoolMetrics& p : pools) {
    peak = std::max(peak, p.peak_bytes);
  }
  return peak;
}

double RunMetrics::AggregateStorageBandwidth() const {
  if (total_time <= 0) {
    return 0.0;
  }
  return static_cast<double>(StorageBytesMoved()) / ToSeconds(total_time);
}

double RunMetrics::MeanDeviceUtilization() const {
  if (devices.empty() || total_time <= 0) {
    return 0.0;
  }
  const double sum = Total(devices, [this](const DeviceMetrics& d) {
    return static_cast<double>(d.busy) / static_cast<double>(total_time);
  });
  return sum / static_cast<double>(devices.size());
}

double RunMetrics::BucketFraction(Bucket b) const {
  const TimeNs tracked = Total(machines, &MachineMetrics::TotalTracked);
  if (tracked <= 0) {
    return 0.0;
  }
  return static_cast<double>(SumBucket(b)) / static_cast<double>(tracked);
}

uint64_t RunMetrics::StealsDuringFault(const FaultRecord& r) const {
  if (r.applied_at < 0) {
    return 0;  // the run ended before the event fired
  }
  const uint64_t before = r.at_apply.proposals_accepted;
  if (r.cleared_at >= 0) {
    return r.at_clear.proposals_accepted - before;
  }
  // Still active at end of run: compare against the final counters.
  const auto m = static_cast<size_t>(r.event.machine);
  if (m >= machines.size()) {
    return 0;
  }
  return machines[m].proposals_accepted - before;
}

std::vector<TimeNs> RunMetrics::SuperstepDurations() const {
  std::vector<TimeNs> out;
  out.reserve(superstep_end_times.size());
  TimeNs prev = preprocess_time;
  for (const TimeNs t : superstep_end_times) {
    out.push_back(t - prev);
    prev = t;
  }
  return out;
}

TimeNs RunMetrics::SuperstepTail(double q) const {
  std::vector<TimeNs> d = SuperstepDurations();
  if (d.empty()) {
    return 0;
  }
  std::sort(d.begin(), d.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(d.size())));
  rank = std::min(std::max<size_t>(rank, 1), d.size());
  return d[rank - 1];
}

double RunMetrics::VictimMissRate() const {
  const uint64_t sent = StealProposalsSent();
  if (sent == 0) {
    return 0.0;
  }
  return static_cast<double>(Total(machines, &MachineMetrics::victim_misses)) /
         static_cast<double>(sent);
}

std::string RunMetrics::Summary() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "runtime=%s preprocess=%s supersteps=%llu io=%s agg_bw=%s util=%.1f%% net=%s\n",
                FormatSeconds(total_seconds()).c_str(),
                FormatSeconds(ToSeconds(preprocess_time)).c_str(),
                static_cast<unsigned long long>(supersteps),
                FormatBytes(StorageBytesMoved()).c_str(),
                FormatBandwidth(AggregateStorageBandwidth()).c_str(),
                100.0 * MeanDeviceUtilization(), FormatBytes(network_bytes).c_str());
  out += line;
  if (SpillBytesMoved() > 0) {
    std::snprintf(line, sizeof(line), "  memory: peak=%s spill=%s (budget %s/machine)\n",
                  FormatBytes(PeakMemoryBytes()).c_str(),
                  FormatBytes(SpillBytesMoved()).c_str(),
                  pools.empty() ? "?" : FormatBytes(pools.front().budget_bytes).c_str());
    out += line;
  }
  for (int b = 0; b < static_cast<int>(Bucket::kNumBuckets); ++b) {
    std::snprintf(line, sizeof(line), "  %-14s %6.2f%%\n",
                  BucketName(static_cast<Bucket>(b)),
                  100.0 * BucketFraction(static_cast<Bucket>(b)));
    out += line;
  }
  if (StealProposalsSent() > 0) {
    std::snprintf(line, sizeof(line),
                  "  steal: sent=%llu declined=%llu granted=%llu chunks=%llu "
                  "backoffs=%llu miss=%.1f%%\n",
                  static_cast<unsigned long long>(StealProposalsSent()),
                  static_cast<unsigned long long>(StealRequestsDeclined()),
                  static_cast<unsigned long long>(PartitionsGranted()),
                  static_cast<unsigned long long>(StolenChunks()),
                  static_cast<unsigned long long>(StealBackoffs()),
                  100.0 * VictimMissRate());
    out += line;
  }
  if (!mutation_epochs.empty()) {
    std::snprintf(line, sizeof(line),
                  "  mutations: epochs=%llu edges_applied=%llu frontier=%llu resets=%llu\n",
                  static_cast<unsigned long long>(mutation_epochs.size()),
                  static_cast<unsigned long long>(MutationEdgesApplied()),
                  static_cast<unsigned long long>(MutationFrontierTotal()),
                  static_cast<unsigned long long>(MutationResetsTotal()));
    out += line;
  }
  for (const FaultRecord& r : faults) {
    if (r.applied_at < 0) {
      std::snprintf(line, sizeof(line), "  fault m%d %s x%.2f: not reached\n",
                    r.event.machine, FaultTargetName(r.event.target), r.event.factor);
    } else if (r.event.kind == FaultKind::kMachineCrash) {
      std::snprintf(line, sizeof(line), "  fault m%d crashed: at=%s (fail-stop)\n",
                    r.event.machine, FormatSeconds(ToSeconds(r.applied_at)).c_str());
    } else {
      std::snprintf(line, sizeof(line),
                    "  fault m%d %s x%.2f: at=%s %s victim_steals=%llu\n", r.event.machine,
                    FaultTargetName(r.event.target), r.event.factor,
                    FormatSeconds(ToSeconds(r.applied_at)).c_str(),
                    r.cleared_at >= 0
                        ? ("cleared=" + FormatSeconds(ToSeconds(r.cleared_at))).c_str()
                        : "permanent",
                    static_cast<unsigned long long>(StealsDuringFault(r)));
    }
    out += line;
  }
  return out;
}

}  // namespace chaos
