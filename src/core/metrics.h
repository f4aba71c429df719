// Run metrics: the per-machine time breakdown of Fig. 17/18 plus storage and
// network accounting used by Figs. 7-16.
#ifndef CHAOS_CORE_METRICS_H_
#define CHAOS_CORE_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/time.h"

namespace chaos {

// Buckets of Fig. 17: graph processing on own/stolen partitions, stolen
// vertex-set copying, accumulator merging, waits on the accumulator
// handshake, and barrier waits. Pre-processing and checkpointing are kept
// separate so the paper's per-figure accounting can be recomputed.
enum class Bucket : int {
  kGpMaster = 0,   // streaming + compute, partitions this machine masters
  kGpSteal = 1,    // streaming + compute, stolen partitions
  kCopy = 2,       // vertex-set load for stolen partitions
  kMerge = 3,      // merging replica accumulators (master side, CPU)
  kMergeWait = 4,  // waiting on the accumulator pull handshake (both sides)
  kBarrier = 5,    // waiting at global barriers
  kPreprocess = 6, // streaming partition creation + vertex init
  kCheckpoint = 7, // 2-phase checkpoint writes
  kMutate = 8,     // evolving graphs: apply-mutations stage (re-bin + reseed)
  kNumBuckets = 9,
};

const char* BucketName(Bucket b);

struct MachineMetrics {
  std::array<TimeNs, static_cast<size_t>(Bucket::kNumBuckets)> buckets{};
  uint64_t edges_processed = 0;
  uint64_t updates_processed = 0;
  uint64_t updates_emitted = 0;
  uint64_t chunks_fetched = 0;
  uint64_t steal_proposals_sent = 0;
  uint64_t steals_worked = 0;       // stolen partition work items executed
  uint64_t proposals_received = 0;  // as master
  uint64_t proposals_accepted = 0;  // as master (granted >= 1 partition)
  // Steal-policy accounting (core/steal_policy.h).
  uint64_t steal_requests_declined = 0;  // as helper: responses granting nothing
  uint64_t victim_misses = 0;       // as helper: victim reported no open work
  uint64_t steal_backoffs = 0;      // as helper: dry-sweep backoff waits taken
  TimeNs steal_backoff_time = 0;    // as helper: sim time parked in backoff
  uint64_t partitions_granted = 0;  // as master: partitions handed to helpers
  uint64_t stolen_chunks = 0;       // as helper: chunks streamed on stolen partitions

  TimeNs bucket(Bucket b) const { return buckets[static_cast<size_t>(b)]; }
  void Add(Bucket b, TimeNs t) { buckets[static_cast<size_t>(b)] += t; }
  TimeNs TotalTracked() const;
};

struct DeviceMetrics {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  TimeNs busy = 0;
  uint64_t chunks_served = 0;
};

// Per-machine buffer-pool accounting (core/buffer_pool.h): the enforced
// memory budget, the high-water mark of allocated buffer bytes, and the
// spill traffic memory pressure generated on the machine's storage device.
struct PoolMetrics {
  uint64_t budget_bytes = 0;  // 0 = enforcement off (accounting only)
  // High-water mark of RESIDENT buffer bytes — what RAM actually held,
  // sampled after admission control, so never above an enforced budget.
  // With enforcement off nothing evicts and this is the true peak working
  // set (what fig_memory's unconstrained baseline measures as B0).
  uint64_t peak_bytes = 0;
  uint64_t spill_out_bytes = 0;  // pages evicted to the device
  uint64_t spill_in_bytes = 0;   // pages faulted back from the device
  uint64_t spill_events = 0;     // eviction batches
  uint64_t acquires = 0;         // buffer admissions
  TimeNs stall_time = 0;         // sim time spent waiting on spill I/O
};

// One applied mutation epoch of an evolving run (engine_core.cc,
// ApplyMutationStage): when it ran, what it changed, and how much
// re-convergence work the incremental seeds left behind.
struct MutationEpochRecord {
  uint64_t epoch = 0;          // 0-based index into the MutationLog
  uint64_t superstep = 0;      // superstep whose barrier applied the batch
  TimeNs start_time = 0;       // coordinator-side stage entry
  TimeNs end_time = 0;         // coordinator-side stage exit (0 = aborted)
  uint64_t edges_inserted = 0;  // raw-graph inserts in the batch
  uint64_t edges_deleted = 0;   // raw-graph deletes in the batch
  uint64_t frontier = 0;        // seed states re-marked changed
  uint64_t resets = 0;          // seed states reset to their init value
};

struct RunMetrics {
  TimeNs total_time = 0;
  TimeNs preprocess_time = 0;  // up to the start of the first scatter
  uint64_t supersteps = 0;
  std::vector<MachineMetrics> machines;
  std::vector<DeviceMetrics> devices;
  std::vector<PoolMetrics> pools;  // per-machine memory accounting
  uint64_t network_bytes = 0;
  uint64_t incast_events = 0;
  uint64_t messages = 0;
  bool crashed = false;
  // Injected degradation events as they played out (empty = healthy run).
  std::vector<FaultRecord> faults;
  // Coordinator-side sim time at the end of each completed superstep,
  // indexed from the first superstep this run executed (resumed runs start
  // at their resume superstep). Backs the time-to-recover measurement.
  std::vector<TimeNs> superstep_end_times;
  // Evolving-graph accounting: one record per mutation epoch applied by
  // this run, in application order (empty for static runs).
  std::vector<MutationEpochRecord> mutation_epochs;

  double total_seconds() const { return ToSeconds(total_time); }

  // Total device traffic: chunk reads/writes plus buffer-pool spill.
  uint64_t StorageBytesMoved() const {
    return SpillBytesMoved() +
           Total(devices, &DeviceMetrics::bytes_read, &DeviceMetrics::bytes_written);
  }
  // Memory-pressure spill traffic alone (both directions, all machines).
  uint64_t SpillBytesMoved() const {
    return Total(pools, &PoolMetrics::spill_out_bytes, &PoolMetrics::spill_in_bytes);
  }
  // Max over machines of the pool's high-water mark of resident buffer
  // bytes (see PoolMetrics::peak_bytes).
  uint64_t PeakMemoryBytes() const;
  // Aggregate storage bandwidth over the run (Fig. 14).
  double AggregateStorageBandwidth() const;
  // Mean device utilization = busy / total, averaged over devices.
  double MeanDeviceUtilization() const;
  TimeNs SumBucket(Bucket b) const {
    return Total(machines, [b](const MachineMetrics& m) { return m.bucket(b); });
  }
  // Fraction of summed machine time in a bucket (Fig. 17 bars).
  double BucketFraction(Bucket b) const;
  // Steals of the victim's partitions while the fault was active (difference
  // of the probe samples; for still-active faults, up to the end of the run).
  uint64_t StealsDuringFault(const FaultRecord& r) const;

  // Durations of each completed superstep (from superstep_end_times; the
  // first superstep starts when pre-processing ends). Coordinator-side, so
  // present on every finished run.
  std::vector<TimeNs> SuperstepDurations() const;
  // Tail quantile of the superstep durations (q in (0, 1]; q = 0.99 is the
  // p99 the fig21 large-N gate compares). Nearest-rank on the sorted
  // durations — deterministic, no interpolation.
  TimeNs SuperstepTail(double q) const;
  // Steal-policy aggregates over machines.
  uint64_t StealProposalsSent() const {
    return Total(machines, &MachineMetrics::steal_proposals_sent);
  }
  uint64_t StealRequestsDeclined() const {
    return Total(machines, &MachineMetrics::steal_requests_declined);
  }
  uint64_t StealBackoffs() const { return Total(machines, &MachineMetrics::steal_backoffs); }
  uint64_t PartitionsGranted() const {
    return Total(machines, &MachineMetrics::partitions_granted);
  }
  uint64_t StolenChunks() const { return Total(machines, &MachineMetrics::stolen_chunks); }
  // Always 0: the update-plane combining these counted is gone.
  // bench/e2e/chaos_e2e.cc is their only reader.
  uint64_t UpdateWireBytesSaved() const { return 0; }
  uint64_t UpdateChunksPacked() const { return 0; }
  uint64_t StealProposalsCombined() const { return 0; }
  // Fraction of proposals that hit a victim with no open work.
  double VictimMissRate() const;
  // Evolving-graph aggregates over mutation_epochs.
  uint64_t MutationEdgesApplied() const {  // inserts + deletes, all epochs
    return Total(mutation_epochs, &MutationEpochRecord::edges_inserted,
                 &MutationEpochRecord::edges_deleted);
  }
  uint64_t MutationFrontierTotal() const {
    return Total(mutation_epochs, &MutationEpochRecord::frontier);
  }
  uint64_t MutationResetsTotal() const {
    return Total(mutation_epochs, &MutationEpochRecord::resets);
  }

  std::string Summary() const;

 private:
  // Sum over `records` of each record's `fields` (member pointers or
  // projections).
  template <typename R, typename... F,
            typename T = std::common_type_t<std::invoke_result_t<F, const R&>...>>
  static T Total(const std::vector<R>& records, F... fields) {
    T total{};
    for (const R& r : records) {
      total += (std::invoke(fields, r) + ...);
    }
    return total;
  }
};

}  // namespace chaos

#endif  // CHAOS_CORE_METRICS_H_
