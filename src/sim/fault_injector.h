// Deterministic fault and straggler injection for simulated clusters.
//
// A FaultSchedule is a declarative list of timed degradation events: at time
// `at`, machine `machine`'s CPU / storage device / NIC (or all three) runs
// at `factor` of nominal speed, for `duration` ns (0 = permanently, i.e. a
// straggler rather than a transient brownout). The FaultInjector replays the
// schedule as a coroutine on the simulator, applying rate multipliers to the
// attached FifoResources (storage devices, NIC links) and to a per-machine
// CPU-rate table consulted by the compute engines. Overlapping events on the
// same machine/dimension compose multiplicatively.
//
// Everything here is seeded and replayed through the deterministic event
// queue, so a run with faults is exactly as reproducible as one without:
// identical (schedule, seed, workload) triples give identical traces.
#ifndef CHAOS_SIM_FAULT_INJECTOR_H_
#define CHAOS_SIM_FAULT_INJECTOR_H_

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/time.h"
#include "util/common.h"

namespace chaos {

// Which of a machine's resources an event degrades.
enum class FaultTarget : uint8_t {
  kCpu = 0,      // compute-engine CPU (scatter/gather/apply/merge costs)
  kStorage = 1,  // the machine's storage device (FIFO chunk service)
  kNic = 2,      // both NIC directions (uplink and downlink)
  kMachine = 3,  // all of the above — a whole-machine straggler
};

// What an event does to its victim.
enum class FaultKind : uint8_t {
  kDegrade = 0,       // rate degradation of `target` by `factor`
  kMachineCrash = 1,  // fail-stop machine failure: the victim's compute
                      // engine is dead from `at` on (target/factor/duration
                      // ignored). Durable storage survives — the recovery
                      // model is the paper's §6.6: restart from the last
                      // committed checkpoint on a repaired/rescaled cluster.
};

const char* FaultTargetName(FaultTarget target);

// Parses "cpu" | "storage" | "nic" | "machine" (CLI flag form). Returns
// false on unknown text.
bool ParseFaultTarget(const std::string& text, FaultTarget* out);

// The largest slowdown (1 / factor) the drivers' severity flags accept: a
// machine a million times slower is as good as dead (kMachineCrash models
// that), and far slower ones scale service times past TimeNs.
inline constexpr double kMaxSlowdown = 1e6;

struct FaultEvent {
  TimeNs at = 0;        // simulated time the degradation begins
  TimeNs duration = 0;  // 0 = permanent for the rest of the run
  MachineId machine = 0;
  FaultTarget target = FaultTarget::kMachine;
  double factor = 1.0;  // rate multiplier while active (0.25 = 4x slower)
  FaultKind kind = FaultKind::kDegrade;

  bool permanent() const { return duration == 0 || kind == FaultKind::kMachineCrash; }
  TimeNs end() const { return at + duration; }
};

// Declarative, ordered-by-construction fault plan for one run.
struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  FaultSchedule& Add(const FaultEvent& event) {
    CHAOS_CHECK_GT(event.factor, 0.0);
    CHAOS_CHECK_GE(event.at, 0);
    CHAOS_CHECK_GE(event.duration, 0);
    events.push_back(event);
    return *this;
  }

  // A machine that runs `severity` times slower than its peers from `at`
  // until the end of the run (the paper's "slow machine" scenario).
  static FaultSchedule Straggler(MachineId machine, double severity,
                                 FaultTarget target = FaultTarget::kCpu, TimeNs at = 0);

  // A transient slowdown: `factor` speed between `at` and `at + duration`.
  static FaultSchedule TransientSlowdown(MachineId machine, FaultTarget target, double factor,
                                         TimeNs at, TimeNs duration);

  // A storage-device brownout (e.g. SSD garbage-collection stall).
  static FaultSchedule StorageBrownout(MachineId machine, double factor, TimeNs at,
                                       TimeNs duration);

  // A fail-stop machine failure at `at`: the victim's compute engine dies
  // mid-run (detected cluster-wide at the next barrier); its durable storage
  // survives. One crash per run is the supported model (§6.6).
  static FaultSchedule MachineCrash(MachineId machine, TimeNs at);

  // `count` seeded random transient events over [0, horizon): uniformly
  // chosen machine, target, factor in [min_factor, max_factor], duration in
  // (0, horizon / 4]. Identical seeds produce identical schedules.
  static FaultSchedule Random(uint64_t seed, int machines, int count, TimeNs horizon,
                              double min_factor = 0.1, double max_factor = 0.9);
};

// Counters sampled from the victim machine when an event is applied and
// cleared, so steal activity is attributable to each event.
struct FaultProbeSample {
  uint64_t proposals_accepted = 0;  // victim's partitions handed to stealers
};

using FaultProbe = std::function<FaultProbeSample(MachineId)>;

// One schedule entry as it actually played out.
struct FaultRecord {
  FaultEvent event;
  TimeNs applied_at = -1;  // -1: never applied (run ended first)
  TimeNs cleared_at = -1;  // -1: still active at end of run (straggler)
  FaultProbeSample at_apply;
  FaultProbeSample at_clear;
};

class FaultInjector {
 public:
  // Rate-controllable resources of one machine. Null entries are skipped
  // (e.g. a test harness wiring only a storage device).
  struct MachineHooks {
    FifoResource* storage = nullptr;
    FifoResource* nic_up = nullptr;
    FifoResource* nic_down = nullptr;
  };

  FaultInjector(Simulator* sim, FaultSchedule schedule, int machines);

  void AttachMachine(MachineId machine, const MachineHooks& hooks);
  void set_probe(FaultProbe probe) { probe_ = std::move(probe); }

  // Spawns the replay coroutine (no-op for an empty schedule). Call after
  // attaching hooks and before Simulator::Run.
  void Start();

  // Stops the replay: schedule entries not yet applied stay recorded as
  // "not reached" (applied_at == -1) instead of firing after the workload
  // has finished. Called by the cluster supervisor at completion.
  void Cancel() { cancelled_ = true; }

  // Current CPU rate multiplier of `machine` (product of active factors).
  double CpuRate(MachineId machine) const {
    return cpu_rate_[static_cast<size_t>(machine)];
  }

  // True once a kMachineCrash event for `machine` has been applied. The
  // compute engine polls this at its streaming/steal loop boundaries and
  // flags its next barrier arrival, which aborts the superstep cluster-wide
  // (see BarrierArriveMsg::failed in net/wire.h).
  bool dead(MachineId machine) const { return dead_[static_cast<size_t>(machine)] != 0; }

  // Stretches a nominal CPU delay by the machine's current degradation.
  // Granularity caveat: CPU scaling applies when a compute delay is issued
  // (per chunk scanned), so a transient CPU fault shorter than one
  // chunk-scan delay may miss delays already in flight — unlike storage/NIC
  // faults, which re-project in-flight queues via FifoResource::SetRate.
  TimeNs ScaleCpu(MachineId machine, TimeNs t) const {
    const double rate = CpuRate(machine);
    if (rate == 1.0 || t == 0) {
      return t;
    }
    return static_cast<TimeNs>(std::ceil(static_cast<double>(t) / rate));
  }

  const std::vector<FaultRecord>& records() const { return records_; }
  uint64_t events_applied() const { return events_applied_; }

 private:
  struct Change {
    TimeNs at = 0;
    size_t event_index = 0;
    bool begin = false;
  };

  Task<> Run();
  void Apply(const Change& change);
  void RecomputeRates(MachineId machine, FaultTarget target);
  bool Covers(FaultTarget event_target, FaultTarget dimension) const;

  Simulator* sim_;
  FaultSchedule schedule_;
  int machines_;
  std::vector<MachineHooks> hooks_;
  std::vector<double> cpu_rate_;
  std::vector<uint8_t> dead_;
  std::vector<std::vector<size_t>> active_;  // per machine: active event idxs
  std::vector<Change> timeline_;             // sorted by (at, begin-last, index)
  std::vector<FaultRecord> records_;
  FaultProbe probe_;
  uint64_t events_applied_ = 0;
  bool started_ = false;
  bool cancelled_ = false;
};

}  // namespace chaos

#endif  // CHAOS_SIM_FAULT_INJECTOR_H_
