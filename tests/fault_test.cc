// Tests for the perturbation subsystem: FifoResource rate multipliers
// (including in-flight queue re-projection), declarative fault schedules,
// deterministic replay, slow machines as faults from t=0, and the paper's
// load-balancing claim — a straggler with stealing beats one without.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "algorithms/runner.h"
#include "core/cluster.h"
#include "graph/generators.h"
#include "sim/fault_injector.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace chaos {
namespace {

// ------------------------------------------------------ FifoResource rates

TEST(ResourceRateTest, SlowRateStretchesService) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  dev.SetRate(0.5);
  std::vector<TimeNs> completions;
  sim.Spawn([](FifoResource* dev, std::vector<TimeNs>* out) -> Task<> {
    co_await dev->Acquire(100);
    out->push_back(dev->sim()->now());
  }(&dev, &completions));
  sim.Run();
  EXPECT_EQ(completions, (std::vector<TimeNs>{200}));
}

// The satellite requirement: a rate change must re-project requests already
// queued on a busy resource, not only future arrivals.
TEST(ResourceRateTest, MidFlightSlowdownStretchesQueuedRequests) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  std::vector<TimeNs> completions;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](FifoResource* dev, std::vector<TimeNs>* out) -> Task<> {
      co_await dev->Acquire(100);
      out->push_back(dev->sim()->now());
    }(&dev, &completions));
  }
  sim.Spawn([](Simulator* s, FifoResource* dev) -> Task<> {
    co_await s->Delay(150);
    dev->SetRate(0.5);  // 2x slower from t=150
  }(&sim, &dev));
  sim.Run();
  // Request 1 finished at 100 before the brownout. Request 2 was in service
  // at 150 with 50 ns remaining -> stretched to 100 ns -> done 250. Request
  // 3 had not started: 100 ns of work at half speed -> done 250 + 200.
  EXPECT_EQ(completions, (std::vector<TimeNs>{100, 250, 450}));
  EXPECT_EQ(dev.busy_until(), 450);
  EXPECT_EQ(dev.total_busy(), 450);  // 100 + (50 + 100) + 200
}

TEST(ResourceRateTest, MidFlightRecoveryWakesSleepersEarly) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  dev.SetRate(0.25);
  std::vector<TimeNs> completions;
  for (int i = 0; i < 2; ++i) {
    sim.Spawn([](FifoResource* dev, std::vector<TimeNs>* out) -> Task<> {
      co_await dev->Acquire(100);
      out->push_back(dev->sim()->now());
    }(&dev, &completions));
  }
  EXPECT_EQ(dev.busy_until(), 800);  // 2 x 400 at quarter speed
  sim.Spawn([](Simulator* s, FifoResource* dev) -> Task<> {
    co_await s->Delay(200);
    dev->SetRate(1.0);  // recovery: sleepers must wake before t=400/800
  }(&sim, &dev));
  sim.Run();
  // At t=200 the head request has 200 effective ns left = 50 ns of nominal
  // work -> done 250; the second runs its full 100 ns -> done 350.
  EXPECT_EQ(completions, (std::vector<TimeNs>{250, 350}));
}

TEST(ResourceRateTest, RateOneIsExactlyNominal) {
  Simulator sim;
  FifoResource dev(&sim, "dev");
  dev.SetRate(2.0);
  dev.SetRate(1.0);
  std::vector<TimeNs> completions;
  sim.Spawn([](FifoResource* dev, std::vector<TimeNs>* out) -> Task<> {
    co_await dev->Acquire(77);
    out->push_back(dev->sim()->now());
  }(&dev, &completions));
  sim.Run();
  EXPECT_EQ(completions, (std::vector<TimeNs>{77}));
}

// --------------------------------------------------------- fault schedules

TEST(FaultScheduleTest, RandomIsDeterministicUnderFixedSeed) {
  const FaultSchedule a = FaultSchedule::Random(42, 8, 16, 10 * kNsPerMs);
  const FaultSchedule b = FaultSchedule::Random(42, 8, 16, 10 * kNsPerMs);
  ASSERT_EQ(a.events.size(), 16u);
  ASSERT_EQ(b.events.size(), a.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].duration, b.events[i].duration);
    EXPECT_EQ(a.events[i].machine, b.events[i].machine);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].factor, b.events[i].factor);
  }
  // A different seed must give a different plan.
  const FaultSchedule c = FaultSchedule::Random(43, 8, 16, 10 * kNsPerMs);
  bool any_differs = false;
  for (size_t i = 0; i < a.events.size(); ++i) {
    any_differs = any_differs || a.events[i].at != c.events[i].at ||
                  a.events[i].machine != c.events[i].machine;
  }
  EXPECT_TRUE(any_differs);
}

TEST(FaultScheduleTest, FactoriesBuildExpectedEvents) {
  const FaultSchedule s = FaultSchedule::Straggler(3, 4.0);
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].machine, 3);
  EXPECT_TRUE(s.events[0].permanent());
  EXPECT_DOUBLE_EQ(s.events[0].factor, 0.25);
  EXPECT_EQ(s.events[0].target, FaultTarget::kCpu);

  const FaultSchedule b = FaultSchedule::StorageBrownout(1, 0.1, kNsPerMs, 2 * kNsPerMs);
  ASSERT_EQ(b.events.size(), 1u);
  EXPECT_EQ(b.events[0].target, FaultTarget::kStorage);
  EXPECT_FALSE(b.events[0].permanent());
  EXPECT_EQ(b.events[0].end(), 3 * kNsPerMs);
}

// ---------------------------------------------------------- fault injector

TEST(FaultInjectorTest, TransientBrownoutStretchesBusyDeviceAndClears) {
  Simulator sim;
  FifoResource storage(&sim, "dev");
  FaultInjector injector(&sim,
                         FaultSchedule::StorageBrownout(0, 0.5, /*at=*/1000, /*duration=*/1000),
                         /*machines=*/1);
  FaultInjector::MachineHooks hooks;
  hooks.storage = &storage;
  injector.AttachMachine(0, hooks);
  injector.Start();
  std::vector<TimeNs> completions;
  sim.Spawn([](FifoResource* dev, std::vector<TimeNs>* out) -> Task<> {
    co_await dev->Acquire(3000);
    out->push_back(dev->sim()->now());
  }(&storage, &completions));
  sim.Run();
  // 1000 ns at full rate, then 1000 ns of wall time covering 500 ns of work
  // during the brownout, then the remaining 1500 ns at full rate again.
  EXPECT_EQ(completions, (std::vector<TimeNs>{3500}));
  ASSERT_EQ(injector.records().size(), 1u);
  EXPECT_EQ(injector.records()[0].applied_at, 1000);
  EXPECT_EQ(injector.records()[0].cleared_at, 2000);
  EXPECT_EQ(injector.events_applied(), 1u);
}

TEST(FaultInjectorTest, OverlappingCpuFaultsComposeMultiplicatively) {
  Simulator sim;
  FaultSchedule schedule;
  schedule.Add(FaultEvent{/*at=*/100, /*duration=*/400, /*machine=*/0, FaultTarget::kCpu, 0.5});
  schedule.Add(FaultEvent{/*at=*/200, /*duration=*/100, /*machine=*/0, FaultTarget::kMachine, 0.5});
  FaultInjector injector(&sim, schedule, /*machines=*/1);
  injector.Start();
  std::vector<double> samples;
  sim.Spawn([](Simulator* s, FaultInjector* inj, std::vector<double>* out) -> Task<> {
    for (const TimeNs t : {50, 150, 250, 350, 550}) {
      co_await s->Delay(t - s->now());
      out->push_back(inj->CpuRate(0));
    }
  }(&sim, &injector, &samples));
  sim.Run();
  EXPECT_EQ(samples, (std::vector<double>{1.0, 0.5, 0.25, 0.5, 1.0}));
  // ScaleCpu stretches by the inverse rate.
  EXPECT_EQ(injector.ScaleCpu(0, 100), 100);
}

// ------------------------------------------------------------ cluster runs

ClusterConfig StragglerConfig(int machines, double alpha, double severity) {
  ClusterConfig cfg;
  cfg.machines = machines;
  // Compute-bound miniature regime (see bench_fig21_stragglers.cc): one
  // core, fast storage, latencies small against transfer times, and enough
  // partitions/chunks for meaningful steal granularity.
  cfg.memory_budget_bytes = 8 << 10;
  cfg.chunk_bytes = 2 << 10;
  cfg.cost.cores = 1;
  cfg.storage.bandwidth_bps = 2e9;
  cfg.storage.access_latency = 2 * kNsPerUs;
  cfg.net.one_way_latency = kNsPerUs;
  cfg.alpha = alpha;
  cfg.seed = 5;
  if (severity > 1.0) {
    cfg.faults = FaultSchedule::Straggler(0, severity, FaultTarget::kCpu);
  }
  return cfg;
}

InputGraph StragglerGraph() {
  RmatOptions opt;
  opt.scale = 11;
  opt.seed = 17;
  return GenerateRmat(opt);
}

// The acceptance-criteria run: two machines, one degraded 4x; randomized
// stealing must strictly beat no-stealing — and both must still compute the
// correct answer (faults perturb timing, never results).
TEST(FaultClusterTest, FourXStragglerStealingBeatsNoStealing) {
  InputGraph g = PrepareInput("pagerank", StragglerGraph());
  auto healthy = RunJob(MakeJob("pagerank", g, StragglerConfig(2, 1.0, 1.0)));
  auto with = RunJob(MakeJob("pagerank", g, StragglerConfig(2, 1.0, 4.0)));
  auto without = RunJob(MakeJob("pagerank", g, StragglerConfig(2, 0.0, 4.0)));

  EXPECT_LT(with.metrics.total_time, without.metrics.total_time);
  uint64_t steals = 0;
  for (const auto& mm : with.metrics.machines) {
    steals += mm.steals_worked;
  }
  EXPECT_GT(steals, 0u);
  // The injected fault shows up in the run metrics, attributed.
  ASSERT_EQ(with.metrics.faults.size(), 1u);
  EXPECT_EQ(with.metrics.faults[0].applied_at, 0);
  EXPECT_EQ(with.metrics.faults[0].cleared_at, -1);
  EXPECT_GT(with.metrics.StealsDuringFault(with.metrics.faults[0]), 0u);
  // Same answer regardless of faults or stealing (timing changes reorder
  // float accumulator merges, so exact bit-equality is not expected).
  ASSERT_EQ(with.values.size(), healthy.values.size());
  for (size_t v = 0; v < healthy.values.size(); ++v) {
    const double tol = 1e-4 * std::max(1.0, std::abs(healthy.values[v]));
    ASSERT_NEAR(with.values[v], healthy.values[v], tol);
    ASSERT_NEAR(without.values[v], healthy.values[v], tol);
  }
}

// An event scheduled past the end of the workload must be recorded as never
// reached, not applied post-run (and must not stretch the simulated clock).
TEST(FaultClusterTest, EventsPastTheEndOfTheRunAreNotReached) {
  InputGraph g = PrepareInput("pagerank", StragglerGraph());
  ClusterConfig cfg = StragglerConfig(2, 1.0, 1.0);
  cfg.faults = FaultSchedule::TransientSlowdown(0, FaultTarget::kCpu, 0.5,
                                                /*at=*/10 * kNsPerSec, /*duration=*/kNsPerMs);
  auto r = RunJob(MakeJob("pagerank", g, cfg));
  EXPECT_LT(r.metrics.total_time, kNsPerSec);
  ASSERT_EQ(r.metrics.faults.size(), 1u);
  EXPECT_EQ(r.metrics.faults[0].applied_at, -1);
  EXPECT_EQ(r.metrics.StealsDuringFault(r.metrics.faults[0]), 0u);
  EXPECT_NE(r.metrics.Summary().find("not reached"), std::string::npos);
}

// Deterministic replay: an identical (workload, seed, schedule) triple must
// reproduce the identical simulated trace, fault timestamps included.
TEST(FaultClusterTest, FaultScheduleReplayIsDeterministic) {
  InputGraph g = PrepareInput("pagerank", StragglerGraph());
  auto run = [&] {
    ClusterConfig cfg = StragglerConfig(2, 1.0, 1.0);
    cfg.faults = FaultSchedule::Random(/*seed=*/9, /*machines=*/2, /*count=*/6,
                                       /*horizon=*/5 * kNsPerMs);
    return RunJob(MakeJob("pagerank", g, cfg));
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.metrics.total_time, b.metrics.total_time);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.network_bytes, b.metrics.network_bytes);
  ASSERT_EQ(a.metrics.faults.size(), b.metrics.faults.size());
  for (size_t i = 0; i < a.metrics.faults.size(); ++i) {
    EXPECT_EQ(a.metrics.faults[i].applied_at, b.metrics.faults[i].applied_at);
    EXPECT_EQ(a.metrics.faults[i].cleared_at, b.metrics.faults[i].cleared_at);
    EXPECT_EQ(a.metrics.faults[i].at_apply.proposals_accepted,
              b.metrics.faults[i].at_apply.proposals_accepted);
  }
  ASSERT_EQ(a.values.size(), b.values.size());
  for (size_t v = 0; v < a.values.size(); ++v) {
    ASSERT_DOUBLE_EQ(a.values[v], b.values[v]);
  }
}

// A pin of the rate-change path under load. NIC and storage slowdowns
// begin while transfers queue on the slowed links and device (the NIC
// onset finds five requests on machine 3's uplink, the storage onset seven
// on machine 0's device), on an 8-machine stealing cluster whose pool
// budget spills, and both recoveries re-project queued work again. No
// pinned bench slows a NIC or a device under load, so a change to how
// sleeping requests wake on a rate change shows up here first.
TEST(FaultClusterTest, NicAndStorageSlowdownsOverQueuedTransfersArePinned) {
  RmatOptions opt;
  opt.scale = 12;
  opt.seed = 17;
  const InputGraph g = PrepareInput("pagerank", GenerateRmat(opt));
  ClusterConfig cfg = StragglerConfig(8, 1.0, 1.0);
  cfg.pool_budget_bytes = 12 << 10;
  cfg.net.nic_bandwidth_bps = 1e9;
  cfg.faults.Add(FaultEvent{946 * kNsPerUs, kNsPerMs, /*machine=*/3, FaultTarget::kNic, 1.0 / 6});
  cfg.faults.Add(
      FaultEvent{1776 * kNsPerUs, kNsPerMs, /*machine=*/0, FaultTarget::kStorage, 1.0 / 6});
  const RunMetrics m = RunJob(MakeJob("pagerank", g, cfg)).metrics;

  // The scenario was reached: both faults applied, the pool spilled and
  // helpers stole work.
  ASSERT_EQ(m.faults.size(), 2u);
  ASSERT_GE(m.faults[0].applied_at, 0);
  ASSERT_GE(m.faults[1].applied_at, 0);
  PoolMetrics pools;
  for (const PoolMetrics& p : m.pools) {
    pools.spill_out_bytes += p.spill_out_bytes;
    pools.spill_in_bytes += p.spill_in_bytes;
    pools.spill_events += p.spill_events;
    pools.acquires += p.acquires;
    pools.stall_time += p.stall_time;
    pools.peak_bytes = std::max(pools.peak_bytes, p.peak_bytes);
  }
  ASSERT_GT(pools.spill_out_bytes, 0u);
  ASSERT_GT(m.PartitionsGranted(), 0u);

  EXPECT_EQ(m.total_time, 6220000);
  EXPECT_EQ(m.superstep_end_times,
            (std::vector<TimeNs>{1688968, 3426354, 4350204, 5249188, 6202062}));
  EXPECT_EQ(m.messages, 16980u);
  EXPECT_EQ(m.network_bytes, 9344288u);
  EXPECT_EQ(m.StealProposalsSent(), 602u);
  EXPECT_EQ(m.PartitionsGranted(), 6u);
  EXPECT_EQ(m.StealRequestsDeclined(), 596u);
  EXPECT_EQ(m.StealBackoffs(), 0u);
  EXPECT_EQ(m.StolenChunks(), 0u);
  EXPECT_EQ(pools.spill_out_bytes, 6706416u);
  EXPECT_EQ(pools.spill_in_bytes, 579432u);
  EXPECT_EQ(pools.spill_events, 3799u);
  EXPECT_EQ(pools.acquires, 10499u);
  EXPECT_EQ(pools.stall_time, 41576441);
  EXPECT_EQ(pools.peak_bytes, 12288u);
  EXPECT_EQ(m.faults[0].applied_at, 946000);
  EXPECT_EQ(m.faults[0].cleared_at, 1946000);
  EXPECT_EQ(m.faults[1].applied_at, 1776000);
  EXPECT_EQ(m.faults[1].cleared_at, 2776000);
}

// ---------------------------------------------------------- heterogeneity

// A machine that is slower throughout is a permanent fault from t=0, on
// whichever resource it is slow: the run takes longer, the answer stays.
TEST(HeterogeneityTest, SlowMachineSlowsTheRunButNotTheAnswer) {
  InputGraph g = PrepareInput("pagerank", StragglerGraph());
  const ClusterConfig uniform = StragglerConfig(2, 1.0, 1.0);
  auto base = RunJob(MakeJob("pagerank", g, uniform));

  for (const FaultTarget target :
       {FaultTarget::kCpu, FaultTarget::kStorage, FaultTarget::kNic, FaultTarget::kMachine}) {
    SCOPED_TRACE(FaultTargetName(target));
    ClusterConfig skewed = uniform;
    skewed.faults = FaultSchedule::Straggler(0, 4.0, target);
    auto het = RunJob(MakeJob("pagerank", g, skewed));

    EXPECT_GT(het.metrics.total_time, base.metrics.total_time);
    ASSERT_EQ(het.values.size(), base.values.size());
    for (size_t v = 0; v < base.values.size(); ++v) {
      // Heterogeneity shifts steal/merge order (float non-associativity).
      ASSERT_NEAR(het.values[v], base.values[v],
                  1e-4 * std::max(1.0, std::abs(base.values[v])));
    }
  }
}

}  // namespace
}  // namespace chaos
