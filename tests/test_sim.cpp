#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/cluster.hpp"
#include "sim/device_table.hpp"
#include "sim/network.hpp"

namespace hadfl::sim {
namespace {

TEST(DeviceSpec, FromRatio) {
  const auto specs = devices_from_ratio({3, 3, 1, 1});
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].id, 0u);
  EXPECT_EQ(specs[0].compute_power, 3.0);
  EXPECT_EQ(specs[3].compute_power, 1.0);
  EXPECT_EQ(specs[2].name, "dev2");
}

TEST(DeviceSpec, RatioToString) {
  EXPECT_EQ(ratio_to_string({4, 2, 2, 1}), "[4,2,2,1]");
  EXPECT_EQ(ratio_to_string({1.5}), "[1.5]");
}

TEST(DeviceSpec, RejectsBadRatios) {
  EXPECT_THROW(devices_from_ratio({}), InvalidArgument);
  EXPECT_THROW(devices_from_ratio({1, 0}), InvalidArgument);
  EXPECT_THROW(devices_from_ratio({1}, -0.1), InvalidArgument);
}

TEST(DeviceTable, FromRatioCycledRepeatsPattern) {
  const DeviceTable t = DeviceTable::from_ratio_cycled({3, 1}, 5, 0.05);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.compute_power(0), 3.0);
  EXPECT_EQ(t.compute_power(1), 1.0);
  EXPECT_EQ(t.compute_power(4), 3.0);
  EXPECT_EQ(t.jitter_std(3), 0.05);
  EXPECT_TRUE(t.any_jitter());
  EXPECT_EQ(t.name(4), "dev4");
  EXPECT_EQ(t.spec(1).compute_power, 1.0);
}

TEST(DeviceTable, FromSpecsKeepsExplicitNamesOnly) {
  std::vector<DeviceSpec> specs = devices_from_ratio({2, 1});
  specs[1].name = "edge-node";
  const DeviceTable t = DeviceTable::from_specs(specs);
  EXPECT_EQ(t.name(0), "dev0");
  EXPECT_EQ(t.name(1), "edge-node");
  EXPECT_FALSE(t.any_jitter());
}

TEST(DeviceTable, MatchesDevicesFromRatioOnOneCycle) {
  // The fleet generalization must agree with the per-spec builder when the
  // count equals the pattern length.
  const auto specs = devices_from_ratio({4, 2, 2, 1}, 0.1);
  const DeviceTable cycled = DeviceTable::from_ratio_cycled({4, 2, 2, 1}, 4,
                                                            0.1);
  ASSERT_EQ(cycled.size(), specs.size());
  for (DeviceId d = 0; d < specs.size(); ++d) {
    EXPECT_EQ(cycled.compute_power(d), specs[d].compute_power);
    EXPECT_EQ(cycled.jitter_std(d), specs[d].jitter_std);
    EXPECT_EQ(cycled.name(d), specs[d].name);
  }
}

TEST(NetworkModel, TransferTime) {
  NetworkModel net{1e-3, 1e6};  // 1 ms, 1 MB/s
  EXPECT_NEAR(net.transfer_time(500000), 1e-3 + 0.5, 1e-9);
  EXPECT_NEAR(net.transfer_time(0), 1e-3, 1e-12);
}

TEST(NetworkModel, Presets) {
  EXPECT_GT(NetworkModel::pcie3_x8().bandwidth, 1e9);
  EXPECT_GT(NetworkModel::wan().latency, NetworkModel::pcie3_x8().latency);
}

TEST(FaultInjector, AliveOutsideWindow) {
  FaultInjector faults;
  faults.schedule(FaultEvent{1, 10.0, 20.0});
  EXPECT_TRUE(faults.alive(1, 9.9));
  EXPECT_FALSE(faults.alive(1, 10.0));
  EXPECT_FALSE(faults.alive(1, 19.9));
  EXPECT_TRUE(faults.alive(1, 20.0));
  EXPECT_TRUE(faults.alive(0, 15.0));  // other device unaffected

  // Events out of id order (7, 2, 7): device 7 ends up with two windows.
  faults.schedule(FaultEvent{7, 30.0, 40.0});
  faults.schedule(FaultEvent{2, 5.0, 6.0});
  faults.schedule(FaultEvent{7, 50.0, 60.0});
  EXPECT_TRUE(faults.alive(7, 29.9));
  EXPECT_FALSE(faults.alive(7, 30.0));
  EXPECT_TRUE(faults.alive(7, 40.0));
  EXPECT_TRUE(faults.alive(7, 49.9));
  EXPECT_FALSE(faults.alive(7, 50.0));
  EXPECT_FALSE(faults.alive(7, 59.9));
  EXPECT_TRUE(faults.alive(7, 60.0));
  EXPECT_FALSE(faults.alive(2, 5.5));
  EXPECT_TRUE(faults.alive(2, 6.0));
  EXPECT_FALSE(faults.alive(1, 15.0));  // earlier windows survive later ones
  // Unscheduled ids below the largest scheduled id and far above it.
  for (const DeviceId id : {DeviceId{0}, DeviceId{3}, DeviceId{6},
                            DeviceId{8}, DeviceId{1000000}}) {
    EXPECT_TRUE(faults.alive(id, 35.0)) << id;
    EXPECT_TRUE(faults.alive(id, 55.0)) << id;
  }
}

TEST(FaultInjector, PermanentDisconnect) {
  FaultInjector faults;
  faults.schedule_disconnect(2, 5.0);
  EXPECT_TRUE(faults.alive(2, 4.0));
  EXPECT_FALSE(faults.alive(2, 1e12));
}

TEST(FaultInjector, FailsWithinInterval) {
  FaultInjector faults;
  faults.schedule(FaultEvent{0, 10.0, 12.0});
  EXPECT_TRUE(faults.fails_within(0, 9.0, 10.5));
  EXPECT_TRUE(faults.fails_within(0, 11.0, 15.0));
  EXPECT_FALSE(faults.fails_within(0, 0.0, 9.9));
  EXPECT_FALSE(faults.fails_within(0, 12.0, 20.0));

  // Events out of id order (7, 2, 7): device 7 ends up with two windows.
  faults.schedule(FaultEvent{7, 30.0, 40.0});
  faults.schedule(FaultEvent{2, 5.0, 6.0});
  faults.schedule(FaultEvent{7, 50.0, 60.0});
  EXPECT_TRUE(faults.fails_within(7, 25.0, 30.0));
  EXPECT_FALSE(faults.fails_within(7, 40.0, 49.9));  // between the windows
  EXPECT_TRUE(faults.fails_within(7, 45.0, 50.0));
  EXPECT_TRUE(faults.fails_within(7, 59.0, 70.0));
  EXPECT_FALSE(faults.fails_within(7, 60.0, 70.0));
  EXPECT_TRUE(faults.fails_within(2, 0.0, 5.0));
  EXPECT_FALSE(faults.fails_within(2, 6.0, 100.0));
  EXPECT_TRUE(faults.fails_within(0, 11.0, 11.0));  // earlier event intact
  // Unscheduled ids below the largest scheduled id and far above it.
  for (const DeviceId id : {DeviceId{1}, DeviceId{3}, DeviceId{6},
                            DeviceId{8}, DeviceId{1000000}}) {
    EXPECT_FALSE(faults.fails_within(id, 0.0, 100.0)) << id;
  }
}

TEST(FaultInjector, Validation) {
  FaultInjector faults;
  EXPECT_THROW(faults.schedule(FaultEvent{0, -1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(faults.schedule(FaultEvent{0, 2.0, 2.0}), InvalidArgument);
}

TEST(FaultInjector, DriftMultiplierIsExactlyOneWithoutDrift) {
  FaultInjector faults;
  EXPECT_FALSE(faults.has_drift());
  // Exactly 1.0, not merely close: the trainer multiplies step times by
  // this value unconditionally, and ×1.0 is what keeps no-drift runs
  // bit-identical to the pre-drift code.
  EXPECT_EQ(faults.drift_multiplier(0, 0), 1.0);
  EXPECT_EQ(faults.drift_multiplier(7, 123), 1.0);
}

TEST(FaultInjector, StepDriftIsPermanentFromItsRound) {
  FaultInjector faults;
  faults.schedule_drift(DriftEvent{1, 3, 4.0, DriftKind::kStep});
  EXPECT_EQ(faults.drift_multiplier(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(faults.drift_multiplier(1, 3), 4.0);
  EXPECT_DOUBLE_EQ(faults.drift_multiplier(1, 100), 4.0);
  EXPECT_EQ(faults.drift_multiplier(0, 100), 1.0);  // other device
  EXPECT_TRUE(faults.has_drift());
}

TEST(FaultInjector, RampDriftThrottlesGradually) {
  FaultInjector faults;
  DriftEvent event{0, 2, 3.0, DriftKind::kRamp};
  event.ramp_rounds = 4;
  faults.schedule_drift(event);
  EXPECT_EQ(faults.drift_multiplier(0, 1), 1.0);
  const double quarter = faults.drift_multiplier(0, 2);
  const double half = faults.drift_multiplier(0, 3);
  EXPECT_GT(quarter, 1.0);
  EXPECT_LT(quarter, half);
  EXPECT_DOUBLE_EQ(faults.drift_multiplier(0, 5), 3.0);   // ramp complete
  EXPECT_DOUBLE_EQ(faults.drift_multiplier(0, 50), 3.0);  // and holds
}

TEST(FaultInjector, SquareDriftPulsesWithPeriodAndDuty) {
  FaultInjector faults;
  DriftEvent event{0, 0, 2.0, DriftKind::kSquare};
  event.period = 4;
  event.duty = 1;
  faults.schedule_drift(event);
  EXPECT_DOUBLE_EQ(faults.drift_multiplier(0, 0), 2.0);  // on phase
  EXPECT_EQ(faults.drift_multiplier(0, 1), 1.0);
  EXPECT_EQ(faults.drift_multiplier(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(faults.drift_multiplier(0, 4), 2.0);  // next period
}

TEST(FaultInjector, CompoundDriftMultiplies) {
  FaultInjector faults;
  faults.schedule_drift(DriftEvent{0, 0, 2.0, DriftKind::kStep});
  faults.schedule_drift(DriftEvent{0, 5, 3.0, DriftKind::kStep});
  EXPECT_DOUBLE_EQ(faults.drift_multiplier(0, 4), 2.0);
  EXPECT_DOUBLE_EQ(faults.drift_multiplier(0, 5), 6.0);
}

TEST(FaultInjector, DriftValidation) {
  FaultInjector faults;
  EXPECT_THROW(faults.schedule_drift(DriftEvent{0, 0, 0.0}),
               InvalidArgument);
  DriftEvent ramp{0, 0, 2.0, DriftKind::kRamp};
  ramp.ramp_rounds = 0;
  EXPECT_THROW(faults.schedule_drift(ramp), InvalidArgument);
  DriftEvent square{0, 0, 2.0, DriftKind::kSquare};
  square.period = 2;
  square.duty = 3;
  EXPECT_THROW(faults.schedule_drift(square), InvalidArgument);
}

TEST(Cluster, IterationTimeScalesInverselyWithPower) {
  Cluster cluster(devices_from_ratio({4, 1}), 0.2);
  EXPECT_NEAR(cluster.iteration_time(0), 0.05, 1e-12);
  EXPECT_NEAR(cluster.iteration_time(1), 0.2, 1e-12);
}

TEST(Cluster, AdvanceComputeNoJitterIsExact) {
  Cluster cluster(devices_from_ratio({2, 1}), 0.1);
  const SimTime d = cluster.advance_compute(0, 10);
  EXPECT_NEAR(d, 0.5, 1e-12);
  EXPECT_NEAR(cluster.time(0), 0.5, 1e-12);
  EXPECT_EQ(cluster.time(1), 0.0);
}

TEST(Cluster, JitterPerturbsBoundedly) {
  Cluster cluster(devices_from_ratio({1}, /*jitter_std=*/0.1), 1.0, 99);
  for (int i = 0; i < 200; ++i) {
    const double f = cluster.sample_jitter_factor(0);
    EXPECT_GE(f, 0.25);
    EXPECT_LE(f, 1.4);
  }
}

TEST(Cluster, NoJitterFactorIsOne) {
  Cluster cluster(devices_from_ratio({1}), 1.0);
  EXPECT_EQ(cluster.sample_jitter_factor(0), 1.0);
}

TEST(Cluster, BarrierAlignsSubset) {
  Cluster cluster(devices_from_ratio({1, 1, 1}), 1.0);
  cluster.advance(0, 3.0);
  cluster.advance(1, 5.0);
  const SimTime t = cluster.barrier({0, 1});
  EXPECT_EQ(t, 5.0);
  EXPECT_EQ(cluster.time(0), 5.0);
  EXPECT_EQ(cluster.time(1), 5.0);
  EXPECT_EQ(cluster.time(2), 0.0);  // not in the barrier
}

TEST(Cluster, BarrierAllAndMaxTime) {
  Cluster cluster(devices_from_ratio({1, 1}), 1.0);
  cluster.advance(1, 7.0);
  EXPECT_EQ(cluster.max_time(), 7.0);
  cluster.barrier_all();
  EXPECT_EQ(cluster.time(0), 7.0);
}

TEST(Cluster, AdvanceToNeverMovesBackwards) {
  Cluster cluster(devices_from_ratio({1}), 1.0);
  cluster.advance(0, 5.0);
  cluster.advance_to(0, 3.0);
  EXPECT_EQ(cluster.time(0), 5.0);
  cluster.advance_to(0, 8.0);
  EXPECT_EQ(cluster.time(0), 8.0);
}

TEST(Cluster, ResetClocks) {
  Cluster cluster(devices_from_ratio({1, 2}), 1.0);
  cluster.advance(0, 5.0);
  cluster.reset_clocks();
  EXPECT_EQ(cluster.max_time(), 0.0);
}

TEST(Cluster, Validation) {
  EXPECT_THROW(Cluster(std::vector<DeviceSpec>{}, 1.0), InvalidArgument);
  EXPECT_THROW(Cluster(devices_from_ratio({1}), 0.0), InvalidArgument);
  Cluster cluster(devices_from_ratio({1}), 1.0);
  EXPECT_THROW(cluster.time(5), InvalidArgument);
  EXPECT_THROW(cluster.advance(0, -1.0), InvalidArgument);
  EXPECT_THROW(cluster.barrier({}), InvalidArgument);
}

}  // namespace
}  // namespace hadfl::sim
