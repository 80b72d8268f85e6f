#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "comm/allreduce.hpp"
#include "comm/broadcast.hpp"
#include "comm/failure_detector.hpp"
#include "comm/transport.hpp"
#include "common/error.hpp"

namespace hadfl::comm {
namespace {

sim::Cluster make_cluster(std::size_t k = 4) {
  return sim::Cluster(
      sim::devices_from_ratio(std::vector<double>(k, 1.0)), 0.1);
}

TEST(Transport, BlockingSendAdvancesBothEndpoints) {
  sim::Cluster cluster = make_cluster(2);
  SimTransport t(cluster, sim::NetworkModel{0.001, 1e6});
  cluster.advance(0, 1.0);
  const SimTime done = t.send(0, 1, 500000);  // 0.5 s payload
  EXPECT_NEAR(done, 1.0 + 0.001 + 0.5, 1e-9);
  EXPECT_NEAR(cluster.time(0), done, 1e-9);
  EXPECT_NEAR(cluster.time(1), done, 1e-9);
  EXPECT_EQ(t.volume().sent[0], 500000u);
  EXPECT_EQ(t.volume().received[1], 500000u);
}

TEST(Transport, RendezvousWaitsForLaterParty) {
  sim::Cluster cluster = make_cluster(2);
  SimTransport t(cluster, sim::NetworkModel{0.0, 1e9});
  cluster.advance(1, 5.0);  // receiver is busy until t=5
  const SimTime done = t.send(0, 1, 0);
  EXPECT_NEAR(done, 5.0, 1e-9);
}

TEST(Transport, NonblockingLeavesSenderClockAlone) {
  sim::Cluster cluster = make_cluster(2);
  SimTransport t(cluster, sim::NetworkModel{0.001, 1e6});
  cluster.advance(0, 2.0);
  const SimTime arrival = t.send_nonblocking(0, 1, 1000000);
  EXPECT_NEAR(arrival, 2.0 + 0.001 + 1.0, 1e-9);
  EXPECT_NEAR(cluster.time(0), 2.0, 1e-9);  // unchanged
  EXPECT_NEAR(cluster.time(1), arrival, 1e-9);
}

TEST(Transport, SendToDeadDeviceThrows) {
  sim::Cluster cluster = make_cluster(2);
  cluster.faults().schedule_disconnect(1, 0.0);
  SimTransport t(cluster, sim::NetworkModel{0.001, 1e6});
  EXPECT_THROW(t.send(0, 1, 100), CommError);
  EXPECT_THROW(t.send_nonblocking(0, 1, 100), CommError);
}

TEST(Transport, SendFromDeadDeviceThrows) {
  sim::Cluster cluster = make_cluster(2);
  cluster.faults().schedule_disconnect(0, 0.0);
  SimTransport t(cluster, sim::NetworkModel{0.001, 1e6});
  EXPECT_THROW(t.send(0, 1, 100), CommError);
}

TEST(Transport, NonblockingDeadReceiverConsumesSend) {
  // §III-D contract pinned for both backends (rt::InprocTransport mirrors
  // it in test_rt.cpp): a non-blocking push to a dead receiver is consumed
  // — the sender's volume is counted — but the failure is reported as a
  // CommError and the receiver's counter stays untouched.
  sim::Cluster cluster = make_cluster(2);
  cluster.faults().schedule_disconnect(1, 0.0);
  SimTransport t(cluster, sim::NetworkModel{0.001, 1e6});
  EXPECT_THROW(t.send_nonblocking(0, 1, 4096), CommError);
  EXPECT_EQ(t.volume().sent[0], 4096u);
  EXPECT_EQ(t.volume().received[1], 0u);
}

// send_fanout cuts its destinations into fixed 16384-destination ranges.
// The fan-out world: more than three ranges of receivers with varied link
// speeds, visited in a scattered order, dead receivers on both sides of two
// range boundaries, a fault window that closes before the arrival, a
// slow link whose arrival is the latest of all, and receivers whose
// clocks are already past some arrival times.
constexpr std::size_t kFanoutDsts = 3 * 16384 + 1234;
constexpr DeviceId kFanoutSrc = 5;

std::vector<DeviceId> fanout_destinations() {
  const std::size_t ids = kFanoutDsts + 1;
  std::vector<DeviceId> dsts;
  for (std::size_t i = 0; i < ids; ++i) {
    const DeviceId id = (i * 7919) % ids;  // 7919 is coprime to ids
    if (id != kFanoutSrc) dsts.push_back(id);
  }
  return dsts;
}

sim::Cluster fanout_cluster(const std::vector<DeviceId>& dsts) {
  sim::Cluster cluster(
      sim::DeviceTable::from_ratio_cycled({1.0}, kFanoutDsts + 1), 0.1);
  std::vector<double> scales(kFanoutDsts + 1);
  for (std::size_t d = 0; d < scales.size(); ++d) {
    scales[d] = 0.25 + 0.125 * static_cast<double>(d % 7);
  }
  scales[dsts[5]] = 0.01;  // the one latest arrival, in the first range
  cluster.set_bandwidth_scales(scales);
  cluster.advance(kFanoutSrc, 1.0);
  for (const std::size_t i : {16383u, 16384u, 32767u, 32768u}) {
    cluster.faults().schedule_disconnect(dsts[i], 0.0);
  }
  cluster.faults().schedule(sim::FaultEvent{dsts[100], 0.0, 0.5});
  cluster.faults().schedule(sim::FaultEvent{dsts[40000], 0.5, 2.0});
  for (std::size_t i = 0; i < dsts.size(); i += 97) {
    cluster.advance(dsts[i], 1.01);
  }
  return cluster;
}

std::vector<SimTime> clocks_of(const sim::Cluster& cluster) {
  std::vector<SimTime> clocks(cluster.size());
  for (DeviceId d = 0; d < clocks.size(); ++d) clocks[d] = cluster.time(d);
  return clocks;
}

TEST(SimTransport, FanoutMatchesPerSendLoopAtAnyThreadCount) {
  const sim::NetworkModel net{0.001, 1e6};
  constexpr std::size_t kBytes = 4096;
  const std::vector<DeviceId> dsts = fanout_destinations();
  ASSERT_EQ(dsts.size(), kFanoutDsts);

  sim::Cluster want_cluster = fanout_cluster(dsts);
  SimTransport want(want_cluster, net);
  std::vector<DeviceId> want_delivered;
  std::vector<DeviceId> want_unreachable;
  SimTime want_last = 0.0;
  for (const DeviceId dst : dsts) {
    try {
      want_last =
          std::max(want_last, want.send_nonblocking(kFanoutSrc, dst, kBytes));
      want_delivered.push_back(dst);
    } catch (const CommError&) {
      want_unreachable.push_back(dst);
    }
  }
  // The four dead receivers plus the one whose fault window covers its
  // arrival; the window that closed before the arrival delivers.
  ASSERT_EQ(want_unreachable,
            (std::vector<DeviceId>{dsts[16383], dsts[16384], dsts[32767],
                                   dsts[32768], dsts[40000]}));

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    sim::Cluster cluster = fanout_cluster(dsts);
    SimTransport t(cluster, net);
    const SimTransport::FanoutResult got =
        t.send_fanout(kFanoutSrc, dsts, kBytes, threads);
    EXPECT_EQ(got.delivered, want_delivered);
    EXPECT_EQ(got.unreachable, want_unreachable);
    EXPECT_EQ(got.last_arrival, want_last);
    EXPECT_EQ(cluster.max_time(), want_cluster.max_time());
    EXPECT_EQ(clocks_of(cluster), clocks_of(want_cluster));
    EXPECT_EQ(t.volume().received, want.volume().received);
    EXPECT_EQ(t.volume().sent, want.volume().sent);
    EXPECT_EQ(t.volume().sent[kFanoutSrc], kBytes * kFanoutDsts);
  }
}

TEST(Transport, HandshakeAliveCostsTwoLatencies) {
  sim::Cluster cluster = make_cluster(2);
  SimTransport t(cluster, sim::NetworkModel{0.01, 1e9});
  EXPECT_TRUE(t.handshake(0, 1, 1.0));
  EXPECT_NEAR(cluster.time(0), 0.02, 1e-9);
}

TEST(Transport, HandshakeDeadCostsTimeout) {
  sim::Cluster cluster = make_cluster(2);
  cluster.faults().schedule_disconnect(1, 0.0);
  SimTransport t(cluster, sim::NetworkModel{0.01, 1e9});
  EXPECT_FALSE(t.handshake(0, 1, 0.5));
  EXPECT_NEAR(cluster.time(0), 0.5, 1e-9);
}

TEST(Transport, SelfSendRejected) {
  sim::Cluster cluster = make_cluster(2);
  SimTransport t(cluster, sim::NetworkModel{});
  EXPECT_THROW(t.send(0, 0, 1), InvalidArgument);
}

TEST(Transport, AccountOnlyTouchesCounters) {
  sim::Cluster cluster = make_cluster(2);
  SimTransport t(cluster, sim::NetworkModel{});
  t.account(0, 1, 42);
  t.account_external(1, 10, 20);
  EXPECT_EQ(cluster.max_time(), 0.0);
  EXPECT_EQ(t.volume().sent[0], 42u);
  EXPECT_EQ(t.volume().received[1], 62u);
  EXPECT_EQ(t.volume().sent[1], 10u);
  EXPECT_EQ(t.volume().total_sent(), 52u);
  t.reset_volume();
  EXPECT_EQ(t.volume().total_sent(), 0u);
}

TEST(AllReduce, DurationFormula) {
  sim::NetworkModel net{0.001, 1e6};
  // K=4, 4 MB buffer -> chunk 1 MB, 6 steps of (1ms + 1s).
  EXPECT_NEAR(ring_allreduce_duration(net, 4, 4000000), 6 * 1.001, 1e-9);
  EXPECT_EQ(ring_allreduce_duration(net, 1, 1000), 0.0);
}

TEST(AllReduce, AverageIsExactMean) {
  sim::Cluster cluster = make_cluster(3);
  SimTransport t(cluster, sim::NetworkModel{});
  std::vector<float> a{1, 2, 3};
  std::vector<float> b{4, 5, 6};
  std::vector<float> c{7, 8, 9};
  ring_allreduce_average(t, {0, 1, 2},
                         {std::span<float>(a), std::span<float>(b),
                          std::span<float>(c)});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(a[i], 4.0f + static_cast<float>(i), 1e-6);
    EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(b[i], c[i]);
  }
}

TEST(AllReduce, StartsAtSlowestParticipant) {
  sim::Cluster cluster = make_cluster(2);
  cluster.advance(1, 10.0);
  SimTransport t(cluster, sim::NetworkModel{0.001, 1e9});
  std::vector<float> a{1};
  std::vector<float> b{3};
  const SimTime done = ring_allreduce_average(
      t, {0, 1}, {std::span<float>(a), std::span<float>(b)});
  EXPECT_GT(done, 10.0);
  EXPECT_NEAR(cluster.time(0), done, 1e-12);
}

TEST(AllReduce, VolumeMatchesRingSchedule) {
  sim::Cluster cluster = make_cluster(4);
  SimTransport t(cluster, sim::NetworkModel{});
  const std::size_t bytes = 4000;  // 1000 floats
  simulate_ring_allreduce(t, {0, 1, 2, 3}, bytes);
  // Each device sends 2*(K-1) chunks of ceil(bytes/K).
  const std::size_t expected = 2 * 3 * 1000;
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(t.volume().sent[d], expected);
    EXPECT_EQ(t.volume().received[d], expected);
  }
}

TEST(AllReduce, DeadParticipantThrows) {
  sim::Cluster cluster = make_cluster(3);
  cluster.faults().schedule_disconnect(2, 0.0);
  SimTransport t(cluster, sim::NetworkModel{});
  EXPECT_THROW(simulate_ring_allreduce(t, {0, 1, 2}, 100), CommError);
}

TEST(Broadcast, DeliversToAllLiveReceivers) {
  sim::Cluster cluster = make_cluster(4);
  SimTransport t(cluster, sim::NetworkModel{0.001, 1e6});
  cluster.advance(0, 1.0);
  const BroadcastResult r = broadcast_nonblocking(t, 0, {1, 2, 3}, 1000);
  EXPECT_EQ(r.delivered.size(), 3u);
  EXPECT_TRUE(r.unreachable.empty());
  EXPECT_NEAR(r.last_arrival, 1.0 + 0.001 + 0.001, 1e-9);
  EXPECT_NEAR(cluster.time(0), 1.0, 1e-9);  // sender non-blocking
}

TEST(Broadcast, SkipsDeadReceivers) {
  sim::Cluster cluster = make_cluster(3);
  cluster.faults().schedule_disconnect(2, 0.0);
  SimTransport t(cluster, sim::NetworkModel{0.001, 1e6});
  const BroadcastResult r = broadcast_nonblocking(t, 0, {1, 2}, 100);
  EXPECT_EQ(r.delivered, (std::vector<sim::DeviceId>{1}));
  EXPECT_EQ(r.unreachable, (std::vector<sim::DeviceId>{2}));
}

TEST(RingRepair, HealthyRingUntouched) {
  sim::Cluster cluster = make_cluster(3);
  SimTransport t(cluster, sim::NetworkModel{});
  const RingRepairResult r = repair_ring(t, {2, 0, 1});
  EXPECT_EQ(r.ring, (std::vector<sim::DeviceId>{2, 0, 1}));
  EXPECT_EQ(r.repairs, 0u);
}

TEST(RingRepair, BypassesDeadMember) {
  sim::Cluster cluster = make_cluster(4);
  cluster.faults().schedule_disconnect(2, 0.0);
  SimTransport t(cluster, sim::NetworkModel{1e-4, 1e9});
  RingRepairConfig cfg;
  const RingRepairResult r = repair_ring(t, {0, 1, 2, 3}, cfg);
  EXPECT_EQ(r.ring, (std::vector<sim::DeviceId>{0, 1, 3}));
  EXPECT_EQ(r.removed, (std::vector<sim::DeviceId>{2}));
  EXPECT_EQ(r.repairs, 1u);
  // The downstream neighbour (3) paid the wait + handshake timeout.
  EXPECT_GE(cluster.time(3),
            cfg.wait_before_handshake + cfg.handshake_timeout - 1e-9);
}

TEST(RingRepair, MultipleFailures) {
  sim::Cluster cluster = make_cluster(5);
  cluster.faults().schedule_disconnect(1, 0.0);
  cluster.faults().schedule_disconnect(3, 0.0);
  SimTransport t(cluster, sim::NetworkModel{1e-4, 1e9});
  const RingRepairResult r = repair_ring(t, {0, 1, 2, 3, 4});
  EXPECT_EQ(r.ring, (std::vector<sim::DeviceId>{0, 2, 4}));
  EXPECT_EQ(r.repairs, 2u);
}

TEST(RingRepair, TwoConsecutiveDeadMembersChainWarnings) {
  // Fig. 2b chaining: with ring 0 -> 1 -> 2 -> 3 -> 4 and devices 1 AND 2
  // dead, both are bypassed across successive sweeps and the surviving ring
  // wires device 0 directly to device 3.
  sim::Cluster cluster = make_cluster(5);
  cluster.faults().schedule_disconnect(1, 0.0);
  cluster.faults().schedule_disconnect(2, 0.0);
  SimTransport t(cluster, sim::NetworkModel{1e-4, 1e9});
  RingRepairConfig cfg;
  const RingRepairResult r = repair_ring(t, {0, 1, 2, 3, 4}, cfg);
  EXPECT_EQ(r.ring, (std::vector<sim::DeviceId>{0, 3, 4}));
  EXPECT_EQ(r.repairs, 2u);
  ASSERT_EQ(r.removed.size(), 2u);
  EXPECT_TRUE((r.removed[0] == 1 && r.removed[1] == 2) ||
              (r.removed[0] == 2 && r.removed[1] == 1));
  // The live downstream survivor (device 3) paid at least one protocol
  // round — the wait plus the timed-out handshake — on its own clock.
  EXPECT_GE(cluster.time(3),
            cfg.wait_before_handshake + cfg.handshake_timeout - 1e-9);
}

TEST(RingRepair, AllDeadYieldsEmptyRing) {
  sim::Cluster cluster = make_cluster(2);
  cluster.faults().schedule_disconnect(0, 0.0);
  cluster.faults().schedule_disconnect(1, 0.0);
  SimTransport t(cluster, sim::NetworkModel{1e-4, 1e9});
  const RingRepairResult r = repair_ring(t, {0, 1});
  EXPECT_TRUE(r.ring.empty());
}

TEST(RingRepair, TransientFaultSurvivesHandshake) {
  // Device down only before the handshake fires: the handshake is sent
  // after wait_before_handshake, by which time the device recovered.
  sim::Cluster cluster = make_cluster(2);
  cluster.faults().schedule(sim::FaultEvent{1, 0.0, 0.02});
  SimTransport t(cluster, sim::NetworkModel{1e-4, 1e9});
  RingRepairConfig cfg;
  cfg.wait_before_handshake = 0.05;  // recovery happens inside the wait
  const RingRepairResult r = repair_ring(t, {1, 0}, cfg);
  EXPECT_EQ(r.ring.size(), 2u);
  EXPECT_EQ(r.repairs, 0u);
}

// Property sweep: volume conservation (total sent == total received) across
// ring sizes and payloads.
class AllReduceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllReduceSweep, VolumeConservedAndClocksEqual) {
  const auto [k, kilobytes] = GetParam();
  sim::Cluster cluster = make_cluster(static_cast<std::size_t>(k));
  SimTransport t(cluster, sim::NetworkModel{1e-5, 1e9});
  std::vector<sim::DeviceId> ids;
  for (int i = 0; i < k; ++i) ids.push_back(static_cast<std::size_t>(i));
  simulate_ring_allreduce(t, ids, static_cast<std::size_t>(kilobytes) * 1024);
  EXPECT_EQ(t.volume().total_sent(), t.volume().total_received());
  for (int i = 1; i < k; ++i) {
    EXPECT_EQ(cluster.time(0), cluster.time(static_cast<std::size_t>(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllReduceSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                                            ::testing::Values(0, 1, 64,
                                                              1024)));

}  // namespace
}  // namespace hadfl::comm
