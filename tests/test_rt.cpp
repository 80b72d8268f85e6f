// Tests for the real-time concurrent runtime (src/rt): mailbox primitives,
// transport semantics pinned against comm::SimTransport's contract, ring
// collectives on real threads, wall-clock failure detection + §III-D
// repair, and the end-to-end runner — including the seeded rt-vs-sim
// equivalence (bit-identical final aggregate with timing noise disabled).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/grouping.hpp"
#include "core/trainer.hpp"
#include "exp/runner.hpp"
#include "rt/collectives.hpp"
#include "rt/failure_detector.hpp"
#include "rt/inproc_io.hpp"
#include "rt/mailbox.hpp"
#include "rt/runner.hpp"
#include "rt/transport.hpp"

namespace hadfl::rt {
namespace {

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// ThreadSanitizer slows training chunks ~10x, so wall-clock heartbeat
// windows tuned for native runs starve under it; scale them up.
#if defined(__SANITIZE_THREAD__)
constexpr double kTimingSlack = 8.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr double kTimingSlack = 8.0;
#else
constexpr double kTimingSlack = 1.0;
#endif
#else
constexpr double kTimingSlack = 1.0;
#endif

// ---------------------------------------------------------------- Mailbox

TEST(Mailbox, FifoAcrossThreads) {
  Mailbox<int> box;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) box.push(i);
  });
  for (int i = 0; i < 100; ++i) {
    const std::optional<int> v = box.pop(5.0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  producer.join();
}

TEST(Mailbox, PopMatchSkipsNonMatching) {
  Mailbox<int> box;
  box.push(1);
  box.push(2);
  box.push(3);
  const auto even = box.pop_match([](int v) { return v % 2 == 0; }, 0.1);
  ASSERT_TRUE(even.has_value());
  EXPECT_EQ(*even, 2);
  // Non-matching messages stay queued in order.
  EXPECT_EQ(*box.pop(0.1), 1);
  EXPECT_EQ(*box.pop(0.1), 3);
}

TEST(Mailbox, PopTimesOutWhenEmpty) {
  Mailbox<int> box;
  const Clock::time_point t0 = Clock::now();
  EXPECT_FALSE(box.pop(0.05).has_value());
  EXPECT_GE(elapsed_s(t0), 0.05 - 1e-3);
}

TEST(Mailbox, CloseWakesBlockedConsumerAndRejectsPushes) {
  Mailbox<int> box;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.close();
  });
  const Clock::time_point t0 = Clock::now();
  EXPECT_FALSE(box.pop(10.0).has_value());
  EXPECT_LT(elapsed_s(t0), 5.0);  // woke well before the timeout
  closer.join();
  EXPECT_FALSE(box.push(1));
}

struct Delayed {
  int value = 0;
  Clock::time_point deliver_at;
};

TEST(Mailbox, DeliverAtDelaysVisibility) {
  Mailbox<Delayed> box;
  Delayed msg;
  msg.value = 7;
  msg.deliver_at = Clock::now() + std::chrono::milliseconds(60);
  box.push(msg);
  // Not deliverable yet: a short pop times out.
  EXPECT_FALSE(box.pop(0.01).has_value());
  // A long pop waits until the injected latency has passed.
  const std::optional<Delayed> got = box.pop(5.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, 7);
}

TEST(Mailbox, PurgeRemovesMatchingAndReportsThem) {
  Mailbox<int> box;
  for (int i = 0; i < 6; ++i) box.push(i);
  std::vector<int> dropped;
  const std::size_t removed = box.purge(
      [](int v) { return v < 3; }, [&](int& v) { dropped.push_back(v); });
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(dropped, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(box.size(), 3u);
}

TEST(Mailbox, PushPopMovePayloadIdentity) {
  // Payload buffers must move through the mailbox, not copy: the buffer
  // the consumer pops is the very one the producer pushed, and the
  // producer's message no longer aliases it.
  Mailbox<Message> box;
  Message msg;
  msg.payload.assign(1024, 1.0f);
  const float* buffer = msg.payload.data();
  ASSERT_TRUE(box.push(std::move(msg)));
  EXPECT_TRUE(msg.payload.empty());
  const std::optional<Message> out = box.pop(1.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload.data(), buffer);
  EXPECT_EQ(out->payload.size(), 1024u);
}

// -------------------------------------------------------------- Transport

sim::NetworkModel fast_net() { return sim::NetworkModel{1e-4, 1e9}; }

TEST(InprocTransport, RendezvousTransfersPayloadAndVolume) {
  InprocTransport t(2, fast_net());
  std::thread sender([&] {
    Message msg;
    msg.tag = 42;
    msg.payload = {1.0f, 2.0f, 3.0f};
    t.send(0, 1, std::move(msg), 5.0);
  });
  const Message got = t.recv_match(1, 0, 42, 5.0);
  sender.join();
  EXPECT_EQ(got.payload, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(t.volume().sent[0], 3 * sizeof(float));
  EXPECT_EQ(t.volume().received[1], 3 * sizeof(float));
}

TEST(InprocTransport, RendezvousSenderBlocksUntilConsumed) {
  InprocTransport t(2, fast_net());
  std::atomic<bool> send_returned{false};
  std::thread sender([&] {
    Message msg;
    msg.tag = 1;
    t.send(0, 1, std::move(msg), 5.0);
    send_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(send_returned.load());  // nobody consumed yet
  (void)t.recv_match(1, 0, 1, 5.0);
  sender.join();
  EXPECT_TRUE(send_returned.load());
}

TEST(InprocTransport, NonblockingDeadReceiverConsumesSend) {
  // Must match SimTransport's pinned contract (test_comm.cpp): sender
  // volume counted, CommError thrown, receiver volume untouched.
  InprocTransport t(2, fast_net());
  t.kill(1);
  Message msg;
  msg.payload.resize(1024);
  EXPECT_THROW(t.send_nonblocking(0, 1, std::move(msg)), CommError);
  EXPECT_EQ(t.volume().sent[0], 1024 * sizeof(float));
  EXPECT_EQ(t.volume().received[1], 0u);
}

TEST(InprocTransport, NonblockingDeadSenderThrowsWithoutVolume) {
  InprocTransport t(2, fast_net());
  t.kill(0);
  Message msg;
  msg.payload.resize(16);
  EXPECT_THROW(t.send_nonblocking(0, 1, std::move(msg)), CommError);
  EXPECT_EQ(t.volume().sent[0], 0u);
}

TEST(InprocTransport, KillReleasesPendingRendezvousSender) {
  InprocTransport t(2, fast_net());
  Message msg;
  msg.tag = 9;
  std::shared_ptr<PendingSend> pending = t.isend(0, 1, std::move(msg));
  t.kill(1);
  EXPECT_THROW(pending->wait(5.0, 0, 1), CommError);
}

TEST(InprocTransport, HandshakeAliveFastDeadWaitsTimeout) {
  InprocTransport t(2, fast_net());
  EXPECT_TRUE(t.handshake(0, 1, 0.5));
  t.kill(1);
  const Clock::time_point t0 = Clock::now();
  EXPECT_FALSE(t.handshake(0, 1, 0.05));
  EXPECT_GE(elapsed_s(t0), 0.05 - 1e-3);
}

TEST(InprocTransport, ThrottledLinkDelaysDelivery) {
  // latency 50 ms at time_scale 1: the push is not visible immediately.
  InprocTransport t(2, sim::NetworkModel{0.05, 1e9}, /*time_scale=*/1.0);
  Message msg;
  msg.tag = 5;
  t.send_nonblocking(0, 1, std::move(msg));
  EXPECT_THROW(t.recv_match(1, 0, 5, 0.005), CommError);  // too early
  const Message got = t.recv_match(1, 0, 5, 5.0);
  EXPECT_EQ(got.tag, 5);
}

TEST(InprocTransport, PurgeStaleDropsOldCollectivesOnly) {
  InprocTransport t(2, fast_net());
  Message old_msg;
  old_msg.tag = make_tag(MsgKind::kData, 3, 0);
  t.send_nonblocking(0, 1, std::move(old_msg));
  Message fresh;
  fresh.tag = make_tag(MsgKind::kData, 7, 0);
  t.send_nonblocking(0, 1, std::move(fresh));
  EXPECT_EQ(t.purge_stale(1, 7), 1u);
  const Message got = t.recv_match(1, 0, make_tag(MsgKind::kData, 7, 0), 1.0);
  EXPECT_EQ(InprocTransport::tag_collective_id(got.tag), 7);
}

TEST(InprocTransport, RendezvousMovesPayloadBufferEndToEnd) {
  InprocTransport t(2, fast_net());
  const float* buffer = nullptr;
  std::thread sender([&] {
    Message msg;
    msg.tag = 7;
    msg.payload.assign(1 << 12, 2.0f);
    buffer = msg.payload.data();
    t.send(0, 1, std::move(msg), 5.0);
  });
  const Message got = t.recv_match(1, 0, 7, 5.0);
  sender.join();
  // The receiver holds the sender's buffer — moved hop to hop, no copy.
  EXPECT_EQ(got.payload.data(), buffer);
  EXPECT_EQ(got.payload.size(), std::size_t{1} << 12);
  EXPECT_EQ(got.payload.front(), 2.0f);
}

TEST(BufferPool, RecyclesReleasedCapacity) {
  BufferPool pool;
  std::vector<float> a = pool.acquire(100);
  const float* ptr = a.data();
  EXPECT_EQ(a.size(), 100u);
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);
  std::vector<float> b = pool.acquire(50);  // must reuse the pooled block
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(pool.pooled(), 0u);
  pool.release(std::vector<float>{});  // capacity-free buffers are dropped
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(BufferPool, StatsCountHitsMissesAndHighWater) {
  BufferPool pool;
  std::vector<float> a = pool.acquire(10);  // empty pool: miss
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().high_water, 1u);
  std::vector<float> b = pool.acquire(5);  // recycled: hit
  EXPECT_EQ(pool.stats().hits, 1u);
  std::vector<float> c = pool.acquire(5);  // pool drained again: miss
  EXPECT_EQ(pool.stats().misses, 2u);
  pool.release(std::move(b));
  pool.release(std::move(c));
  EXPECT_EQ(pool.stats().high_water, 2u);
}

TEST(InprocTransport, KillRecyclesQueuedPayloadsToPool) {
  // A message queued for a device that dies must return its payload buffer
  // to the pool (the abort path recycles, it doesn't leak).
  InprocTransport t(2, fast_net());
  Message m;
  m.src = 0;
  m.tag = make_tag(MsgKind::kData, 1, 0);
  m.payload = t.pool().acquire(8);
  auto pending = t.isend(0, 1, std::move(m));
  EXPECT_EQ(t.pool().pooled(), 0u);
  t.kill(1);
  EXPECT_EQ(t.pool().pooled(), 1u);
  EXPECT_THROW(pending->wait(0.1, 0, 1), CommError);
}

// ------------------------------------------------------------ Collectives

TEST(RtCollectives, AllGatherReturnsContributionsInRingOrder) {
  const std::vector<DeviceId> ring{2, 0, 3, 1};
  InprocTransport t(4, fast_net());
  std::vector<std::vector<std::vector<float>>> results(ring.size());
  std::vector<std::thread> members;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    members.emplace_back([&, i] {
      const std::vector<float> local{static_cast<float>(ring[i]) + 0.5f};
      results[i] = ring_allgather(
          t, ring, i, local,
          /*collective_id=*/1, /*wire_bytes=*/0, /*step_timeout_s=*/5.0);
    });
  }
  for (auto& th : members) th.join();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    ASSERT_EQ(results[i].size(), ring.size());
    for (std::size_t j = 0; j < ring.size(); ++j) {
      ASSERT_EQ(results[i][j].size(), 1u);
      EXPECT_FLOAT_EQ(results[i][j][0], static_cast<float>(ring[j]) + 0.5f);
    }
  }
}

TEST(RtCollectives, AllReduceAverageMatchesMean) {
  const std::vector<DeviceId> ring{0, 1, 2};
  InprocTransport t(3, fast_net());
  // 7 elements: exercises uneven chunk boundaries.
  std::vector<std::vector<float>> data(3, std::vector<float>(7));
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t j = 0; j < 7; ++j) {
      data[d][j] = static_cast<float>(d * 10 + j);
    }
  }
  std::vector<float> expected(7);
  for (std::size_t j = 0; j < 7; ++j) {
    expected[j] = (data[0][j] + data[1][j] + data[2][j]) / 3.0f;
  }
  std::vector<std::thread> members;
  for (std::size_t i = 0; i < 3; ++i) {
    members.emplace_back([&, i] {
      ring_allreduce_average(t, ring, i, data[i], /*collective_id=*/2, 5.0);
    });
  }
  for (auto& th : members) th.join();
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_NEAR(data[d][j], expected[j], 1e-4) << "dev " << d << " elem "
                                                 << j;
    }
  }
}

TEST(RtCollectives, DeadNeighbourFailsTheStep) {
  const std::vector<DeviceId> ring{0, 1};
  InprocTransport t(2, fast_net());
  t.kill(1);
  const std::vector<float> local{1.0f};
  EXPECT_THROW(ring_allgather(t, ring, 0, local, 1, 0, 0.1), CommError);
}

// ------------------------------------------- Pipelined weighted aggregate

TEST(RtCollectives, ResolveChunkCountClampsToStateAndTagRange) {
  EXPECT_EQ(resolve_chunk_count(0, 1000), kDefaultSyncChunks);
  EXPECT_EQ(resolve_chunk_count(0, 5), 5u);    // never an empty chunk
  EXPECT_EQ(resolve_chunk_count(7, 1000), 7u);
  EXPECT_EQ(resolve_chunk_count(100, 3), 3u);
  EXPECT_EQ(resolve_chunk_count(3, 0), 1u);
  EXPECT_EQ(resolve_chunk_count(100000, 1000000), 4096u);  // 15-bit tag field
}

TEST(RtCollectives, ChunkWireBytesTelescopesToTheFullPrice) {
  const std::size_t wire = 1000;
  const std::size_t n = 7;
  for (std::size_t chunks : {1u, 2u, 3u, 7u}) {
    std::size_t sum = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [b, e] = chunk_range(n, chunks, c);
      sum += chunk_wire_bytes(wire, n, b, e);
    }
    EXPECT_EQ(sum, wire) << chunks << " chunks";
  }
  EXPECT_EQ(chunk_wire_bytes(0, 7, 0, 3), 0u);     // dense payload pricing
  EXPECT_EQ(chunk_wire_bytes(2, 1000, 10, 11), 1u);  // non-empty floors at 1
  EXPECT_EQ(chunk_wire_bytes(1000, 7, 3, 3), 0u);  // empty chunk is free
}

// The tentpole property: for any ring size and chunk count, every member's
// pipelined aggregate is bit-for-bit the monolithic ring-order fold of the
// same contributions — the invariant that keeps the sim/rt equivalence pin
// green regardless of the chunk count (HadflConfig::sync_chunks).
TEST(RtCollectives, WeightedAggregateMatchesMonolithicFoldBitExact) {
  std::int64_t cid = 100;
  for (const std::size_t k : {2u, 3u, 4u, 8u}) {
    for (const std::size_t chunks : {1u, 2u, 7u, 16u}) {
      const std::size_t n = 37;  // odd: uneven chunk boundaries everywhere
      std::vector<DeviceId> ring(k);
      for (std::size_t i = 0; i < k; ++i) ring[i] = (i * 5) % k;  // shuffled
      std::vector<std::vector<float>> data(k, std::vector<float>(n));
      std::vector<double> weights(k);
      double wsum = 0.0;
      for (std::size_t m = 0; m < k; ++m) {
        wsum += static_cast<double>(m + 1);
        for (std::size_t j = 0; j < n; ++j) {
          data[m][j] =
              static_cast<float>(((m + 1) * 37 + j * 11) % 97) / 13.0f - 3.0f;
        }
      }
      for (std::size_t m = 0; m < k; ++m) {
        weights[m] = static_cast<double>(m + 1) / wsum;
      }

      // Reference: the monolithic fold, member by member in ring order.
      core::WeightedRingFold ref_fold;
      ref_fold.reset(n);
      for (std::size_t m = 0; m < k; ++m) {
        ref_fold.add(0, data[m], weights[m]);
      }
      std::vector<float> expected(n);
      ref_fold.write(0, expected);

      const std::size_t wire = n * sizeof(float);
      InprocTransport t(k, fast_net());
      std::vector<std::vector<float>> outs(k);
      std::vector<std::thread> members;
      for (std::size_t i = 0; i < k; ++i) {
        members.emplace_back([&, i] {
          core::WeightedRingFold fold;
          ring_weighted_aggregate(t, ring, i, data[i], weights, fold, outs[i],
                                  cid, wire, /*step_timeout_s=*/5.0, chunks);
        });
      }
      for (auto& th : members) th.join();
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_EQ(outs[i].size(), n) << "k=" << k << " chunks=" << chunks;
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(outs[i][j], expected[j])
              << "k=" << k << " chunks=" << chunks << " member " << i
              << " elem " << j;
        }
      }
      // Acceptance bound: each member moves at most 2*M on the wire
      // (2*(k-1)/k*M exactly, + <= 1 byte per chunk from the price floor).
      const comm::VolumeCounters vol = t.volume();
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_LE(vol.sent[ring[i]], 2 * wire + chunks)
            << "k=" << k << " chunks=" << chunks << " member " << i;
      }
      ++cid;
    }
  }
}

TEST(RtCollectives, WeightedAggregateSingleMemberIsLocalFold) {
  InprocTransport t(1, fast_net());
  const std::vector<float> local{2.0f, -4.0f, 6.0f};
  core::WeightedRingFold fold;
  std::vector<float> out;
  ring_weighted_aggregate(t, {0}, 0, local, {0.5}, fold, out, 1, 0, 1.0, 2);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], -2.0f);
  EXPECT_FLOAT_EQ(out[2], 3.0f);
}

TEST(RtCollectives, MidPipelineDeathAbortsSurvivorsWithoutMixedState) {
  // Member 1 dies before participating: the survivors' collectives must
  // throw (two-phase abort — the caller never applies a partial result) and
  // their local states must be untouched, because the collective only ever
  // writes the separate `out` buffer.
  const std::vector<DeviceId> ring{0, 1, 2};
  InprocTransport t(3, fast_net());
  t.kill(1);
  const std::vector<double> weights{0.25, 0.25, 0.5};
  std::vector<std::vector<float>> data(3, std::vector<float>(9, 1.5f));
  const std::vector<float> snapshot = data[0];
  std::atomic<int> failures{0};
  std::vector<std::thread> members;
  for (const std::size_t i : {0u, 2u}) {
    members.emplace_back([&, i] {
      core::WeightedRingFold fold;
      std::vector<float> out;
      try {
        ring_weighted_aggregate(t, ring, i, data[i], weights, fold, out,
                                /*collective_id=*/7, 0, /*step_timeout_s=*/0.3,
                                /*chunks=*/4);
      } catch (const CommError&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : members) th.join();
  EXPECT_EQ(failures.load(), 2);
  EXPECT_EQ(data[0], snapshot);  // no partial writes into the local state
}

// ------------------------------------------------- Heartbeats and repair

TEST(FailureDetector, StaleBeatBecomesSuspect) {
  FailureDetector det(2, HeartbeatConfig{0.05});
  EXPECT_TRUE(det.is_alive(0));
  det.beat(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(det.is_alive(0));
  det.beat(0);
  EXPECT_TRUE(det.is_alive(0));  // beats resurrect a mere suspect
  const std::vector<DeviceId> sus = det.suspects();
  EXPECT_TRUE(std::find(sus.begin(), sus.end(), 1) != sus.end());
}

TEST(FailureDetector, MarkDeadIsPermanent) {
  FailureDetector det(1, HeartbeatConfig{10.0});
  det.mark_dead(0);
  det.beat(0);
  EXPECT_FALSE(det.is_alive(0));
}

TEST(FailureDetector, NeverBeatsStaysAliveUntilTimeoutElapses) {
  // Construction seeds every slot with "now": a device that never beats
  // must read as alive for the full timeout window (so slow starters are
  // not mass-suspected at launch) and as a suspect only after it elapses.
  FailureDetector det(2, HeartbeatConfig{0.08});
  EXPECT_TRUE(det.is_alive(0));
  EXPECT_TRUE(det.is_alive(1));
  EXPECT_TRUE(det.suspects().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(160));
  EXPECT_FALSE(det.is_alive(0));
  EXPECT_FALSE(det.is_alive(1));
  EXPECT_EQ(det.suspects().size(), 2u);
}

TEST(FailureDetector, SilenceHistogramObservesGapPerBeat) {
  FailureDetector det(1, HeartbeatConfig{10.0});
  obs::Histogram h({0.001, 0.01, 0.1, 1.0});
  det.attach_silence_histogram(&h);
  det.beat(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  det.beat(0);
  EXPECT_EQ(h.count(), 2u);
  // The second gap slept ~20ms, so the histogram saw something >= 10ms.
  EXPECT_GE(h.max(), 0.01);
}

TEST(RtRingRepair, HealthyRingUntouched) {
  InprocTransport t(3, fast_net());
  FailureDetector det(3, HeartbeatConfig{10.0});
  const RtRingRepairResult r = repair_ring(t, det, {2, 0, 1});
  EXPECT_EQ(r.ring, (std::vector<DeviceId>{2, 0, 1}));
  EXPECT_EQ(r.repairs, 0u);
}

TEST(RtRingRepair, TwoConsecutiveDeadMembersChainWarnings) {
  // Same scenario as the simulator's pinned test (test_comm.cpp): ring
  // 0 -> 1 -> 2 -> 3 -> 4 with devices 1 and 2 dead. The sweep bypasses 1
  // first (upstream 0, downstream the equally-dead 2 — the kWarn push fails,
  // so no warn is *recorded*), then on the next sweep bypasses 2, whose
  // warning actually reaches device 3: device 0 now feeds 3 directly.
  InprocTransport t(5, fast_net());
  FailureDetector det(5, HeartbeatConfig{10.0});
  t.kill(1);
  t.kill(2);
  comm::RingRepairConfig cfg;
  cfg.wait_before_handshake = 0.005;
  cfg.handshake_timeout = 0.01;
  const RtRingRepairResult r = repair_ring(t, det, {0, 1, 2, 3, 4}, cfg);
  EXPECT_EQ(r.ring, (std::vector<DeviceId>{0, 3, 4}));
  EXPECT_EQ(r.repairs, 2u);
  EXPECT_EQ(r.removed, (std::vector<DeviceId>{1, 2}));
  // Only the delivered warning shows up: the first repair's downstream (2)
  // was itself dead, so that push never went out and records nothing.
  ASSERT_EQ(r.warns.size(), 1u);
  EXPECT_EQ(r.warns[0].first, 0u);
  EXPECT_EQ(r.warns[0].second, 3u);
}

TEST(RtRingRepair, TwoMemberRingRecordsNoSelfWarn) {
  // Regression: with only two live members, bypassing the dead one leaves
  // upstream == downstream. The survivor must not be told to "expect data
  // from itself", so no warn entry may be recorded for the repair.
  InprocTransport t(3, fast_net());
  FailureDetector det(3, HeartbeatConfig{10.0});
  t.kill(1);
  comm::RingRepairConfig cfg;
  cfg.wait_before_handshake = 0.005;
  cfg.handshake_timeout = 0.01;
  const RtRingRepairResult r = repair_ring(t, det, {0, 1}, cfg);
  EXPECT_EQ(r.ring, (std::vector<DeviceId>{0}));
  EXPECT_EQ(r.repairs, 1u);
  EXPECT_EQ(r.removed, (std::vector<DeviceId>{1}));
  EXPECT_TRUE(r.warns.empty());
}

TEST(RtRingRepair, HeartbeatSilenceAloneTriggersBypass) {
  // The endpoint is still open (no kill): only the stale heartbeat makes
  // the device a suspect, and the handshake then *succeeds* — a transient —
  // so the member survives. After the transport endpoint closes, the same
  // suspect is confirmed dead and bypassed.
  InprocTransport t(3, fast_net());
  FailureDetector det(3, HeartbeatConfig{0.03});
  det.beat(0);
  det.beat(2);
  std::thread keeper([&] {
    for (int i = 0; i < 40; ++i) {
      det.beat(0);
      det.beat(2);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  comm::RingRepairConfig cfg;
  cfg.wait_before_handshake = 0.005;
  cfg.handshake_timeout = 0.01;
  std::this_thread::sleep_for(std::chrono::milliseconds(80));  // 1 goes stale
  const RtRingRepairResult transient = repair_ring(t, det, {0, 1, 2}, cfg);
  EXPECT_EQ(transient.repairs, 0u);  // handshake answered: transient
  t.kill(1);
  const RtRingRepairResult confirmed = repair_ring(t, det, {0, 1, 2}, cfg);
  keeper.join();
  EXPECT_EQ(confirmed.ring, (std::vector<DeviceId>{0, 2}));
  EXPECT_EQ(confirmed.repairs, 1u);
}

// ------------------------------------------------------------- End-to-end

exp::Scenario rt_scenario(std::vector<double> ratio = {3, 3, 1, 1}) {
  exp::Scenario s = exp::paper_scenario(nn::Architecture::kMlp,
                                        std::move(ratio), /*scale=*/0.5);
  s.train.total_epochs = 8;
  return s;
}

RtConfig fast_rt_config(const core::HadflConfig& hadfl) {
  RtConfig config;
  config.hadfl = hadfl;
  config.heartbeat_timeout_s = 2.0;  // generous: CI boxes schedule coarsely
  config.collective_timeout_s = 5.0;
  config.command_poll_s = 0.002;
  config.hadfl.repair.wait_before_handshake = 0.002;
  config.hadfl.repair.handshake_timeout = 0.01;
  return config;
}

TEST(RtRunner, RunsHadflOnRealThreads) {
  exp::Scenario s = rt_scenario();
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  const RtResult r = run_hadfl_rt(ctx, fast_rt_config(s.hadfl));
  EXPECT_EQ(r.scheme.scheme_name, "hadfl-rt");
  EXPECT_GT(r.scheme.metrics.best_accuracy(), 0.5);
  EXPECT_GT(r.scheme.sync_rounds, 0u);
  EXPECT_FALSE(r.scheme.final_state.empty());
  EXPECT_EQ(r.deaths_detected, 0u);
  EXPECT_GT(r.wall_seconds, 0.0);
  // Strategy was negotiated from the specs like the simulator's.
  EXPECT_EQ(r.extras.strategy.local_steps[0],
            3 * r.extras.strategy.local_steps[2]);
  // Steady-state rounds recycle payload buffers instead of allocating.
  EXPECT_GT(r.pool_stats.hits, 0u);
  EXPECT_GT(r.pool_stats.high_water, 0u);
  EXPECT_GT(r.pool_stats.misses, 0u);
  EXPECT_LT(r.pool_stats.misses, r.pool_stats.hits);
}

/// Runs one seeded scenario on the simulator and on the rt backend and
/// asserts that the round planner's whole output is equal: sync rounds,
/// per-round selections, actual and predicted versions, negotiated epoch
/// times, the strategy, ring repairs, every convergence point's epoch,
/// train loss, test loss and accuracy, and the final state bit for bit.
/// Point times are skipped: virtual on the sim, wall-clock on rt. `drift`
/// is scheduled on the shared cluster, which both backends read per round.
/// With timing noise disabled (no jitter, no faults, virtual timing) the
/// backends draw the same selection/ring streams and fold the same floats;
/// a codec's encode/decode round trips are deterministic float math shared
/// through comm/delta_codec.hpp, so lossy codecs land on the same bits too.
void expect_rt_matches_simulator(const exp::Scenario& s,
                                 const std::vector<sim::DriftEvent>& drift =
                                     {}) {
  exp::Environment env(s);
  for (const sim::DriftEvent& event : drift) {
    env.cluster().faults().schedule_drift(event);
  }
  fl::SchemeContext sim_ctx = env.context();
  const core::HadflResult sim = core::run_hadfl(sim_ctx, s.hadfl);
  fl::SchemeContext rt_ctx = env.context();
  const RtResult rt = run_hadfl_rt(rt_ctx, fast_rt_config(s.hadfl));

  EXPECT_EQ(sim.scheme.sync_rounds, rt.scheme.sync_rounds);
  EXPECT_EQ(sim.extras.selected, rt.extras.selected);
  EXPECT_EQ(sim.extras.actual_versions, rt.extras.actual_versions);
  EXPECT_EQ(sim.extras.predicted_versions, rt.extras.predicted_versions);
  EXPECT_EQ(sim.extras.negotiated_epoch_times,
            rt.extras.negotiated_epoch_times);
  EXPECT_EQ(sim.extras.strategy.local_steps, rt.extras.strategy.local_steps);
  EXPECT_EQ(sim.extras.strategy.expected_versions,
            rt.extras.strategy.expected_versions);
  EXPECT_EQ(sim.extras.strategy.round_window, rt.extras.strategy.round_window);
  EXPECT_EQ(sim.extras.ring_repairs, rt.extras.ring_repairs);
  const auto& sim_points = sim.scheme.metrics.points();
  const auto& rt_points = rt.scheme.metrics.points();
  ASSERT_EQ(sim_points.size(), rt_points.size());
  for (std::size_t i = 0; i < sim_points.size(); ++i) {
    EXPECT_EQ(sim_points[i].epoch, rt_points[i].epoch) << "point " << i;
    EXPECT_EQ(sim_points[i].train_loss, rt_points[i].train_loss)
        << "point " << i;
    EXPECT_EQ(sim_points[i].test_loss, rt_points[i].test_loss)
        << "point " << i;
    EXPECT_EQ(sim_points[i].test_accuracy, rt_points[i].test_accuracy)
        << "point " << i;
  }
  ASSERT_EQ(sim.scheme.final_state.size(), rt.scheme.final_state.size());
  for (std::size_t i = 0; i < sim.scheme.final_state.size(); ++i) {
    ASSERT_EQ(sim.scheme.final_state[i], rt.scheme.final_state[i])
        << "parameter " << i;
  }
}

TEST(RtRunner, MatchesSimulatorBitExactlyWhenSeeded) {
  // The headline equivalence, on the plain scenario with momentum.
  expect_rt_matches_simulator(rt_scenario());
}

TEST(RtRunner, TelemetryDoesNotPerturbSeededResults) {
  // Observation must be free of side effects: the instrumented run draws
  // the same RNG streams and folds the same floats, so every selection and
  // the final aggregate are bit-identical to the dark run.
  exp::Scenario s = rt_scenario();
  exp::Environment env(s);
  fl::SchemeContext dark_ctx = env.context();
  const RtResult dark = run_hadfl_rt(dark_ctx, fast_rt_config(s.hadfl));

  fl::SchemeContext lit_ctx = env.context();
  RtConfig lit_config = fast_rt_config(s.hadfl);
  lit_config.telemetry = true;
  const RtResult lit = run_hadfl_rt(lit_ctx, lit_config);

  EXPECT_EQ(dark.scheme.sync_rounds, lit.scheme.sync_rounds);
  ASSERT_EQ(dark.extras.selected.size(), lit.extras.selected.size());
  for (std::size_t i = 0; i < dark.extras.selected.size(); ++i) {
    EXPECT_EQ(dark.extras.selected[i], lit.extras.selected[i])
        << "round " << i;
  }
  ASSERT_EQ(dark.scheme.final_state.size(), lit.scheme.final_state.size());
  for (std::size_t i = 0; i < dark.scheme.final_state.size(); ++i) {
    ASSERT_EQ(dark.scheme.final_state[i], lit.scheme.final_state[i])
        << "parameter " << i;
  }

  // The dark run carries no telemetry at all.
  EXPECT_TRUE(dark.timeline.spans().empty());
  EXPECT_TRUE(dark.metrics.empty());

  // The lit run has at least one compute span per device and the headline
  // metrics families populated.
  const std::size_t k = s.num_devices();
  EXPECT_EQ(lit.spans_dropped, 0u);
  for (std::size_t d = 0; d < k; ++d) {
    bool has_compute = false;
    for (const obs::Span& span : lit.timeline.spans_for(d)) {
      EXPECT_LE(span.start, span.end);
      if (span.kind == obs::SpanKind::kCompute) has_compute = true;
    }
    EXPECT_TRUE(has_compute) << "device " << d;
  }
  const obs::HistogramSample* lat =
      lit.metrics.find_histogram("sync.latency_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->count, 0u);
  const obs::CounterSample* scatter =
      lit.metrics.find_counter("sync.scatter_bytes");
  ASSERT_NE(scatter, nullptr);
  EXPECT_GT(scatter->value, 0u);
  const obs::CounterSample* hits =
      lit.metrics.find_counter("buffer_pool.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->value, lit.pool_stats.hits);
  const obs::HistogramSample* probs =
      lit.metrics.find_histogram("selection.probability");
  ASSERT_NE(probs, nullptr);
  EXPECT_GT(probs->count, 0u);
}

TEST(RtRunner, SurvivesDeviceDeathMidRound) {
  exp::Scenario s = rt_scenario();
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  RtConfig config = fast_rt_config(s.hadfl);
  // Select every candidate so the dead device is guaranteed to be in the
  // ring that the §III-D protocol must repair.
  config.hadfl.strategy.select_count = 4;
  config.faults.push_back(FaultPlan{/*device=*/1, /*round=*/1,
                                    /*after_steps=*/1, /*silent=*/false});
  const RtResult r = run_hadfl_rt(ctx, config);
  EXPECT_EQ(r.deaths_detected, 1u);
  EXPECT_GE(r.extras.ring_repairs, 1u);
  EXPECT_GT(r.scheme.sync_rounds, 1u);  // kept aggregating after the death
  EXPECT_FALSE(r.scheme.final_state.empty());
  // The dead device is out of every post-death ring.
  for (std::size_t round = 1; round < r.extras.selected.size(); ++round) {
    const auto& ring = r.extras.selected[round];
    EXPECT_TRUE(std::find(ring.begin(), ring.end(), 1u) == ring.end())
        << "round " << round;
  }
}

TEST(RtRunner, SilentDeathIsCaughtByHeartbeatAndFenced) {
  exp::Scenario s = rt_scenario();
  s.train.total_epochs = 6;
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  RtConfig config = fast_rt_config(s.hadfl);
  config.heartbeat_timeout_s = 0.3 * kTimingSlack;  // the only death signal
  config.faults.push_back(FaultPlan{/*device=*/2, /*round=*/1,
                                    /*after_steps=*/1, /*silent=*/true});
  const RtResult r = run_hadfl_rt(ctx, config);
  EXPECT_EQ(r.deaths_detected, 1u);
  EXPECT_GT(r.scheme.sync_rounds, 0u);
  EXPECT_FALSE(r.scheme.final_state.empty());
}

TEST(RtRunner, SurvivesCrashMidCollective) {
  // The fault strikes *inside* the pipelined ring aggregation (after two
  // chunk operations): the survivors' collectives abort, the coordinator
  // repairs the ring and the retry on the repaired ring converges.
  exp::Scenario s = rt_scenario();
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  RtConfig config = fast_rt_config(s.hadfl);
  config.hadfl.strategy.select_count = 4;  // the victim is in the ring
  config.faults.push_back(FaultPlan{/*device=*/1, /*round=*/1,
                                    /*after_steps=*/2, /*silent=*/false,
                                    /*during_sync=*/true});
  const RtResult r = run_hadfl_rt(ctx, config);
  EXPECT_EQ(r.deaths_detected, 1u);
  EXPECT_GE(r.extras.ring_repairs, 1u);
  EXPECT_GT(r.scheme.sync_rounds, 1u);  // the repaired ring kept aggregating
  EXPECT_FALSE(r.scheme.final_state.empty());
  for (std::size_t round = 1; round < r.extras.selected.size(); ++round) {
    const auto& ring = r.extras.selected[round];
    EXPECT_TRUE(std::find(ring.begin(), ring.end(), 1u) == ring.end())
        << "round " << round;
  }
  // The abort path recycled its buffers instead of leaking them.
  EXPECT_GT(r.pool_stats.hits, 0u);
}

TEST(RtRunner, SurvivesSilentDeathMidCollective) {
  // Same mid-pipeline fault, but the endpoint stays open: only the missing
  // heartbeats — kept flowing by the collective's beat slices — reveal the
  // death, and the coordinator must fence the device before retrying.
  exp::Scenario s = rt_scenario();
  s.train.total_epochs = 6;
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  RtConfig config = fast_rt_config(s.hadfl);
  config.hadfl.strategy.select_count = 4;
  config.heartbeat_timeout_s = 0.3 * kTimingSlack;
  config.faults.push_back(FaultPlan{/*device=*/2, /*round=*/1,
                                    /*after_steps=*/1, /*silent=*/true,
                                    /*during_sync=*/true});
  const RtResult r = run_hadfl_rt(ctx, config);
  EXPECT_EQ(r.deaths_detected, 1u);
  EXPECT_GT(r.scheme.sync_rounds, 0u);
  EXPECT_FALSE(r.scheme.final_state.empty());
}

// ------------------------------------------- Coordinator report collection

/// The inproc coordinator endpoints, except that `late`'s kStopped report
/// is held back for one poll, during which `late`'s transport endpoint
/// closes. A node process that reports and exits produces this order over
/// sockets when the coordinator's poll times out just before the report
/// lands.
class LateStoppedReportIo final : public CoordinatorIo {
 public:
  LateStoppedReportIo(CoordinatorIo& inner, Transport& transport,
                      DeviceId late)
      : inner_(inner), transport_(transport), late_(late) {}

  bool post(DeviceId d, Command command) override {
    return inner_.post(d, std::move(command));
  }
  std::optional<Report> poll_report(double timeout_s) override {
    if (held_) return std::exchange(held_, std::nullopt);
    std::optional<Report> r = inner_.poll_report(timeout_s);
    if (r && r->device == late_ && r->kind == ReportKind::kStopped &&
        transport_.alive(late_)) {
      transport_.kill(late_);
      held_ = std::move(r);
      return std::nullopt;
    }
    return r;
  }
  void close_channel(DeviceId d) override { inner_.close_channel(d); }
  void cancel_collective(const std::vector<DeviceId>& members,
                         std::int64_t cid) override {
    inner_.cancel_collective(members, cid);
  }

 private:
  CoordinatorIo& inner_;
  Transport& transport_;
  DeviceId late_;
  std::optional<Report> held_;
};

TEST(RtCoordinator, ReportQueuedBeforeTheEndpointClosesIsNoDeath) {
  // A device whose endpoint closed while a poll came back empty is not dead
  // when its report still sits in the mailbox: the coordinator drains the
  // mailbox before it fences.
  exp::Scenario s = rt_scenario();
  s.train.total_epochs = 2;
  exp::Environment environment(s);
  fl::SchemeContext ctx = environment.context();
  const RtConfig config = fast_rt_config(s.hadfl);
  const std::size_t k = ctx.cluster.size();
  constexpr DeviceId kLate = 2;

  Rng rng(ctx.config.seed);
  core::DeviceSetup setup = core::init_devices(ctx, config.hadfl, rng);
  std::vector<double> bandwidth_scales(k);
  for (std::size_t d = 0; d < k; ++d) {
    bandwidth_scales[d] = ctx.cluster.bandwidth_scale(d);
  }
  InprocTransport transport(k, ctx.network, 0.0, bandwidth_scales);
  FailureDetector detector(k, HeartbeatConfig{config.heartbeat_timeout_s});
  std::vector<std::unique_ptr<Mailbox<Command>>> inboxes;
  for (std::size_t d = 0; d < k; ++d) {
    inboxes.push_back(std::make_unique<Mailbox<Command>>());
  }
  Mailbox<Report> reports;
  std::vector<std::unique_ptr<InprocWorkerIo>> worker_ios;
  std::vector<WorkerEnv> worker_envs(k);
  for (std::size_t d = 0; d < k; ++d) {
    worker_ios.push_back(
        std::make_unique<InprocWorkerIo>(d, *inboxes[d], reports, detector));
    worker_envs[d].id = d;
    worker_envs[d].dev = &setup.devices[d];
    worker_envs[d].transport = &transport;
    worker_envs[d].io = worker_ios[d].get();
    worker_envs[d].config = &config;
    worker_envs[d].iter_time = ctx.cluster.iteration_time(d);
  }

  RtResult r;
  {
    ThreadPool pool(k);
    struct InboxCloser {  // runs before the pool joins the workers
      std::vector<std::unique_ptr<Mailbox<Command>>>& boxes;
      ~InboxCloser() {
        for (auto& box : boxes) box->close();
      }
    } closer{inboxes};
    for (std::size_t d = 0; d < k; ++d) {
      pool.submit([&worker_envs, d] { run_device_worker(worker_envs[d]); });
    }
    InprocCoordinatorIo inproc_io(inboxes, reports);
    LateStoppedReportIo io(inproc_io, transport, kLate);
    InprocDeviceOracle oracle(setup.devices);
    CoordinatorEnv env;
    env.transport = &transport;
    env.detector = &detector;
    env.io = &io;
    env.oracle = &oracle;
    r = run_hadfl_coordinator(ctx, config, setup, rng, env);
  }
  EXPECT_FALSE(transport.alive(kLate));  // the held-back path really ran
  EXPECT_EQ(r.deaths_detected, 0u);
  for (std::size_t d = 0; d < k; ++d) {
    EXPECT_TRUE(r.device_stats[d].reported) << "device " << d;
  }
}

TEST(RtRunner, ChunkCountDoesNotChangeTheAggregate) {
  // sync_chunks is a wall-time knob, not a numerics knob: runs that differ
  // only in chunk count end with bit-identical models.
  exp::Scenario s = rt_scenario();
  s.train.total_epochs = 6;
  exp::Environment env(s);
  fl::SchemeContext ctx_a = env.context();
  RtConfig config_a = fast_rt_config(s.hadfl);
  config_a.hadfl.sync_chunks = 1;  // monolithic
  const RtResult a = run_hadfl_rt(ctx_a, config_a);
  fl::SchemeContext ctx_b = env.context();
  RtConfig config_b = fast_rt_config(s.hadfl);
  config_b.hadfl.sync_chunks = 5;  // uneven pipeline
  const RtResult b = run_hadfl_rt(ctx_b, config_b);
  ASSERT_EQ(a.scheme.final_state.size(), b.scheme.final_state.size());
  for (std::size_t i = 0; i < a.scheme.final_state.size(); ++i) {
    ASSERT_EQ(a.scheme.final_state[i], b.scheme.final_state[i])
        << "parameter " << i;
  }
}

/// The 6-epoch scenario with the given codec and chunk grid. A non-zero
/// `group_size` runs hierarchical groups (§III-A): per-group rings plus
/// the periodic inter-group leader exchange.
exp::Scenario codec_scenario(core::SyncCompression codec, std::size_t chunks,
                             std::size_t group_size = 0,
                             std::vector<double> ratio = {3, 3, 1, 1}) {
  exp::Scenario s = rt_scenario(std::move(ratio));
  s.train.total_epochs = 6;
  s.hadfl.compression = codec;
  s.hadfl.top_k_ratio = 0.05;
  s.hadfl.sync_chunks = chunks;
  s.hadfl.grouping.group_size = group_size;
  return s;
}

TEST(RtRunner, Int8CodecMatchesSimulatorBitExactly) {
  expect_rt_matches_simulator(
      codec_scenario(core::SyncCompression::kInt8, 4));
}

TEST(RtRunner, TopKCodecMatchesSimulatorBitExactly) {
  expect_rt_matches_simulator(
      codec_scenario(core::SyncCompression::kTopK, 3));
}

TEST(RtRunner, GroupedMatchesSimulatorBitExactly) {
  expect_rt_matches_simulator(codec_scenario(core::SyncCompression::kNone, 0,
                                             /*group_size=*/2));
}

TEST(RtRunner, GroupedInt8CodecMatchesSimulatorBitExactly) {
  expect_rt_matches_simulator(codec_scenario(core::SyncCompression::kInt8, 4,
                                             /*group_size=*/2));
}

/// Six devices in three groups of two — {0,5}, {1,4}, {2,3} — with group
/// {0,5} down for the whole run: disconnected from t = 0 on the sim, dead
/// from round 1's first step on rt. Returns every device's bytes.
comm::VolumeCounters run_with_first_group_down(bool on_rt,
                                               int inter_group_period) {
  exp::Scenario s = rt_scenario({3, 3, 2, 2, 1, 1});
  s.train.total_epochs = 6;
  s.hadfl.grouping.group_size = 2;
  s.hadfl.grouping.inter_group_period = inter_group_period;
  exp::Environment env(s);
  EXPECT_EQ(core::make_groups(env.cluster(), s.hadfl.grouping),
            (core::DeviceGroups{{0, 5}, {1, 4}, {2, 3}}));
  if (!on_rt) {
    env.cluster().faults().schedule_disconnect(0, 0.0);
    env.cluster().faults().schedule_disconnect(5, 0.0);
    fl::SchemeContext ctx = env.context();
    return core::run_hadfl(ctx, s.hadfl).scheme.volume;
  }
  fl::SchemeContext ctx = env.context();
  RtConfig config = fast_rt_config(s.hadfl);
  config.faults.push_back(FaultPlan{/*device=*/0, /*round=*/1,
                                    /*after_steps=*/0});
  config.faults.push_back(FaultPlan{/*device=*/5, /*round=*/1,
                                    /*after_steps=*/0});
  const RtResult r = run_hadfl_rt(ctx, config);
  EXPECT_EQ(r.deaths_detected, 2u);
  return r.scheme.volume;
}

/// With a whole group down, the inter-group exchange still pairs every
/// leader with its own group. The traffic an exchange every round adds
/// (against one in a thousand rounds) shows who led whom: leaders 1 and 2
/// each push to their one member and receive only the leaders' ring, and
/// members 4 and 3 each receive one push per exchange.
void expect_leaders_push_to_their_own_groups(bool on_rt) {
  const comm::VolumeCounters every = run_with_first_group_down(on_rt, 1);
  const comm::VolumeCounters rare = run_with_first_group_down(on_rt, 1000);
  const auto received = [&](sim::DeviceId d) {
    return every.received[d] - rare.received[d];
  };
  const auto sent = [&](sim::DeviceId d) {
    return every.sent[d] - rare.sent[d];
  };
  EXPECT_GT(received(3), 0u);  // group 2's member gets the global model
  EXPECT_EQ(received(3), received(4));
  EXPECT_EQ(received(1), received(2));  // 1 leads group 1, no push to it
  EXPECT_EQ(sent(1), sent(2));
  EXPECT_GT(sent(1), received(1));  // ring share plus the pushes
}

TEST(RtRunner, InterGroupLeadersPushToTheirOwnGroupWhenAGroupIsDown) {
  {
    SCOPED_TRACE("sim");
    expect_leaders_push_to_their_own_groups(/*on_rt=*/false);
  }
  {
    SCOPED_TRACE("rt");
    expect_leaders_push_to_their_own_groups(/*on_rt=*/true);
  }
}

TEST(RtRunner, LastValuePredictorMatchesSimulator) {
  exp::Scenario s = codec_scenario(core::SyncCompression::kNone, 0);
  s.hadfl.predictor = core::PredictorMode::kLastValue;
  expect_rt_matches_simulator(s);
}

TEST(RtRunner, StaticPredictorMatchesSimulator) {
  exp::Scenario s = codec_scenario(core::SyncCompression::kNone, 0);
  s.hadfl.predictor = core::PredictorMode::kStatic;
  expect_rt_matches_simulator(s);
}

TEST(RtRunner, UnweightedAggregationMatchesSimulator) {
  exp::Scenario s = codec_scenario(core::SyncCompression::kNone, 0);
  s.hadfl.weight_by_samples = false;
  expect_rt_matches_simulator(s);
}

TEST(RtRunner, NoPostNegotiationSyncMatchesSimulator) {
  exp::Scenario s = codec_scenario(core::SyncCompression::kNone, 0);
  s.hadfl.full_sync_after_negotiation = false;
  expect_rt_matches_simulator(s);
}

TEST(RtRunner, EightDeviceGroupedTopKMatchesSimulator) {
  // Two groups of four, an inter-group exchange every second round, and
  // top-k deltas on a 3-chunk grid.
  exp::Scenario s =
      codec_scenario(core::SyncCompression::kTopK, 3, /*group_size=*/4,
                     {3, 3, 1, 1, 2, 2, 1, 1});
  s.hadfl.grouping.inter_group_period = 2;
  expect_rt_matches_simulator(s);
}

TEST(RtRunner, IdleRoundsEndBothBackendsAlike) {
  // From round 2 every device steps 1000x slower, so no budget fits the
  // window: three rounds in a row execute nothing and the run ends.
  std::vector<sim::DriftEvent> drift;
  for (sim::DeviceId d = 0; d < 4; ++d) {
    drift.push_back(sim::DriftEvent{d, /*from_round=*/2, /*factor=*/1000.0});
  }
  expect_rt_matches_simulator(codec_scenario(core::SyncCompression::kNone, 0),
                              drift);
  exp::Scenario s = codec_scenario(core::SyncCompression::kNone, 0);
  exp::Environment env(s);
  for (const sim::DriftEvent& event : drift) {
    env.cluster().faults().schedule_drift(event);
  }
  fl::SchemeContext ctx = env.context();
  EXPECT_EQ(core::run_hadfl(ctx, s.hadfl).scheme.sync_rounds, 4u);
}

TEST(RtRunner, CompressedSyncShrinksWireVolumeAndStillLearns) {
  exp::Scenario s = rt_scenario();
  s.train.total_epochs = 6;
  exp::Environment env(s);
  fl::SchemeContext ctx_a = env.context();
  const RtResult dense = run_hadfl_rt(ctx_a, fast_rt_config(s.hadfl));

  s.hadfl.compression = core::SyncCompression::kInt8;
  fl::SchemeContext ctx_b = env.context();
  const RtResult int8 = run_hadfl_rt(ctx_b, fast_rt_config(s.hadfl));
  EXPECT_LT(int8.scheme.volume.total_sent(), dense.scheme.volume.total_sent());
  EXPECT_GT(int8.scheme.metrics.best_accuracy(), 0.4);

  s.hadfl.compression = core::SyncCompression::kTopK;
  s.hadfl.top_k_ratio = 0.05;
  fl::SchemeContext ctx_c = env.context();
  const RtResult topk = run_hadfl_rt(ctx_c, fast_rt_config(s.hadfl));
  EXPECT_LT(topk.scheme.volume.total_sent(), int8.scheme.volume.total_sent());
  // 5% top-k at 6 half-scale epochs learns more slowly than int8 but must
  // still be far above the 10-class chance floor.
  EXPECT_GT(topk.scheme.metrics.best_accuracy(), 0.3);
}

}  // namespace
}  // namespace hadfl::rt
