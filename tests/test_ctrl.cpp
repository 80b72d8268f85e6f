#include "ctrl/adaptive_controller.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace hadfl {
namespace {

using ctrl::AdaptiveConfig;
using ctrl::AdaptiveController;
using ctrl::ChunkTuner;

// ---------------------------------------------------------------------
// ChunkTuner
// ---------------------------------------------------------------------

TEST(ChunkTuner, StationaryLatencyNeverFlaps) {
  // Constant latency: every probe fails the hysteresis margin, reverts,
  // and holds — the tuner must never keep a move.
  ChunkTuner tuner(8, 1, 256, 0.15, 3);
  for (int i = 0; i < 50; ++i) {
    const std::size_t c = tuner.observe(1.0);
    EXPECT_TRUE(c == 4 || c == 8 || c == 16) << "round " << i << ": " << c;
  }
  EXPECT_EQ(tuner.accepted_moves(), 0u);
  // After the final revert/hold the setting is back at the start.
  for (int i = 0; i < 4; ++i) tuner.observe(1.0);
  EXPECT_EQ(tuner.chunks(), 8u);
}

TEST(ChunkTuner, KeepsAClearWin) {
  ChunkTuner tuner(8, 1, 256, 0.15, 3);
  EXPECT_EQ(tuner.observe(1.0), 16u);  // baseline set, probe up proposed
  EXPECT_EQ(tuner.observe(0.5), 16u);  // 50% better — clearly past margin
  EXPECT_EQ(tuner.accepted_moves(), 1u);
  EXPECT_EQ(tuner.chunks(), 16u);
}

TEST(ChunkTuner, RevertsABelowMarginWin) {
  ChunkTuner tuner(8, 1, 256, 0.15, 3);
  EXPECT_EQ(tuner.observe(1.0), 16u);
  // 10% better is inside the 15% hysteresis band: revert and hold.
  EXPECT_EQ(tuner.observe(0.9), 8u);
  EXPECT_EQ(tuner.accepted_moves(), 0u);
}

TEST(ChunkTuner, StaysInsideTheConfiguredRange) {
  ChunkTuner tuner(4, 2, 8, 0.1, 0);
  for (int i = 0; i < 100; ++i) {
    // Always-improving latency keeps every move; the range must clamp it.
    const std::size_t c = tuner.observe(1.0 / (i + 1));
    EXPECT_GE(c, 2u);
    EXPECT_LE(c, 8u);
  }
}

TEST(ChunkTuner, RejectsBadRanges) {
  EXPECT_THROW(ChunkTuner(4, 0, 8, 0.1, 0), InvalidArgument);
  EXPECT_THROW(ChunkTuner(4, 8, 2, 0.1, 0), InvalidArgument);
  EXPECT_THROW(ChunkTuner(4, 1, 8, 0.0, 0), InvalidArgument);
}

// ---------------------------------------------------------------------
// AdaptiveController
// ---------------------------------------------------------------------

AdaptiveConfig test_config() {
  AdaptiveConfig config;
  config.enabled = true;
  config.warmup_rounds = 1;
  return config;
}

AdaptiveController make_controller(AdaptiveConfig config,
                                   double step_time = 1.0,
                                   double window = 10.0) {
  return AdaptiveController(config, {step_time, step_time}, window, {10, 10},
                            0, comm::SyncCodec::kNone, 0.05);
}

TEST(AdaptiveController, WarmupRoundsReproduceTheStaticPlan) {
  AdaptiveConfig config = test_config();
  config.warmup_rounds = 3;
  AdaptiveController controller = make_controller(config);
  // Large drift observed immediately, but the plan must stay static until
  // warmup_rounds rounds have been folded in.
  for (int round = 0; round < 2; ++round) {
    controller.observe_step_time(0, 5.0);
    controller.observe_delta_norm(1.0);
    controller.end_round();
    EXPECT_EQ(controller.plan().local_steps[0], 10u) << "round " << round;
    EXPECT_EQ(controller.plan().codec, comm::SyncCodec::kNone);
    EXPECT_FALSE(controller.plan().force_raw);
  }
  controller.observe_step_time(0, 5.0);
  controller.end_round();  // third round: the controller engages
  EXPECT_LT(controller.plan().local_steps[0], 10u);
}

TEST(AdaptiveController, StepTimeEwmaConvergesToTheDriftedRate) {
  AdaptiveController controller = make_controller(test_config());
  for (int round = 0; round < 12; ++round) {
    controller.observe_step_time(0, 4.0);
    controller.end_round();
  }
  EXPECT_NEAR(controller.estimated_step_time(0), 4.0, 0.05);
  // window 10 / step time 4 → 2 steps; the unobserved device keeps its
  // warm-up estimate of 1.0 s/step → 10 steps.
  EXPECT_EQ(controller.plan().local_steps[0], 2u);
  EXPECT_EQ(controller.plan().local_steps[1], 10u);
}

TEST(AdaptiveController, BudgetNeverDropsBelowOneStep) {
  AdaptiveController controller = make_controller(test_config());
  for (int round = 0; round < 20; ++round) {
    controller.observe_step_time(0, 1e6);  // slower than the whole window
    controller.end_round();
  }
  EXPECT_EQ(controller.plan().local_steps[0], 1u);
}

TEST(AdaptiveController, CodecSwitchForcesExactlyOneRawRound) {
  AdaptiveController controller = make_controller(test_config());
  controller.observe_delta_norm(1.0);  // far above norm_high
  controller.end_round();
  EXPECT_EQ(controller.plan().codec, comm::SyncCodec::kTopK);
  EXPECT_TRUE(controller.plan().force_raw);

  controller.observe_delta_norm(1.0);
  controller.end_round();  // same band: no switch, no raw round
  EXPECT_EQ(controller.plan().codec, comm::SyncCodec::kTopK);
  EXPECT_FALSE(controller.plan().force_raw);

  // Decay the norm EWMA below norm_low: back to dense, one more raw round.
  for (int round = 0; round < 32; ++round) {
    controller.observe_delta_norm(0.0);
    controller.end_round();
  }
  EXPECT_EQ(controller.plan().codec, comm::SyncCodec::kNone);
  controller.observe_delta_norm(0.0);
  controller.end_round();
  EXPECT_FALSE(controller.plan().force_raw);
}

TEST(AdaptiveController, SlowLinkEscalatesOneCompressionLevel) {
  AdaptiveController controller = make_controller(test_config());
  controller.observe_delta_norm(0.0);  // below norm_low → dense...
  controller.observe_slow_link(true);  // ...but the ring has a slow uplink
  controller.end_round();
  EXPECT_EQ(controller.plan().codec, comm::SyncCodec::kInt8);
  EXPECT_TRUE(controller.plan().force_raw);
  // The slow-link flag is per-round: with a clean ring the codec returns
  // to the band the norm picks.
  controller.observe_delta_norm(0.0);
  controller.end_round();
  EXPECT_EQ(controller.plan().codec, comm::SyncCodec::kNone);
}

TEST(AdaptiveController, DisabledKnobsHoldTheSeededPlan) {
  AdaptiveConfig config = test_config();
  config.tune_budgets = false;
  config.tune_codec = false;
  config.tune_chunks = false;
  AdaptiveController controller = make_controller(config);
  for (int round = 0; round < 8; ++round) {
    controller.observe_step_time(0, 9.0);
    controller.observe_delta_norm(1.0);
    controller.observe_sync(0.5);
    controller.end_round();
  }
  EXPECT_EQ(controller.plan().local_steps[0], 10u);
  EXPECT_EQ(controller.plan().codec, comm::SyncCodec::kNone);
  EXPECT_EQ(controller.plan().sync_chunks, 0u);
}

TEST(AdaptiveController, ExportsDecisionCounters) {
  obs::MetricsRegistry registry;
  AdaptiveController controller = make_controller(test_config());
  controller.bind_metrics(&registry);
  controller.observe_step_time(0, 4.0);
  controller.observe_delta_norm(1.0);
  controller.end_round();
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.find_counter("ctrl.budget_updates"), nullptr);
  EXPECT_EQ(snap.find_counter("ctrl.budget_updates")->value, 1u);
  EXPECT_EQ(snap.find_counter("ctrl.codec_switches")->value, 1u);
  EXPECT_EQ(snap.find_counter("ctrl.raw_fallback_rounds")->value, 1u);
}

TEST(AdaptiveController, IgnoresGarbageObservations) {
  AdaptiveController controller = make_controller(test_config());
  controller.observe_step_time(99, 4.0);  // out-of-range device
  controller.observe_step_time(0, -1.0);
  controller.observe_step_time(0, 0.0);
  controller.observe_delta_norm(-0.5);
  controller.end_round();
  EXPECT_DOUBLE_EQ(controller.estimated_step_time(0), 1.0);
  EXPECT_EQ(controller.plan().codec, comm::SyncCodec::kNone);
}

TEST(AdaptiveController, RejectsBadConstruction) {
  EXPECT_THROW(AdaptiveController(test_config(), {}, 10.0, {},
                                  0, comm::SyncCodec::kNone, 0.05),
               InvalidArgument);
  EXPECT_THROW(AdaptiveController(test_config(), {1.0}, 10.0, {10, 10},
                                  0, comm::SyncCodec::kNone, 0.05),
               InvalidArgument);
  EXPECT_THROW(AdaptiveController(test_config(), {1.0}, 0.0, {10},
                                  0, comm::SyncCodec::kNone, 0.05),
               InvalidArgument);
  AdaptiveConfig bad = test_config();
  bad.step_time_alpha = 1.5;
  EXPECT_THROW(make_controller(bad), InvalidArgument);
}

}  // namespace
}  // namespace hadfl
