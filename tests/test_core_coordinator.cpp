#include "core/coordinator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/error.hpp"
#include "core/round_planner.hpp"
#include "exp/runner.hpp"
#include "nn/param_utils.hpp"
#include "nn/serialize.hpp"

namespace hadfl::core {
namespace {

TEST(LivenessMonitor, ReflectsFaultInjector) {
  sim::Cluster cluster(sim::devices_from_ratio({1, 1, 1}), 1.0);
  cluster.faults().schedule(sim::FaultEvent{1, 5.0, 10.0});
  LivenessMonitor monitor(cluster);
  EXPECT_EQ(monitor.available(), (std::vector<sim::DeviceId>{0, 1, 2}));
  cluster.advance(1, 6.0);  // device 1 now inside its fault window
  EXPECT_FALSE(monitor.is_available(1));
  EXPECT_EQ(monitor.available(), (std::vector<sim::DeviceId>{0, 2}));
  cluster.advance(1, 6.0);  // recovered
  EXPECT_TRUE(monitor.is_available(1));
}

TEST(RuntimeSupervisor, FallbackBeforeObservations) {
  RuntimeSupervisor sup(3, 0.5);
  const std::vector<double> fallback{10, 20, 30};
  EXPECT_EQ(sup.predict(fallback), fallback);
  EXPECT_EQ(sup.rounds_observed(), 0u);
}

TEST(RuntimeSupervisor, PredictsPerDevice) {
  RuntimeSupervisor sup(2, 0.5);
  for (int j = 1; j <= 30; ++j) {
    sup.observe_round({12.0 * j, 4.0 * j});
  }
  const std::vector<double> pred = sup.predict({0, 0});
  EXPECT_NEAR(pred[0], 12.0 * 31, 1.0);
  EXPECT_NEAR(pred[1], 4.0 * 31, 0.5);
  EXPECT_EQ(sup.rounds_observed(), 30u);
  EXPECT_GT(sup.predictor(0).trend(), sup.predictor(1).trend());
}

// ------------------------------------------------------------ RoundPlanner

/// A planner over a small MLP scenario on [3, 3, 1, 1], negotiated from
/// the specs' epoch times (as the rt coordinator's virtual timing does).
/// `strategy` is the same negotiation run on its own.
struct PlannerRig {
  explicit PlannerRig(exp::Scenario scenario)
      : s(std::move(scenario)), env(s), ctx(env.context()) {
    Rng rng(ctx.config.seed);
    reference = ctx.make_model(rng);
    const std::span<const float> state = nn::state_view(*reference);
    init_state.assign(state.begin(), state.end());
    std::vector<sim::SimTime> epoch_times;
    for (std::size_t d = 0; d < ctx.cluster.size(); ++d) {
      ipe.push_back(fl::iters_per_epoch(ctx.partition[d].size(),
                                        ctx.config.device_batch_size));
      epoch_times.push_back(static_cast<double>(ipe[d]) *
                            ctx.cluster.iteration_time(d));
    }
    strategy = StrategyGenerator(s.hadfl.strategy).generate(epoch_times, ipe);
    planner.emplace(ctx, s.hadfl, *reference, ipe, rng);
    planner->negotiate(std::move(epoch_times));
  }

  /// Closes the round; a round that synced nothing evaluates the
  /// dispatched state.
  void end_round() {
    planner->end_round(0.0, [&] { return init_state; });
  }
  /// Every point recorded so far (ends the run).
  std::vector<fl::ConvergencePoint> finish() {
    fl::SchemeResult scheme;
    HadflExtras extras;
    planner->finish(scheme, extras, [&] { return init_state; });
    return scheme.metrics.points();
  }

  exp::Scenario s;
  exp::Environment env;
  fl::SchemeContext ctx;
  std::unique_ptr<nn::Sequential> reference;
  std::vector<float> init_state;
  std::vector<std::size_t> ipe;
  TrainingStrategy strategy;
  std::optional<RoundPlanner> planner;
};

exp::Scenario planner_scenario(
    SyncCompression codec = SyncCompression::kNone) {
  exp::Scenario s = exp::paper_scenario(nn::Architecture::kMlp, {3, 3, 1, 1},
                                        /*scale=*/0.2);
  s.train.total_epochs = 1000;
  s.hadfl.compression = codec;
  return s;
}

// Round-1 regression for every prediction mode: with no observed rounds
// (empty DES state, empty version history) every mode must return the
// Eq. 6 expectation rather than fail or emit stale values. From round 2
// each mode follows its own rule.
TEST(RoundPlanner, ForecastFallsBackInRoundOneInEveryPredictorMode) {
  for (const PredictorMode mode : {PredictorMode::kDes, PredictorMode::kStatic,
                                   PredictorMode::kLastValue}) {
    exp::Scenario s = planner_scenario();
    s.hadfl.predictor = mode;
    PlannerRig rig(s);
    RoundPlanner& planner = *rig.planner;
    const std::vector<double>& expected = rig.strategy.expected_versions;
    ASSERT_TRUE(planner.begin_round());
    EXPECT_EQ(planner.forecast({5.0, 6.0, 1.0, 2.0}), expected);
    rig.end_round();
    ASSERT_TRUE(planner.begin_round());
    const std::vector<double> second =
        planner.forecast({10.0, 12.0, 2.0, 4.0});
    switch (mode) {
      case PredictorMode::kDes:  // the DES forecast leaves Eq. 6 behind
        EXPECT_NE(second[0], 2.0 * expected[0]);
        break;
      case PredictorMode::kStatic:  // Eq. 6, scaled by the round
        for (std::size_t d = 0; d < 4; ++d) {
          EXPECT_EQ(second[d], 2.0 * expected[d]);
        }
        break;
      case PredictorMode::kLastValue:  // repeats the last observation
        EXPECT_EQ(second, (std::vector<double>{5.0, 6.0, 1.0, 2.0}));
        break;
    }
  }
}

TEST(RoundPlanner, StopsAfterThreeIdleRoundsTheBudgetOrTheLastDeath) {
  PlannerRig rig(planner_scenario());
  RoundPlanner& planner = *rig.planner;
  // Idle, idle, progress, idle, idle: progress resets the count.
  for (const double steps : {0.0, 0.0, 4.0, 0.0, 0.0}) {
    ASSERT_TRUE(planner.begin_round());
    planner.observe_steps(steps);
    rig.end_round();
  }
  // The third idle round in a row is the last one.
  ASSERT_TRUE(planner.begin_round());
  planner.observe_steps(0.0);
  rig.end_round();
  EXPECT_FALSE(planner.begin_round());
  EXPECT_EQ(planner.round(), 6u);

  // The epoch budget: one round that covers it ends the run.
  PlannerRig budget(planner_scenario());
  ASSERT_TRUE(budget.planner->begin_round());
  budget.planner->observe_steps(1e12);
  budget.end_round();
  EXPECT_FALSE(budget.planner->begin_round());

  // Deaths: the run stops once every device is dead.
  PlannerRig deaths(planner_scenario());
  for (int d = 0; d < 3; ++d) deaths.planner->observe_death();
  ASSERT_TRUE(deaths.planner->begin_round());
  deaths.planner->observe_death();
  deaths.planner->observe_steps(4.0);
  deaths.end_round();
  EXPECT_FALSE(deaths.planner->begin_round());
}

TEST(RoundPlanner, TrainLossCountsOnlyDevicesThatTrainedThisRound) {
  PlannerRig rig(planner_scenario());
  RoundPlanner& planner = *rig.planner;
  // Warm-up: the plain mean over the devices that reported one.
  planner.observe_training(1, 100, 3.0);
  planner.observe_training(0, 100, 1.0);
  planner.record_start(rig.init_state, 0.0);
  // Round 1: every device reports, in any order.
  ASSERT_TRUE(planner.begin_round());
  planner.observe_training(3, 5, 3.0);
  planner.observe_training(2, 5, 1.0);
  planner.observe_training(1, 10, 4.0);
  planner.observe_training(0, 10, 2.0);
  planner.observe_steps(30.0);
  rig.end_round();
  // Round 2: device 2 does not report. Its round-1 loss must not count,
  // and a device that executed nothing adds nothing, not even a NaN.
  ASSERT_TRUE(planner.begin_round());
  planner.observe_training(0, 10, 1.0);
  planner.observe_training(1, 10, 1.0);
  planner.observe_training(3, 5, 4.0);
  planner.observe_training(2, 0, std::nan(""));
  planner.observe_steps(25.0);
  rig.end_round();
  const std::vector<fl::ConvergencePoint> points = rig.finish();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].train_loss, (1.0 + 3.0) / 2.0);
  EXPECT_EQ(points[1].train_loss,
            (2.0 * 10 + 4.0 * 10 + 1.0 * 5 + 3.0 * 5) / 30.0);
  EXPECT_EQ(points[2].train_loss, (1.0 * 10 + 1.0 * 10 + 4.0 * 5) / 25.0);
  EXPECT_EQ(points[2].train_loss, 1.6);  // 1.5 if device 2's loss counted
}

TEST(RoundPlanner, DeadlineTruncationCutsTheBudgetToTheWindow) {
  PlannerRig rig(planner_scenario());
  RoundPlanner& planner = *rig.planner;
  ASSERT_TRUE(planner.begin_round());
  const std::size_t budget = rig.strategy.local_steps[0];
  const double window = planner.window();
  EXPECT_EQ(planner.steps_in_window(0, window / static_cast<double>(budget)),
            budget);  // the negotiated budget fits exactly
  EXPECT_EQ(planner.steps_in_window(0, window / 3.0), std::min<std::size_t>(
                                                          3, budget));
  EXPECT_EQ(planner.steps_in_window(0, 2.0 * window), 0u);
  EXPECT_EQ(planner.steps_in_window(0, window / 1e6), budget);
}

TEST(RoundPlanner, DeltaRoundOnlyWhenEveryMemberSharesAKnownEpoch) {
  PlannerRig rig(planner_scenario(SyncCompression::kInt8));
  RoundPlanner& planner = *rig.planner;
  ASSERT_TRUE(planner.begin_round());
  const std::vector<sim::DeviceId> ring{2, 0};
  SyncPlan sync = planner.plan_sync(ring);  // everyone on the dispatch
  EXPECT_TRUE(sync.delta);
  EXPECT_EQ(sync.base_epoch, 0);
  planner.observe_ref_epoch(0, 5);  // device 0 took a later sync
  EXPECT_FALSE(planner.plan_sync(ring).delta);
  planner.observe_ref_epoch(2, 5);
  sync = planner.plan_sync(ring);
  EXPECT_TRUE(sync.delta);
  EXPECT_EQ(sync.base_epoch, 5);
  planner.observe_ref_epochs(ring, -1);  // both references unknown
  EXPECT_FALSE(planner.plan_sync(ring).delta);
  // Weights follow the members' sample counts, in ring order.
  const double n2 = static_cast<double>(rig.ctx.partition[2].size());
  const double n0 = static_cast<double>(rig.ctx.partition[0].size());
  EXPECT_EQ(sync.weights, (std::vector<double>{n2 / (n2 + n0),
                                               n0 / (n2 + n0)}));

  // Without a codec every round is dense.
  PlannerRig dense(planner_scenario());
  ASSERT_TRUE(dense.planner->begin_round());
  EXPECT_FALSE(dense.planner->plan_sync(ring).delta);
}

TEST(RoundPlanner, BroadcastSplitsReceiversByTheBaseEpoch) {
  PlannerRig rig(planner_scenario(SyncCompression::kTopK));
  RoundPlanner& planner = *rig.planner;
  ASSERT_TRUE(planner.begin_round());
  const std::vector<sim::DeviceId> ring{1, 0};
  planner.observe_ref_epochs({0, 1, 3}, 7);
  planner.observe_ref_epoch(2, 3);  // missed the last broadcast
  const SyncPlan sync = planner.plan_sync(ring);
  ASSERT_TRUE(sync.delta);
  const BroadcastPlan bc = planner.plan_broadcast(ring, {3, 2}, sync);
  EXPECT_EQ(bc.aligned, (std::vector<sim::DeviceId>{3}));
  EXPECT_EQ(bc.stale, (std::vector<sim::DeviceId>{2}));
  EXPECT_TRUE(bc.source == 0 || bc.source == 1);

  // After a dense round everyone is stale, in receiver order.
  SyncPlan dense = sync;
  dense.delta = false;
  const BroadcastPlan all = planner.plan_broadcast(ring, {3, 2}, dense);
  EXPECT_TRUE(all.aligned.empty());
  EXPECT_EQ(all.stale, (std::vector<sim::DeviceId>{3, 2}));

  // The source is the planner's draw: equal streams draw equal sources.
  PlannerRig twin(planner_scenario(SyncCompression::kTopK));
  ASSERT_TRUE(twin.planner->begin_round());
  EXPECT_EQ(twin.planner->plan_broadcast(ring, {3, 2}, dense).source,
            bc.source);
}

TEST(RuntimeSupervisor, Validation) {
  EXPECT_THROW(RuntimeSupervisor(0, 0.5), InvalidArgument);
  RuntimeSupervisor sup(2, 0.5);
  EXPECT_THROW(sup.observe_round({1.0}), InvalidArgument);
  EXPECT_THROW(sup.predict({1.0}), InvalidArgument);
  EXPECT_THROW(sup.predictor(5), InvalidArgument);
}

TEST(ModelManager, KeepsLatestState) {
  ModelManager mgr("", 0);
  EXPECT_FALSE(mgr.has_model());
  mgr.update({1.0f, 2.0f}, 1);
  EXPECT_TRUE(mgr.has_model());
  EXPECT_EQ(mgr.latest(), (std::vector<float>{1.0f, 2.0f}));
  mgr.update({3.0f, 4.0f}, 2);
  EXPECT_EQ(mgr.latest(), (std::vector<float>{3.0f, 4.0f}));
  EXPECT_EQ(mgr.backups_written(), 0u);  // disabled
  EXPECT_FALSE(mgr.last_backup_path().has_value());
}

TEST(ModelManager, WritesPeriodicBackups) {
  const std::string dir = ::testing::TempDir() + "/hadfl_mgr_test";
  std::filesystem::create_directories(dir);
  ModelManager mgr(dir, /*backup_every_rounds=*/2);
  mgr.update({1.0f}, 1);
  EXPECT_EQ(mgr.backups_written(), 0u);
  mgr.update({2.0f}, 2);
  EXPECT_EQ(mgr.backups_written(), 1u);
  mgr.update({3.0f}, 3);
  EXPECT_EQ(mgr.backups_written(), 1u);
  mgr.update({4.0f}, 4);
  EXPECT_EQ(mgr.backups_written(), 2u);

  ASSERT_TRUE(mgr.last_backup_path().has_value());
  const std::vector<float> restored =
      nn::load_state(*mgr.last_backup_path());
  EXPECT_EQ(restored, (std::vector<float>{4.0f}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hadfl::core
