// Fleet-scale stack: the copy-on-write slab store's sharing semantics and
// the fleet engine's modes. Exact mode is core::run_hadfl, so its
// independent checks are the sim == rt tests (tests/test_rt.cpp).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/fleet.hpp"
#include "exp/fleet_world.hpp"
#include "nn/cow_store.hpp"
#include "obs/recorder.hpp"

namespace hadfl {
namespace {

std::vector<float> ramp(std::size_t n, float start) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = start + 0.5f * i;
  return v;
}

TEST(CowStateStore, CreateViewRoundtrip) {
  nn::CowStateStore store(8);
  const std::vector<float> bits = ramp(8, 1.0f);
  const auto id = store.create(bits);
  const auto got = store.view(id);
  ASSERT_EQ(got.size(), 8u);
  EXPECT_EQ(0, std::memcmp(got.data(), bits.data(), 8 * sizeof(float)));
  EXPECT_EQ(store.refcount(id), 1u);
  EXPECT_EQ(store.live_slabs(), 1u);
  EXPECT_EQ(store.slab_bytes(), 8 * sizeof(float));
}

TEST(CowStateStore, RetainAliasesTheSameSlab) {
  nn::CowStateStore store(4);
  const auto id = store.create(ramp(4, 0.0f));
  store.retain(id);
  EXPECT_EQ(store.refcount(id), 2u);
  EXPECT_EQ(store.live_slabs(), 1u);  // two handles, one slab
  store.release(id);
  EXPECT_EQ(store.refcount(id), 1u);
  EXPECT_EQ(store.live_slabs(), 1u);
}

TEST(CowStateStore, DetachOnWriteLeavesSharersUntouched) {
  nn::CowStateStore store(4);
  const std::vector<float> bits = ramp(4, 2.0f);
  const auto shared = store.create(bits);
  store.retain(shared);  // two devices share the slab

  const auto mine = store.detach(shared);
  EXPECT_NE(mine, shared);
  EXPECT_EQ(store.refcount(shared), 1u);
  EXPECT_EQ(store.refcount(mine), 1u);

  auto w = store.mutable_view(mine);
  w[0] = -100.0f;
  EXPECT_EQ(store.view(shared)[0], bits[0]);  // sharer's bits intact
  EXPECT_EQ(store.view(mine)[0], -100.0f);
  EXPECT_EQ(0, std::memcmp(store.view(mine).data() + 1,
                           store.view(shared).data() + 1,
                           3 * sizeof(float)));
}

TEST(CowStateStore, DetachExclusiveIsIdentity) {
  nn::CowStateStore store(4);
  const auto id = store.create(ramp(4, 3.0f));
  EXPECT_EQ(store.detach(id), id);
  EXPECT_EQ(store.live_slabs(), 1u);
}

TEST(CowStateStore, MutableViewOfSharedSlabThrows) {
  nn::CowStateStore store(4);
  const auto id = store.create(ramp(4, 0.0f));
  store.retain(id);
  EXPECT_THROW(store.mutable_view(id), Error);
  store.release(id);
  EXPECT_NO_THROW(store.mutable_view(id));
}

TEST(CowStateStore, RecyclesFreedSlabsAndTracksPeak) {
  nn::CowStateStore store(4);
  const auto a = store.create(ramp(4, 0.0f));
  const auto b = store.create(ramp(4, 1.0f));
  const auto c = store.create(ramp(4, 2.0f));
  EXPECT_EQ(store.live_slabs(), 3u);
  EXPECT_EQ(store.peak_slabs(), 3u);

  store.release(b);
  store.release(c);
  EXPECT_EQ(store.live_slabs(), 1u);

  // New slabs reuse the freed storage: live count grows, peak does not.
  const auto d = store.create(ramp(4, 9.0f));
  EXPECT_EQ(store.live_slabs(), 2u);
  EXPECT_EQ(store.peak_slabs(), 3u);
  EXPECT_EQ(store.view(d)[0], 9.0f);
  EXPECT_EQ(store.view(a)[0], 0.0f);

  // Counted references: n handles move in one call, and the slab frees
  // exactly when the last of them is dropped.
  store.retain(d, 5);
  EXPECT_EQ(store.refcount(d), 6u);
  store.release(d, 4);
  EXPECT_EQ(store.refcount(d), 2u);
  EXPECT_EQ(store.live_slabs(), 2u);
  store.release(d, 2);
  EXPECT_EQ(store.live_slabs(), 1u);
  // The freed slab is the next one recycled; the peak still does not move.
  const auto e = store.create(ramp(4, 7.0f));
  EXPECT_EQ(e, d);
  EXPECT_EQ(store.peak_slabs(), 3u);
  EXPECT_EQ(store.view(e)[0], 7.0f);
}

TEST(CowStateStore, Validation) {
  EXPECT_THROW(nn::CowStateStore(0), Error);
  nn::CowStateStore store(4);
  EXPECT_THROW(store.create(ramp(3, 0.0f)), Error);
  const auto id = store.create(ramp(4, 0.0f));
  store.release(id);
  EXPECT_THROW(store.view(id), Error);
  EXPECT_THROW(store.retain(id), Error);
  EXPECT_THROW(store.retain(id, 3), Error);
  EXPECT_THROW(store.release(id, 2), Error);

  // Over-release throws and leaves the references in place.
  const auto live = store.create(ramp(4, 1.0f));
  store.retain(live, 2);
  EXPECT_THROW(store.release(live, 4), InvalidArgument);
  EXPECT_EQ(store.refcount(live), 3u);
  EXPECT_EQ(store.live_slabs(), 1u);
  store.release(live, 3);
  EXPECT_EQ(store.live_slabs(), 0u);
  EXPECT_THROW(store.release(live, 1), Error);
}

// ---- fleet engine -------------------------------------------------------

exp::FleetWorldConfig small_world(std::size_t devices) {
  exp::FleetWorldConfig fw;
  fw.devices = devices;
  fw.epochs = 3;
  fw.seed = 11;
  return fw;
}

TEST(FleetEngine, CohortModeTrainsOnlyTheCohort) {
  exp::FleetWorldConfig fw;
  fw.devices = 256;
  fw.epochs = 64;  // budget large enough that the round cap governs
  fw.churn.fraction = 0.05;
  exp::FleetWorld world(fw);

  core::FleetConfig fleet;
  fleet.cohort = 8;
  fleet.max_rounds = 3;
  const core::FleetResult r = core::run_hadfl_fleet(
      world.context(), world.scenario().hadfl, fleet);

  EXPECT_EQ(r.stats.devices, 256u);
  EXPECT_EQ(r.stats.rounds, 3u);
  // Warm-up trains the cohort once; each round trains at most the cohort.
  EXPECT_LE(r.stats.train_episodes, 8u + 3u * 8u);
  EXPECT_GE(r.stats.train_episodes, 8u);
  EXPECT_LT(r.stats.peak_state_bytes, r.stats.naive_state_bytes);
  EXPECT_FALSE(r.scheme.final_state.empty());
  EXPECT_FALSE(r.scheme.metrics.empty());
  for (const auto& sel : r.extras.selected) {
    EXPECT_LE(sel.size(), world.scenario().hadfl.strategy.select_count);
  }
}

TEST(FleetEngine, ExtrasSeriesCappedToConfiguredDevices) {
  exp::FleetWorldConfig fw = small_world(8);
  exp::FleetWorld world(fw);
  core::FleetConfig fleet;
  fleet.extras_device_cap = 3;
  const core::FleetResult r = core::run_hadfl_fleet(
      world.context(), world.scenario().hadfl, fleet);
  ASSERT_FALSE(r.extras.actual_versions.empty());
  for (const auto& round : r.extras.actual_versions) {
    EXPECT_EQ(round.size(), 3u);
  }
  for (const auto& round : r.extras.predicted_versions) {
    EXPECT_EQ(round.size(), 3u);
  }
  EXPECT_EQ(r.extras.negotiated_epoch_times.size(), 3u);
}

TEST(FleetEngine, RejectsUnsupportedConfigs) {
  exp::FleetWorldConfig fw = small_world(8);
  {
    exp::FleetWorld world(fw);
    core::FleetConfig fleet;
    fleet.cohort = 1;  // below select_count
    EXPECT_THROW(core::run_hadfl_fleet(world.context(),
                                       world.scenario().hadfl, fleet),
                 Error);
  }
  {
    exp::FleetWorld world(fw);
    // Cohort mode approximates selection through the bucketed top-N
    // machinery, which covers gaussian-quartile and top-k only.
    world.scenario().hadfl.policy =
        std::make_shared<core::UniformSelection>();
    core::FleetConfig fleet;
    fleet.cohort = 4;
    EXPECT_THROW(core::run_hadfl_fleet(world.context(),
                                       world.scenario().hadfl, fleet),
                 Error);
  }
  // Sampled-cohort mode keeps no per-device residuals or step-time
  // history for untrained devices, so it rejects a codec and adaptive mode.
  {
    exp::FleetWorld world(fw);
    world.scenario().hadfl.compression = core::SyncCompression::kTopK;
    core::FleetConfig fleet;
    fleet.cohort = 4;
    EXPECT_THROW(core::run_hadfl_fleet(world.context(),
                                       world.scenario().hadfl, fleet),
                 InvalidArgument);
  }
  {
    exp::FleetWorld world(fw);
    world.scenario().hadfl.adaptive.enabled = true;
    core::FleetConfig fleet;
    fleet.cohort = 4;
    EXPECT_THROW(core::run_hadfl_fleet(world.context(),
                                       world.scenario().hadfl, fleet),
                 InvalidArgument);
  }
}

TEST(FleetEngine, CohortModeRunsTraceAndDrift) {
  // Both are analytic in cohort mode: every device's burst is priced by
  // the clock walk whether or not it trains.
  exp::FleetWorldConfig fw;
  fw.devices = 64;
  fw.epochs = 64;
  exp::FleetWorld world(fw);
  obs::Timeline trace;
  world.scenario().hadfl.trace = &trace;
  world.cluster().faults().schedule_drift(
      sim::DriftEvent{.device = 0, .from_round = 1, .factor = 4.0});
  core::FleetConfig fleet;
  fleet.cohort = 8;
  fleet.max_rounds = 3;
  const core::FleetResult r = core::run_hadfl_fleet(
      world.context(), world.scenario().hadfl, fleet);
  EXPECT_EQ(r.stats.rounds, 3u);
  std::size_t negotiation = 0;
  std::size_t sync = 0;
  for (const obs::Span& span : trace.spans()) {
    EXPECT_LE(span.start, span.end);
    if (span.label == "negotiation") ++negotiation;
    if (span.kind == obs::SpanKind::kSync) ++sync;
  }
  EXPECT_EQ(negotiation, 64u);  // every device, trained or not
  EXPECT_GT(sync, 0u);
  // In round 1 the drifted device fits fewer steps than its power-3 twin.
  EXPECT_LT(r.extras.actual_versions.front()[0],
            r.extras.actual_versions.front()[1]);
}

TEST(FleetEngine, ExactModeRunsCodecAdaptiveTraceAndDrift) {
  exp::FleetWorldConfig fw = small_world(8);
  fw.epochs = 6;
  exp::FleetWorld world(fw);
  core::HadflConfig& config = world.scenario().hadfl;
  config.compression = core::SyncCompression::kInt8;
  config.adaptive.enabled = true;
  obs::Timeline trace;
  config.trace = &trace;
  world.cluster().faults().schedule_drift(
      sim::DriftEvent{.device = 0, .from_round = 1, .factor = 4.0});
  const core::FleetResult r =
      core::run_hadfl_fleet(world.context(), config, core::FleetConfig{});
  EXPECT_GT(r.stats.rounds, 2u);
  EXPECT_FALSE(r.scheme.final_state.empty());
  std::size_t compute = 0;
  std::size_t sync = 0;
  for (const obs::Span& span : trace.spans()) {
    if (span.kind == obs::SpanKind::kCompute) ++compute;
    if (span.kind == obs::SpanKind::kSync) ++sync;
  }
  EXPECT_GE(compute, 8u * r.stats.rounds);  // negotiation + every round
  EXPECT_GE(sync, 2u * r.stats.rounds);
}

TEST(CowStateStore, CreateZeroedIsAnOrdinarySlab) {
  nn::CowStateStore store(4);
  const auto zero = store.create_zeroed();
  for (const float v : store.view(zero)) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(store.refcount(zero), 1u);
  store.retain(zero);
  const auto mine = store.detach(zero);  // CoW works on zeroed slabs too
  EXPECT_NE(mine, zero);
  store.mutable_view(mine)[0] = 5.0f;
  EXPECT_EQ(store.view(zero)[0], 0.0f);
}

TEST(FleetEngine, CohortCoveringFleetDegradesToExact) {
  const exp::FleetWorldConfig fw = small_world(8);

  exp::FleetWorld exact_world(fw);
  const core::FleetResult want = core::run_hadfl_fleet(
      exact_world.context(), exact_world.scenario().hadfl,
      core::FleetConfig{});

  exp::FleetWorld cohort_world(fw);
  core::FleetConfig fleet;
  fleet.cohort = 8;  // == K: nothing to sample
  const core::FleetResult got = core::run_hadfl_fleet(
      cohort_world.context(), cohort_world.scenario().hadfl, fleet);

  ASSERT_EQ(want.scheme.final_state.size(), got.scheme.final_state.size());
  EXPECT_EQ(0, std::memcmp(want.scheme.final_state.data(),
                           got.scheme.final_state.data(),
                           want.scheme.final_state.size() * sizeof(float)));
  EXPECT_EQ(want.scheme.total_time, got.scheme.total_time);
  EXPECT_EQ(want.stats.train_episodes, got.stats.train_episodes);
}

TEST(FleetEngine, SaturatedGroupedCohortBitIdenticalToExact) {
  // Hierarchical grouping with cohort == group size: every group's
  // candidate set fits the cohort, so each group degrades to the exact
  // per-group plan and the whole run matches exact mode bit for bit.
  exp::FleetWorldConfig fw = small_world(8);
  fw.momentum = 0.9;

  exp::FleetWorld exact_world(fw);
  exact_world.scenario().hadfl.grouping.group_size = 4;
  exact_world.scenario().hadfl.grouping.inter_group_period = 2;
  const core::FleetResult want = core::run_hadfl_fleet(
      exact_world.context(), exact_world.scenario().hadfl,
      core::FleetConfig{});

  exp::FleetWorld cohort_world(fw);
  cohort_world.scenario().hadfl.grouping.group_size = 4;
  cohort_world.scenario().hadfl.grouping.inter_group_period = 2;
  core::FleetConfig fleet;
  fleet.cohort = 4;
  const core::FleetResult got = core::run_hadfl_fleet(
      cohort_world.context(), cohort_world.scenario().hadfl, fleet);

  ASSERT_EQ(want.scheme.final_state.size(), got.scheme.final_state.size());
  EXPECT_EQ(0, std::memcmp(want.scheme.final_state.data(),
                           got.scheme.final_state.data(),
                           want.scheme.final_state.size() * sizeof(float)));
  EXPECT_EQ(want.scheme.total_time, got.scheme.total_time);
  EXPECT_EQ(want.scheme.volume.total_sent(), got.scheme.volume.total_sent());
}

/// Runs cohort mode at a K large enough to span several ranges of the
/// fixed parallel grid and returns the bits that must not depend on the
/// thread count.
core::FleetResult run_cohort_world(std::size_t threads, double momentum,
                                   std::shared_ptr<core::SelectionPolicy>
                                       policy = nullptr) {
  exp::FleetWorldConfig fw;
  fw.devices = 20000;  // > 2 * kFleetGrain: the range grid is real
  fw.epochs = 64;
  fw.seed = 11;
  fw.jitter_std = 0.05;
  fw.momentum = momentum;
  fw.churn.fraction = 0.01;
  exp::FleetWorld world(fw);
  if (policy) world.scenario().hadfl.policy = std::move(policy);
  core::FleetConfig fleet;
  fleet.cohort = 8;
  fleet.max_rounds = 2;
  fleet.scalar_threads = threads;
  fleet.extras_device_cap = fw.devices;  // version series cover every range
  return core::run_hadfl_fleet(world.context(), world.scenario().hadfl,
                               fleet);
}

void expect_same_run(const core::FleetResult& a, const core::FleetResult& b) {
  ASSERT_EQ(a.scheme.final_state.size(), b.scheme.final_state.size());
  EXPECT_EQ(0, std::memcmp(a.scheme.final_state.data(),
                           b.scheme.final_state.data(),
                           a.scheme.final_state.size() * sizeof(float)));
  EXPECT_EQ(a.scheme.total_time, b.scheme.total_time);
  EXPECT_EQ(a.scheme.volume.total_sent(), b.scheme.volume.total_sent());
  EXPECT_EQ(a.scheme.volume.total_received(),
            b.scheme.volume.total_received());
  ASSERT_EQ(a.extras.selected.size(), b.extras.selected.size());
  for (std::size_t r = 0; r < a.extras.selected.size(); ++r) {
    EXPECT_EQ(a.extras.selected[r], b.extras.selected[r]);
  }
  EXPECT_EQ(a.stats.train_episodes, b.stats.train_episodes);
  // Slab bookkeeping: rebind order decides free-list recycling and with it
  // the high-water marks.
  EXPECT_EQ(a.stats.peak_state_slabs, b.stats.peak_state_slabs);
  EXPECT_EQ(a.stats.peak_velocity_slabs, b.stats.peak_velocity_slabs);
  EXPECT_EQ(a.stats.ring_repairs, b.stats.ring_repairs);
  // Per-round version series (capped), compared exactly.
  EXPECT_EQ(a.extras.actual_versions, b.extras.actual_versions);
  EXPECT_EQ(a.extras.predicted_versions, b.extras.predicted_versions);
}

TEST(FleetEngine, ScalarThreadCountIsBitInvariant) {
  const core::FleetResult serial = run_cohort_world(1, 0.9);
  const core::FleetResult two = run_cohort_world(2, 0.9);
  const core::FleetResult many = run_cohort_world(5, 0.9);
  expect_same_run(serial, two);
  expect_same_run(serial, many);
}

TEST(FleetEngine, TopKPolicyCohortIsDeterministic) {
  const core::FleetResult a =
      run_cohort_world(3, 0.0, std::make_shared<core::TopKSelection>());
  const core::FleetResult b =
      run_cohort_world(1, 0.0, std::make_shared<core::TopKSelection>());
  expect_same_run(a, b);
  EXPECT_FALSE(a.scheme.final_state.empty());
  EXPECT_GT(a.stats.train_episodes, 0u);
}

TEST(FleetEngine, MomentumCohortKeepsVelocityResidencySmall) {
  exp::FleetWorldConfig fw;
  fw.devices = 256;
  fw.epochs = 64;
  fw.momentum = 0.9;
  exp::FleetWorld world(fw);
  core::FleetConfig fleet;
  fleet.cohort = 8;
  fleet.max_rounds = 3;
  const core::FleetResult r = core::run_hadfl_fleet(
      world.context(), world.scenario().hadfl, fleet);
  // All 256 devices start on the shared zero slab; only trained devices
  // fork a private velocity copy, so the high-water mark tracks the
  // cohort, far below one-slab-per-device.
  EXPECT_GT(r.stats.peak_velocity_slabs, 0u);
  EXPECT_LT(r.stats.peak_velocity_slabs, 256u / 2);
  EXPECT_GT(r.stats.peak_velocity_bytes, 0u);
  EXPECT_GT(r.stats.naive_state_bytes,
            2u * 256u * r.stats.state_floats * sizeof(float));
}

TEST(FleetEngine, HierarchicalCohortTrainsPerGroupBudget) {
  exp::FleetWorldConfig fw;
  fw.devices = 256;
  fw.epochs = 64;
  exp::FleetWorld world(fw);
  world.scenario().hadfl.grouping.group_size = 64;  // 4 groups
  world.scenario().hadfl.grouping.inter_group_period = 2;
  core::FleetConfig fleet;
  fleet.cohort = 8;
  fleet.max_rounds = 3;
  const core::FleetResult r = core::run_hadfl_fleet(
      world.context(), world.scenario().hadfl, fleet);
  EXPECT_EQ(r.stats.rounds, 3u);
  // Warm-up samples cohort * groups; each round trains at most the cohort
  // in each of the 4 groups.
  EXPECT_LE(r.stats.train_episodes, 32u + 3u * 32u);
  EXPECT_GT(r.stats.train_episodes, 0u);
  EXPECT_FALSE(r.scheme.final_state.empty());
}

TEST(FleetEngine, RecordsPhaseSpans) {
  exp::FleetWorldConfig fw = small_world(8);
  exp::FleetWorld world(fw);
  obs::SpanRecorder recorder(1);
  core::FleetConfig fleet;
  fleet.recorder = &recorder;
  const core::FleetResult r = core::run_hadfl_fleet(
      world.context(), world.scenario().hadfl, fleet);
  EXPECT_GT(r.stats.rounds, 0u);
  const obs::Timeline timeline = recorder.drain();
  std::size_t clock = 0, select = 0, train = 0, fold = 0;
  for (const obs::Span& span : timeline.spans()) {
    EXPECT_LE(span.start, span.end);
    if (span.label == "clock") ++clock;
    if (span.label == "select") ++select;
    if (span.label == "train") ++train;
    if (span.label == "fold") ++fold;
  }
  // One clock span per round; selects come from both the predictor block
  // and each group aggregation; at least one train (warm-up) and one fold.
  EXPECT_EQ(clock, r.stats.rounds);
  EXPECT_GE(select, r.stats.rounds);
  EXPECT_GE(train, 1u);
  EXPECT_GE(fold, 1u);
}

TEST(FleetWorld, ChurnPlanIsDeterministic) {
  exp::FleetWorldConfig fw;
  fw.devices = 100;
  fw.churn.fraction = 0.1;
  exp::FleetWorld a(fw);
  exp::FleetWorld b(fw);
  EXPECT_EQ(a.churn_events(), 10u);
  const auto& ea = a.cluster().faults().events();
  const auto& eb = b.cluster().faults().events();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].device, eb[i].device);
    EXPECT_EQ(ea[i].down_at, eb[i].down_at);
    EXPECT_EQ(ea[i].up_at, eb[i].up_at);
  }
}

}  // namespace
}  // namespace hadfl
