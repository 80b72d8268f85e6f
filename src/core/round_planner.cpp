#include "core/round_planner.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/round_logic.hpp"
#include "fl/evaluate.hpp"
#include "nn/param_utils.hpp"

namespace hadfl::core {

RoundPlanner::RoundPlanner(const fl::SchemeContext& ctx,
                           const HadflConfig& config,
                           nn::Sequential& reference,
                           const std::vector<std::size_t>& iters_per_epoch,
                           Rng rng, std::size_t threads,
                           std::size_t max_rounds, std::size_t extras_cap)
    : ctx_(ctx),
      config_(config),
      reference_(reference),
      iters_per_epoch_(iters_per_epoch),
      rng_(std::move(rng)),
      k_(ctx.cluster.size()),
      threads_(std::max<std::size_t>(1, threads)),
      max_rounds_(max_rounds),
      extras_cap_(extras_cap),
      warmup_epochs_(std::max(1, ctx.config.warmup_epochs)),
      policy_(config.policy ? config.policy
                            : std::make_shared<GaussianQuartileSelection>()),
      groups_(make_groups(ctx.cluster, config.grouping)),
      supervisor_(k_, config.alpha),  // checks alpha in (0, 1)
      model_manager_(config.backup_dir, config.backup_every_rounds),
      live_(k_),
      epochs_done_(warmup_epochs_) {
  HADFL_CHECK_ARG(ctx.partition.size() == k_ && iters_per_epoch.size() == k_,
                  "partition or iters_per_epoch count != device count");
  HADFL_CHECK_ARG(config.broadcast_mix_weight >= 0.0 &&
                      config.broadcast_mix_weight <= 1.0,
                  "broadcast mix weight must be in [0, 1]");
  state_floats_ = nn::state_size(reference_);
  wire_bytes_ = ctx.comm_state_bytes != 0 ? ctx.comm_state_bytes
                                          : state_floats_ * sizeof(float);
  supervisor_.set_threads(threads_);
  if (config.compression != SyncCompression::kNone ||
      config.adaptive.enabled) {
    ref_epoch_.assign(k_, 0);  // 0 = the initial dispatch, shared by all
  }
}

std::size_t RoundPlanner::delta_wire_bytes() const {
  return effective_wire_bytes(
      wire_bytes_,
      comm::encoded_state_bytes(plan_->codec, state_floats_,
                                plan_->sync_chunks, plan_->topk_ratio),
      state_floats_ * sizeof(float));
}

void RoundPlanner::negotiate(std::vector<sim::SimTime> epoch_times,
                             obs::MetricsRegistry* metrics) {
  strategy_ = StrategyGenerator(config_.strategy)
                  .generate(epoch_times, iters_per_epoch_);
  HADFL_INFO("hadfl strategy: H_E=" << strategy_.hyperperiod << "s window="
                                    << strategy_.round_window << "s");
  static_plan_ = ctrl::RoundPlan{strategy_.local_steps, config_.sync_chunks,
                                 config_.compression, config_.top_k_ratio};
  if (config_.adaptive.enabled) {
    // Seeded from the warm-up, so its first plans reproduce the static
    // strategy exactly.
    std::vector<double> step_time(k_);
    for (std::size_t d = 0; d < k_; ++d) {
      step_time[d] =
          epoch_times[d] / static_cast<double>(iters_per_epoch_[d]);
    }
    controller_ = std::make_unique<ctrl::AdaptiveController>(
        config_.adaptive, std::move(step_time), strategy_.round_window,
        strategy_.local_steps, config_.sync_chunks, config_.compression,
        config_.top_k_ratio);
    controller_->bind_metrics(metrics);
  }
  if (epoch_times.size() > extras_cap_) epoch_times.resize(extras_cap_);
  extras_.negotiated_epoch_times = std::move(epoch_times);
}

void RoundPlanner::record_point(const std::vector<float>& state,
                                sim::SimTime time, bool by_steps) {
  // The train loss is the mean over the devices that trained since the
  // last point, in id order, weighted by their executed steps (the warm-up
  // point: unweighted). A device that did not report counts nowhere.
  std::ranges::sort(trained_, std::less<>{}, &Trained::device);
  double loss_sum = 0.0;
  double weight = 0.0;
  for (const Trained& t : trained_) {
    if (t.executed == 0) continue;
    const double w = by_steps ? static_cast<double>(t.executed) : 1.0;
    loss_sum += t.loss * w;
    weight += w;
  }
  trained_.clear();
  nn::load_state(reference_, state);
  const fl::EvalResult eval = fl::evaluate(reference_, ctx_.test);
  metrics_.add(fl::ConvergencePoint{epochs_done_, time,
                                    weight > 0.0 ? loss_sum / weight : 0.0,
                                    eval.loss, eval.accuracy});
}

bool RoundPlanner::begin_round() {
  if (epochs_done_ >= static_cast<double>(ctx_.config.total_epochs) ||
      (max_rounds_ != 0 && round_ >= max_rounds_)) {
    return false;
  }
  if (idle_rounds_ >= kMaxIdleRounds) {
    HADFL_WARN("no training progress in " << kMaxIdleRounds
                                          << " consecutive rounds; stopping");
    return false;
  }
  if (live_ == 0) {
    HADFL_WARN("no live devices left; stopping");
    return false;
  }
  ++round_;
  plan_ = controller_ ? &controller_->plan() : &static_plan_;
  return true;
}

void RoundPlanner::observe_steps(double executed_total) {
  epochs_done_ += executed_total *
                  static_cast<double>(ctx_.config.device_batch_size) /
                  static_cast<double>(ctx_.train.size());
  idle_rounds_ = executed_total > 0.0 ? 0 : idle_rounds_ + 1;
}

const std::vector<double>& RoundPlanner::forecast(
    const std::vector<double>& versions) {
  fallback_.resize(k_);
  const double round = static_cast<double>(round_);
  parallel_chunks(k_, kParallelChunkGrain, threads_,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t d = begin; d < end; ++d) {
                      fallback_[d] = round * strategy_.expected_versions[d];
                    }
                  });
  switch (config_.predictor) {
    case PredictorMode::kDes:
      predicted_ = supervisor_.predict(fallback_);
      break;
    case PredictorMode::kStatic:
      predicted_ = fallback_;
      break;
    case PredictorMode::kLastValue:
      predicted_ = last_actual_.empty() ? fallback_ : last_actual_;
      last_actual_ = versions;
      break;
  }
  supervisor_.observe_round(versions);
  const std::size_t kept = std::min(k_, extras_cap_);
  extras_.actual_versions.emplace_back(versions.begin(),
                                       versions.begin() + kept);
  extras_.predicted_versions.emplace_back(predicted_.begin(),
                                          predicted_.begin() + kept);
  return predicted_;
}

std::vector<sim::DeviceId> RoundPlanner::select_ring(
    const std::vector<sim::DeviceId>& candidates) {
  SelectionContext sel;
  sel.select_count =
      std::min(config_.strategy.select_count, candidates.size());
  for (const sim::DeviceId id : candidates) {
    sel.versions.push_back(predicted_[id]);
    sel.compute_powers.push_back(ctx_.cluster.compute_power(id));
    sel.bandwidth_scales.push_back(ctx_.cluster.bandwidth_scale(id));
  }
  const std::vector<std::size_t> picks = policy_->select(sel, rng_);
  std::vector<sim::DeviceId> selected;
  for (const std::size_t p : picks) selected.push_back(candidates[p]);
  return StrategyGenerator::make_ring(std::move(selected), rng_);
}

SyncPlan RoundPlanner::plan_sync(
    const std::vector<sim::DeviceId>& ring) const {
  HADFL_CHECK_ARG(!ring.empty(), "plan_sync of an empty ring");
  SyncPlan sync;
  // Members whose references agree (same non-negative epoch: bit-identical
  // references) exchange codec-encoded deltas against them. A stale or
  // unknown reference, or the round after the controller switched codecs,
  // forces the exact dense round, which realigns every member.
  sync.base_epoch = ref_epoch_.empty() ? 0 : ref_epoch_[ring.front()];
  sync.delta = plan_->codec != SyncCompression::kNone && !plan_->force_raw &&
               sync.base_epoch >= 0;
  for (const sim::DeviceId id : ring) {
    sync.delta = sync.delta && ref_epoch_[id] == sync.base_epoch;
  }
  // n_k-proportional weights (the Eq. 2 objective), else plain Eq. 5.
  const auto share = [&](sim::DeviceId id) {
    return config_.weight_by_samples
               ? static_cast<double>(ctx_.partition[id].size())
               : 1.0;
  };
  double total = 0.0;
  for (const sim::DeviceId id : ring) total += share(id);
  for (const sim::DeviceId id : ring) sync.weights.push_back(share(id) / total);
  return sync;
}

double RoundPlanner::commit_sync(const std::vector<sim::DeviceId>& ring,
                                 const std::vector<double>& versions) {
  selected_.insert(selected_.end(), ring.begin(), ring.end());
  double version_mean = 0.0;
  for (const sim::DeviceId id : ring) version_mean += versions[id];
  return version_mean / static_cast<double>(ring.size());
}

void RoundPlanner::observe_sync(const std::vector<sim::DeviceId>& ring,
                                double latency_s) {
  if (!controller_) return;
  controller_->observe_sync(latency_s);
  controller_->observe_slow_link(
      std::any_of(ring.begin(), ring.end(), [&](sim::DeviceId id) {
        return ctx_.cluster.bandwidth_scale(id) <
               config_.adaptive.slow_link_threshold;
      }));
}

BroadcastPlan RoundPlanner::plan_broadcast(
    const std::vector<sim::DeviceId>& ring,
    std::vector<sim::DeviceId> receivers, const SyncPlan& sync) {
  HADFL_CHECK_ARG(!ring.empty() && !receivers.empty(),
                  "plan_broadcast needs a ring and receivers");
  BroadcastPlan bc;
  bc.source = ring[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(ring.size()) - 1))];
  // After a delta round, receivers still holding its base reference can
  // rebuild the aggregate from the codec-encoded fold; everyone else needs
  // the dense aggregate. Candidate order is kept within each leg.
  if (sync.delta) {
    const auto stale = std::stable_partition(
        receivers.begin(), receivers.end(), [&](sim::DeviceId id) {
          return ref_epoch_[id] == sync.base_epoch;
        });
    bc.aligned.assign(receivers.begin(), stale);
    receivers.erase(receivers.begin(), stale);
  }
  bc.stale = std::move(receivers);
  return bc;
}

void RoundPlanner::merge_group_aggregate(std::vector<float> aggregate) {
  if (eval_.empty()) {
    eval_ = std::move(aggregate);
  } else {
    nn::mix_into(eval_, aggregate, 0.5);  // several groups: their mix
  }
}

InterGroupLeaders RoundPlanner::inter_group_leaders(
    const std::function<bool(sim::DeviceId)>& alive) const {
  const auto period = static_cast<std::size_t>(
      std::max(1, config_.grouping.inter_group_period));
  if (groups_.size() <= 1 || round_ % period != 0) return {};
  InterGroupLeaders leaders;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& group = groups_[g];
    const auto leader = std::find_if(group.begin(), group.end(), alive);
    if (leader == group.end()) continue;
    leaders.devices.push_back(*leader);
    leaders.group.push_back(g);
  }
  if (leaders.devices.size() <= 1) return {};
  return leaders;
}

void RoundPlanner::end_round(
    sim::SimTime time,
    const std::function<std::vector<float>()>& reachable_mean) {
  extras_.selected.push_back(std::move(selected_));
  selected_.clear();
  if (eval_.empty()) eval_ = reachable_mean();
  if (eval_.empty()) {
    trained_.clear();
    return;
  }
  record_point(eval_, time, /*by_steps=*/true);
  if (controller_) {
    controller_->observe_eval_state(eval_);
    controller_->end_round();
  }
  model_manager_.update(eval_, round_);
  ++sync_rounds_;
  eval_.clear();
}

void RoundPlanner::finish(
    fl::SchemeResult& scheme, HadflExtras& extras,
    const std::function<std::vector<float>()>& fallback_state) {
  scheme.metrics = std::move(metrics_);
  scheme.sync_rounds = sync_rounds_;
  scheme.final_state = model_manager_.has_model() ? model_manager_.latest()
                                                  : fallback_state();
  extras_.model_backups = model_manager_.backups_written();
  extras_.strategy = std::move(strategy_);
  extras = std::move(extras_);
}

}  // namespace hadfl::core
