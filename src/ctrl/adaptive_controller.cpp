#include "ctrl/adaptive_controller.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hadfl::ctrl {

ChunkTuner::ChunkTuner(std::size_t initial, std::size_t min_chunks,
                       std::size_t max_chunks, double hysteresis,
                       std::size_t hold_rounds)
    : chunks_(initial),
      min_chunks_(min_chunks),
      max_chunks_(max_chunks),
      hysteresis_(hysteresis),
      hold_rounds_(hold_rounds) {
  HADFL_CHECK_ARG(min_chunks >= 1 && max_chunks >= min_chunks,
                  "chunk tuner range must satisfy 1 <= min <= max");
  HADFL_CHECK_ARG(hysteresis > 0.0, "chunk hysteresis must be positive");
  chunks_ = clamp(chunks_);
}

std::size_t ChunkTuner::clamp(std::size_t c) const {
  return std::min(max_chunks_, std::max(min_chunks_, c));
}

std::size_t ChunkTuner::observe(double latency_s) {
  if (probing_) {
    // Keep the probe only on a clear win; latency noise below the
    // hysteresis margin reverts and holds, so the setting cannot flap.
    probing_ = false;
    if (latency_s < baseline_ * (1.0 - hysteresis_)) {
      baseline_ = latency_s;
      ++accepted_moves_;
    } else {
      chunks_ = probe_from_;
      probe_up_ = !probe_up_;
      hold_left_ = hold_rounds_;
    }
    return chunks_;
  }
  if (baseline_ < 0.0) {
    baseline_ = latency_s;
  } else {
    baseline_ = 0.5 * baseline_ + 0.5 * latency_s;
  }
  if (hold_left_ > 0) {
    --hold_left_;
    return chunks_;
  }
  const std::size_t next =
      clamp(probe_up_ ? chunks_ * 2 : std::max<std::size_t>(1, chunks_ / 2));
  if (next == chunks_) {  // pinned at a range edge: turn around
    probe_up_ = !probe_up_;
    return chunks_;
  }
  probe_from_ = chunks_;
  chunks_ = next;
  probing_ = true;
  return chunks_;
}

AdaptiveController::AdaptiveController(
    AdaptiveConfig config, std::vector<double> initial_step_time_s,
    double round_window_s, std::vector<std::size_t> initial_local_steps,
    std::size_t initial_chunks, comm::SyncCodec initial_codec,
    double initial_topk_ratio)
    : config_(config),
      step_time_(std::move(initial_step_time_s)),
      window_(round_window_s),
      initial_steps_(std::move(initial_local_steps)),
      initial_codec_(initial_codec),
      chunk_tuner_(initial_chunks == 0 ? comm::kDefaultSyncChunks
                                       : initial_chunks,
                   config.min_chunks, config.max_chunks,
                   config.chunk_hysteresis, config.chunk_hold_rounds) {
  HADFL_CHECK_ARG(step_time_.size() == initial_steps_.size(),
                  "step-time and budget vectors must align");
  HADFL_CHECK_ARG(!step_time_.empty(), "controller needs >= 1 device");
  HADFL_CHECK_ARG(window_ > 0.0, "round window must be positive");
  HADFL_CHECK_ARG(config_.step_time_alpha > 0.0 &&
                      config_.step_time_alpha <= 1.0,
                  "--adaptive-alpha out of range");
  plan_.local_steps = initial_steps_;
  plan_.sync_chunks = initial_chunks;
  plan_.codec = initial_codec;
  plan_.topk_ratio = initial_topk_ratio;
}

void AdaptiveController::bind_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (metrics_ == nullptr) return;
  budget_updates_ = &metrics_->counter("ctrl.budget_updates");
  chunk_moves_ = &metrics_->counter("ctrl.chunk_moves");
  codec_switches_ = &metrics_->counter("ctrl.codec_switches");
  raw_rounds_ = &metrics_->counter("ctrl.raw_fallback_rounds");
}

void AdaptiveController::observe_step_time(std::size_t device,
                                           double seconds_per_step) {
  if (device >= step_time_.size()) return;
  if (!(seconds_per_step > 0.0) || !std::isfinite(seconds_per_step)) return;
  const double a = config_.step_time_alpha;
  step_time_[device] = (1.0 - a) * step_time_[device] + a * seconds_per_step;
}

void AdaptiveController::observe_sync(double latency_s) {
  if (latency_s >= 0.0 && std::isfinite(latency_s)) {
    round_sync_latency_ = round_sync_latency_ < 0.0
                              ? latency_s
                              : std::max(round_sync_latency_, latency_s);
  }
}

void AdaptiveController::observe_delta_norm(double relative_norm) {
  if (!(relative_norm >= 0.0) || !std::isfinite(relative_norm)) return;
  const double a = config_.norm_alpha;
  norm_ewma_ = norm_ewma_ < 0.0
                   ? relative_norm
                   : (1.0 - a) * norm_ewma_ + a * relative_norm;
}

void AdaptiveController::observe_eval_state(const std::vector<float>& state) {
  if (prev_eval_.size() == state.size()) {
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < state.size(); ++i) {
      const double diff =
          static_cast<double>(state[i]) - static_cast<double>(prev_eval_[i]);
      num += diff * diff;
      den += static_cast<double>(prev_eval_[i]) *
             static_cast<double>(prev_eval_[i]);
    }
    if (den > 0.0) observe_delta_norm(std::sqrt(num / den));
  }
  prev_eval_ = state;
}

void AdaptiveController::observe_slow_link(bool any_slow) {
  slow_link_ = slow_link_ || any_slow;
}

comm::SyncCodec AdaptiveController::pick_codec() const {
  comm::SyncCodec codec = comm::SyncCodec::kNone;
  if (norm_ewma_ >= config_.norm_high) {
    codec = comm::SyncCodec::kTopK;
  } else if (norm_ewma_ >= config_.norm_low) {
    codec = comm::SyncCodec::kInt8;
  }
  if (slow_link_) {  // slow uplink: escalate one compression level
    if (codec == comm::SyncCodec::kNone) {
      codec = comm::SyncCodec::kInt8;
    } else if (codec == comm::SyncCodec::kInt8) {
      codec = comm::SyncCodec::kTopK;
    }
  }
  return codec;
}

void AdaptiveController::end_round() {
  ++rounds_;
  const bool active = rounds_ >= config_.warmup_rounds;

  if (config_.tune_budgets && active) {
    bool changed = false;
    for (std::size_t d = 0; d < step_time_.size(); ++d) {
      const std::size_t steps = std::max<std::size_t>(
          1, static_cast<std::size_t>(window_ / step_time_[d] + 1e-9));
      changed = changed || steps != plan_.local_steps[d];
      plan_.local_steps[d] = steps;
    }
    if (changed && budget_updates_ != nullptr) budget_updates_->add();
  }

  if (config_.tune_chunks && active && round_sync_latency_ >= 0.0) {
    const std::size_t before = chunk_tuner_.chunks();
    plan_.sync_chunks = chunk_tuner_.observe(round_sync_latency_);
    if (plan_.sync_chunks != before && chunk_moves_ != nullptr) {
      chunk_moves_->add();
    }
  }

  plan_.force_raw = false;
  if (config_.tune_codec && active && norm_ewma_ >= 0.0) {
    const comm::SyncCodec next = pick_codec();
    if (next != plan_.codec) {
      // One exact raw round bridges the switch: it clears error-feedback
      // residuals and re-aligns every member's sync reference before the
      // new codec starts encoding against them.
      plan_.force_raw = true;
      if (codec_switches_ != nullptr) codec_switches_->add();
      if (raw_rounds_ != nullptr) raw_rounds_->add();
    }
    plan_.codec = next;
  }

  slow_link_ = false;
  round_sync_latency_ = -1.0;
}

}  // namespace hadfl::ctrl
