// Telemetry-driven adaptive control loop (ROADMAP "Close the control loop").
//
// HADFL's Alg. 1 derives the per-device step budgets E_k once from the
// §III-B warm-up and never revisits them. This controller re-closes the
// loop: every sync round it consumes the same measurements the metrics
// registry records (per-device step durations, sync latency,
// round-over-round delta norms) and emits the next round's plan:
//
//   * E_k      — EWMA over measured per-device step durations replaces the
//                warm-up-only Eq. 6 estimate as speeds drift.
//   * chunks   — hysteresis hill-climb on observed sync latency.
//   * codec    — aggressive top-k while deltas are large, int8 mid-run,
//                dense/exact near convergence; escalates one level when the
//                selected ring crosses a slow uplink. Every codec switch
//                forces one exact raw round so error-feedback residuals and
//                sync references re-align (the PR 8 desync fallback).
//
// The controller is deliberately backend-agnostic: the sim trainer feeds it
// virtual timings, the rt/net coordinator feeds it the same quantities from
// live reports. It never touches model state and depends only on
// comm/obs/common, so core can link it without a cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/delta_codec.hpp"
#include "obs/metrics.hpp"

namespace hadfl::ctrl {

struct AdaptiveConfig {
  bool enabled = false;
  /// EWMA smoothing for per-device step-duration estimates, in (0, 1];
  /// 1.0 = trust only the latest round.
  double step_time_alpha = 0.4;
  /// Rounds to observe before the first plan deviates from the warm-up
  /// strategy (the controller still learns during these rounds).
  std::size_t warmup_rounds = 2;
  bool tune_budgets = true;
  bool tune_chunks = true;
  bool tune_codec = true;
  /// Chunk tuner: a move is kept only if latency improved by this relative
  /// margin; otherwise it reverts and holds for `chunk_hold_rounds`.
  double chunk_hysteresis = 0.15;
  std::size_t chunk_hold_rounds = 3;
  std::size_t min_chunks = 1;
  std::size_t max_chunks = 256;
  /// Codec bands on the EWMA of the relative round-over-round delta norm:
  /// above norm_high → top-k, between → int8, below norm_low → dense.
  double norm_high = 2e-3;
  double norm_low = 1e-4;
  /// Smoothing for the delta-norm signal.
  double norm_alpha = 0.5;
  /// Ring members with bandwidth scale below this flag a slow uplink and
  /// escalate the codec one level (none→int8, int8→topk).
  double slow_link_threshold = 0.5;
};

/// One round's knob settings, produced by AdaptiveController::end_round().
struct RoundPlan {
  std::vector<std::size_t> local_steps;  ///< E_k for the coming round
  std::size_t sync_chunks = 0;           ///< 0 = keep the configured grid
  comm::SyncCodec codec = comm::SyncCodec::kNone;
  double topk_ratio = 0.05;
  /// The codec just switched: run one exact raw round (delta exchange off)
  /// so references and residuals re-align before the new codec engages.
  bool force_raw = false;
};

/// Hysteresis hill-climber for the sync chunk count. Proposes doubling /
/// halving moves, keeps a move only when observed latency improves by more
/// than the hysteresis margin, and backs off for a hold period after a
/// failed move so latency noise below the margin cannot make it flap.
class ChunkTuner {
 public:
  ChunkTuner(std::size_t initial, std::size_t min_chunks,
             std::size_t max_chunks, double hysteresis,
             std::size_t hold_rounds);

  /// Feed the latency observed for the current chunk setting; returns the
  /// chunk count to use next round.
  std::size_t observe(double latency_s);

  std::size_t chunks() const { return chunks_; }
  /// Accepted (kept) moves so far — the no-flap property bounds this under
  /// stationary latency.
  std::size_t accepted_moves() const { return accepted_moves_; }

 private:
  std::size_t clamp(std::size_t c) const;

  std::size_t chunks_;
  std::size_t min_chunks_;
  std::size_t max_chunks_;
  double hysteresis_;
  std::size_t hold_rounds_;
  double baseline_ = -1.0;   ///< smoothed latency at the accepted setting
  std::size_t probe_from_ = 0;  ///< chunks before the in-flight probe
  bool probing_ = false;
  bool probe_up_ = true;     ///< alternate probe direction
  std::size_t hold_left_ = 0;
  std::size_t accepted_moves_ = 0;
};

class AdaptiveController {
 public:
  /// `initial_step_time_s[d]` is the warm-up estimate of device d's
  /// per-step duration (epoch_time / iters_per_epoch); `round_window_s` is
  /// the strategy's round window (hyperperiod / t_sync); the remaining
  /// arguments seed the plan so the first `warmup_rounds` rounds reproduce
  /// the static configuration exactly.
  AdaptiveController(AdaptiveConfig config,
                     std::vector<double> initial_step_time_s,
                     double round_window_s,
                     std::vector<std::size_t> initial_local_steps,
                     std::size_t initial_chunks,
                     comm::SyncCodec initial_codec, double initial_topk_ratio);

  /// Optional: mirror decisions into `ctrl.*` counters for the CSV/JSON
  /// exports. The registry must outlive the controller.
  void bind_metrics(obs::MetricsRegistry* registry);

  // ---- per-round observations (order within a round does not matter) ----

  /// Device d spent `seconds_per_step` per local step this round.
  void observe_step_time(std::size_t device, double seconds_per_step);
  /// One sync completed with this latency.
  void observe_sync(double latency_s);
  /// Relative round-over-round aggregate delta norm (‖x_t−x_{t−1}‖/‖x_{t−1}‖).
  void observe_delta_norm(double relative_norm);
  /// This round's evaluation state. From the second call on, feeds the
  /// relative movement since the previous call's state to
  /// observe_delta_norm — the convergence signal every backend uses.
  void observe_eval_state(const std::vector<float>& state);
  /// Whether the round's selected ring crossed a slow uplink.
  void observe_slow_link(bool any_slow);

  /// Folds this round's observations into the plan for the next round.
  void end_round();

  /// The plan for the coming round. Stable between end_round() calls.
  const RoundPlan& plan() const { return plan_; }

  std::size_t rounds_observed() const { return rounds_; }
  double estimated_step_time(std::size_t device) const {
    return step_time_[device];
  }

 private:
  comm::SyncCodec pick_codec() const;

  AdaptiveConfig config_;
  std::vector<double> step_time_;  ///< EWMA per-step duration estimates
  double window_;
  std::vector<std::size_t> initial_steps_;
  comm::SyncCodec initial_codec_;
  ChunkTuner chunk_tuner_;
  RoundPlan plan_;

  std::size_t rounds_ = 0;
  double norm_ewma_ = -1.0;  ///< <0 until the first delta-norm observation
  std::vector<float> prev_eval_;  ///< last observe_eval_state argument
  bool slow_link_ = false;
  double round_sync_latency_ = -1.0;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* budget_updates_ = nullptr;
  obs::Counter* chunk_moves_ = nullptr;
  obs::Counter* codec_switches_ = nullptr;
  obs::Counter* raw_rounds_ = nullptr;
};

}  // namespace hadfl::ctrl
