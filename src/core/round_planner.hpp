// The HADFL round, decided once (paper Alg. 1, §III-B–D).
//
// RoundPlanner makes every per-round decision of the protocol for both
// executors: the fleet engine (core/fleet.cpp: the simulator, exact and
// sampled-cohort mode) and the rt coordinator (rt/coordinator.cpp: the rt
// and net backends). An executor reports what happened — executed steps,
// losses, versions, step times, reference epochs, sync outcomes, deaths —
// and carries out what the planner decides: the strategy and controller,
// the round's ctrl::RoundPlan and deadline truncation, the Eq. 7
// forecast, the Eq. 8 selection and ring, ring weights, the delta-vs-dense
// rule, the version mean, the broadcast source and its aligned/stale
// split, the inter-group leaders, convergence points, epoch accounting,
// the stop rule, model backups and the final state. How a decision runs —
// clocks or threads, transports, repair probes, fencing, slabs, telemetry
// — stays in the executor.
//
// The planner is deterministic and owns the RNG stream that follows the
// initial model dispatch: executors that report equal observations get
// equal decisions (tests/test_rt.cpp pins sim == rt on its whole output).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/coordinator.hpp"
#include "core/trainer.hpp"
#include "fl/scheme.hpp"

namespace hadfl::obs {
class MetricsRegistry;
}

namespace hadfl::core {

/// One ring collective, decided after the ring's repair.
struct SyncPlan {
  /// Codec-encoded deltas against the members' shared reference; false =
  /// the exact dense round, which realigns every member.
  bool delta = false;
  std::int64_t base_epoch = 0;  ///< the shared reference's epoch
  std::vector<double> weights;  ///< aggregation weights, in ring order
};

/// A group's non-blocking broadcast to its unselected candidates.
struct BroadcastPlan {
  sim::DeviceId source = 0;  ///< the ring member that pushes
  /// Receivers holding a delta round's base reference: they take the
  /// codec-encoded fold.
  std::vector<sim::DeviceId> aligned;
  /// Everyone else: the exact dense aggregate, which realigns them.
  std::vector<sim::DeviceId> stale;
};

/// A round's inter-group exchange (§III-A): the leaders' ring and the
/// group each leader speaks for. A group with no live member has no
/// leader, so `devices[i]` leads `groups()[group[i]]`, not `groups()[i]`.
struct InterGroupLeaders {
  std::vector<sim::DeviceId> devices;
  std::vector<std::size_t> group;
  bool empty() const { return devices.empty(); }
};

class RoundPlanner {
 public:
  /// Sync attempts per group and round (§III-D repair + retry).
  static constexpr int kMaxSyncAttempts = 4;
  /// Rounds in a row without one executed step that end the run.
  static constexpr int kMaxIdleRounds = 3;

  /// `reference` (the evaluation model) and `iters_per_epoch` must outlive
  /// the planner; `rng` continues after the initial dispatch. `threads`
  /// bounds the O(K) forecast sweeps (bit-identical at any value),
  /// `max_rounds` caps the run (0 = none) and `extras_cap` the per-device
  /// entries kept in the version and epoch-time series.
  RoundPlanner(const fl::SchemeContext& ctx, const HadflConfig& config,
               nn::Sequential& reference,
               const std::vector<std::size_t>& iters_per_epoch, Rng rng,
               std::size_t threads = 1, std::size_t max_rounds = 0,
               std::size_t extras_cap =
                   std::numeric_limits<std::size_t>::max());

  const DeviceGroups& groups() const { return groups_; }
  const SelectionPolicy& policy() const { return *policy_; }
  int warmup_epochs() const { return warmup_epochs_; }
  /// One dense state exchange, and one codec-encoded delta exchange under
  /// this round's plan, on the wire.
  std::size_t wire_bytes() const { return wire_bytes_; }
  std::size_t delta_wire_bytes() const;

  // ---- observations ----

  /// Device d trained `executed` steps at mean loss `loss`: its warm-up
  /// before record_start(), this round's burst after it.
  void observe_training(sim::DeviceId d, std::size_t executed, double loss) {
    trained_.push_back(Trained{d, executed, loss});
  }
  /// Device d holds the reference of sync epoch `epoch` (< 0: unknown).
  void observe_ref_epoch(sim::DeviceId d, std::int64_t epoch) {
    if (d < ref_epoch_.size()) ref_epoch_[d] = epoch;
  }
  void observe_ref_epochs(const std::vector<sim::DeviceId>& ids,
                          std::int64_t epoch) {
    if (ref_epoch_.empty()) return;  // untracked: skip the O(ids) walk
    for (const sim::DeviceId id : ids) ref_epoch_[id] = epoch;
  }
  void observe_repairs(std::size_t repairs) { extras_.ring_repairs += repairs; }
  /// A device was fenced and never reports again.
  void observe_death() { --live_; }

  // ---- negotiation (§III-B, §III-C) ----

  /// The strategy from the warm-up epoch times; in adaptive mode also the
  /// controller, seeded from it (decision counters to `metrics`).
  void negotiate(std::vector<sim::SimTime> epoch_times,
                 obs::MetricsRegistry* metrics = nullptr);
  /// The first point: evaluates `state`; its train loss is the mean
  /// warm-up loss of the devices that reported one.
  void record_start(const std::vector<float>& state, sim::SimTime time) {
    record_point(state, time, /*by_steps=*/false);
  }

  // ---- one round ----

  /// Opens the next round; false once the epoch budget is spent,
  /// `max_rounds` ran, kMaxIdleRounds rounds in a row executed nothing, or
  /// every device is dead.
  bool begin_round();
  std::size_t round() const { return round_; }
  /// The controller's plan in adaptive mode, else the static one (equal
  /// to the controller's first plans).
  const ctrl::RoundPlan& plan() const { return *plan_; }
  sim::SimTime window() const { return strategy_.round_window; }
  bool adaptive() const { return controller_ != nullptr; }

  /// Deadline truncation: device d's budget cut to what fits the window
  /// at `step_time` seconds per step.
  std::size_t steps_in_window(sim::DeviceId d, double step_time) const {
    const auto fit = static_cast<std::size_t>(std::max(
        0.0, std::floor(strategy_.round_window / step_time + 1e-9)));
    return std::min(plan_->local_steps[d], fit);
  }
  /// Controller input (adaptive mode only).
  void observe_step_time(sim::DeviceId d, double seconds_per_step) {
    controller_->observe_step_time(d, seconds_per_step);
  }
  /// The round's executed steps over the whole fleet.
  void observe_steps(double executed_total);

  /// Eq. 7: this round's forecast from the rounds before; then records
  /// `versions` (after training) as this round's observation.
  const std::vector<double>& forecast(const std::vector<double>& versions);
  const std::vector<double>& predicted() const { return predicted_; }

  /// Eq. 8 selection over a group's candidates (one policy call) and the
  /// random directed ring over the picks.
  std::vector<sim::DeviceId> select_ring(
      const std::vector<sim::DeviceId>& candidates);
  /// Sampled-cohort mode: the seed of a group's counter-keyed draw, and
  /// the ring over the cohort it selected.
  std::uint64_t draw_seed() { return rng_(); }
  std::vector<sim::DeviceId> ring_over(std::vector<sim::DeviceId> members) {
    return StrategyGenerator::make_ring(std::move(members), rng_);
  }

  SyncPlan plan_sync(const std::vector<sim::DeviceId>& ring) const;
  /// The ring synced: records it as selected and returns the version its
  /// members commit (the mean of their `versions`).
  double commit_sync(const std::vector<sim::DeviceId>& ring,
                     const std::vector<double>& versions);
  /// Controller input for a committed sync.
  void observe_sync(const std::vector<sim::DeviceId>& ring, double latency_s);
  /// `receivers` (non-empty) are a group's candidates outside the ring.
  BroadcastPlan plan_broadcast(const std::vector<sim::DeviceId>& ring,
                               std::vector<sim::DeviceId> receivers,
                               const SyncPlan& sync);
  void merge_group_aggregate(std::vector<float> aggregate);

  /// This round's inter-group leaders — each group's first member for
  /// which `alive` holds — or none: no exchange this round, or < 2.
  InterGroupLeaders inter_group_leaders(
      const std::function<bool(sim::DeviceId)>& alive) const;
  void merge_inter_group(std::vector<float> global) {
    eval_ = std::move(global);
  }

  /// Closes the round: evaluates the merged aggregates — or, when no group
  /// synced, `reachable_mean()`; with nothing to evaluate (every device
  /// dead) it records no point — and updates controller and backups.
  void end_round(sim::SimTime time,
                 const std::function<std::vector<float>()>& reachable_mean);

  /// Hands over points, sync rounds, extras and the final state (the
  /// latest aggregate, else `fallback_state()`).
  void finish(fl::SchemeResult& scheme, HadflExtras& extras,
              const std::function<std::vector<float>()>& fallback_state);

 private:
  struct Trained {
    sim::DeviceId device;
    std::size_t executed;
    double loss;
  };
  void record_point(const std::vector<float>& state, sim::SimTime time,
                    bool by_steps);

  const fl::SchemeContext& ctx_;
  const HadflConfig& config_;
  nn::Sequential& reference_;
  const std::vector<std::size_t>& iters_per_epoch_;
  Rng rng_;
  const std::size_t k_;
  const std::size_t threads_;
  const std::size_t max_rounds_;
  const std::size_t extras_cap_;
  const int warmup_epochs_;
  std::size_t state_floats_ = 0;
  std::size_t wire_bytes_ = 0;

  std::shared_ptr<SelectionPolicy> policy_;
  DeviceGroups groups_;
  TrainingStrategy strategy_;
  RuntimeSupervisor supervisor_;
  ModelManager model_manager_;
  std::unique_ptr<ctrl::AdaptiveController> controller_;  ///< null if off
  ctrl::RoundPlan static_plan_;
  const ctrl::RoundPlan* plan_ = &static_plan_;

  /// Per-device reference epochs, sized only when a codec or the
  /// controller can ask for a delta round.
  std::vector<std::int64_t> ref_epoch_;
  std::vector<Trained> trained_;
  std::vector<double> fallback_;     ///< Eq. 6 expectation, reused
  std::vector<double> predicted_;
  std::vector<double> last_actual_;  ///< kLastValue only
  std::vector<sim::DeviceId> selected_;
  std::vector<float> eval_;

  std::size_t round_ = 0;
  std::size_t live_ = 0;
  int idle_rounds_ = 0;
  double epochs_done_ = 0.0;
  std::size_t sync_rounds_ = 0;
  fl::MetricsRecorder metrics_;
  HadflExtras extras_;
};

}  // namespace hadfl::core
