// Outside-in timers for the benchmark's traced pass.
//
// The benchmark changes nothing under src/; it times each layer through
// seams the library already exposes:
//  * LayerClock::wrap decorates fl::SchemeContext::make_model. Every
//    top-level layer of each built model is wrapped in a timer. The outer
//    Sequential re-packs the parameters (Tensor::rebind copies them), so
//    the arithmetic, and with it the final state hash, is unchanged.
//  * TimedPolicy decorates core::HadflConfig::policy. Its calls mark the
//    round boundaries of the sim, rt and net round loops.
// Timestamps come from steady_clock, which is CLOCK_MONOTONIC on Linux, so
// steps recorded in the net backend's node processes line up with the
// coordinator's own events.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "core/selection.hpp"
#include "fl/scheme.hpp"
#include "obs/span.hpp"

namespace hadfl::bench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

/// Top-level layer families, named after the nn module's layer types.
enum LayerKind : std::size_t {
  kResidual,
  kConv,
  kDense,
  kNormAct,
  kOtherLayer,
  kLayerKinds
};

const char* layer_kind_name(std::size_t kind);

/// What one model instance did. Single writer (the thread that trains or
/// evaluates the model at the time); read only after the run has joined
/// every thread that touched it.
struct ModelLog {
  std::array<double, kLayerKinds> fwd_s{};  ///< training forwards
  std::array<double, kLayerKinds> bwd_s{};
  std::uint64_t calls = 0;       ///< top-level layer calls, all modes
  std::vector<Interval> steps;   ///< training forward → last backward
  std::vector<Interval> evals;   ///< one evaluation forward pass each
  std::int64_t open_ns = 0;      ///< start of the step or pass in flight

  /// Plain-text round trip, used to ship node-process logs home.
  void write(std::ostream& out) const;
  static bool read(std::istream& in, ModelLog& log);
};

/// Owns the logs of every model built through its wrapped factories.
class LayerClock {
 public:
  LayerClock() = default;
  LayerClock(const LayerClock&) = delete;
  LayerClock& operator=(const LayerClock&) = delete;

  /// A factory building `inner`'s model with a timer around each of its
  /// top-level layers. The returned factory refers to this clock, which
  /// must outlive every model it builds.
  fl::ModelFactory wrap(fl::ModelFactory inner);

  /// Adds a log recorded elsewhere (a net node process).
  void adopt(ModelLog log);

  /// Every log so far. Call only once the models are idle.
  std::vector<const ModelLog*> logs() const;

 private:
  ModelLog& new_log();

  mutable std::mutex mu_;
  std::deque<ModelLog> logs_;  ///< deque: addresses stay stable
};

/// Forwards to `inner` and records each call's interval on the caller's
/// thread (the coordinator's, in every backend).
class TimedPolicy final : public core::SelectionPolicy {
 public:
  TimedPolicy(std::shared_ptr<core::SelectionPolicy> inner,
              std::vector<Interval>& calls);

  std::vector<std::size_t> select(const core::SelectionContext& ctx,
                                  Rng& rng) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<core::SelectionPolicy> inner_;
  std::vector<Interval>& calls_;
};

/// Layer and phase totals of one traced run. Times in seconds; the nn
/// totals are thread-seconds summed over every model.
struct RunProfile {
  std::array<double, kLayerKinds> fwd_s{};
  std::array<double, kLayerKinds> bwd_s{};
  double step_other_s = 0.0;    ///< inside training bursts, outside layers
  std::uint64_t layer_calls = 0;
  double train_critical_s = 0.0;  ///< Σ rounds: time training blocked the loop
  double barrier_idle_share = 0.0;
  double select_s = 0.0;
  double sync_s = 0.0;          ///< selection end → next evaluation
  double eval_s = 0.0;          ///< evaluation passes, wall time on the loop
  std::vector<obs::Span> spans;  ///< bursts and loop phases, for a trace
};

/// Sim, rt and net: the policy calls and the evaluation passes bound each
/// round; a round's critical path is its slowest device burst.
RunProfile profile_round_loop(const std::vector<const ModelLog*>& logs,
                              const std::vector<Interval>& selects,
                              std::int64_t run_start_ns);

/// Fleet engine: its own `select`/`train`/`fold` phase spans bound each
/// round; the train phase runs `lanes` trainer slots in parallel, so its
/// span is the critical path.
RunProfile profile_fleet(const std::vector<const ModelLog*>& logs,
                         const std::vector<obs::Span>& phases,
                         std::int64_t recorder_epoch_ns, std::size_t lanes,
                         std::int64_t run_start_ns);

}  // namespace hadfl::bench
