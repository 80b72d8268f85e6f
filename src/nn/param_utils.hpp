// Flat-vector views of a model's state — the unit of communication in every
// training scheme in this repo. Aggregation (FedAvg / gossip / all-reduce)
// operates on these flat vectors so it is model-architecture agnostic.
//
// Conventions:
//  * "state"    = all parameters including non-trainable buffers (batch-norm
//                 running statistics). Synchronizing models means exchanging
//                 state vectors.
//  * "gradient" = trainable parameters' gradients only — what the
//                 distributed-training baseline all-reduces each iteration.
//
// Arena-backed models (nn::Sequential after pack(); everything produced by
// the model zoo) hold their whole state contiguously, so the primary API is
// the zero-copy one: state_view()/grad_view() spans and StateAccumulator
// for streaming aggregation. Reading a state means iterating (or copying
// from) state_view(); writing one back means load_state(), which is a
// single bulk copy on packed models. The
// historic get_state/set_state copy shims are gone — callers that need an
// owned snapshot copy out of the view explicitly, which keeps every
// allocation visible at the call site.
#pragma once

#include <span>
#include <vector>

#include "nn/layer.hpp"

namespace hadfl::nn {

/// Total element count of the model state (params + buffers).
std::size_t state_size(Layer& model);

/// Total element count of trainable gradients.
std::size_t gradient_size(Layer& model);

/// Model size in bytes (float32 state) — the "M" of the paper's
/// communication-volume analysis.
std::size_t state_bytes(Layer& model);

// ---- Zero-copy API (packed models) --------------------------------------

/// The model's contiguous state span. Requires a packed model; O(1), no
/// copies — mutations through the span ARE mutations of the model.
std::span<float> state_view(Layer& model);

/// The model's contiguous trainable-gradient span. Requires a packed model.
std::span<float> grad_view(Layer& model);

/// Streaming weighted-sum accumulator over flat states. Replaces the
/// materialize-everything weighted_average for hot aggregation paths:
/// contributors are folded in one at a time (double-precision partial sums,
/// same accumulation order == bit-identical result) and the buffer capacity
/// is reused across rounds.
class StateAccumulator {
 public:
  /// Starts a fresh accumulation of `n`-element states. Reuses capacity.
  void reset(std::size_t n);

  /// acc += w * state. Size must match reset(). Order matters for the final
  /// float rounding: fold contributors in the same order the legacy
  /// weighted_average iterated them (slot order, not arrival order).
  void accumulate(std::span<const float> state, double w);

  /// Writes float(acc) into dst. Size must match. Requires a non-zero
  /// accumulated weight sum (an all-zero-weight aggregate is a bug).
  void write(std::span<float> dst) const;

  /// write() into a fresh vector — for callers that need ownership.
  std::vector<float> materialize() const;

  std::size_t size() const { return acc_.size(); }
  double weight_sum() const { return weight_sum_; }

 private:
  std::vector<double> acc_;
  double weight_sum_ = 0.0;
};

/// Loads a flat state vector into the model in place. Size must match
/// state_size(). Packed models take one bulk copy into the arena; unpacked
/// models (hand-built nets before pack()) fall back to per-parameter
/// copies, so deserialization works on any Layer.
void load_state(Layer& model, std::span<const float> state);

// ---- Copying API ---------------------------------------------------------

/// Copies trainable gradients into one flat vector.
std::vector<float> get_gradients(Layer& model);

/// dst = sum_i weights[i] * states[i]; all states must have equal size,
/// weights must match states in count, and the weight sum must be non-zero.
/// Materializes every contributor — prefer StateAccumulator in hot paths.
std::vector<float> weighted_average(
    const std::vector<std::vector<float>>& states,
    const std::vector<double>& weights);

/// Convenience uniform average.
std::vector<float> average(const std::vector<std::vector<float>>& states);

/// In-place mix: dst = (1 - w) * dst + w * src. Used when an unselected
/// device integrates a received aggregate with its local model (§III-D).
void mix_into(std::span<float> dst, std::span<const float> src, double w);
void mix_into(std::vector<float>& dst, std::span<const float> src, double w);

}  // namespace hadfl::nn
