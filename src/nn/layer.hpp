// Layer abstraction for the from-scratch NN library.
//
// There is no autograd: every layer implements its own backward pass and
// caches whatever it needs from the preceding forward call. The training
// loop drives forward(batch) -> loss -> backward(grad) -> optimizer.step().
//
// Parameters carry their own gradient buffer. Non-trainable parameters
// (batch-norm running statistics) participate in model synchronization /
// aggregation but are skipped by optimizers.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace hadfl::nn {

/// A named tensor owned by a layer, with an associated gradient buffer.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;          ///< same shape as value; zero for non-trainable
  bool trainable = true;
  std::size_t fan_in = 0;  ///< contraction width; set by layers that want
                           ///< fan-in-scaled initialization

  Parameter(std::string n, Tensor v, bool train = true)
      : name(std::move(n)),
        value(std::move(v)),
        grad(value.shape()),
        trainable(train) {}

  std::size_t numel() const { return value.numel(); }
  void zero_grad() { grad.fill(0.0f); }
};

/// Abstract differentiable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output. `training` selects train-time behaviour
  /// (batch statistics). Implementations may cache activations
  /// needed by backward; backward must be preceded by forward.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Propagates `grad_output` (dL/d output) to dL/d input, accumulating
  /// parameter gradients along the way.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// All parameters (trainable and buffers), in a stable order.
  virtual std::vector<Parameter*> parameters() { return {}; }

  virtual std::string name() const = 0;

  // ---- Contiguous state (arena-backed models) ---------------------------
  // Models that pack their parameters into a ParameterArena expose the full
  // flat state and the trainable-gradient slice as O(1) spans. The default
  // (non-packed) implementation reports empty views; nn::load_state falls
  // back to per-parameter copies in that case.

  /// True when parameters live in a contiguous arena and the views below
  /// are valid.
  virtual bool packed() const { return false; }

  /// The model's full flat state (parameters + buffers) in parameters()
  /// order, or an empty span when not packed.
  virtual std::span<float> state_view() { return {}; }

  /// The trainable parameters' gradients, contiguous, or an empty span
  /// when not packed.
  virtual std::span<float> grad_view() { return {}; }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace hadfl::nn
