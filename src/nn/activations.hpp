// Elementwise activations.
#pragma once

#include <cstdint>

#include "nn/layer.hpp"

namespace hadfl::nn {

/// Rectified linear unit; backward masks by the sign of the forward input
/// (`x > 0`, so NaN and -0.0f mask to zero). Backward before any forward,
/// or with a gradient shaped unlike the last input, throws ShapeError.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  // 1 where the last input was > 0; bytes rather than bits so that both
  // loops vectorize.
  std::vector<std::uint8_t> mask_;
  Shape cached_shape_;
};

}  // namespace hadfl::nn
