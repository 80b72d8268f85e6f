#include "nn/activations.hpp"

#include "common/error.hpp"
#include "common/simd.hpp"

namespace hadfl::nn {

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  cached_shape_ = input.shape();
  const std::size_t n = input.numel();
  mask_.resize(n);
  Tensor out(input.shape());
  const float* HADFL_RESTRICT x = input.data();
  float* HADFL_RESTRICT y = out.data();
  std::uint8_t* HADFL_RESTRICT m = mask_.data();
  HADFL_PRAGMA_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = x[i] > 0.0f;
    m[i] = positive;
    y[i] = positive ? x[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  HADFL_CHECK_SHAPE(grad_output.shape() == cached_shape_,
                    "ReLU backward shape mismatch");
  Tensor grad_input(grad_output.shape());
  const float* HADFL_RESTRICT g = grad_output.data();
  float* HADFL_RESTRICT gi = grad_input.data();
  const std::uint8_t* HADFL_RESTRICT m = mask_.data();
  HADFL_PRAGMA_SIMD
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    gi[i] = m[i] ? g[i] : 0.0f;
  }
  return grad_input;
}

}  // namespace hadfl::nn
