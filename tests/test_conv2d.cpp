#include "nn/conv2d.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/error.hpp"
#include "nn/initializers.hpp"
#include "tensor/kernel_config.hpp"
#include "test_util.hpp"

namespace hadfl::nn {
namespace {

/// Direct convolution reference (cross-correlation, like the layer).
Tensor naive_conv(const Tensor& x, const Tensor& w, std::size_t in_c,
                  std::size_t out_c, std::size_t k, std::size_t stride,
                  std::size_t pad) {
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t wd = x.dim(3);
  const std::size_t oh = (h + 2 * pad - k) / stride + 1;
  const std::size_t ow = (wd + 2 * pad - k) / stride + 1;
  Tensor out({n, out_c, oh, ow});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t xx = 0; xx < ow; ++xx) {
          double acc = 0.0;
          for (std::size_t ic = 0; ic < in_c; ++ic) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t sy =
                    static_cast<std::ptrdiff_t>(y * stride + ky) -
                    static_cast<std::ptrdiff_t>(pad);
                const std::ptrdiff_t sx =
                    static_cast<std::ptrdiff_t>(xx * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (sy < 0 || sx < 0 ||
                    sy >= static_cast<std::ptrdiff_t>(h) ||
                    sx >= static_cast<std::ptrdiff_t>(wd)) {
                  continue;
                }
                acc += x.at4(s, ic, static_cast<std::size_t>(sy),
                             static_cast<std::size_t>(sx)) *
                       w.at2(oc, (ic * k + ky) * k + kx);
              }
            }
          }
          out.at4(s, oc, y, xx) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

TEST(Conv2d, ForwardMatchesNaiveNoPad) {
  Conv2d layer(2, 3, 3, 1, 0, /*use_bias=*/false);
  Rng rng(1);
  he_normal(layer.weight(), 18, rng);
  Tensor x = testutil::random_tensor({2, 2, 5, 5}, 9);
  Tensor y = layer.forward(x, true);
  Tensor ref = naive_conv(x, layer.weight().value, 2, 3, 3, 1, 0);
  EXPECT_EQ(y.shape(), ref.shape());
  EXPECT_TRUE(y.allclose(ref, 1e-4f));
}

TEST(Conv2d, ForwardMatchesNaivePaddedStrided) {
  Conv2d layer(3, 4, 3, 2, 1, /*use_bias=*/false);
  Rng rng(2);
  he_normal(layer.weight(), 27, rng);
  Tensor x = testutil::random_tensor({1, 3, 8, 8}, 10);
  Tensor y = layer.forward(x, true);
  Tensor ref = naive_conv(x, layer.weight().value, 3, 4, 3, 2, 1);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 4, 4}));
  EXPECT_TRUE(y.allclose(ref, 1e-4f));
}

TEST(Conv2d, BiasAddsPerChannel) {
  Conv2d layer(1, 2, 1, 1, 0, /*use_bias=*/true);
  layer.weight().value.fill(0.0f);
  auto params = layer.parameters();
  ASSERT_EQ(params.size(), 2u);
  params[1]->value = Tensor({2}, std::vector<float>{1.5f, -2.0f});
  Tensor x({1, 1, 2, 2}, 7.0f);
  Tensor y = layer.forward(x, true);
  EXPECT_EQ(y.at4(0, 0, 1, 1), 1.5f);
  EXPECT_EQ(y.at4(0, 1, 0, 0), -2.0f);
}

TEST(Conv2d, InputGradientMatchesNumeric) {
  Conv2d layer(2, 3, 3, 1, 1, /*use_bias=*/true);
  Rng rng(3);
  he_normal(layer.weight(), 18, rng);
  Tensor x = testutil::random_tensor({1, 2, 4, 4}, 21, 0.5f);
  EXPECT_LT(testutil::check_input_gradient(layer, x), 3e-2);
}

TEST(Conv2d, ParameterGradientsMatchNumeric) {
  Conv2d layer(2, 2, 3, 2, 1, /*use_bias=*/true);
  Rng rng(4);
  he_normal(layer.weight(), 18, rng);
  Tensor x = testutil::random_tensor({2, 2, 5, 5}, 22, 0.5f);
  EXPECT_LT(testutil::check_parameter_gradients(layer, x), 3e-2);
}

TEST(Conv2d, BackwardBeforeForwardThrows) {
  Conv2d layer(1, 1, 3, 1, 1);
  EXPECT_THROW(layer.backward(Tensor({1, 1, 4, 4})), Error);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Conv2d layer(3, 4, 3, 1, 1);
  EXPECT_THROW(layer.forward(Tensor({1, 2, 8, 8}), true), ShapeError);
}

/// Output, input gradient and parameter gradients of one forward and
/// backward pass run from the top level, where the lowering fans out over
/// the samples on pool threads, each with its own bordered plane.
struct StepResult {
  Tensor out;
  Tensor grad_in;
  Tensor grad_weight;
  Tensor grad_bias;
};

StepResult conv_step_with_threads(std::size_t threads, std::size_t in_c,
                                  std::size_t out_c, std::size_t stride,
                                  std::size_t pad, const Shape& input_shape) {
  const ops::KernelConfig saved = ops::kernel_config();
  ops::KernelConfig cfg = saved;
  cfg.max_threads = threads;
  ops::set_kernel_config(cfg);
  Conv2d layer(in_c, out_c, 3, stride, pad, /*use_bias=*/true);
  Rng rng(8);
  he_normal(layer.weight(), in_c * 9, rng);
  const Tensor x = testutil::random_tensor(input_shape, 31);
  StepResult r;
  r.out = layer.forward(x, true);
  const Tensor grad_out = testutil::random_tensor(r.out.shape(), 32);
  for (Parameter* p : layer.parameters()) p->zero_grad();
  r.grad_in = layer.backward(grad_out);
  r.grad_weight = layer.parameters()[0]->grad;
  r.grad_bias = layer.parameters()[1]->grad;
  ops::set_kernel_config(saved);
  return r;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(Conv2d, TopLevelStepBitIdenticalAtOneAndFourThreads) {
  // The first layer takes a fixed-width row loop (output width 4, stride
  // 2), the second the runtime loop (output width 7).
  struct Case {
    std::size_t in_c, out_c, stride, pad;
    Shape input;
  };
  const Case cases[] = {{3, 5, 2, 1, {19, 3, 9, 7}},
                        {2, 4, 1, 2, {19, 2, 6, 5}}};
  for (const Case& c : cases) {
    const StepResult one =
        conv_step_with_threads(1, c.in_c, c.out_c, c.stride, c.pad, c.input);
    const StepResult four =
        conv_step_with_threads(4, c.in_c, c.out_c, c.stride, c.pad, c.input);
    EXPECT_TRUE(same_bits(one.out, four.out)) << shape_to_string(c.input);
    EXPECT_TRUE(same_bits(one.grad_in, four.grad_in))
        << shape_to_string(c.input);
    EXPECT_TRUE(same_bits(one.grad_weight, four.grad_weight))
        << shape_to_string(c.input);
    EXPECT_TRUE(same_bits(one.grad_bias, four.grad_bias))
        << shape_to_string(c.input);
  }
}

TEST(Conv2d, NoBiasExposesOnlyWeight) {
  Conv2d layer(2, 2, 3, 1, 1, /*use_bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1u);
  EXPECT_EQ(layer.weight().fan_in, 18u);
}

}  // namespace
}  // namespace hadfl::nn
