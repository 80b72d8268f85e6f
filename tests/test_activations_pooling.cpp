#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"
#include "test_util.hpp"

namespace hadfl::nn {
namespace {

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x({4}, std::vector<float>{-1.0f, 0.0f, 2.0f, -0.5f});
  Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardMasksByForwardSign) {
  ReLU relu;
  Tensor x({3}, std::vector<float>{-1.0f, 3.0f, 0.0f});
  relu.forward(x, true);
  Tensor g({3}, std::vector<float>{10.0f, 20.0f, 30.0f});
  Tensor gi = relu.backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 20.0f);
  EXPECT_EQ(gi[2], 0.0f);  // 0 is not > 0

  // Special values follow the same `x > 0` rule bit for bit: NaN and -0.0f
  // map to +0.0f and mask the gradient; +inf and denormals pass. Cycled
  // over 37 elements so both the vector body and the remainder see each.
  using Limits = std::numeric_limits<float>;
  const float special[] = {Limits::quiet_NaN(), -0.0f,
                           Limits::infinity(),  -Limits::infinity(),
                           Limits::denorm_min(), -Limits::denorm_min(),
                           1.5f,                -2.5f};
  const std::size_t n = 37;
  std::vector<float> xs(n), gs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = special[i % std::size(special)];
    gs[i] = 1.0f + static_cast<float>(i);
  }
  const Tensor y = relu.forward(Tensor({n}, xs), true);
  const Tensor gy = relu.backward(Tensor({n}, gs));
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(xs[i]);
    const bool positive = xs[i] > 0.0f;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]),
              std::bit_cast<std::uint32_t>(positive ? xs[i] : 0.0f));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(gy[i]),
              std::bit_cast<std::uint32_t>(positive ? gs[i] : 0.0f));
  }
}

TEST(ReLU, BackwardShapeChecked) {
  ReLU relu;
  relu.forward(Tensor({2, 2}), true);
  EXPECT_THROW(relu.backward(Tensor({4})), ShapeError);
}

TEST(MaxPool, ForwardPicksWindowMax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 4, 4}, std::vector<float>{1, 2, 3, 4,    //
                                            5, 6, 7, 8,    //
                                            9, 10, 11, 12, //
                                            13, 14, 15, 16});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y.at4(0, 0, 0, 0), 6.0f);
  EXPECT_EQ(y.at4(0, 0, 0, 1), 8.0f);
  EXPECT_EQ(y.at4(0, 0, 1, 0), 14.0f);
  EXPECT_EQ(y.at4(0, 0, 1, 1), 16.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 4});
  pool.forward(x, true);
  Tensor g({1, 1, 1, 1}, std::vector<float>{5.0f});
  Tensor gi = pool.backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 5.0f);  // argmax was index 1
  EXPECT_EQ(gi[2], 0.0f);
  EXPECT_EQ(gi[3], 0.0f);
}

TEST(MaxPool, StrideSmallerThanKernelOverlaps) {
  MaxPool2d pool(2, 1);
  Tensor x({1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y.at4(0, 0, 0, 0), 5.0f);
  EXPECT_EQ(y.at4(0, 0, 1, 1), 9.0f);
}

TEST(MaxPool, RejectsKernelLargerThanInput) {
  MaxPool2d pool(3);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 2, 2}), true), ShapeError);
}

TEST(GlobalAvgPool, AveragesSpatialDims) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_NEAR(y[0], 2.5f, 1e-6);
  EXPECT_NEAR(y[1], 25.0f, 1e-5);
}

TEST(GlobalAvgPool, BackwardDistributesEvenly) {
  GlobalAvgPool gap;
  Tensor x({1, 1, 2, 2}, 1.0f);
  gap.forward(x, true);
  Tensor g({1, 1}, std::vector<float>{8.0f});
  Tensor gi = gap.backward(g);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(gi[i], 2.0f);
}

TEST(Flatten, ForwardAndBackwardRoundTrip) {
  Flatten flat;
  Tensor x = testutil::random_tensor({2, 3, 4, 4}, 6);
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  Tensor gi = flat.backward(y);
  EXPECT_EQ(gi.shape(), x.shape());
  EXPECT_TRUE(gi.allclose(x));
}

TEST(Flatten, RejectsRank1) {
  Flatten flat;
  EXPECT_THROW(flat.forward(Tensor({5}), true), ShapeError);
}

TEST(MaxPool, NumericInputGradient) {
  MaxPool2d pool(2);
  // Distinct values so argmax is stable under the epsilon perturbation.
  Tensor x({1, 2, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(i % 7) + 0.01f * static_cast<float>(i);
  }
  EXPECT_LT(testutil::check_input_gradient(pool, x, 1e-4f), 1e-2);
}

}  // namespace
}  // namespace hadfl::nn
