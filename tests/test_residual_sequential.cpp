#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/initializers.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "test_util.hpp"

namespace hadfl::nn {
namespace {

TEST(Residual, IdentityShortcutPreservesShape) {
  ResidualBlock block(4, 4, 1);
  EXPECT_FALSE(block.has_projection());
  Tensor x = testutil::random_tensor({2, 4, 6, 6}, 1);
  Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Residual, ProjectionWhenDownsampling) {
  ResidualBlock block(4, 8, 2);
  EXPECT_TRUE(block.has_projection());
  Tensor x = testutil::random_tensor({1, 4, 8, 8}, 2);
  Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 8, 4, 4}));
}

TEST(Residual, ProjectionWhenChannelChangeOnly) {
  ResidualBlock block(4, 6, 1);
  EXPECT_TRUE(block.has_projection());
}

TEST(Residual, OutputNonNegative) {
  ResidualBlock block(2, 2, 1);
  Rng rng(3);
  initialize_model(block, rng);
  Tensor x = testutil::random_tensor({2, 2, 4, 4}, 3);
  Tensor y = block.forward(x, true);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_GE(y[i], 0.0f);
}

TEST(Residual, ZeroWeightsPassShortcutThroughReLU) {
  // With all conv weights and BN gammas at zero, the main path is beta = 0,
  // so out = relu(x).
  ResidualBlock block(2, 2, 1);
  for (Parameter* p : block.parameters()) {
    if (p->name == "weight" || p->name == "gamma") p->value.fill(0.0f);
  }
  Tensor x({1, 2, 2, 2}, std::vector<float>{-1, 2, -3, 4, 5, -6, 7, -8});
  Tensor y = block.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  EXPECT_EQ(y[3], 4.0f);
}

TEST(Residual, BackwardBeforeForwardThrows) {
  ResidualBlock block(2, 2, 1);
  EXPECT_THROW(block.backward(Tensor({1, 2, 4, 4})), ShapeError);
}

TEST(Residual, InputGradientMatchesNumeric) {
  ResidualBlock block(2, 2, 1);
  Rng rng(5);
  initialize_model(block, rng);
  Tensor x = testutil::random_tensor({2, 2, 3, 3}, 7, 0.5f);
  EXPECT_LT(testutil::check_input_gradient(block, x, 1e-2f), 6e-2);
}

TEST(Residual, ProjectedInputGradientMatchesNumeric) {
  ResidualBlock block(2, 4, 2);
  Rng rng(6);
  initialize_model(block, rng);
  Tensor x = testutil::random_tensor({1, 2, 4, 4}, 8, 0.5f);
  EXPECT_LT(testutil::check_input_gradient(block, x, 1e-2f), 6e-2);
}

TEST(Residual, ParameterCount) {
  ResidualBlock plain(4, 4, 1);
  // conv1 w, bn1 (4), conv2 w, bn2 (4) = 2 + 8 = 10 parameters.
  EXPECT_EQ(plain.parameters().size(), 10u);
  ResidualBlock projected(4, 8, 2);
  // + proj conv w + proj bn (4) = 15.
  EXPECT_EQ(projected.parameters().size(), 15u);
}

TEST(Sequential, ForwardChainsLayers) {
  Sequential seq;
  seq.emplace<Dense>(3, 4).emplace<ReLU>().emplace<Dense>(4, 2);
  Rng rng(1);
  initialize_model(seq, rng);
  Tensor x = testutil::random_tensor({2, 3}, 1);
  Tensor y = seq.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 2}));
}

TEST(Sequential, ParametersCollectInOrder) {
  Sequential seq;
  seq.emplace<Dense>(2, 3).emplace<Dense>(3, 1);
  auto params = seq.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->numel(), 6u);  // first weight (2x3)
  EXPECT_EQ(params[2]->numel(), 3u);  // second weight (3x1)
}

TEST(Sequential, BackwardGradcheck) {
  Sequential seq;
  seq.emplace<Dense>(4, 5).emplace<ReLU>().emplace<Dense>(5, 3);
  Rng rng(2);
  initialize_model(seq, rng);
  Tensor x = testutil::random_tensor({3, 4}, 9, 0.8f);
  EXPECT_LT(testutil::check_input_gradient(seq, x), 3e-2);
  EXPECT_LT(testutil::check_parameter_gradients(seq, x), 3e-2);
}

TEST(Sequential, LayerAccessor) {
  Sequential seq;
  seq.emplace<Dense>(2, 2);
  EXPECT_EQ(seq.size(), 1u);
  EXPECT_EQ(seq.layer(0).name(), "Dense");
  EXPECT_THROW(seq.layer(1), InvalidArgument);
}

TEST(Sequential, RejectsNullLayer) {
  Sequential seq;
  EXPECT_THROW(seq.add(nullptr), InvalidArgument);
}

}  // namespace
}  // namespace hadfl::nn
