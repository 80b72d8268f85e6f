#include "nn/param_utils.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/initializers.hpp"
#include "nn/sequential.hpp"
#include "test_util.hpp"

namespace hadfl::nn {
namespace {

std::unique_ptr<Sequential> make_net() {
  auto seq = std::make_unique<Sequential>();
  seq->emplace<Dense>(3, 4);
  seq->emplace<Dense>(4, 2);
  return seq;
}

TEST(ParamUtils, StateSizeCountsEverything) {
  auto net = make_net();
  Sequential& seq = *net;
  EXPECT_EQ(state_size(seq), 3u * 4 + 4 + 4 * 2 + 2);
  EXPECT_EQ(state_bytes(seq), state_size(seq) * sizeof(float));
}

TEST(ParamUtils, GradientSizeSkipsBuffers) {
  Sequential seq;
  seq.emplace<BatchNorm2d>(4);
  // gamma + beta trainable (8), running stats not (8).
  EXPECT_EQ(state_size(seq), 16u);
  EXPECT_EQ(gradient_size(seq), 8u);
}

TEST(ParamUtils, LoadStateIntoPackedModel) {
  auto net_a = make_net();
  auto net_b = make_net();
  Rng rng(1);
  initialize_model(*net_a, rng);
  net_a->pack();
  net_b->pack();
  load_state(*net_b, state_view(*net_a));
  const std::span<const float> va = state_view(*net_a);
  const std::span<const float> vb = state_view(*net_b);
  EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin(), vb.end()));
}

TEST(ParamUtils, LoadStateUnpackedFallback) {
  auto net_a = make_net();
  auto net_b = make_net();
  Rng rng(1);
  initialize_model(*net_a, rng);
  net_a->pack();  // packed source, unpacked destination
  load_state(*net_b, state_view(*net_a));
  const std::span<const float> src = state_view(*net_a);
  std::size_t offset = 0;
  for (const Parameter* p : net_b->parameters()) {
    for (std::size_t i = 0; i < p->numel(); ++i) {
      EXPECT_EQ(p->value[i], src[offset + i]);
    }
    offset += p->numel();
  }
  EXPECT_EQ(offset, src.size());
}

TEST(ParamUtils, LoadStateRejectsWrongSize) {
  auto net = make_net();
  Sequential& seq = *net;
  std::vector<float> wrong(state_size(seq) + 1);
  EXPECT_THROW(load_state(seq, wrong), ShapeError);
}

TEST(ParamUtils, WeightedAverageExact) {
  const std::vector<std::vector<float>> states{{1, 2}, {3, 6}};
  const std::vector<float> avg = weighted_average(states, {0.25, 0.75});
  EXPECT_NEAR(avg[0], 2.5f, 1e-6);
  EXPECT_NEAR(avg[1], 5.0f, 1e-6);
}

TEST(ParamUtils, AverageIsUniform) {
  const std::vector<std::vector<float>> states{{2, 4}, {4, 8}, {6, 0}};
  const std::vector<float> avg = average(states);
  EXPECT_NEAR(avg[0], 4.0f, 1e-6);
  EXPECT_NEAR(avg[1], 4.0f, 1e-6);
}

TEST(ParamUtils, WeightedAverageValidation) {
  EXPECT_THROW(weighted_average({}, {}), InvalidArgument);
  EXPECT_THROW(weighted_average({{1.0f}}, {0.5, 0.5}), InvalidArgument);
  EXPECT_THROW(weighted_average({{1.0f}, {1.0f, 2.0f}}, {0.5, 0.5}),
               ShapeError);
}

TEST(ParamUtils, MixIntoBlends) {
  std::vector<float> dst{0.0f, 10.0f};
  const std::vector<float> src{4.0f, 20.0f};
  mix_into(dst, src, 0.25);
  EXPECT_NEAR(dst[0], 1.0f, 1e-6);
  EXPECT_NEAR(dst[1], 12.5f, 1e-6);
}

TEST(ParamUtils, MixIntoEdgeWeights) {
  std::vector<float> dst{1.0f};
  mix_into(dst, std::vector<float>{9.0f}, 0.0);
  EXPECT_EQ(dst[0], 1.0f);
  mix_into(dst, std::vector<float>{9.0f}, 1.0);
  EXPECT_EQ(dst[0], 9.0f);
  EXPECT_THROW(mix_into(dst, std::vector<float>{9.0f}, 1.5), InvalidArgument);
  std::vector<float> short_dst{1.0f, 2.0f};
  EXPECT_THROW(mix_into(short_dst, std::vector<float>{9.0f}, 0.5), ShapeError);
}

TEST(ParamUtils, AverageOfIdenticalStatesIsIdentity) {
  auto net = make_net();
  Sequential& seq = *net;
  Rng rng(2);
  initialize_model(seq, rng);
  seq.pack();
  const std::span<const float> view = state_view(seq);
  const std::vector<float> s(view.begin(), view.end());
  const std::vector<float> avg = average({s, s, s});
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_NEAR(avg[i], s[i], 1e-6);
}

TEST(ParamUtils, WeightedAverageSingleState) {
  const std::vector<std::vector<float>> states{{1.5f, -2.0f}};
  const std::vector<float> avg = weighted_average(states, {1.0});
  EXPECT_EQ(avg, states[0]);
}

TEST(ParamUtils, WeightedAverageRejectsZeroWeightSum) {
  const std::vector<std::vector<float>> states{{1.0f}, {2.0f}};
  EXPECT_THROW(weighted_average(states, {0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(weighted_average(states, {0.5, -0.5}), InvalidArgument);
}

// ---- Arena pack + views --------------------------------------------------

TEST(Arena, PackMakesStateAndGradContiguous) {
  auto net = make_net();
  Sequential& seq = *net;
  Rng rng(3);
  initialize_model(seq, rng);
  std::vector<float> before;
  for (const Parameter* p : seq.parameters()) {
    before.insert(before.end(), p->value.data(), p->value.data() + p->numel());
  }
  seq.pack();
  ASSERT_TRUE(seq.packed());
  const std::span<float> view = seq.state_view();
  ASSERT_EQ(view.size(), state_size(seq));
  EXPECT_EQ(seq.grad_view().size(), gradient_size(seq));
  // Packing must not change any value, and the view must alias every
  // parameter tensor in parameters() order.
  EXPECT_TRUE(std::equal(view.begin(), view.end(), before.begin(),
                         before.end()));
  std::size_t offset = 0;
  for (const Parameter* p : seq.parameters()) {
    EXPECT_EQ(p->value.data(), view.data() + offset);
    EXPECT_TRUE(p->value.is_view());
    offset += p->numel();
  }
  EXPECT_EQ(offset, view.size());
}

TEST(Arena, PackIsIdempotentAndAddAfterPackThrows) {
  auto net = make_net();
  Sequential& seq = *net;
  seq.pack();
  const float* data = seq.state_view().data();
  seq.pack();  // second pack must keep the same storage
  EXPECT_EQ(seq.state_view().data(), data);
  EXPECT_THROW(seq.emplace<Dense>(2, 2), Error);
}

TEST(Arena, ViewWritesReachTheModel) {
  auto net = make_net();
  Sequential& seq = *net;
  seq.pack();
  std::span<float> view = state_view(seq);
  view[0] = 42.0f;
  EXPECT_EQ(seq.parameters().front()->value[0], 42.0f);
}

TEST(Arena, UnpackedModelHasEmptyViewsAndViewAccessorsThrow) {
  auto net = make_net();
  Sequential& seq = *net;
  EXPECT_FALSE(seq.packed());
  EXPECT_TRUE(seq.state_view().empty());
  EXPECT_THROW(state_view(seq), Error);
  EXPECT_THROW(grad_view(seq), Error);
}

// ---- StateAccumulator ----------------------------------------------------

TEST(StateAccumulator, MatchesLegacyWeightedAverage) {
  const std::vector<std::vector<float>> states{{1, 2}, {3, 6}, {5, 10}};
  const std::vector<double> weights{0.2, 0.3, 0.5};
  StateAccumulator acc;
  acc.reset(2);
  for (std::size_t k = 0; k < states.size(); ++k) {
    acc.accumulate(states[k], weights[k]);
  }
  EXPECT_EQ(acc.materialize(), weighted_average(states, weights));
  EXPECT_DOUBLE_EQ(acc.weight_sum(), 1.0);
}

TEST(StateAccumulator, ResetReusesAndRejectsMismatch) {
  StateAccumulator acc;
  acc.reset(2);
  const std::vector<float> s3{1, 2, 3};
  EXPECT_THROW(acc.accumulate(s3, 1.0), ShapeError);
  const std::vector<float> s2{1, 2};
  acc.accumulate(s2, 1.0);
  acc.reset(3);  // reset clears both the sums and the weight
  EXPECT_EQ(acc.size(), 3u);
  EXPECT_EQ(acc.weight_sum(), 0.0);
  acc.accumulate(s3, 2.0);
  EXPECT_EQ(acc.materialize(), (std::vector<float>{2, 4, 6}));
  std::vector<float> wrong(2);
  EXPECT_THROW(acc.write(wrong), ShapeError);
}

TEST(StateAccumulator, WriteRejectsZeroWeightSum) {
  StateAccumulator acc;
  acc.reset(1);
  std::vector<float> dst(1);
  EXPECT_THROW(acc.write(dst), InvalidArgument);
  const std::vector<float> s{4.0f};
  acc.accumulate(s, 0.5);
  EXPECT_NO_THROW(acc.write(dst));
  EXPECT_EQ(dst[0], 2.0f);
}

TEST(ParamUtils, MixIntoSpanOverloadBlends) {
  auto net = make_net();
  Sequential& seq = *net;
  seq.pack();
  std::span<float> view = state_view(seq);
  std::fill(view.begin(), view.end(), 0.0f);
  const std::vector<float> src(view.size(), 8.0f);
  mix_into(view, src, 0.25);
  for (float v : view) EXPECT_NEAR(v, 2.0f, 1e-6);
}

}  // namespace
}  // namespace hadfl::nn
