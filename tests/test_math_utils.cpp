#include "common/math_utils.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace hadfl {
namespace {

TEST(Quantile, MedianOfOddSet) {
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.5), 2.0);
}

TEST(Quantile, InterpolatesBetweenValues) {
  // numpy.quantile([1, 2, 3, 4], 0.75) == 3.25
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.75), 3.25);
}

TEST(Quantile, EndpointsAreMinMax) {
  const std::vector<double> v{5, 9, 1, 7};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Quantile, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile({42.0}, 0.3), 42.0);
}

TEST(Quantile, RejectsEmptyAndBadQ) {
  EXPECT_THROW(quantile({}, 0.5), InvalidArgument);
  EXPECT_THROW(quantile({1.0}, -0.1), InvalidArgument);
  EXPECT_THROW(quantile({1.0}, 1.1), InvalidArgument);
}

TEST(Quantiles, MatchesRepeatedQuantileCalls) {
  const std::vector<double> v{5, 9, 1, 7, 3, 8};
  const std::vector<double> qs{0.0, 0.25, 0.5, 0.75, 1.0};
  const std::vector<double> got = quantiles(v, {0.0, 0.25, 0.5, 0.75, 1.0});
  ASSERT_EQ(got.size(), qs.size());
  // One sort must give exactly what per-call sorting gives, bit for bit.
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(got[i], quantile(v, qs[i])) << "q = " << qs[i];
  }
}

TEST(Quantiles, AcceptsUnsortedInputAndEmptyQs) {
  const std::vector<double> got = quantiles({4, 2, 3, 1}, {0.75, 0.25});
  ASSERT_EQ(got.size(), 2u);
  // Order of the requested quantiles is preserved, not sorted.
  EXPECT_DOUBLE_EQ(got[0], 3.25);
  EXPECT_DOUBLE_EQ(got[1], 1.75);
  EXPECT_TRUE(quantiles({1.0, 2.0}, std::initializer_list<double>{}).empty());
}

TEST(Quantiles, RejectsEmptyValuesAndBadQ) {
  EXPECT_THROW(quantiles({}, {0.5}), InvalidArgument);
  EXPECT_THROW(quantiles({1.0}, {-0.1}), InvalidArgument);
  EXPECT_THROW(quantiles({1.0}, {0.5, 1.1}), InvalidArgument);
}

TEST(MeanStddev, KnownValues) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138089935299395, 1e-12);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(7, 13), 1);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(5, 0), 5);
}

TEST(Lcm, Basics) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(3, 3), 3);
  EXPECT_EQ(lcm_all({2, 3, 4}), 12);
  EXPECT_EQ(lcm_all({1, 1, 1}), 1);
}

TEST(Lcm, RejectsNonPositive) {
  EXPECT_THROW(lcm64(0, 3), InvalidArgument);
  EXPECT_THROW(lcm_all({}), InvalidArgument);
  EXPECT_THROW(lcm_all({2, -1}), InvalidArgument);
}

TEST(Hyperperiod, IntegerRatioDurations) {
  // Epoch times 1s and 3s -> hyperperiod 3s (paper [3,3,1,1] shape).
  EXPECT_NEAR(hyperperiod({1.0, 1.0, 3.0, 3.0}, 0.001), 3.0, 1e-9);
}

TEST(Hyperperiod, MixedRatios) {
  // 2s and 3s -> 6s.
  EXPECT_NEAR(hyperperiod({2.0, 3.0}, 0.001), 6.0, 1e-9);
}

TEST(Hyperperiod, QuantizesToResolution) {
  // 0.0014 at resolution 0.001 rounds to 1 tick.
  EXPECT_NEAR(hyperperiod({0.0014}, 0.001), 0.001, 1e-12);
}

TEST(Hyperperiod, RejectsBadInput) {
  EXPECT_THROW(hyperperiod({}, 0.001), InvalidArgument);
  EXPECT_THROW(hyperperiod({1.0}, 0.0), InvalidArgument);
  EXPECT_THROW(hyperperiod({-1.0}, 0.001), InvalidArgument);
}

TEST(NormalPdf, PeakAtMu) {
  EXPECT_NEAR(standard_normal_pdf(2.0, 2.0), 1.0 / std::sqrt(2.0 * M_PI),
              1e-12);
}

TEST(NormalPdf, SymmetricAroundMu) {
  EXPECT_DOUBLE_EQ(standard_normal_pdf(1.0, 3.0), standard_normal_pdf(5.0, 3.0));
}

TEST(NormalPdf, DecaysAwayFromMu) {
  EXPECT_GT(standard_normal_pdf(3.0, 3.0), standard_normal_pdf(4.0, 3.0));
  EXPECT_GT(standard_normal_pdf(4.0, 3.0), standard_normal_pdf(6.0, 3.0));
}

}  // namespace
}  // namespace hadfl
