#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "test_util.hpp"

namespace hadfl {
namespace {

/// Reference triple-loop GEMM.
void naive_gemm(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

TEST(Gemm, MatchesNaiveReference) {
  const std::size_t m = 5, k = 7, n = 4;
  Tensor a = testutil::random_tensor({m, k}, 1);
  Tensor b = testutil::random_tensor({k, n}, 2);
  std::vector<float> expect(m * n);
  naive_gemm(a.data(), b.data(), expect.data(), m, k, n);
  Tensor c({m, n});
  ops::gemm(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], expect[i], 1e-4f);
}

TEST(Gemm, AlphaBetaScaling) {
  const std::size_t m = 2, k = 3, n = 2;
  Tensor a = testutil::random_tensor({m, k}, 3);
  Tensor b = testutil::random_tensor({k, n}, 4);
  std::vector<float> base(m * n);
  naive_gemm(a.data(), b.data(), base.data(), m, k, n);
  Tensor c({m, n}, 1.0f);
  ops::gemm(a.data(), b.data(), c.data(), m, k, n, 2.0f, 0.5f);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c[i], 2.0f * base[i] + 0.5f, 1e-4f);
  }
}

TEST(GemmAt, TransposedAMatchesReference) {
  const std::size_t m = 4, k = 6, n = 3;
  // A stored as (k, m); logical A^T is (m, k).
  Tensor a_kt = testutil::random_tensor({k, m}, 5);
  Tensor b = testutil::random_tensor({k, n}, 6);
  // Build logical A (m, k).
  Tensor a({m, k});
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t i = 0; i < m; ++i) a.at2(i, p) = a_kt.at2(p, i);
  }
  std::vector<float> expect(m * n);
  naive_gemm(a.data(), b.data(), expect.data(), m, k, n);
  Tensor c({m, n});
  ops::gemm_at(a_kt.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], expect[i], 1e-4f);
}

TEST(GemmBt, TransposedBMatchesReference) {
  const std::size_t m = 3, k = 5, n = 4;
  Tensor a = testutil::random_tensor({m, k}, 7);
  Tensor b_nk = testutil::random_tensor({n, k}, 8);
  Tensor b({k, n});
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < k; ++p) b.at2(p, j) = b_nk.at2(j, p);
  }
  std::vector<float> expect(m * n);
  naive_gemm(a.data(), b.data(), expect.data(), m, k, n);
  Tensor c({m, n});
  ops::gemm_bt(a.data(), b_nk.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], expect[i], 1e-4f);
}

TEST(Reductions, Sum) {
  std::vector<float> x{1, 2, 3};
  EXPECT_DOUBLE_EQ(ops::sum(x), 6.0);
}

TEST(Elementwise, Add) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  EXPECT_TRUE(ops::add(a, b).allclose(Tensor({3}, std::vector<float>{5, 7, 9})));
  EXPECT_THROW(ops::add(a, Tensor({2})), ShapeError);
}

// Property sweep: gemm correctness across shapes including degenerate dims.
class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [mi, ki, ni] = GetParam();
  const std::size_t m = mi, k = ki, n = ni;
  Tensor a = testutil::random_tensor({m, k}, m * 100 + k);
  Tensor b = testutil::random_tensor({k, n}, k * 100 + n);
  std::vector<float> expect(m * n);
  naive_gemm(a.data(), b.data(), expect.data(), m, k, n);
  Tensor c({m, n});
  ops::gemm(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], expect[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 1),
                      std::make_tuple(3, 1, 5), std::make_tuple(16, 16, 16),
                      std::make_tuple(2, 31, 9), std::make_tuple(17, 5, 3)));

}  // namespace
}  // namespace hadfl
