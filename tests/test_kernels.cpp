// The tiled, thread-parallel kernel layer (tensor/ops.cpp +
// tensor/kernel_config.hpp): property tests against the kept naive
// reference across odd/degenerate shapes and alpha/beta combinations,
// bit-identity across thread counts (the determinism contract the sim/rt
// equivalence rests on), NaN/Inf propagation (no zero-skip fast paths),
// the strided im2col used by the batched Conv2d, and the chunk-parallel
// span kernels. Runs under the HADFL_SANITIZE=thread preset in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_utils.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace hadfl {
namespace {

/// Restores the global kernel configuration after every test so the rest
/// of the suite always sees defaults.
class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ops::kernel_config(); }
  void TearDown() override { ops::set_kernel_config(saved_); }

  /// Small blocks + no parallel threshold: even tiny shapes exercise
  /// multi-tile partitioning and the fringe paths.
  static void use_small_blocks(std::size_t threads) {
    ops::KernelConfig cfg;
    cfg.mc = 8;
    cfg.kc = 16;
    cfg.nc = 32;
    cfg.max_threads = threads;
    cfg.parallel_min_flops = 1;
    ops::set_kernel_config(cfg);
  }

 private:
  ops::KernelConfig saved_;
};

using GemmFn = void (*)(const float*, const float*, float*, std::size_t,
                        std::size_t, std::size_t, float, float);

struct Variant {
  const char* name;
  GemmFn tiled;
  GemmFn reference;
  // Storage shapes: gemm A(m,k); gemm_at A(k,m); gemm_bt B(n,k) vs B(k,n).
  bool a_transposed;
  bool b_transposed;
};

const Variant kVariants[] = {
    {"gemm", ops::gemm, ops::reference::gemm, false, false},
    {"gemm_at", ops::gemm_at, ops::reference::gemm_at, true, false},
    {"gemm_bt", ops::gemm_bt, ops::reference::gemm_bt, false, true},
};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

class TiledGemmShapes
    : public KernelTest,
      public ::testing::WithParamInterface<std::tuple<int, int, int>> {};

TEST_P(TiledGemmShapes, AllVariantsMatchReference) {
  const auto [mi, ki, ni] = GetParam();
  const std::size_t m = mi, k = ki, n = ni;
  use_small_blocks(/*threads=*/4);
  const std::vector<float> a = random_vec(m * k, 10 * m + k);
  const std::vector<float> b = random_vec(k * n, 20 * k + n);
  const float tol = 1e-4f * static_cast<float>(k ? k : 1);
  for (const Variant& v : kVariants) {
    std::vector<float> expect(m * n, 0.5f);
    std::vector<float> got(m * n, 0.5f);
    v.reference(a.data(), b.data(), expect.data(), m, k, n, 1.0f, 0.0f);
    v.tiled(a.data(), b.data(), got.data(), m, k, n, 1.0f, 0.0f);
    for (std::size_t i = 0; i < m * n; ++i) {
      ASSERT_NEAR(got[i], expect[i], tol) << v.name << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TiledGemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 97, 1),
                      std::make_tuple(5, 1, 7), std::make_tuple(6, 16, 16),
                      std::make_tuple(7, 3, 5), std::make_tuple(17, 31, 29),
                      std::make_tuple(16, 0, 16), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 131, 33),
                      std::make_tuple(3, 257, 2)));

TEST_F(KernelTest, AlphaBetaCombinations) {
  use_small_blocks(2);
  const std::size_t m = 13, k = 21, n = 18;
  const std::vector<float> a = random_vec(m * k, 1);
  const std::vector<float> b = random_vec(k * n, 2);
  const std::vector<float> c0 = random_vec(m * n, 3);
  const float combos[][2] = {{1, 0}, {2, 0.5f}, {0, 1}, {-1, 2}, {0, 0}, {1, 1}};
  for (const Variant& v : kVariants) {
    for (const auto& ab : combos) {
      std::vector<float> expect = c0;
      std::vector<float> got = c0;
      v.reference(a.data(), b.data(), expect.data(), m, k, n, ab[0], ab[1]);
      v.tiled(a.data(), b.data(), got.data(), m, k, n, ab[0], ab[1]);
      for (std::size_t i = 0; i < m * n; ++i) {
        ASSERT_NEAR(got[i], expect[i], 2e-3f)
            << v.name << " alpha=" << ab[0] << " beta=" << ab[1];
      }
    }
  }
}

TEST_F(KernelTest, BetaZeroOverwritesWithoutReadingC) {
  use_small_blocks(1);
  const std::size_t m = 4, k = 3, n = 4;
  const std::vector<float> a = random_vec(m * k, 4);
  const std::vector<float> b = random_vec(k * n, 5);
  std::vector<float> poisoned(m * n, std::numeric_limits<float>::quiet_NaN());
  ops::gemm(a.data(), b.data(), poisoned.data(), m, k, n, 1.0f, 0.0f);
  for (float x : poisoned) EXPECT_TRUE(std::isfinite(x));
}

TEST_F(KernelTest, BitIdenticalAcrossThreadCounts) {
  const std::size_t m = 37, k = 211, n = 53;
  const std::vector<float> a = random_vec(m * k, 6);
  const std::vector<float> b = random_vec(k * n, 7);
  for (const Variant& v : kVariants) {
    std::vector<std::vector<float>> results;
    for (std::size_t threads : {1, 2, 8}) {
      use_small_blocks(threads);
      std::vector<float> c(m * n, 0.25f);
      v.tiled(a.data(), b.data(), c.data(), m, k, n, 1.5f, 0.5f);
      results.push_back(std::move(c));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      ASSERT_EQ(0, std::memcmp(results[0].data(), results[i].data(),
                               m * n * sizeof(float)))
          << v.name << " diverged between thread counts";
    }
  }
}

// Regression for the seed kernels' `if (av == 0.0f) continue;` fast path:
// a zero in A must still multiply NaN/Inf contributions from B into the
// output (0 * NaN = NaN, 0 * Inf = NaN), in every variant.
TEST_F(KernelTest, NanAndInfPropagateThroughZeroOperands) {
  use_small_blocks(1);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  {
    // A = [0, 1], B = [[nan], [1]]: result = 0*nan + 1 = nan.
    const float a[] = {0.0f, 1.0f};
    const float b[] = {nan, 1.0f};
    float c = 0.0f;
    ops::gemm(a, b, &c, 1, 2, 1);
    EXPECT_TRUE(std::isnan(c));
  }
  {
    const float a[] = {0.0f};
    const float b[] = {inf};
    float c = 0.0f;
    ops::gemm(a, b, &c, 1, 1, 1);
    EXPECT_TRUE(std::isnan(c));
  }
  {
    // gemm_at: A stored (k=2, m=1) with a zero row entry.
    const float a[] = {0.0f, 2.0f};
    const float b[] = {nan, 3.0f};
    float c = 0.0f;
    ops::gemm_at(a, b, &c, 1, 2, 1);
    EXPECT_TRUE(std::isnan(c));
  }
  {
    // gemm_bt: B stored (n=1, k=2).
    const float a[] = {0.0f, 1.0f};
    const float b[] = {inf, 1.0f};
    float c = 0.0f;
    ops::gemm_bt(a, b, &c, 1, 2, 1);
    EXPECT_TRUE(std::isnan(c));
  }
}

TEST_F(KernelTest, ConfigValidatesAndResolvesThreads) {
  ops::KernelConfig bad;
  bad.mc = 0;
  EXPECT_THROW(ops::set_kernel_config(bad), InvalidArgument);
  ops::KernelConfig cfg;
  cfg.max_threads = 3;
  EXPECT_EQ(cfg.threads(), 3u);
  cfg.max_threads = 0;
  EXPECT_GE(cfg.threads(), 1u);
  EXPECT_GE(default_compute_threads(), 1u);
}

// End-to-end determinism: the same seeded training run must produce a
// bit-identical model state at any thread count — the property the
// strategy generator's E_k calibration and the sim/rt equivalence check
// both lean on.
std::vector<float> train_state_with_threads(std::size_t threads) {
  ops::KernelConfig cfg;
  cfg.mc = 16;
  cfg.kc = 64;
  cfg.nc = 64;
  cfg.max_threads = threads;
  cfg.parallel_min_flops = 1;
  ops::set_kernel_config(cfg);
  nn::ModelConfig mc;
  mc.image_size = 8;
  Rng rng(42);
  auto model = nn::make_resnet18_lite(mc, rng);
  nn::Sgd opt(model->parameters(), {0.01, 0.9, 1e-4});
  Tensor x = testutil::random_tensor({8, 3, 8, 8}, 7);
  for (int step = 0; step < 3; ++step) {
    Tensor y = model->forward(x, true);
    model->backward(y);
    opt.step_and_zero();
  }
  auto view = nn::state_view(*model);
  return {view.begin(), view.end()};
}

TEST_F(KernelTest, TrainingStateBitIdenticalAcrossThreadCounts) {
  const std::vector<float> one = train_state_with_threads(1);
  const std::vector<float> two = train_state_with_threads(2);
  const std::vector<float> eight = train_state_with_threads(8);
  ASSERT_EQ(one.size(), two.size());
  ASSERT_EQ(one.size(), eight.size());
  EXPECT_EQ(0, std::memcmp(one.data(), two.data(), one.size() * sizeof(float)));
  EXPECT_EQ(0,
            std::memcmp(one.data(), eight.data(), one.size() * sizeof(float)));
}

TEST_F(KernelTest, StridedIm2colMatchesCompactPerSample) {
  ops::ConvGeometry g{3, 6, 5, 3, 3, 1, 1};
  const std::size_t rows = g.col_rows();
  const std::size_t cols = g.col_cols();
  const std::size_t image = 3 * 6 * 5;
  const std::vector<float> batch = random_vec(2 * image, 11);
  std::vector<float> strided(rows * 2 * cols, -1.0f);
  for (std::size_t s = 0; s < 2; ++s) {
    ops::im2col(batch.data() + s * image, g, strided.data() + s * cols,
                2 * cols);
  }
  for (std::size_t s = 0; s < 2; ++s) {
    std::vector<float> compact(rows * cols);
    ops::im2col(batch.data() + s * image, g, compact.data());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(compact[r * cols + c], strided[r * 2 * cols + s * cols + c])
            << "sample " << s << " row " << r << " col " << c;
      }
    }
  }
  // col2im: folding the strided layout per sample must equal folding the
  // compact copy.
  for (std::size_t s = 0; s < 2; ++s) {
    std::vector<float> compact(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        compact[r * cols + c] = strided[r * 2 * cols + s * cols + c];
      }
    }
    std::vector<float> img_a(image, 0.0f);
    std::vector<float> img_b(image, 0.0f);
    ops::col2im(compact.data(), g, img_a.data());
    ops::col2im(strided.data() + s * cols, g, img_b.data(), 2 * cols);
    EXPECT_EQ(img_a, img_b);
  }
}

TEST_F(KernelTest, ParallelChunksCoversEveryIndexOnce) {
  const std::size_t total = 100000;
  std::vector<std::atomic<int>> hits(total);
  parallel_chunks(total, /*grain=*/4096, /*max_threads=*/4,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      hits[i].fetch_add(1, std::memory_order_relaxed);
                    }
                  });
  for (std::size_t i = 0; i < total; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST_F(KernelTest, RunBatchHonorsConcurrencyCap) {
  std::vector<std::atomic<int>> hits(64);
  ThreadPool::shared().run_batch(
      64,
      [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      /*max_concurrency=*/2);
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

// The chunk-parallel span kernels must be bit-identical to a serial pass:
// chunks are disjoint and elementwise, so the grid never changes rounding.
TEST_F(KernelTest, SpanKernelsMatchSerialExactly) {
  const std::size_t n = 3 * kParallelChunkGrain / 2 + 17;  // crosses chunks
  const std::vector<float> x = random_vec(n, 21);
  std::vector<double> acc_serial(n), acc_parallel(n);
  for (std::size_t i = 0; i < n; ++i) {
    acc_serial[i] = acc_parallel[i] = 0.125 * static_cast<double>(i % 7);
  }
  for (std::size_t i = 0; i < n; ++i) acc_serial[i] += 0.3 * x[i];
  axpy_into(acc_parallel, 0.3, x);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(acc_serial[i], acc_parallel[i], 1e-12);
  }

  std::vector<float> dst_serial(n), dst_parallel(n);
  for (std::size_t i = 0; i < n; ++i) {
    dst_serial[i] = static_cast<float>(acc_serial[i]);
  }
  cast_into(dst_parallel, acc_parallel);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(dst_serial[i], dst_parallel[i], 1e-6f);
  }

  std::vector<float> mix_serial = dst_serial;
  std::vector<float> mix_parallel = dst_parallel;
  for (std::size_t i = 0; i < n; ++i) {
    mix_serial[i] = (1.0f - 0.25f) * mix_serial[i] + 0.25f * x[i];
  }
  mix_spans(mix_parallel, x, 0.25);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(mix_serial[i], mix_parallel[i], 1e-6f);
  }
}

TEST_F(KernelTest, SgdUpdateMatchesScalarReference) {
  const std::size_t n = 1000;
  std::vector<float> val = random_vec(n, 31);
  std::vector<float> expect = val;
  const std::vector<float> grad = random_vec(n, 32);
  std::vector<float> vel(n, 0.1f);
  std::vector<float> vel_expect = vel;
  const float lr = 0.05f, mu = 0.9f, wd = 1e-4f;
  for (std::size_t i = 0; i < n; ++i) {
    const float g = grad[i] + wd * expect[i];
    vel_expect[i] = mu * vel_expect[i] + g;
    expect[i] -= lr * vel_expect[i];
  }
  sgd_update(val, grad, vel, lr, mu, wd);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(val[i], expect[i], 1e-6f);
    ASSERT_NEAR(vel[i], vel_expect[i], 1e-6f);
  }

  // momentum == 0 with empty velocity span.
  std::vector<float> val2 = random_vec(n, 33);
  std::vector<float> expect2 = val2;
  for (std::size_t i = 0; i < n; ++i) {
    expect2[i] -= lr * (grad[i] + wd * expect2[i]);
  }
  sgd_update(val2, grad, {}, lr, 0.0f, wd);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(val2[i], expect2[i], 1e-6f);
  }
}

// Updating a span in odd-sized pieces runs the scalar remainder where one
// call runs the vector body; the bytes must not differ. The fixed-grain
// chunk grid's thread invariance rests on this.
TEST_F(KernelTest, SgdUpdateBitIdenticalInOddPieces) {
  const std::size_t pieces[] = {1, 7, 1003};
  const std::size_t n = 1 + 7 + 1003;
  const std::vector<float> grad = random_vec(n, 41);
  for (const float mu : {0.9f, 0.0f}) {
    SCOPED_TRACE(mu);
    std::vector<float> whole = random_vec(n, 42);
    std::vector<float> split = whole;
    std::vector<float> vel_whole = random_vec(n, 43);
    std::vector<float> vel_split = vel_whole;
    const std::span<float> vw =
        mu > 0.0f ? std::span<float>(vel_whole) : std::span<float>();
    sgd_update(whole, grad, vw, 0.05f, mu, 1e-4f);
    std::size_t at = 0;
    for (const std::size_t len : pieces) {
      const std::span<float> vs =
          mu > 0.0f ? std::span<float>(vel_split).subspan(at, len)
                    : std::span<float>();
      sgd_update(std::span<float>(split).subspan(at, len),
                 std::span<const float>(grad).subspan(at, len), vs, 0.05f, mu,
                 1e-4f);
      at += len;
    }
    EXPECT_EQ(std::memcmp(whole.data(), split.data(), n * sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(vel_whole.data(), vel_split.data(),
                          n * sizeof(float)),
              0);
  }
}

}  // namespace
}  // namespace hadfl
