// GEMM micro-benchmark with roofline-style reporting.
//
// Compares three kernels at the GEMM shapes local training actually runs
// (the batched Conv2d / Dense shapes of the ResNet-lite zoo model at 16x16
// and at the training scenario's 8x8 inputs, plus a few square panels):
//
//  * seed   — the pre-kernel-layer i-k-j loop (verbatim copy, including the
//             zero-skip fast path it shipped with), the "before" baseline;
//  * ref    — ops::reference, the unblocked double-accumulator oracle;
//  * tiled  — ops::gemm, the packed cache-blocked engine, at 1/2/4 threads.
//
// For each shape it prints time, GFLOP/s, speedup over the seed kernel and
// the arithmetic intensity 2mkn / 4(mk + kn + 2mn) FLOP/byte, the roofline
// x-coordinate that says whether the shape is bandwidth- or compute-bound.
//
// `--smoke` skips timing and instead checks correctness (tiled vs reference
// within tolerance) and the determinism contract (bit-identical output at
// 1/2/4 threads) over a set of odd shapes; exits non-zero on any mismatch.
// CI runs this after the Release build.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"

namespace {

// Verbatim copy of the seed GEMM (pre-tiling, commit dab0ad2) so the
// benchmark keeps an honest "before" even after the library moved on.
namespace seed {

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, float alpha = 1.0f,
          float beta = 0.0f) {
  for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = alpha * a[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_at(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha = 1.0f,
             float beta = 0.0f) {
  for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_bt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha = 1.0f,
             float beta = 0.0f) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = alpha * acc + beta * crow[j];
    }
  }
}

}  // namespace seed

using GemmFn = void (*)(const float*, const float*, float*, std::size_t,
                        std::size_t, std::size_t, float, float);

struct Shape {
  const char* label;
  std::size_t m, k, n;
};

// Forward GEMMs of the ResNet-lite zoo model at batch 16 (image 16x16,
// base 8 channels; n = batch * out_h * out_w after im2col batching), the
// classifier Dense, backward-pass transposed shapes, and square panels.
constexpr Shape kForwardShapes[] = {
    {"conv stem   ", 8, 27, 4096},  {"conv 8->8   ", 8, 72, 4096},
    {"conv 16->16 ", 16, 144, 1024}, {"conv 32->32 ", 32, 288, 256},
    {"conv 64->64 ", 64, 576, 64},   {"square 128  ", 128, 128, 128},
    {"square 256  ", 256, 256, 256},
};
constexpr Shape kGradWeightShapes[] = {  // gemm_bt: dW = dY * cols^T
    {"dW stem     ", 8, 4096, 27},
    {"dW 16->16   ", 16, 1024, 144},
};
constexpr Shape kGradInputShapes[] = {  // gemm_at: dCols = W^T * dY
    {"dCols 8->8  ", 72, 8, 4096},
    {"dCols 32->32", 288, 32, 256},
};

// The same model at the training scenario's 8x8 inputs (exp::paper_scenario,
// device batch 16): every conv GEMM of a sim-resnet step, from the stem's
// n = 1024 down to the 1x1 planes' n = 16, forward and both backward
// operands. These run inline on one device thread.
constexpr Shape kScenarioForwardShapes[] = {
    {"8x8 stem    ", 8, 27, 1024},  {"8x8 8->8    ", 8, 72, 1024},
    {"8x8 8->16/2 ", 16, 72, 256},  {"8x8 16->16  ", 16, 144, 256},
    {"8x8 16->32/2", 32, 144, 64},  {"8x8 32->32  ", 32, 288, 64},
    {"8x8 32->64/2", 64, 288, 16},  {"8x8 64->64  ", 64, 576, 16},
    {"8x8 short/2 ", 64, 32, 16},
};
constexpr Shape kScenarioGradWeightShapes[] = {
    {"8x8 dW 8->8 ", 8, 1024, 72},
    {"8x8 dW 64   ", 64, 16, 576},
};
constexpr Shape kScenarioGradInputShapes[] = {
    {"8x8 dCol 8  ", 72, 8, 1024},
    {"8x8 dCol 64 ", 576, 64, 16},
};

std::vector<float> random_vec(std::size_t n, unsigned seed_val) {
  std::mt19937 rng(seed_val);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

void set_threads(std::size_t threads) {
  hadfl::ops::KernelConfig cfg = hadfl::ops::kernel_config();
  cfg.max_threads = threads;
  hadfl::ops::set_kernel_config(cfg);
}

/// Best-of-3 timing, each sample iterated until >= 25 ms. Returns seconds
/// per call.
double time_gemm(GemmFn fn, const Shape& s, const std::vector<float>& a,
                 const std::vector<float>& b, std::vector<float>& c) {
  using clock = std::chrono::steady_clock;
  double best = 1e30;
  for (int sample = 0; sample < 3; ++sample) {
    std::size_t iters = 1;
    for (;;) {
      const auto t0 = clock::now();
      for (std::size_t it = 0; it < iters; ++it) {
        fn(a.data(), b.data(), c.data(), s.m, s.k, s.n, 1.0f, 0.0f);
      }
      const double sec = std::chrono::duration<double>(clock::now() - t0).count();
      if (sec >= 0.025) {
        best = std::min(best, sec / static_cast<double>(iters));
        break;
      }
      iters = sec <= 0.0 ? iters * 16 : iters * 2;
    }
  }
  return best;
}

double gflops(const Shape& s, double sec) {
  return 2.0 * static_cast<double>(s.m) * s.k * s.n / sec / 1e9;
}

double intensity(const Shape& s) {
  const double flops = 2.0 * static_cast<double>(s.m) * s.k * s.n;
  const double bytes =
      4.0 * (static_cast<double>(s.m) * s.k + static_cast<double>(s.k) * s.n +
             2.0 * static_cast<double>(s.m) * s.n);
  return flops / bytes;
}

struct Variant {
  const char* name;
  GemmFn seed_fn;
  GemmFn ref_fn;
  GemmFn tiled_fn;
  // (m, k, n) -> element counts of A, B, C.
  std::size_t (*a_elems)(const Shape&);
  std::size_t (*b_elems)(const Shape&);
};

constexpr Variant kVariants[] = {
    {"gemm", seed::gemm, hadfl::ops::reference::gemm, hadfl::ops::gemm,
     [](const Shape& s) { return s.m * s.k; },
     [](const Shape& s) { return s.k * s.n; }},
    {"gemm_at", seed::gemm_at, hadfl::ops::reference::gemm_at,
     hadfl::ops::gemm_at, [](const Shape& s) { return s.k * s.m; },
     [](const Shape& s) { return s.k * s.n; }},
    {"gemm_bt", seed::gemm_bt, hadfl::ops::reference::gemm_bt,
     hadfl::ops::gemm_bt, [](const Shape& s) { return s.m * s.k; },
     [](const Shape& s) { return s.n * s.k; }},
};

const Variant& variant(const char* name) {
  for (const Variant& v : kVariants) {
    if (std::strcmp(v.name, name) == 0) return v;
  }
  std::abort();
}

void bench_shape(const Variant& v, const Shape& s) {
  const std::vector<float> a = random_vec(v.a_elems(s), 1);
  const std::vector<float> b = random_vec(v.b_elems(s), 2);
  std::vector<float> c(s.m * s.n, 0.0f);

  const double t_seed = time_gemm(v.seed_fn, s, a, b, c);
  set_threads(1);
  const double t1 = time_gemm(v.tiled_fn, s, a, b, c);
  set_threads(2);
  const double t2 = time_gemm(v.tiled_fn, s, a, b, c);
  set_threads(4);
  const double t4 = time_gemm(v.tiled_fn, s, a, b, c);
  set_threads(0);

  std::printf(
      "%-8s %s m=%4zu k=%4zu n=%4zu  AI %6.1f | seed %7.2f GF/s | "
      "tiled x1 %7.2f (%4.2fx) x2 %7.2f (%4.2fx) x4 %7.2f (%4.2fx)\n",
      v.name, s.label, s.m, s.k, s.n, intensity(s), gflops(s, t_seed),
      gflops(s, t1), t_seed / t1, gflops(s, t2), t1 / t2, gflops(s, t4),
      t1 / t4);
}

int run_bench() {
  std::printf(
      "micro_gemm: GFLOP/s per kernel; (..x) after x1 is speedup over the\n"
      "seed loop, after x2/x4 the scaling vs tiled x1. AI = FLOP/byte.\n\n");
  for (const Shape& s : kForwardShapes) bench_shape(variant("gemm"), s);
  std::printf("\n");
  for (const Shape& s : kGradWeightShapes) bench_shape(variant("gemm_bt"), s);
  for (const Shape& s : kGradInputShapes) bench_shape(variant("gemm_at"), s);
  std::printf("\nscenario model (8x8 inputs, batch 16):\n");
  for (const Shape& s : kScenarioForwardShapes) bench_shape(variant("gemm"), s);
  for (const Shape& s : kScenarioGradWeightShapes) {
    bench_shape(variant("gemm_bt"), s);
  }
  for (const Shape& s : kScenarioGradInputShapes) {
    bench_shape(variant("gemm_at"), s);
  }
  return 0;
}

// ---- smoke mode ---------------------------------------------------------

int check(const Variant& v, const Shape& s) {
  const std::vector<float> a = random_vec(v.a_elems(s), 11);
  const std::vector<float> b = random_vec(v.b_elems(s), 12);
  const std::vector<float> c0 = random_vec(s.m * s.n, 13);

  std::vector<float> want = c0;
  v.ref_fn(a.data(), b.data(), want.data(), s.m, s.k, s.n, 1.25f, 0.5f);

  int failures = 0;
  std::vector<float> first;
  for (std::size_t threads : {1u, 2u, 4u}) {
    set_threads(threads);
    std::vector<float> got = c0;
    v.tiled_fn(a.data(), b.data(), got.data(), s.m, s.k, s.n, 1.25f, 0.5f);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const float tol = 1e-4f * (1.0f + std::fabs(want[i]));
      if (!(std::fabs(got[i] - want[i]) <= tol)) {
        std::printf("FAIL %s %s: c[%zu] = %g, want %g (threads=%zu)\n",
                    v.name, s.label, i, got[i], want[i], threads);
        ++failures;
        break;
      }
    }
    if (first.empty()) {
      first = got;
    } else if (std::memcmp(first.data(), got.data(),
                           got.size() * sizeof(float)) != 0) {
      std::printf("FAIL %s %s: output not bit-identical at %zu threads\n",
                  v.name, s.label, threads);
      ++failures;
    }
  }
  set_threads(0);
  return failures;
}

int run_smoke() {
  constexpr Shape kSmokeShapes[] = {
      {"smoke", 6, 16, 16},   {"smoke", 17, 31, 13}, {"smoke", 1, 1, 1},
      {"smoke", 64, 64, 64},  {"smoke", 65, 131, 33}, {"smoke", 8, 27, 256},
  };
  int failures = 0;
  for (const Variant& v : kVariants) {
    for (const Shape& s : kSmokeShapes) failures += check(v, s);
  }
  if (failures == 0) {
    std::printf("micro_gemm --smoke: all kernels correct and "
                "thread-deterministic\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return run_smoke();
  }
  return run_bench();
}
