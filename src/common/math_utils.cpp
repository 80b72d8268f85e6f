#include "common/math_utils.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace hadfl {

double quantile(std::vector<double> values, double q) {
  return quantiles(std::move(values), {q}).front();
}

std::vector<double> quantiles(std::vector<double> values,
                              std::span<const double> qs) {
  HADFL_CHECK_ARG(!values.empty(), "quantiles of empty vector");
  for (const double q : qs) {
    HADFL_CHECK_ARG(q >= 0.0 && q <= 1.0,
                    "quantile q must be in [0,1], got " << q);
  }
  const std::size_t n = values.size();
  // Each quantile interpolates between at most two order statistics, so a
  // handful of successive nth_element passes (O(n) each) replace the full
  // O(n log n) sort — the per-round selection path at fleet scale (K=10^5+)
  // needs exactly two quantiles of K versions. A multiset's k-th order
  // statistic is a unique *value*, so the interpolated results are
  // bit-identical to the sorted implementation.
  std::vector<std::size_t> needed;
  needed.reserve(qs.size() * 2);
  for (const double q : qs) {
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    needed.push_back(lo);
    needed.push_back(std::min(lo + 1, n - 1));
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  // After nth_element at position i, [0, i] holds (a permutation of) the
  // i+1 smallest values, so the next selection can start past it.
  std::size_t start = 0;
  for (const std::size_t i : needed) {
    if (start >= n) break;
    std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(start),
                     values.begin() + static_cast<std::ptrdiff_t>(i),
                     values.end());
    start = i + 1;
  }
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    if (n == 1) {
      out.push_back(values.front());
      continue;
    }
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    out.push_back(values[lo] * (1.0 - frac) + values[hi] * frac);
  }
  return out;
}

double mean(const std::vector<double>& values) {
  HADFL_CHECK_ARG(!values.empty(), "mean of empty vector");
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double ss = 0.0;
  for (double v : values) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  HADFL_CHECK_ARG(a >= 0 && b >= 0, "gcd64 requires non-negative inputs");
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  HADFL_CHECK_ARG(a > 0 && b > 0, "lcm64 requires positive inputs");
  return a / gcd64(a, b) * b;
}

std::int64_t lcm_all(const std::vector<std::int64_t>& values) {
  HADFL_CHECK_ARG(!values.empty(), "lcm_all of empty vector");
  std::int64_t acc = 1;
  for (std::int64_t v : values) {
    HADFL_CHECK_ARG(v > 0, "lcm_all requires positive entries, got " << v);
    acc = lcm64(acc, v);
  }
  return acc;
}

double hyperperiod(const std::vector<double>& durations, double resolution) {
  HADFL_CHECK_ARG(!durations.empty(), "hyperperiod of empty duration set");
  HADFL_CHECK_ARG(resolution > 0.0, "hyperperiod resolution must be positive");
  std::vector<std::int64_t> ticks;
  ticks.reserve(durations.size());
  for (double d : durations) {
    HADFL_CHECK_ARG(d > 0.0, "hyperperiod durations must be positive, got " << d);
    ticks.push_back(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(d / resolution))));
  }
  return static_cast<double>(lcm_all(ticks)) * resolution;
}

double standard_normal_pdf(double x, double mu) {
  const double d = x - mu;
  return std::exp(-0.5 * d * d) / std::sqrt(2.0 * std::numbers::pi);
}

std::pair<std::size_t, std::size_t> chunk_range(std::size_t n, std::size_t k,
                                                std::size_t c) {
  HADFL_CHECK_ARG(k > 0, "chunk_range with zero chunks");
  HADFL_CHECK_ARG(c < k, "chunk index " << c << " out of range (k=" << k
                                        << ")");
  return {c * n / k, (c + 1) * n / k};
}

void axpy_into(std::span<double> acc, double w, std::span<const float> x) {
  HADFL_CHECK_SHAPE(acc.size() == x.size(),
                    "axpy_into size mismatch: " << acc.size() << " vs "
                                                << x.size());
  double* HADFL_RESTRICT a = acc.data();
  const float* HADFL_RESTRICT p = x.data();
  parallel_chunks(acc.size(), kParallelChunkGrain, default_compute_threads(),
                  [&](std::size_t begin, std::size_t end) {
                    HADFL_PRAGMA_SIMD
                    for (std::size_t i = begin; i < end; ++i) a[i] += w * p[i];
                  });
}

void cast_into(std::span<float> dst, std::span<const double> acc) {
  HADFL_CHECK_SHAPE(dst.size() == acc.size(),
                    "cast_into size mismatch: " << dst.size() << " vs "
                                                << acc.size());
  float* HADFL_RESTRICT d = dst.data();
  const double* HADFL_RESTRICT a = acc.data();
  parallel_chunks(dst.size(), kParallelChunkGrain, default_compute_threads(),
                  [&](std::size_t begin, std::size_t end) {
                    HADFL_PRAGMA_SIMD
                    for (std::size_t i = begin; i < end; ++i) {
                      d[i] = static_cast<float>(a[i]);
                    }
                  });
}

void mix_spans(std::span<float> dst, std::span<const float> src, double w) {
  HADFL_CHECK_SHAPE(dst.size() == src.size(),
                    "mix_spans size mismatch: " << dst.size() << " vs "
                                                << src.size());
  HADFL_CHECK_ARG(w >= 0.0 && w <= 1.0,
                  "mix weight must be in [0,1], got " << w);
  const auto wf = static_cast<float>(w);
  float* HADFL_RESTRICT d = dst.data();
  const float* HADFL_RESTRICT s = src.data();
  parallel_chunks(dst.size(), kParallelChunkGrain, default_compute_threads(),
                  [&](std::size_t begin, std::size_t end) {
                    HADFL_PRAGMA_SIMD
                    for (std::size_t i = begin; i < end; ++i) {
                      d[i] = (1.0f - wf) * d[i] + wf * s[i];
                    }
                  });
}

namespace {

// The momentum update over [0, n). Written inline in sgd_update's chunk
// lambda, GCC 12 leaves this loop scalar ("latch block not empty"); as a
// function of restrict pointers and by-value scalars it vectorizes.
void sgd_momentum_range(float* HADFL_RESTRICT val,
                        const float* HADFL_RESTRICT g,
                        float* HADFL_RESTRICT v, std::size_t n, float lr,
                        float momentum, float weight_decay) {
  HADFL_PRAGMA_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    const float gi = g[i] + weight_decay * val[i];
    v[i] = momentum * v[i] + gi;
    val[i] -= lr * v[i];
  }
}

}  // namespace

void sgd_update(std::span<float> value, std::span<const float> grad,
                std::span<float> vel, float lr, float momentum,
                float weight_decay) {
  HADFL_CHECK_SHAPE(value.size() == grad.size(),
                    "sgd_update size mismatch: " << value.size() << " vs "
                                                 << grad.size());
  HADFL_CHECK_SHAPE(momentum == 0.0f || vel.size() == value.size(),
                    "sgd_update velocity size mismatch: " << vel.size()
                                                          << " vs "
                                                          << value.size());
  float* HADFL_RESTRICT val = value.data();
  const float* HADFL_RESTRICT g = grad.data();
  float* HADFL_RESTRICT v = vel.data();
  parallel_chunks(value.size(), kParallelChunkGrain, default_compute_threads(),
                  [&](std::size_t begin, std::size_t end) {
                    if (momentum > 0.0f) {
                      sgd_momentum_range(val + begin, g + begin, v + begin,
                                         end - begin, lr, momentum,
                                         weight_decay);
                    } else {
                      HADFL_PRAGMA_SIMD
                      for (std::size_t i = begin; i < end; ++i) {
                        val[i] -= lr * (g[i] + weight_decay * val[i]);
                      }
                    }
                  });
}

}  // namespace hadfl
