// Small numeric helpers used across the framework.
//
// Notably: the 3rd-quartile computation used by HADFL's probability-based
// selection function (paper Eq. 8) and the LCM-over-rationals used to form
// the training hyperperiod H_E (paper §III-C).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

namespace hadfl {

/// Linear-interpolation quantile (same convention as numpy's default).
/// `q` in [0, 1]. The input need not be sorted. Throws on empty input.
double quantile(std::vector<double> values, double q);

/// Several quantiles of the same data from one copy and a few O(n)
/// selection passes (nth_element per needed order statistic — no full
/// sort): returns quantile(values, qs[i]) for every i, bit-identical to a
/// sort-based implementation (order statistics are unique values, same
/// interpolation). Throws on empty input or any q outside [0, 1].
std::vector<double> quantiles(std::vector<double> values,
                              std::span<const double> qs);
inline std::vector<double> quantiles(std::vector<double> values,
                                     std::initializer_list<double> qs) {
  return quantiles(std::move(values),
                   std::span<const double>(qs.begin(), qs.size()));
}

/// Arithmetic mean. Throws on empty input.
double mean(const std::vector<double>& values);

/// Sample standard deviation (N-1 denominator); 0 for size < 2.
double stddev(const std::vector<double>& values);

/// Greatest common divisor / least common multiple for positive integers.
std::int64_t gcd64(std::int64_t a, std::int64_t b);
std::int64_t lcm64(std::int64_t a, std::int64_t b);

/// LCM of a set of positive integers. Throws on empty input or non-positive
/// entries.
std::int64_t lcm_all(const std::vector<std::int64_t>& values);

/// Hyperperiod of a set of positive real durations (paper §III-C):
/// quantizes each duration to an integer number of `resolution` ticks
/// (rounding to nearest, min 1 tick) and returns LCM(ticks) * resolution.
/// This mirrors how a scheduler would rationalize measured epoch times.
double hyperperiod(const std::vector<double>& durations, double resolution);

/// Standard normal probability density evaluated at (x - mu), unit variance:
/// f(x) = 1/sqrt(2*pi) * exp(-(x-mu)^2 / 2)  — paper Eq. 8.
double standard_normal_pdf(double x, double mu);

/// Element range [begin, end) of chunk `c` when an `n`-element buffer is
/// split into `k` contiguous chunks. Chunk sizes differ by at most one and
/// the ranges tile [0, n) exactly (the partition every chunked collective,
/// arena chunk view, and wire-byte split in the framework agrees on).
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n, std::size_t k,
                                                std::size_t c);

// ---- Flat-state kernels -------------------------------------------------
// The elementwise primitives under every aggregation rule in the framework
// (nn::StateAccumulator, weighted_average, broadcast integration) plus the
// SGD parameter update. They are span-based so arena state views stream
// through without materializing per-contributor copies, and the accumulator
// side stays double-precision — the rounding behaviour every backend's
// bit-identical aggregate depends on. All of them are vectorized
// (restrict-qualified, `omp simd`) and chunk-parallel on large spans; the
// chunk grid is fixed by the span length (common/parallel.hpp), so results
// are bit-identical at any `HADFL_NUM_THREADS`.

/// acc[i] += w * x[i]. Sizes must match.
void axpy_into(std::span<double> acc, double w, std::span<const float> x);

/// dst[i] = float(acc[i]). Sizes must match.
void cast_into(std::span<float> dst, std::span<const double> acc);

/// In-place convex blend: dst[i] = (1 - w) * dst[i] + w * src[i], with the
/// weight applied in float, matching the historic mix_into arithmetic.
/// `w` must be in [0, 1]; sizes must match.
void mix_spans(std::span<float> dst, std::span<const float> src, double w);

/// SGD update over one parameter span (the optimizer's hot loop):
///   g      = grad[i] + weight_decay * value[i]
///   vel[i] = momentum * vel[i] + g;  g = vel[i]   (when momentum > 0)
///   value[i] -= lr * g
/// `vel` may be empty when momentum == 0; otherwise sizes must match.
void sgd_update(std::span<float> value, std::span<const float> grad,
                std::span<float> vel, float lr, float momentum,
                float weight_decay);

}  // namespace hadfl
