// Numeric kernels over Tensor / raw float spans.
//
// The GEMM family is cache-blocked and register-tiled: operands are packed
// into (mc x kc) / (kc x nc) panels, a vectorizable micro-kernel produces
// (kMicroRows x kMicroCols) output blocks, and independent output tiles run
// in parallel on the shared common/ThreadPool. The tile grid depends only
// on the problem shape and the KernelConfig block sizes — never on the
// thread count — so results are bit-identical at any HADFL_NUM_THREADS
// (see tensor/kernel_config.hpp).
//
// No zero-skip fast paths: 0 * NaN must stay NaN, and the kernels
// propagate non-finite inputs exactly like the straightforward loops.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/kernel_config.hpp"
#include "tensor/tensor.hpp"

namespace hadfl::ops {

/// C = alpha * A(m,k) * B(k,n) + beta * C(m,n).
/// beta == 0 overwrites C without reading it (BLAS convention).
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, float alpha = 1.0f, float beta = 0.0f);

/// C = alpha * A^T(k,m) * B(k,n) + beta * C  (A stored as (k, m)).
void gemm_at(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha = 1.0f,
             float beta = 0.0f);

/// C = alpha * A(m,k) * B^T(n,k) + beta * C  (B stored as (n, k)).
void gemm_bt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha = 1.0f,
             float beta = 0.0f);

/// Sum of all elements (double accumulator).
double sum(std::span<const float> x);

/// Elementwise sum; shapes must match.
Tensor add(const Tensor& a, const Tensor& b);

// ---- Reference kernels --------------------------------------------------
// Unblocked triple loops with double accumulators, kept as the oracle the
// tiled kernels are property-tested and benchmarked against. Single
// threaded, no tuning knobs, never used on a hot path.
namespace reference {

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, float alpha = 1.0f, float beta = 0.0f);
void gemm_at(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha = 1.0f,
             float beta = 0.0f);
void gemm_bt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha = 1.0f,
             float beta = 0.0f);

}  // namespace reference

}  // namespace hadfl::ops
