#include "tensor/ops.hpp"

#include <algorithm>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace hadfl::ops {

namespace {

// ---- Tiled GEMM engine --------------------------------------------------
// One driver serves all three layout variants through element accessors;
// packing normalizes every layout into the same micro-panel format, so the
// inner kernel is identical (and identically rounded) for all of them.
//
// Determinism contract: the (mc x nc) tile grid and the kc-block sweep are
// functions of (m, k, n) and the KernelConfig block sizes only. Each tile
// owns a disjoint region of C and folds its kc blocks in fixed ascending
// order, so the result is bit-identical whether tiles run sequentially or
// on any number of pool threads.

/// Element accessor for a row-major matrix with leading dimension `ld`.
struct RowMajor {
  const float* p;
  std::size_t ld;
  float operator()(std::size_t r, std::size_t c) const { return p[r * ld + c]; }
};

/// Element accessor for the transpose of a row-major matrix: logical (r, c)
/// reads storage [c * ld + r].
struct Trans {
  const float* p;
  std::size_t ld;
  float operator()(std::size_t r, std::size_t c) const { return p[c * ld + r]; }
};

using PackBuffer = std::vector<float, AlignedAllocator<float>>;

/// Per-thread pack scratch. Reused across calls and tiles; contents are
/// fully rewritten for every (tile, kc-block), so which thread runs which
/// tile never leaks into the numerics.
struct TileScratch {
  PackBuffer a;
  PackBuffer b;
};
thread_local TileScratch tl_scratch;

/// Packs A rows [i0, i0+mrows) x depth [p0, p0+depth) into kMicroRows-row
/// panels, zero-padding the fringe panel so the micro-kernel always reads
/// full registers. Panel layout: panel[p * kMicroRows + r].
template <typename AccA>
void pack_a(const AccA& A, std::size_t i0, std::size_t mrows, std::size_t p0,
            std::size_t depth, float* HADFL_RESTRICT buf) {
  const std::size_t panels = (mrows + kMicroRows - 1) / kMicroRows;
  for (std::size_t ir = 0; ir < panels; ++ir) {
    float* HADFL_RESTRICT panel = buf + ir * depth * kMicroRows;
    const std::size_t base = i0 + ir * kMicroRows;
    const std::size_t rows = std::min(kMicroRows, i0 + mrows - base);
    for (std::size_t p = 0; p < depth; ++p) {
      for (std::size_t r = 0; r < rows; ++r) {
        panel[p * kMicroRows + r] = A(base + r, p0 + p);
      }
      for (std::size_t r = rows; r < kMicroRows; ++r) {
        panel[p * kMicroRows + r] = 0.0f;
      }
    }
  }
}

/// Packs B depth [p0, p0+depth) x cols [j0, j0+ncols) into kMicroCols-wide
/// panels, zero-padded like pack_a. Panel layout: panel[p * kMicroCols + c].
template <typename AccB>
void pack_b(const AccB& B, std::size_t p0, std::size_t depth, std::size_t j0,
            std::size_t ncols, float* HADFL_RESTRICT buf) {
  const std::size_t panels = (ncols + kMicroCols - 1) / kMicroCols;
  for (std::size_t jr = 0; jr < panels; ++jr) {
    float* HADFL_RESTRICT panel = buf + jr * depth * kMicroCols;
    const std::size_t base = j0 + jr * kMicroCols;
    const std::size_t cols = std::min(kMicroCols, j0 + ncols - base);
    for (std::size_t p = 0; p < depth; ++p) {
      for (std::size_t c = 0; c < cols; ++c) {
        panel[p * kMicroCols + c] = B(p0 + p, base + c);
      }
      for (std::size_t c = cols; c < kMicroCols; ++c) {
        panel[p * kMicroCols + c] = 0.0f;
      }
    }
  }
}

/// acc(kMicroRows x kMicroCols) = A-panel x B-panel over `depth`. The
/// accumulator block is compile-time sized so it lives in vector registers;
/// the inner loop is a broadcast-multiply-accumulate over one packed row.
void micro_kernel(std::size_t depth, const float* HADFL_RESTRICT ap,
                  const float* HADFL_RESTRICT bp, float* HADFL_RESTRICT acc) {
  for (std::size_t i = 0; i < kMicroRows * kMicroCols; ++i) acc[i] = 0.0f;
  for (std::size_t p = 0; p < depth; ++p) {
    const float* HADFL_RESTRICT brow = bp + p * kMicroCols;
    const float* HADFL_RESTRICT arow = ap + p * kMicroRows;
    for (std::size_t r = 0; r < kMicroRows; ++r) {
      const float av = arow[r];
      HADFL_PRAGMA_SIMD
      for (std::size_t c = 0; c < kMicroCols; ++c) {
        acc[r * kMicroCols + c] += av * brow[c];
      }
    }
  }
}

/// Computes one (i0..i1) x (j0..j1) tile of C. No zero-skip shortcuts:
/// every packed value flows through the multiply, so 0 * NaN = NaN and
/// infinities propagate exactly as in the unblocked loops.
template <typename AccA, typename AccB>
void compute_tile(const AccA& A, const AccB& B, float* c, std::size_t ldc,
                  std::size_t k, float alpha, float beta, std::size_t i0,
                  std::size_t i1, std::size_t j0, std::size_t j1,
                  std::size_t kc) {
  const std::size_t mrows = i1 - i0;
  const std::size_t ncols = j1 - j0;
  for (std::size_t i = i0; i < i1; ++i) {
    float* HADFL_RESTRICT crow = c + i * ldc + j0;
    if (beta == 0.0f) {
      for (std::size_t j = 0; j < ncols; ++j) crow[j] = 0.0f;
    } else {
      HADFL_PRAGMA_SIMD
      for (std::size_t j = 0; j < ncols; ++j) crow[j] *= beta;
    }
  }
  if (k == 0) return;

  const std::size_t apanels = (mrows + kMicroRows - 1) / kMicroRows;
  const std::size_t bpanels = (ncols + kMicroCols - 1) / kMicroCols;
  const std::size_t depth_cap = std::min(kc, k);
  TileScratch& scratch = tl_scratch;
  scratch.a.resize(apanels * kMicroRows * depth_cap);
  scratch.b.resize(bpanels * kMicroCols * depth_cap);
  alignas(kSlabAlignment) float acc[kMicroRows * kMicroCols];

  for (std::size_t p0 = 0; p0 < k; p0 += kc) {
    const std::size_t depth = std::min(kc, k - p0);
    pack_b(B, p0, depth, j0, ncols, scratch.b.data());
    pack_a(A, i0, mrows, p0, depth, scratch.a.data());
    for (std::size_t jr = 0; jr < bpanels; ++jr) {
      const std::size_t jbase = jr * kMicroCols;
      const std::size_t cols = std::min(kMicroCols, ncols - jbase);
      for (std::size_t ir = 0; ir < apanels; ++ir) {
        micro_kernel(depth, scratch.a.data() + ir * depth * kMicroRows,
                     scratch.b.data() + jr * depth * kMicroCols, acc);
        const std::size_t ibase = ir * kMicroRows;
        const std::size_t rows = std::min(kMicroRows, mrows - ibase);
        for (std::size_t r = 0; r < rows; ++r) {
          float* HADFL_RESTRICT crow = c + (i0 + ibase + r) * ldc + j0 + jbase;
          const float* HADFL_RESTRICT arow = acc + r * kMicroCols;
          for (std::size_t cc = 0; cc < cols; ++cc) {
            crow[cc] += alpha * arow[cc];
          }
        }
      }
    }
  }
}

template <typename AccA, typename AccB>
void gemm_tiled(const AccA& A, const AccB& B, float* c, std::size_t m,
                std::size_t k, std::size_t n, float alpha, float beta) {
  if (m == 0 || n == 0) return;
  const KernelConfig cfg = kernel_config();
  const std::size_t iblocks = (m + cfg.mc - 1) / cfg.mc;
  const std::size_t jblocks = (n + cfg.nc - 1) / cfg.nc;
  const std::size_t tiles = iblocks * jblocks;
  auto run_tile = [&](std::size_t t) {
    const std::size_t bi = t / jblocks;
    const std::size_t bj = t % jblocks;
    const std::size_t i0 = bi * cfg.mc;
    const std::size_t j0 = bj * cfg.nc;
    compute_tile(A, B, c, n, k, alpha, beta, i0, std::min(m, i0 + cfg.mc), j0,
                 std::min(n, j0 + cfg.nc), cfg.kc);
  };
  const std::size_t threads = cfg.threads();
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  if (tiles == 1 || threads == 1 ||
      flops < static_cast<double>(cfg.parallel_min_flops)) {
    for (std::size_t t = 0; t < tiles; ++t) run_tile(t);
  } else {
    parallel_for_each(tiles, run_tile, threads);
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, float alpha, float beta) {
  gemm_tiled(RowMajor{a, k}, RowMajor{b, n}, c, m, k, n, alpha, beta);
}

void gemm_at(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha, float beta) {
  gemm_tiled(Trans{a, m}, RowMajor{b, n}, c, m, k, n, alpha, beta);
}

void gemm_bt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha, float beta) {
  gemm_tiled(RowMajor{a, k}, Trans{b, k}, c, m, k, n, alpha, beta);
}

double sum(std::span<const float> x) {
  const float* HADFL_RESTRICT xp = x.data();
  const std::size_t n = x.size();
  double acc = 0.0;
#pragma omp simd reduction(+ : acc)
  for (std::size_t i = 0; i < n; ++i) acc += xp[i];
  return acc;
}

Tensor add(const Tensor& a, const Tensor& b) {
  HADFL_CHECK_SHAPE(a.shape() == b.shape(),
                    "add shape mismatch: " << shape_to_string(a.shape())
                                           << " vs "
                                           << shape_to_string(b.shape()));
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] + b[i];
  return out;
}

// ---- Reference kernels --------------------------------------------------

namespace reference {
namespace {
inline float finish(double acc, float alpha, float beta, float c_old) {
  const double base = beta == 0.0f ? 0.0 : static_cast<double>(beta) * c_old;
  return static_cast<float>(static_cast<double>(alpha) * acc + base);
}
}  // namespace

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, float alpha, float beta) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = finish(acc, alpha, beta, c[i * n + j]);
    }
  }
}

void gemm_at(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha, float beta) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[p * m + i]) * b[p * n + j];
      }
      c[i * n + j] = finish(acc, alpha, beta, c[i * n + j]);
    }
  }
}

void gemm_bt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, float alpha, float beta) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[j * k + p];
      }
      c[i * n + j] = finish(acc, alpha, beta, c[i * n + j]);
    }
  }
}

}  // namespace reference

}  // namespace hadfl::ops
