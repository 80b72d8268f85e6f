// Tuning knobs for the tiled compute kernels (tensor/ops.cpp).
//
// The GEMM family blocks its operands for cache (mc x kc panels of A,
// kc x nc panels of B) and parallelizes over independent (mc x nc) output
// tiles on the shared common/ThreadPool. The tile grid is a function of
// the problem SHAPE and these block sizes only — never of the thread
// count — so a kernel's result is bit-identical whether it runs on 1
// thread or 64. Threads only decide who computes which tile.
//
// Tiles fan out only from a top-level call (coordinator eval, a
// single-device step). A kernel called inside a pool task — a sim device
// burst, a fleet trainer lane, an rt device worker — runs its tiles
// inline, whatever the budget below says (common/thread_pool.hpp).
//
// Thread budget resolution, in priority order:
//   1. KernelConfig::max_threads when non-zero (set_kernel_config),
//   2. the HADFL_NUM_THREADS environment variable,
//   3. hardware concurrency.
#pragma once

#include <cstddef>

namespace hadfl::ops {

/// Register micro-tile: each inner-kernel invocation produces a
/// (kMicroRows x kMicroCols) block of C from packed panels. Compile-time
/// so the accumulator block lives in vector registers.
inline constexpr std::size_t kMicroRows = 6;
inline constexpr std::size_t kMicroCols = 16;

struct KernelConfig {
  /// Cache blocking: rows of A per packed block (L2-resident)...
  std::size_t mc = 64;
  /// ...depth of the packed A/B panels...
  std::size_t kc = 256;
  /// ...and columns of B per packed panel (also the tile width of the
  /// parallel partition of C).
  std::size_t nc = 256;

  /// Compute-thread cap for the kernels; 0 defers to HADFL_NUM_THREADS /
  /// hardware concurrency (common/parallel.hpp).
  std::size_t max_threads = 0;

  /// Problems below this many flops (2*m*k*n) always run on the calling
  /// thread: fork-join overhead beats any speedup on tiny GEMMs. Has no
  /// effect on results.
  std::size_t parallel_min_flops = std::size_t{1} << 18;

  /// The resolved thread budget (priority order documented above; >= 1).
  std::size_t threads() const;
};

/// Process-global kernel configuration, copied by each kernel invocation.
KernelConfig kernel_config();

/// Replaces the global configuration (validates block sizes >= 1).
/// Thread-safe with respect to concurrent kernel calls; callers changing
/// the config mid-training are responsible for their own determinism
/// story (block sizes change results' rounding, max_threads never does).
void set_kernel_config(const KernelConfig& config);

}  // namespace hadfl::ops
