// Minimal fork-join helpers.
//
// Device-local training bursts are independent between synchronization
// points, so the trainers run them concurrently. Determinism is preserved:
// each task touches only its own device state and RNG stream, and results
// are reduced in fixed index order afterwards. Execution rides on the
// process-shared ThreadPool (common/thread_pool.hpp), so repeated training
// bursts stop paying per-call thread-creation cost.
//
// The same pool also backs data-parallel compute (`parallel_chunks`): work
// is partitioned by SHAPE (fixed grain), never by thread count, and every
// chunk writes a disjoint range, so results are bit-identical at any
// `HADFL_NUM_THREADS`.
//
// Only top-level calls fan out. A call made from inside a pool task (a
// kernel inside a device burst, say) runs every index inline on the
// calling thread: the outer batch already keeps the cores busy
// (ThreadPool's nesting rule). The partition is the same either way.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

#include "common/thread_pool.hpp"

namespace hadfl {

/// Resolved compute-thread budget: the `HADFL_NUM_THREADS` environment
/// variable when set to a positive integer, else the hardware concurrency
/// (>= 1 either way). Read once per process. This caps how many threads
/// *execute* parallel kernels; it never changes their results.
std::size_t default_compute_threads();

/// Runs fn(0), ..., fn(count-1) concurrently on the shared pool, the caller
/// included; inline when called from inside a pool task. Rethrows the
/// first exception after all tasks finish. `max_threads` caps the number
/// of threads working on this batch, caller included (0 = no cap).
inline void parallel_for_each(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_threads = 0) {
  ThreadPool::shared().run_batch(count, fn, max_threads);
}

/// Grain (elements per chunk) used by the span kernels' parallel paths.
inline constexpr std::size_t kParallelChunkGrain = std::size_t{1} << 16;

/// Splits [0, total) into fixed-size chunks of `grain` elements and runs
/// fn(begin, end) over them, in parallel when there is more than one chunk
/// and the thread budget allows. The chunk boundaries depend only on
/// `total` and `grain`, so elementwise kernels partitioned this way are
/// bit-identical at any thread count. Small inputs, and calls from inside
/// a pool task, run inline.
inline void parallel_chunks(std::size_t total, std::size_t grain,
                            std::size_t max_threads,
                            const std::function<void(std::size_t, std::size_t)>& fn) {
  if (total == 0) return;
  if (grain == 0) grain = total;
  const std::size_t chunks = (total + grain - 1) / grain;
  if (chunks <= 1 || max_threads == 1) {
    fn(0, total);
    return;
  }
  ThreadPool::shared().run_batch(
      chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * grain;
        const std::size_t end = std::min(total, begin + grain);
        fn(begin, end);
      },
      max_threads);
}

}  // namespace hadfl
