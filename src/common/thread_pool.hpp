// Reusable worker-thread pool.
//
// Two usage modes share one implementation:
//  * fork-join batches (`run_batch`): the caller participates in executing
//    its own batch, and a batch of N tasks costs zero thread spawns after
//    pool construction. `parallel_for_each` (common/parallel.hpp) runs on
//    the process-shared pool.
//  * long-running tasks (`submit`): the rt runtime hosts one device worker
//    loop per pool thread (src/rt). A dedicated pool sized to the device
//    count guarantees every worker gets a thread.
//
// Nesting rule: a thread never fans out while it is itself a unit of
// parallel work — a queued task (sim device bursts, fleet trainer lanes,
// rt device worker loops) or a caller draining its own batch. A batch
// started from such a thread runs inline on it, so nested calls cannot
// deadlock and never oversubscribe the cores the outer batch already
// occupies. Only top-level calls fan out (coordinator eval, the fleet's
// O(K) sweeps, state aggregation). Results do not depend on which thread
// runs a task, so the rule changes timing only.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hadfl {

class ThreadPool {
 public:
  /// Starts `threads` workers (>= 1 enforced).
  explicit ThreadPool(std::size_t threads);

  /// Drains queued tasks, then joins all workers. Long-running tasks must
  /// have returned before destruction (the rt runner joins its device loops
  /// by protocol: every worker exits on its stop command or fault plan).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Tasks must not throw; wrap anything fallible.
  void submit(std::function<void()> task);

  /// Grows the pool to at least `n` workers (never shrinks).
  void ensure_threads(std::size_t n);

  std::size_t thread_count() const;

  /// Runs fn(0..count-1) to completion. The calling thread executes tasks
  /// alongside the pool workers (it is never idle-blocked while work
  /// remains). Called from a thread that is executing pool work (of any
  /// pool), the whole batch runs inline on that thread. Every index runs
  /// even when some throw; the first exception is rethrown after all
  /// tasks finish.
  ///
  /// `max_concurrency` caps the number of threads working on the batch,
  /// caller included (0 = no cap). The cap only bounds *who executes*;
  /// task order and results never depend on it — partitioning work by
  /// shape and capping by thread count is how the compute kernels stay
  /// bit-identical at any `HADFL_NUM_THREADS`.
  void run_batch(std::size_t count, const std::function<void(std::size_t)>& fn,
                 std::size_t max_concurrency = 0);

  /// Process-wide shared pool used by parallel_for_each. Sized to
  /// max(hardware_concurrency, 4) so a device-level batch of up to four
  /// devices runs each device on its own thread. Kernels called inside
  /// those tasks run inline (nesting rule above), so the pool never stacks
  /// kernel fan-outs on top of busy device threads.
  static ThreadPool& shared();

 private:
  struct Batch {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t next = 0;       // next unclaimed index (guarded by mu)
    std::size_t done = 0;       // finished tasks (guarded by mu)
    std::exception_ptr error;   // first failure (guarded by mu)
    std::mutex mu;
    std::condition_variable cv;
  };

  void worker_loop();
  static void drain_batch(Batch& batch);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace hadfl
