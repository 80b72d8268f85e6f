#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace hadfl {

namespace {

// True while this thread executes pool work: a queued task on a pool
// worker, or a run_batch caller draining its own batch. A batch started
// from such a thread runs inline (see run_batch).
thread_local bool t_in_pool_work = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  ensure_threads(std::max<std::size_t>(1, threads));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::ensure_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < n) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::size_t ThreadPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void ThreadPool::worker_loop() {
  t_in_pool_work = true;  // this thread only ever runs queued tasks
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::drain_batch(Batch& batch) {
  for (;;) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(batch.mu);
      if (batch.next >= batch.count) return;
      index = batch.next++;
    }
    std::exception_ptr error;
    try {
      (*batch.fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(batch.mu);
      if (error && !batch.error) batch.error = error;
      if (++batch.done == batch.count) batch.cv.notify_all();
    }
  }
}

void ThreadPool::run_batch(std::size_t count,
                           const std::function<void(std::size_t)>& fn,
                           std::size_t max_concurrency) {
  if (count == 0) return;
  // A thread that is itself a unit of parallel work keeps its batch: the
  // other cores already run sibling units, so helpers would only add
  // wake-ups and lock traffic (and, for tiny kernels, cost more than the
  // work). The serial loop honours the same contract as the parallel one.
  if (count == 1 || max_concurrency == 1 || t_in_pool_work) {
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  // Heap-owned so a helper task that wakes after the caller returned (it
  // claims no index, the caller never waited on it) still touches live
  // memory. `fn` stays valid for every claimed index: claiming implies the
  // done-count the caller is waiting on has not been reached yet.
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->fn = &fn;
  // Helpers beyond count-1 would find the batch already drained, so cap;
  // the caller participates, so a concurrency cap of T means T-1 helpers.
  std::size_t helpers = std::min(count - 1, thread_count());
  if (max_concurrency > 0) helpers = std::min(helpers, max_concurrency - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([batch] { drain_batch(*batch); });
  }
  t_in_pool_work = true;
  drain_batch(*batch);
  t_in_pool_work = false;
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->cv.wait(lock, [&batch] { return batch->done == batch->count; });
  if (batch->error) {
    std::exception_ptr error = batch->error;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(
      std::max<std::size_t>(4, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace hadfl
