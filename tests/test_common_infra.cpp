// Tests for the remaining common-infrastructure pieces: the fork-join
// helper, log levels, and trace CSV output.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "obs/span.hpp"

namespace hadfl {
namespace {

TEST(ParallelForEach, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(8);
  parallel_for_each(8, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForEach, ZeroAndOneAreInline) {
  parallel_for_each(0, [](std::size_t) { FAIL() << "must not run"; });
  int count = 0;
  parallel_for_each(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelForEach, PropagatesFirstException) {
  EXPECT_THROW(parallel_for_each(4,
                                 [](std::size_t i) {
                                   if (i == 2) {
                                     throw InvalidArgument("boom");
                                   }
                                 }),
               InvalidArgument);
}

/// Runs `fn` as a queued task on a one-thread pool; the pool's destructor
/// waits for it.
void run_in_pool_task(std::function<void()> fn) {
  ThreadPool pool(1);
  pool.submit(std::move(fn));
}

/// A 4-task batch whose task 0 throws: how often each index ran, and
/// whether the Error reached the caller.
struct FailingBatch {
  std::vector<int> hits;
  bool threw = false;
};

FailingBatch run_failing_batch(std::size_t max_threads) {
  std::vector<std::atomic<int>> hits(4);
  FailingBatch result;
  try {
    parallel_for_each(
        4,
        [&](std::size_t i) {
          ++hits[i];
          if (i == 0) throw Error("first fails");
        },
        max_threads);
  } catch (const Error&) {
    result.threw = true;
  }
  for (const auto& h : hits) result.hits.push_back(h.load());
  return result;
}

TEST(ParallelForEach, OtherTasksStillCompleteOnException) {
  // Same contract on every path: fan-out, serial (max_threads = 1), and
  // inline inside a pool task.
  const std::vector<int> once(4, 1);
  const FailingBatch fanned = run_failing_batch(0);
  EXPECT_TRUE(fanned.threw);
  EXPECT_EQ(fanned.hits, once);

  const FailingBatch serial = run_failing_batch(1);
  EXPECT_TRUE(serial.threw);
  EXPECT_EQ(serial.hits, once);

  FailingBatch nested;
  run_in_pool_task([&] { nested = run_failing_batch(0); });
  EXPECT_TRUE(nested.threw);
  EXPECT_EQ(nested.hits, once);
}

/// The thread that ran each of `count` indices of a parallel_for_each.
std::vector<std::thread::id> record_threads(std::size_t count) {
  std::vector<std::thread::id> ran(count);
  parallel_for_each(count,
                    [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  return ran;
}

TEST(ParallelForEach, NestedCallsRunInlineOnTheCallingThread) {
  // Inside a parallel_for_each task.
  std::vector<std::vector<std::thread::id>> inner(4);
  std::vector<std::thread::id> outer(4);
  parallel_for_each(4, [&](std::size_t t) {
    outer[t] = std::this_thread::get_id();
    inner[t] = record_threads(16);
  });
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(inner[t], std::vector<std::thread::id>(16, outer[t]));
  }

  // Inside a submitted task.
  std::thread::id task_thread;
  std::vector<std::thread::id> in_task;
  run_in_pool_task([&] {
    task_thread = std::this_thread::get_id();
    in_task = record_threads(16);
  });
  EXPECT_EQ(in_task, std::vector<std::thread::id>(16, task_thread));

  // A top-level call still runs every index exactly once.
  std::vector<std::atomic<int>> hits(64);
  parallel_for_each(64, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitRunsTasksOnPoolThreads) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] { done.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, NestedRunBatchDoesNotDeadlock) {
  // run_batch from inside a pool task must complete even when every pool
  // thread is already busy: the nested batch runs inline.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.run_batch(4, [&](std::size_t) {
    ThreadPool::shared().run_batch(4, [&](std::size_t) { ++inner; });
  });
  EXPECT_EQ(inner.load(), 16);
}

TEST(ThreadPool, EnsureThreadsGrowsButNeverShrinks) {
  ThreadPool pool(1);
  pool.ensure_threads(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  pool.ensure_threads(2);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, RunBatchRethrowsAfterCompletion) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(6);
  try {
    pool.run_batch(6, [&](std::size_t i) {
      ++hits[i];
      if (i == 3) throw InvalidArgument("batch boom");
    });
    FAIL() << "expected throw";
  } catch (const InvalidArgument&) {
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Logging, LevelGatesMessages) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(saved);
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
  EXPECT_STREQ(log_level_name(LogLevel::kOff), "OFF");
}

TEST(TraceCsv, WritesAllSpanFields) {
  obs::Timeline trace;
  trace.record(0, 0.0, 1.5, obs::SpanKind::kCompute, "warmup");
  trace.record(2, 1.5, 2.0, obs::SpanKind::kSync);
  const std::string path = ::testing::TempDir() + "/hadfl_trace_test.csv";
  trace.write_csv(path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("device,start,end,kind,label"), std::string::npos);
  EXPECT_NE(content.find("compute,warmup"), std::string::npos);
  EXPECT_NE(content.find("sync,"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hadfl
