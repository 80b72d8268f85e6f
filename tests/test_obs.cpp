// Tests for the telemetry layer (src/obs): the shared span model and its
// renderers, the lock-free per-track SpanRecorder, the counter/histogram
// metrics registry, and the Chrome trace-event exporter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace hadfl::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ----------------------------------------------------------------- Spans

TEST(Span, KindNamesAndCharsCoverEveryKind) {
  EXPECT_STREQ(span_kind_name(SpanKind::kCompute), "compute");
  EXPECT_STREQ(span_kind_name(SpanKind::kBroadcast), "broadcast");
  EXPECT_STREQ(span_kind_name(SpanKind::kRepair), "repair");
  EXPECT_EQ(span_kind_char(SpanKind::kCompute), '#');
  EXPECT_EQ(span_kind_char(SpanKind::kSync), 'S');
  EXPECT_EQ(span_kind_char(SpanKind::kBroadcast), 'B');
  EXPECT_EQ(span_kind_char(SpanKind::kIdle), '.');
  EXPECT_EQ(span_kind_char(SpanKind::kStall), 'x');
  EXPECT_EQ(span_kind_char(SpanKind::kRepair), 'R');
}

TEST(Timeline, RecordsAndFiltersByDevice) {
  Timeline tl;
  tl.record(0, 0.0, 1.0, SpanKind::kCompute, "train");
  tl.record(1, 0.5, 2.0, SpanKind::kSync);
  tl.record(0, 1.0, 1.5, SpanKind::kBroadcast);
  EXPECT_EQ(tl.spans().size(), 3u);
  EXPECT_DOUBLE_EQ(tl.end_time(), 2.0);
  const std::vector<Span> d0 = tl.spans_for(0);
  ASSERT_EQ(d0.size(), 2u);
  EXPECT_EQ(d0[0].label, "train");
  EXPECT_EQ(d0[1].kind, SpanKind::kBroadcast);
  EXPECT_TRUE(tl.spans_for(7).empty());
  EXPECT_THROW(tl.record(0, 2.0, 1.0, SpanKind::kIdle), InvalidArgument);
}

TEST(Timeline, RenderUsesKindCharsIncludingRepair) {
  Timeline tl;
  tl.record(0, 0.0, 1.0, SpanKind::kCompute);
  tl.record(1, 0.0, 1.0, SpanKind::kRepair);
  const std::string art = tl.render_timeline(2, 20);
  EXPECT_NE(art.find("dev0 |"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('R'), std::string::npos);
}

TEST(Timeline, CsvRoundTripsSpanFields) {
  Timeline tl;
  tl.record(2, 0.25, 0.75, SpanKind::kSync, "ring");
  const std::string path = temp_path("obs_timeline.csv");
  tl.write_csv(path);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("device"), std::string::npos);
  EXPECT_NE(text.find("sync"), std::string::npos);
  EXPECT_NE(text.find("ring"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------- SpanRecorder

TEST(SpanRecorder, DrainOrdersByStartAcrossTracks) {
  SpanRecorder rec(2);
  rec.record(0, 1.0, 2.0, SpanKind::kCompute, "late");
  rec.record(1, 0.0, 0.5, SpanKind::kSync, "early");
  const Timeline tl = rec.drain();
  ASSERT_EQ(tl.spans().size(), 2u);
  EXPECT_EQ(tl.spans()[0].label, "early");
  EXPECT_EQ(tl.spans()[1].label, "late");
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(SpanRecorder, FullTrackDropsNewestAndCounts) {
  SpanRecorder rec(1, /*capacity_per_track=*/2);
  rec.record(0, 0.0, 1.0, SpanKind::kCompute, "a");
  rec.record(0, 1.0, 2.0, SpanKind::kCompute, "b");
  rec.record(0, 2.0, 3.0, SpanKind::kCompute, "dropped");
  EXPECT_EQ(rec.dropped(), 1u);
  const Timeline tl = rec.drain();
  ASSERT_EQ(tl.spans().size(), 2u);
  // Drop-newest: the published prefix is untouched.
  EXPECT_EQ(tl.spans()[0].label, "a");
  EXPECT_EQ(tl.spans()[1].label, "b");
}

TEST(SpanRecorder, ConcurrentSingleWriterTracksDrainConsistently) {
  constexpr std::size_t kTracks = 4;
  constexpr std::size_t kPerTrack = 500;
  SpanRecorder rec(kTracks, kPerTrack);
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kTracks; ++t) {
    writers.emplace_back([&rec, t] {
      for (std::size_t i = 0; i < kPerTrack; ++i) {
        const double start = static_cast<double>(i);
        rec.record(t, start, start + 0.5, SpanKind::kCompute,
                   "t" + std::to_string(t));
      }
    });
  }
  // Drain mid-flight: must see a consistent prefix, never garbage.
  const Timeline partial = rec.drain();
  for (const Span& s : partial.spans()) {
    EXPECT_DOUBLE_EQ(s.end - s.start, 0.5);
  }
  for (auto& w : writers) w.join();
  const Timeline full = rec.drain();
  EXPECT_EQ(full.spans().size(), kTracks * kPerTrack);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(SpanRecorder, NowIsMonotonic) {
  SpanRecorder rec(1);
  const double a = rec.now_s();
  const double b = rec.now_s();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

// --------------------------------------------------------------- Metrics

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  Counter c;
  std::vector<std::thread> adders;
  for (int t = 0; t < 4; ++t) {
    adders.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add(2);
    });
  }
  for (auto& a : adders) a.join();
  EXPECT_EQ(c.value(), 8000u);
}

TEST(Metrics, HistogramBucketsCumulativeStatsAndOverflow) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +inf
  // Boundary value lands in its bucket (<= convention).
  h.observe(10.0);
  EXPECT_EQ(h.bucket_count(1), 2u);
}

TEST(Metrics, HistogramEmptyMinMaxAreZero) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), InvalidArgument);
  EXPECT_THROW(Histogram({1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(Histogram({2.0, 1.0}), InvalidArgument);
}

TEST(Metrics, HistogramConcurrentObserveKeepsTotals) {
  Histogram h(exponential_bounds(1.0, 2.0, 8));
  std::vector<std::thread> observers;
  for (int t = 0; t < 4; ++t) {
    observers.emplace_back([&h, t] {
      for (int i = 0; i < 1000; ++i) {
        h.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& o : observers) o.join();
  EXPECT_EQ(h.count(), 4000u);
  EXPECT_DOUBLE_EQ(h.sum(), 1000.0 * (1 + 2 + 3 + 4));
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    total += h.bucket_count(i);
  }
  EXPECT_EQ(total, 4000u);
}

TEST(Metrics, ExponentialBoundsGrowGeometrically) {
  const std::vector<double> b = exponential_bounds(0.001, 10.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 0.001);
  EXPECT_DOUBLE_EQ(b[1], 0.01);
  EXPECT_DOUBLE_EQ(b[2], 0.1);
  EXPECT_DOUBLE_EQ(b[3], 1.0);
  EXPECT_THROW(exponential_bounds(0.0, 2.0, 3), InvalidArgument);
  EXPECT_THROW(exponential_bounds(1.0, 1.0, 3), InvalidArgument);
  EXPECT_THROW(exponential_bounds(1.0, 2.0, 0), InvalidArgument);
}

TEST(Metrics, ObserveSampledCapsPerRoundObservations) {
  Histogram h({0.5, 1.5, 2.5});
  std::vector<double> values(100);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  observe_sampled(h, values, 10);
  EXPECT_EQ(h.count(), 10u);
  // Evenly strided: indices 0, 10, 20, ..., 90 — the first value is always
  // taken and the sample spreads across the whole span.
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 90.0);
}

TEST(Metrics, ObserveSampledBelowCapObservesEverything) {
  Histogram h({10.0});
  const std::vector<double> values{1.0, 2.0, 3.0};
  observe_sampled(h, values, 8);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
}

TEST(Metrics, ObserveSampledZeroCapOrEmptyRecordsNothing) {
  Histogram h({10.0});
  observe_sampled(h, std::vector<double>{1.0, 2.0}, 0);
  observe_sampled(h, {}, 8);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, RegistryReturnsSameInstrumentForSameName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("hits");
  Counter& b = reg.counter("hits");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  Histogram& h1 = reg.histogram("lat", {1.0, 2.0});
  Histogram& h2 = reg.histogram("lat", {9.0});  // bounds ignored on reuse
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Metrics, SnapshotCapturesAndFindsInstruments) {
  MetricsRegistry reg;
  reg.counter("bytes").add(42);
  reg.histogram("lat", {1.0, 2.0}).observe(1.5);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_FALSE(snap.empty());
  const CounterSample* c = snap.find_counter("bytes");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 42u);
  const HistogramSample* h = snap.find_histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->mean(), 1.5);
  ASSERT_EQ(h->buckets.size(), 3u);
  EXPECT_EQ(h->buckets[1], 1u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
  EXPECT_EQ(snap.find_histogram("missing"), nullptr);
}

TEST(Metrics, SnapshotCsvEmitsLongFormatRows) {
  MetricsRegistry reg;
  reg.counter("bytes").add(7);
  reg.histogram("lat", {0.5}).observe(0.25);
  const std::string path = temp_path("obs_metrics.csv");
  reg.snapshot().write_csv(path);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("metric"), std::string::npos);
  EXPECT_NE(text.find("bytes"), std::string::npos);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
  EXPECT_NE(text.find("le_inf"), std::string::npos);
  std::remove(path.c_str());
}

// Zero-count regression: a histogram that was registered but never
// observed must export 0-valued stats, not its ±inf min/max sentinels —
// "inf" in the CSV breaks downstream parsers. Covers the snapshot
// accessors, the CSV writer, and render().
TEST(Metrics, ZeroCountHistogramExportsNoInfSentinels) {
  MetricsRegistry reg;
  reg.histogram("never_observed", {0.5, 1.0});
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSample* h = snap.find_histogram("never_observed");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_DOUBLE_EQ(h->min, 0.0);
  EXPECT_DOUBLE_EQ(h->max, 0.0);
  EXPECT_DOUBLE_EQ(h->mean(), 0.0);

  const std::string path = temp_path("obs_zero_hist.csv");
  snap.write_csv(path);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("min,0"), std::string::npos);
  EXPECT_NE(text.find("max,0"), std::string::npos);
  EXPECT_EQ(text.find("min,inf"), std::string::npos);
  EXPECT_EQ(text.find("max,-inf"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(snap.render().find("inf"), std::string::npos);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- Exporter

TEST(ChromeTrace, EmitsLoadableEventsPerSpan) {
  Timeline tl;
  tl.record(0, 0.0, 0.001, SpanKind::kCompute, "train");
  tl.record(1, 0.001, 0.002, SpanKind::kSync);
  const std::string path = temp_path("obs_trace.json");
  write_chrome_trace(path, tl.spans());
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"train\""), std::string::npos);
  // Unlabeled span falls back to the kind name.
  EXPECT_NE(text.find("\"name\":\"sync\""), std::string::npos);
  EXPECT_NE(text.find("\"tid\":1"), std::string::npos);
  // Microsecond timestamps: 0.001 s -> 1000 us duration.
  EXPECT_NE(text.find("\"dur\":1000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ChromeTrace, ThrowsWhenPathNotWritable) {
  Timeline tl;
  tl.record(0, 0.0, 1.0, SpanKind::kCompute);
  EXPECT_THROW(
      write_chrome_trace("/nonexistent-dir/trace.json", tl.spans()),
      Error);
}

TEST(ChromeTrace, JsonEscapeHandlesSpecialsAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace hadfl::obs
