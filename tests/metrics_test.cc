// Tests for counters, gauges, fixed-bucket latency histograms and the
// registry snapshot used by the serving layer.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace tegra {
namespace {

TEST(CounterTest, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.Value(), 3.5);
  g.Set(-1);
  EXPECT_DOUBLE_EQ(g.Value(), -1);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0);
  EXPECT_DOUBLE_EQ(snap.p50, 0);
  EXPECT_DOUBLE_EQ(snap.p99, 0);
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(3.0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 5.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 5.0 / 3.0);
}

TEST(HistogramTest, PercentilesAreOrderedAndInRange) {
  Histogram h;  // default latency bounds
  // A skewed latency population: mostly fast, a slow tail.
  for (int i = 0; i < 900; ++i) h.Observe(0.001);
  for (int i = 0; i < 90; ++i) h.Observe(0.050);
  for (int i = 0; i < 10; ++i) h.Observe(1.0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
  EXPECT_GE(snap.p50, snap.min);
  EXPECT_LE(snap.p99, snap.max);
  // p50 must sit in the fast mass, p99 in the slow tail's bucket range.
  EXPECT_LT(snap.p50, 0.01);
  EXPECT_GT(snap.p99, 0.05);
}

TEST(HistogramTest, ObservationsBeyondLastBoundLandInOverflowBucket) {
  Histogram h({0.1});
  h.Observe(5.0);
  h.Observe(7.0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.max, 7.0);
  EXPECT_GT(snap.p50, 0.1);  // Interpolated inside the overflow bucket.
}

TEST(HistogramTest, ConcurrentObserveLosesNothing) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) h.Observe(0.001 * (i % 100 + 1));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h.Snapshot().count, 80000u);
}

TEST(MetricsRegistryTest, InstrumentsAreStableAcrossLookups) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(registry.GetCounter("x")->Value(), 1u);
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
}

TEST(MetricsRegistryTest, SnapshotContainsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("requests")->Increment(7);
  registry.GetGauge("depth")->Set(3);
  registry.GetHistogram("latency")->Observe(0.25);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_TRUE(snap.counters.count("requests"));
  EXPECT_EQ(snap.counters.at("requests"), 7u);
  ASSERT_TRUE(snap.gauges.count("depth"));
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 3);
  ASSERT_TRUE(snap.histograms.count("latency"));
  EXPECT_EQ(snap.histograms.at("latency").count, 1u);
}

TEST(MetricsRegistryTest, RenderingsMentionEveryName) {
  MetricsRegistry registry;
  registry.GetCounter("c1")->Increment();
  registry.GetGauge("g1")->Set(1);
  registry.GetHistogram("h1")->Observe(0.5);
  const MetricsSnapshot snap = registry.Snapshot();
  const std::string text = snap.ToString();
  EXPECT_NE(text.find("c1"), std::string::npos);
  EXPECT_NE(text.find("g1"), std::string::npos);
  EXPECT_NE(text.find("h1"), std::string::npos);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"c1\":1"), std::string::npos);
  EXPECT_NE(json.find("\"h1\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        registry.GetCounter("shared" + std::to_string(i % 10))->Increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  uint64_t total = 0;
  for (const auto& [name, value] : registry.Snapshot().counters) {
    (void)name;
    total += value;
  }
  EXPECT_EQ(total, 8u * 200u);
}

TEST(ScopedLatencyTest, ObservesOnScopeExit) {
  Histogram h;
  { ScopedLatency latency(&h); }
  EXPECT_EQ(h.Snapshot().count, 1u);
  { ScopedLatency latency(nullptr); }  // Null histogram is a no-op.
}

TEST(HistogramTest, SnapshotExposesPerBucketCounts) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(1.5);   // bucket 1 (<= 2)
  h.Observe(3.0);   // bucket 2 (<= 4)
  h.Observe(100.0); // overflow (+inf) bucket
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.bucket_counts.size(), 4u);  // bounds + implicit +inf
  EXPECT_EQ(snap.bucket_counts[0], 1u);
  EXPECT_EQ(snap.bucket_counts[1], 1u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 1u);
  uint64_t total = 0;
  for (uint64_t c : snap.bucket_counts) total += c;
  EXPECT_EQ(total, snap.count);
}

// Regression for the snapshot race: Observe used to bump the bucket/count
// before the min/max CAS loops, so a concurrent Snapshot could see count > 0
// with min still +inf and max still -inf and feed them into std::clamp
// (UB: hi < lo). Snapshots taken mid-storm must always be internally sane.
TEST(HistogramTest, ConcurrentObserveAndSnapshotStaySane) {
  Histogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      double v = 1e-4 * (t + 1);
      // do-while: every writer observes at least once even if the reader
      // loop below finishes before this thread is first scheduled.
      do {
        h.Observe(v);
        v = v < 1.0 ? v * 1.01 : 1e-4;
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int i = 0; i < 2000; ++i) {
    const HistogramSnapshot snap = h.Snapshot();
    if (snap.count == 0) continue;
    EXPECT_LE(snap.min, snap.max);
    EXPECT_GE(snap.min, 0.0);
    EXPECT_GE(snap.p50, snap.min);
    EXPECT_LE(snap.p50, snap.max);
    EXPECT_LE(snap.p50, snap.p95);
    EXPECT_LE(snap.p95, snap.p99);
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  const HistogramSnapshot final_snap = h.Snapshot();
  EXPECT_GT(final_snap.count, 0u);
  EXPECT_LE(final_snap.min, final_snap.max);
}

}  // namespace
}  // namespace tegra
