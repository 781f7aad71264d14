// Unit tests for tegra::health driven entirely on synthetic clocks:
//
//  * TimeSeriesStore — counter delta encoding, per-kind downsampling into
//    the coarse tier (counter deltas sum, gauges keep last, quantiles keep
//    max), ring wrap, window aggregation, sparkline rendering,
//  * SloEngine — multi-window burn-rate fire/resolve with keep_seconds
//    hysteresis (a one-tick dip must not flap the alert) and gauge rules
//    with pending/for damping,
//  * Watchdog — edge-triggered stall reporting (one episode, one report),
//    loop-silence detection, and a real directed-SIGPROF stack capture of a
//    blocked thread,
//  * HealthMonitor — the manual Tick pipeline and the interval override.

#include "health/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "health/heartbeat.h"
#include "health/slo.h"
#include "health/timeseries.h"
#include "health/watchdog.h"
#include "prof/profiler.h"

namespace tegra {
namespace health {
namespace {

// ---------------------------------------------------------------- TimeSeries

TEST(TimeSeriesTest, CounterSeriesStoresDeltasNotCumulatives) {
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("requests");
  TimeSeriesStore store;

  requests->Increment(10);
  store.Ingest(registry.Snapshot(), 1.0);  // first sample: no delta base yet
  requests->Increment(3);
  store.Ingest(registry.Snapshot(), 2.0);
  requests->Increment(7);
  store.Ingest(registry.Snapshot(), 3.0);

  const auto window = store.Query("requests", /*coarse=*/false);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->kind, SeriesKind::kCounter);
  ASSERT_EQ(window->values.size(), 3u);
  EXPECT_DOUBLE_EQ(window->values[0], 0.0);  // baseline, not 10
  EXPECT_DOUBLE_EQ(window->values[1], 3.0);
  EXPECT_DOUBLE_EQ(window->values[2], 7.0);
  EXPECT_DOUBLE_EQ(window->end_seconds, 3.0);
  EXPECT_DOUBLE_EQ(store.SumOver("requests", 2.0), 10.0);
  EXPECT_DOUBLE_EQ(store.LastValue("requests"), 7.0);
}

TEST(TimeSeriesTest, HistogramDerivesCountAndQuantileSeries) {
  MetricsRegistry registry;
  Histogram* latency = registry.GetHistogram("latency");
  TimeSeriesStore store;

  latency->Observe(0.010);
  latency->Observe(0.020);
  store.Ingest(registry.Snapshot(), 1.0);

  const auto names = store.Names();
  EXPECT_NE(std::find(names.begin(), names.end(), "latency.count"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "latency.p50"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "latency.p99"), names.end());
  const auto p99 = store.Query("latency.p99", /*coarse=*/false);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->kind, SeriesKind::kMax);
}

TEST(TimeSeriesTest, DownsamplingFollowsSeriesKind) {
  TimeSeriesOptions options;
  options.interval_seconds = 1.0;
  options.downsample_factor = 3;  // one coarse bucket per 3 fine samples
  TimeSeriesStore store(options);

  MetricsRegistry registry;
  Counter* events = registry.GetCounter("events");
  Gauge* depth = registry.GetGauge("depth");
  Histogram* latency = registry.GetHistogram("latency");

  // Tick 1 (counter baseline), 2, 3 — first coarse bucket flushes at 3.
  // Counter deltas after the baseline: 5, 2 -> coarse sum 7.
  // Gauge values: 10, 20, 30 -> coarse last 30.
  // latency.p99: rises then falls -> coarse max keeps the spike.
  const double observations[3] = {0.100, 0.900, 0.050};
  const double gauges[3] = {10, 20, 30};
  const uint64_t increments[3] = {100, 5, 2};
  double max_p99 = 0;
  for (int i = 0; i < 3; ++i) {
    events->Increment(increments[i]);
    depth->Set(gauges[i]);
    latency->Observe(observations[i]);
    store.Ingest(registry.Snapshot(), 1.0 + i);
    max_p99 = std::max(
        max_p99, store.LastValue("latency.p99", 0.0));
  }

  const auto events_coarse = store.Query("events", /*coarse=*/true);
  ASSERT_TRUE(events_coarse.has_value());
  ASSERT_EQ(events_coarse->values.size(), 1u);
  EXPECT_DOUBLE_EQ(events_coarse->values[0], 7.0);  // sum of deltas
  EXPECT_DOUBLE_EQ(events_coarse->interval_seconds, 3.0);

  const auto depth_coarse = store.Query("depth", /*coarse=*/true);
  ASSERT_TRUE(depth_coarse.has_value());
  ASSERT_EQ(depth_coarse->values.size(), 1u);
  EXPECT_DOUBLE_EQ(depth_coarse->values[0], 30.0);  // last value

  const auto p99_coarse = store.Query("latency.p99", /*coarse=*/true);
  ASSERT_TRUE(p99_coarse.has_value());
  ASSERT_EQ(p99_coarse->values.size(), 1u);
  // Max-preserving: the 0.9s spike from tick 2 survives even though the
  // window ended lower.
  EXPECT_DOUBLE_EQ(p99_coarse->values[0], max_p99);
  EXPECT_GT(p99_coarse->values[0], 0.5);
}

TEST(TimeSeriesTest, FineRingWrapsKeepingNewestSamples) {
  TimeSeriesOptions options;
  options.fine_capacity = 4;
  TimeSeriesStore store(options);
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("g");

  for (int i = 1; i <= 6; ++i) {
    gauge->Set(i);
    store.Ingest(registry.Snapshot(), static_cast<double>(i));
  }

  const auto window = store.Query("g", /*coarse=*/false);
  ASSERT_TRUE(window.has_value());
  const std::vector<double> expect = {3, 4, 5, 6};  // oldest-to-newest
  EXPECT_EQ(window->values, expect);
  EXPECT_EQ(store.ticks(), 6u);
}

TEST(TimeSeriesTest, AggregatesFallBackToCoarseForLongWindows) {
  TimeSeriesOptions options;
  options.interval_seconds = 1.0;
  options.fine_capacity = 4;      // fine tier spans only 4 s
  options.downsample_factor = 2;  // coarse buckets of 2 s
  TimeSeriesStore store(options);
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");

  for (int i = 1; i <= 10; ++i) {
    counter->Increment(1);
    store.Ingest(registry.Snapshot(), static_cast<double>(i));
  }
  // 9 deltas of 1 after the baseline. A 10 s window cannot be served from
  // the 4-sample fine ring, so the coarse tier must answer.
  EXPECT_DOUBLE_EQ(store.SumOver("c", 10.0), 9.0);
  // A 2 s window fits in the fine tier.
  EXPECT_DOUBLE_EQ(store.SumOver("c", 2.0), 2.0);
  EXPECT_DOUBLE_EQ(store.SumOver("unknown", 10.0), 0.0);
}

TEST(TimeSeriesTest, SparklineRendersAndPreservesSpikes) {
  EXPECT_EQ(AsciiSparkline({}, 10), "");
  EXPECT_EQ(AsciiSparkline({1, 2, 3}, 0), "");

  // Flat series: all-minimum cells, one per value.
  const std::string flat = AsciiSparkline({5, 5, 5}, 10);
  EXPECT_FALSE(flat.empty());

  // 300 samples max-pooled into 10 cells: the single spike at index 157
  // must survive as the tallest glyph.
  std::vector<double> values(300, 1.0);
  values[157] = 100.0;
  const std::string line = AsciiSparkline(values, 10);
  EXPECT_NE(line.find("█"), std::string::npos);
}

// ----------------------------------------------------------------------- SLO

// One error-ratio rule over synthetic counters, tight windows so the test
// drives whole fire/resolve cycles in a handful of ticks.
class BurnRateTest : public testing::Test {
 protected:
  BurnRateTest() : store_(StoreOptions()) {
    SloSpec spec;
    spec.name = "availability";
    spec.kind = SloSpec::Kind::kErrorRatio;
    spec.bad_series = {"bad"};
    spec.total_series = "total";
    spec.objective = 0.9;                 // budget 0.1
    spec.windows = {{2.0, 4.0, 3.0}};     // short 2s, long 4s, burn > 3x
    spec.keep_seconds = 3.0;
    engine_ = std::make_unique<SloEngine>(std::vector<SloSpec>{spec});
    bad_ = registry_.GetCounter("bad");
    total_ = registry_.GetCounter("total");
  }

  static TimeSeriesOptions StoreOptions() {
    TimeSeriesOptions options;
    options.interval_seconds = 1.0;
    return options;
  }

  // One recorder tick at `now`: `errors` of `requests` failed this interval.
  AlertState Tick(double now, uint64_t requests, uint64_t errors) {
    bad_->Increment(errors);
    total_->Increment(requests);
    store_.Ingest(registry_.Snapshot(), now);
    engine_->Evaluate(store_, now);
    return engine_->Snapshot()[0].state;
  }

  MetricsRegistry registry_;
  TimeSeriesStore store_;
  std::unique_ptr<SloEngine> engine_;
  Counter* bad_ = nullptr;
  Counter* total_ = nullptr;
};

TEST_F(BurnRateTest, FiresOnSustainedBurnAndResolvesAfterKeepSeconds) {
  // Healthy baseline long enough to fill the 4s long window.
  for (double t = 1; t <= 4; ++t) {
    EXPECT_EQ(Tick(t, 10, 0), AlertState::kInactive);
  }

  // 100% errors: the short window trips immediately (burn 5x over 2s) but
  // the long window still remembers the healthy stretch (burn 2.5x < 3x),
  // so the very first bad tick does not alert — that's the whole point of
  // pairing the windows.
  EXPECT_EQ(Tick(5, 10, 10), AlertState::kInactive);
  // Second bad tick: both windows over threshold -> fires (for_seconds 0).
  EXPECT_EQ(Tick(6, 10, 10), AlertState::kFiring);
  EXPECT_EQ(engine_->firing(), 1u);
  const AlertStatus status = engine_->Snapshot()[0];
  EXPECT_GT(status.value, 3.0);
  EXPECT_NE(status.detail.find("burn"), std::string::npos);

  // Errors stop. The windows drain over the next ticks and keep_seconds=3
  // then holds the alert through the early clear stretch — no flap.
  EXPECT_EQ(Tick(7, 10, 0), AlertState::kFiring);  // windows still burning
  EXPECT_EQ(Tick(8, 10, 0), AlertState::kFiring);  // clear, inside keep
  EXPECT_EQ(Tick(9, 10, 0), AlertState::kFiring);  // clear, inside keep

  // Sustained clear past keep_seconds: resolves.
  EXPECT_EQ(Tick(10, 10, 0), AlertState::kInactive);
  EXPECT_EQ(engine_->firing(), 0u);

  // And a fresh sustained burn fires again (the cycle is repeatable).
  EXPECT_EQ(Tick(11, 10, 10), AlertState::kInactive);  // long window damps
  EXPECT_EQ(Tick(12, 10, 10), AlertState::kFiring);
}

TEST_F(BurnRateTest, OneTickDipDoesNotFlapTheAlert) {
  for (double t = 1; t <= 6; ++t) Tick(t, 10, 10);
  ASSERT_EQ(engine_->Snapshot()[0].state, AlertState::kFiring);

  // One clean tick, then errors resume: the alert must never leave kFiring.
  EXPECT_EQ(Tick(7, 10, 0), AlertState::kFiring);
  EXPECT_EQ(Tick(8, 10, 10), AlertState::kFiring);
  EXPECT_EQ(Tick(9, 10, 10), AlertState::kFiring);
}

TEST(SloGaugeTest, GaugeAboveWaitsOutForSecondsThenFires) {
  SloSpec spec;
  spec.name = "queue";
  spec.kind = SloSpec::Kind::kGaugeAbove;
  spec.series = "depth";
  spec.threshold = 10;
  spec.for_seconds = 3;
  spec.keep_seconds = 2;
  SloEngine engine({spec});

  MetricsRegistry registry;
  Gauge* depth = registry.GetGauge("depth");
  TimeSeriesStore store;

  auto tick = [&](double now, double value) {
    depth->Set(value);
    store.Ingest(registry.Snapshot(), now);
    engine.Evaluate(store, now);
    return engine.Snapshot()[0].state;
  };

  EXPECT_EQ(tick(1, 5), AlertState::kInactive);
  EXPECT_EQ(tick(2, 50), AlertState::kPending);  // over, waiting out for_s
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(tick(3, 50), AlertState::kPending);
  EXPECT_EQ(tick(5, 50), AlertState::kFiring);   // held >= 3s
  // Clears; resolves only after keep_seconds of clean.
  EXPECT_EQ(tick(6, 5), AlertState::kFiring);
  EXPECT_EQ(tick(9, 5), AlertState::kInactive);
  // A pending alert whose condition clears drops straight back.
  EXPECT_EQ(tick(10, 50), AlertState::kPending);
  EXPECT_EQ(tick(11, 5), AlertState::kInactive);
}

TEST(SloGaugeTest, GaugeBelowIgnoresUnknownAndZeroSeries) {
  SloSpec spec;
  spec.name = "quality";
  spec.kind = SloSpec::Kind::kGaugeBelow;
  spec.series = "score.p50";
  spec.threshold = 0.3;
  spec.for_seconds = 0;
  SloEngine engine({spec});

  MetricsRegistry registry;
  Gauge* score = registry.GetGauge("score.p50");
  TimeSeriesStore store;

  // Unknown series (store empty): no alarm.
  engine.Evaluate(store, 1);
  EXPECT_EQ(engine.Snapshot()[0].state, AlertState::kInactive);

  // Zero (an empty histogram reports quantile 0): still no alarm.
  score->Set(0);
  store.Ingest(registry.Snapshot(), 2);
  engine.Evaluate(store, 2);
  EXPECT_EQ(engine.Snapshot()[0].state, AlertState::kInactive);

  // A real sub-floor value fires.
  score->Set(0.1);
  store.Ingest(registry.Snapshot(), 3);
  engine.Evaluate(store, 3);
  EXPECT_EQ(engine.Snapshot()[0].state, AlertState::kFiring);
}

TEST(SloDefaultsTest, DefaultSpecsCoverTheContractedSignals) {
  const std::vector<SloSpec> specs = SloEngine::DefaultSpecs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "extract_availability");
  EXPECT_EQ(specs[0].kind, SloSpec::Kind::kErrorRatio);
  ASSERT_EQ(specs[0].windows.size(), 2u);  // fast + slow burn pairs
  EXPECT_DOUBLE_EQ(specs[0].windows[0].burn_threshold, 14.4);
  EXPECT_DOUBLE_EQ(specs[0].windows[1].burn_threshold, 6.0);
  EXPECT_EQ(specs[1].series, "service.total_seconds.p99");
  EXPECT_EQ(specs[2].kind, SloSpec::Kind::kGaugeBelow);
  EXPECT_EQ(specs[3].series, "service.queue_depth");
}

// ------------------------------------------------------------------ Watchdog

TEST(WatchdogTest, WorkerStallIsEdgeTriggeredExactlyOnce) {
  HeartbeatRegistry registry;
  WatchdogOptions options;
  options.stall_threshold_seconds = 1.0;
  options.capture_stack = false;  // heartbeat owned by this (test) thread
  Watchdog watchdog(&registry, /*metrics=*/nullptr, options);

  Heartbeat* heartbeat = registry.Register("worker", ThreadKind::kWorker);
  ASSERT_NE(heartbeat, nullptr);

  const uint64_t t0 = Heartbeat::NowMicros();
  heartbeat->BeginWork("extract");

  // Not yet overdue.
  watchdog.Check(t0 + 500'000);
  EXPECT_FALSE(watchdog.stalled());
  EXPECT_EQ(watchdog.stalls_total(), 0u);

  // Overdue: exactly one report, however many checks observe the episode.
  watchdog.Check(t0 + 2'000'000);
  EXPECT_TRUE(watchdog.stalled());
  EXPECT_EQ(watchdog.stalls_total(), 1u);
  watchdog.Check(t0 + 3'000'000);
  watchdog.Check(t0 + 4'000'000);
  EXPECT_EQ(watchdog.stalls_total(), 1u);
  EXPECT_TRUE(watchdog.stalled());

  const auto stall = watchdog.last_stall();
  ASSERT_TRUE(stall.has_value());
  EXPECT_EQ(stall->thread_name, "worker");
  EXPECT_EQ(stall->label, "extract");
  EXPECT_GE(stall->stuck_seconds, 1.0);

  // Work finishes: the condition clears.
  heartbeat->EndWork();
  watchdog.Check(t0 + 5'000'000);
  EXPECT_FALSE(watchdog.stalled());
  EXPECT_EQ(watchdog.stalls_total(), 1u);

  // A new episode on the same thread reports again.
  heartbeat->BeginWork("extract");
  watchdog.Check(Heartbeat::NowMicros() + 2'000'000);
  EXPECT_EQ(watchdog.stalls_total(), 2u);

  heartbeat->EndWork();
  registry.Release(heartbeat);
}

TEST(WatchdogTest, SilentLoopStalls) {
  HeartbeatRegistry registry;
  WatchdogOptions options;
  options.loop_threshold_seconds = 1.0;
  options.capture_stack = false;
  Watchdog watchdog(&registry, /*metrics=*/nullptr, options);

  Heartbeat* loop = registry.Register("loop", ThreadKind::kLoop);
  ASSERT_NE(loop, nullptr);
  loop->Beat();
  const uint64_t t0 = Heartbeat::NowMicros();

  watchdog.Check(t0 + 100'000);
  EXPECT_FALSE(watchdog.stalled());

  watchdog.Check(t0 + 1'500'000);  // beat went silent past the threshold
  EXPECT_TRUE(watchdog.stalled());
  EXPECT_EQ(watchdog.stalls_total(), 1u);

  loop->Beat();  // the loop recovers
  watchdog.Check(Heartbeat::NowMicros() + 100'000);
  EXPECT_FALSE(watchdog.stalled());
  registry.Release(loop);
}

TEST(WatchdogTest, StallCountsSurfaceInMetricsRegistry) {
  HeartbeatRegistry heartbeats;
  MetricsRegistry metrics;
  WatchdogOptions options;
  options.stall_threshold_seconds = 1.0;
  options.capture_stack = false;
  Watchdog watchdog(&heartbeats, &metrics, options);

  Heartbeat* heartbeat = heartbeats.Register("w", ThreadKind::kWorker);
  ASSERT_NE(heartbeat, nullptr);
  heartbeat->BeginWork("task");
  watchdog.Check(Heartbeat::NowMicros() + 2'000'000);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counters.at("health.stalls_total"), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("health.stalled"), 1.0);
  heartbeat->EndWork();
  heartbeats.Release(heartbeat);
}

TEST(WatchdogTest, CapturesBlockedThreadStackWithTegraFrames) {
  HeartbeatRegistry registry;
  WatchdogOptions options;
  options.stall_threshold_seconds = 0.05;
  options.capture_stack = true;
  options.capture_timeout_ms = 2000;
  Watchdog watchdog(&registry, /*metrics=*/nullptr, options);

  // A worker registers itself (prof needs the stack bounds), starts a task,
  // and blocks — exactly the shape of a wedged extraction worker.
  std::atomic<bool> release{false};
  std::thread worker([&] {
    prof::EnsureThreadRegistered("stuck-worker");
    Heartbeat* heartbeat =
        registry.Register("stuck-worker", ThreadKind::kWorker);
    ASSERT_NE(heartbeat, nullptr);
    ScopedWork work(heartbeat, "blocked");
    while (!release.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    registry.Release(heartbeat);
  });

  // Wait until the task is overdue, then check: the watchdog must capture
  // the *blocked* thread's stack via directed SIGPROF.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  watchdog.Check();
  release.store(true);
  worker.join();

  EXPECT_EQ(watchdog.stalls_total(), 1u);
  const auto stall = watchdog.last_stall();
  ASSERT_TRUE(stall.has_value());
  EXPECT_EQ(stall->thread_name, "stuck-worker");
  EXPECT_EQ(stall->label, "blocked");
  ASSERT_FALSE(stall->folded_stack.empty());
  EXPECT_EQ(stall->folded_stack.find("<capture failed"), std::string::npos)
      << stall->folded_stack;
  // The folded stack must be a real multi-frame chain through this test.
  EXPECT_NE(stall->folded_stack.find(';'), std::string::npos)
      << stall->folded_stack;
}

TEST(HeartbeatTest, RegistrySlotsRecycleAfterRelease) {
  HeartbeatRegistry registry;
  Heartbeat* a = registry.Register("a", ThreadKind::kWorker);
  Heartbeat* b = registry.Register("b", ThreadKind::kLoop);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(registry.active(), 2u);

  const auto snapshots = registry.Snapshot();
  ASSERT_EQ(snapshots.size(), 2u);
  // Loop slots start with last_beat = now: never instantly overdue.
  for (const HeartbeatSnapshot& snapshot : snapshots) {
    if (snapshot.kind == ThreadKind::kLoop) {
      EXPECT_GT(snapshot.last_beat_us, 0u);
    }
  }

  registry.Release(a);
  EXPECT_EQ(registry.active(), 1u);
  Heartbeat* c = registry.Register("c", ThreadKind::kWorker);
  EXPECT_NE(c, nullptr);
  registry.Release(b);
  registry.Release(c);
  EXPECT_EQ(registry.active(), 0u);
}

// ------------------------------------------------------------------- Monitor

TEST(MonitorTest, ManualTickDrivesTheWholePipeline) {
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("service.requests_total");

  HealthOptions options;
  options.interval_seconds = 0;  // no background thread; Tick manually
  bool refreshed = false;
  options.refresh_gauges = [&refreshed] { refreshed = true; };
  HealthMonitor monitor(&registry, std::move(options));

  EXPECT_TRUE(std::isinf(monitor.staleness_seconds()));

  requests->Increment(5);
  monitor.Tick(1.0);
  requests->Increment(5);
  monitor.Tick(2.0);

  EXPECT_TRUE(refreshed);
  EXPECT_EQ(monitor.store()->ticks(), 2u);
  EXPECT_DOUBLE_EQ(monitor.store()->LastValue("service.requests_total"), 5.0);
  EXPECT_LT(monitor.staleness_seconds(), 60.0);

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("health.recorder_ticks_total"), 2u);
  EXPECT_EQ(snapshot.gauges.count("health.alerts_firing"), 1u);
  EXPECT_EQ(snapshot.gauges.count("health.alerts_pending"), 1u);
  // Default SLOs installed when none are configured.
  EXPECT_EQ(monitor.slo()->Snapshot().size(), 4u);
}

TEST(MonitorTest, RecorderCadenceOverridesStoreInterval) {
  MetricsRegistry registry;
  HealthOptions options;
  options.interval_seconds = 5.0;
  options.timeseries.interval_seconds = 1.0;  // stale default: overridden
  HealthMonitor monitor(&registry, std::move(options));
  EXPECT_DOUBLE_EQ(monitor.store()->interval_seconds(), 5.0);
}

TEST(MonitorTest, BackgroundRecorderTicksAndStops) {
  MetricsRegistry registry;
  HealthOptions options;
  options.interval_seconds = 0.02;
  HealthMonitor monitor(&registry, std::move(options));
  monitor.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (monitor.store()->ticks() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  monitor.Stop();
  const uint64_t ticks = monitor.store()->ticks();
  EXPECT_GE(ticks, 3u);
  // Stopped: no more ticks arrive.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(monitor.store()->ticks(), ticks);
}

}  // namespace
}  // namespace health
}  // namespace tegra
