// The owner of the health subsystem: one background recorder thread that,
// every interval_seconds, snapshots the MetricsRegistry into the
// TimeSeriesStore, re-evaluates the SLO engine, and runs the watchdog over
// the heartbeat registry. Interval 0 disables the thread entirely (the
// bench baseline for the <2% overhead budget); Tick() is public so tests
// drive the whole pipeline on a synthetic clock.
//
// tegra_health sits above tegra_common/tegra_trace/tegra_prof and *below*
// tegra_service and tegra_net: the service hands its registry and a
// refresh hook down here, never the other way around.

#ifndef TEGRA_HEALTH_MONITOR_H_
#define TEGRA_HEALTH_MONITOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "health/heartbeat.h"
#include "health/slo.h"
#include "health/timeseries.h"
#include "health/watchdog.h"

namespace tegra {
namespace health {

struct HealthOptions {
  /// Recorder cadence; <= 0 disables the background thread (Tick still
  /// works when driven manually). When positive it also overrides
  /// timeseries.interval_seconds — the cadence is the sample spacing.
  double interval_seconds = 1.0;
  TimeSeriesOptions timeseries;
  WatchdogOptions watchdog;
  /// Empty selects SloEngine::DefaultSpecs().
  std::vector<SloSpec> slos;
  /// Called before every snapshot so refresh-at-scrape gauges (queue depth,
  /// cache sizes) are current in the recorded series. The service layer
  /// installs `[&] { service.metrics(); }` here — a function hook because
  /// tegra_health cannot link tegra_service.
  std::function<void()> refresh_gauges;
};

class HealthMonitor {
 public:
  HealthMonitor(MetricsRegistry* registry, HealthOptions options);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Spawns the recorder thread (no-op when interval <= 0 or running).
  void Start();
  /// Stops and joins the recorder thread. Idempotent.
  void Stop();

  /// One recorder step at `now_seconds` (steady-clock seconds; tests pass a
  /// synthetic clock): refresh gauges, snapshot -> ingest, evaluate SLOs,
  /// publish health gauges, run the watchdog.
  void Tick(double now_seconds);

  TimeSeriesStore* store() { return &store_; }
  const TimeSeriesStore* store() const { return &store_; }
  SloEngine* slo() { return &slo_; }
  Watchdog* watchdog() { return &watchdog_; }
  HeartbeatRegistry* heartbeats() { return &heartbeats_; }

  double interval_seconds() const { return options_.interval_seconds; }
  /// Seconds since the last completed Tick (steady clock); a large value
  /// means the recorder itself is stale. Infinity before the first tick.
  double staleness_seconds() const;

  /// Steady-clock seconds (the recorder's clock).
  static double NowSeconds();

 private:
  void RecorderLoop();

  MetricsRegistry* const registry_;
  HealthOptions options_;
  HeartbeatRegistry heartbeats_;
  TimeSeriesStore store_;
  SloEngine slo_;
  Watchdog watchdog_;

  Gauge* alerts_firing_gauge_;   // health.alerts_firing
  Gauge* alerts_pending_gauge_;  // health.alerts_pending
  Counter* ticks_counter_;       // health.recorder_ticks_total

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread recorder_;
  std::atomic<double> last_tick_seconds_{-1};
};

}  // namespace health
}  // namespace tegra

#endif  // TEGRA_HEALTH_MONITOR_H_
