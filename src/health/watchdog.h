// Stall detection over the heartbeat registry. Run from the recorder tick:
// a worker whose current task has been running longer than the stall
// threshold, or a loop whose beat went silent, is a *stall*. On detection
// the watchdog captures the stuck thread's stack (a directed SIGPROF via
// prof::CaptureThreadStack — works on blocked threads, which is the whole
// point), logs a structured error line, increments `health.stalls_total`,
// and retains the episode for /statusz. Detection is edge-triggered: one
// stall episode is reported exactly once, however many checks observe it,
// and a new episode on the same thread reports again.

#ifndef TEGRA_HEALTH_WATCHDOG_H_
#define TEGRA_HEALTH_WATCHDOG_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "common/metrics.h"
#include "health/heartbeat.h"

namespace tegra {
namespace health {

struct WatchdogOptions {
  /// A worker task running longer than this is a stall. <= 0 disables
  /// worker checks.
  double stall_threshold_seconds = 30.0;
  /// A loop silent longer than this is a stall. <= 0 disables loop checks.
  /// The net event loop wakes at least every timer tick (100ms), so 5s of
  /// silence means the loop itself is wedged, not idle.
  double loop_threshold_seconds = 5.0;
  /// Capture the stuck thread's stack via prof (directed SIGPROF). Tests
  /// that fabricate heartbeats from unregistered threads turn this off.
  bool capture_stack = true;
  int capture_timeout_ms = 500;
};

/// \brief One detected stall episode.
struct StallRecord {
  std::string thread_name;
  std::string label;           ///< what the worker was doing ("extract", ...)
  double stuck_seconds = 0;    ///< how long overdue at detection time
  uint64_t detected_at_us = 0;
  std::string folded_stack;    ///< "root;...;leaf", empty if capture failed
};

class Watchdog {
 public:
  /// `metrics` may be null (tests); then stalls_total() is the only counter.
  Watchdog(HeartbeatRegistry* registry, MetricsRegistry* metrics,
           WatchdogOptions options);

  /// Scans every heartbeat at `now_us` (Heartbeat::NowMicros clock; tests
  /// pass a synthetic value). Reports new stall episodes.
  void Check(uint64_t now_us);
  void Check() { Check(Heartbeat::NowMicros()); }

  /// True while any heartbeat is currently overdue (as of the last Check).
  bool stalled() const;

  uint64_t stalls_total() const;
  std::optional<StallRecord> last_stall() const;

  const WatchdogOptions& options() const { return options_; }

 private:
  HeartbeatRegistry* const registry_;
  WatchdogOptions options_;
  Counter* stalls_counter_ = nullptr;   // health.stalls_total
  Gauge* stalled_gauge_ = nullptr;      // health.stalled

  mutable std::mutex mu_;
  uint64_t stalls_total_ = 0;
  bool any_stalled_ = false;
  std::optional<StallRecord> last_stall_;
};

}  // namespace health
}  // namespace tegra

#endif  // TEGRA_HEALTH_WATCHDOG_H_
