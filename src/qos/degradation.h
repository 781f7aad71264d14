// The qos DegradationController: turns overload into controlled quality
// degradation instead of rejection (ROADMAP: "degrade quality, not
// availability").
//
// Every health tick the controller folds three signals into one scalar
// *pressure*:
//
//   queue     admission queue depth as a fraction of capacity, normalized by
//             target_queue_fraction (pressure 1.0 = queue half full by
//             default — well before the 503 cliff at 1.0)
//   latency   the served p99 (service.total_seconds.p99) against the
//             target_p99_seconds SLO
//   deadline  p99 queue wait against the share of the default request
//             deadline budgeted for queueing — when queue wait alone eats
//             half the deadline, finishing on time is already unlikely
//
// pressure = max(components). The ladder moves one rung at a time with
// hysteresis on both edges: escalate only after pressure has held >=
// escalate_pressure for escalate_hold_seconds, recover only after pressure
// has held <= recover_pressure for recover_hold_seconds, and hold inside the
// dead band between the two thresholds. Separated thresholds + hold timers
// are what prevent flapping at the boundary.
//
// All transitions take an explicit `now_seconds` so unit tests drive the
// controller on a synthetic clock (the same pattern as SloEngine::Evaluate
// and HealthMonitor::Tick). The current rung is a relaxed atomic read on the
// request hot path.

#ifndef TEGRA_QOS_DEGRADATION_H_
#define TEGRA_QOS_DEGRADATION_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/metrics.h"
#include "health/timeseries.h"
#include "qos/rungs.h"

namespace tegra {
namespace qos {

struct DegradationOptions {
  /// Highest rung the ladder may reach (kNumRungs-1 = ListExtract floor).
  int max_rung = kNumRungs - 1;

  /// Escalate one rung after pressure >= this for escalate_hold_seconds.
  double escalate_pressure = 1.0;
  /// Recover one rung after pressure <= this for recover_hold_seconds.
  /// Must be < escalate_pressure; the gap is the anti-flap dead band.
  double recover_pressure = 0.5;

  double escalate_hold_seconds = 1.0;
  double recover_hold_seconds = 5.0;

  /// Queue fill fraction that maps to pressure 1.0.
  double target_queue_fraction = 0.5;
  /// Served p99 (seconds) that maps to pressure 1.0 (the latency SLO).
  double target_p99_seconds = 2.0;
  /// Share of the default deadline budgeted for queue wait; p99 queue wait
  /// at deadline*deadline_fraction maps to pressure 1.0. Ignored when the
  /// service runs without a default deadline.
  double deadline_fraction = 0.5;
};

/// Point-in-time overload signals, sampled by the caller (the health tick).
struct QosSignals {
  double queue_fraction = 0;     ///< queue depth / max queue depth
  double p99_seconds = 0;        ///< served total-latency p99
  double queue_p99_seconds = 0;  ///< queue-wait p99
  double deadline_seconds = 0;   ///< default request deadline (0 = none)
};

class DegradationController {
 public:
  /// `registry` may be null (tests); when set, the controller maintains the
  /// qos.rung / qos.pressure gauges and the qos.escalations_total /
  /// qos.recoveries_total counters.
  DegradationController(const DegradationOptions& options,
                        MetricsRegistry* registry);

  DegradationController(const DegradationController&) = delete;
  DegradationController& operator=(const DegradationController&) = delete;

  /// Current rung; lock-free, safe from request threads.
  int rung() const { return rung_.load(std::memory_order_relaxed); }

  const DegradationOptions& options() const { return options_; }

  /// The scalar pressure for `signals` (max of the per-signal components).
  double Pressure(const QosSignals& signals) const;

  /// One control step at `now_seconds`; returns the (possibly new) rung.
  int Evaluate(const QosSignals& signals, double now_seconds);

  /// Convenience wrapper for the serving stack: derives the latency signals
  /// from the health time-series store (previous tick's ingest) and the
  /// queue signal from the caller, then calls Evaluate.
  int EvaluateFromStore(const health::TimeSeriesStore& store,
                        double queue_fraction, double deadline_seconds,
                        double now_seconds);

  /// Point-in-time view for /qosz and /statusz.
  struct Snapshot {
    int rung = 0;
    double pressure = 0;            ///< last evaluated pressure
    double rung_since_seconds = 0;  ///< clock value of the last transition
    uint64_t escalations = 0;
    uint64_t recoveries = 0;
    /// Total time spent at rung > 0 (updated on each Evaluate).
    double degraded_seconds = 0;
    QosSignals last_signals;
  };
  Snapshot snapshot() const;

 private:
  const DegradationOptions options_;
  std::atomic<int> rung_{0};

  mutable std::mutex mu_;
  double last_pressure_ = 0;
  QosSignals last_signals_;
  double high_since_ = -1;  ///< pressure above escalate threshold since (<0 = not)
  double low_since_ = -1;   ///< pressure below recover threshold since (<0 = not)
  double rung_since_ = 0;
  double last_eval_ = -1;
  double degraded_seconds_ = 0;
  uint64_t escalations_ = 0;
  uint64_t recoveries_ = 0;

  Gauge* rung_gauge_ = nullptr;
  Gauge* pressure_gauge_ = nullptr;
  Counter* escalations_total_ = nullptr;
  Counter* recoveries_total_ = nullptr;
};

}  // namespace qos
}  // namespace tegra

#endif  // TEGRA_QOS_DEGRADATION_H_
