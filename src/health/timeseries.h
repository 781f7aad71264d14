// Scrape-free in-process time series over the MetricsRegistry.
//
// The MetricsRecorder (monitor.h) feeds a full MetricsSnapshot in here every
// --health-interval-ms; the store derives one series per counter (stored as
// per-interval *deltas*), one per gauge, and four per histogram
// (`.count` as a counter plus `.p50`/`.p95`/`.p99` of the cumulative
// distribution) and appends them to fixed-size ring buffers. Two tiers:
//
//   fine    one sample per interval, fine_capacity samples
//           (default 900 — 15 min at 1 s)
//   coarse  one sample per downsample_factor intervals, coarse_capacity
//           samples (default 60 x 1440 — 24 h at 1 min)
//
// Downsampling semantics follow the series kind: counter deltas are *summed*
// into the coarse bucket, gauges keep the *last* value, histogram quantiles
// keep the *max* (a worst-case-preserving summary — a 1-minute bucket whose
// p99 spiked must not average the spike away).
//
// Everything is mutex-protected; the writer is one recorder thread and the
// readers are admin handlers and the SLO engine, none of them hot.

#ifndef TEGRA_HEALTH_TIMESERIES_H_
#define TEGRA_HEALTH_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace tegra {
namespace health {

/// \brief How samples of a series combine when downsampled — and how the
/// SLO engine may aggregate them over a window.
enum class SeriesKind {
  kCounter,  ///< per-interval deltas; aggregate by sum
  kGauge,    ///< point-in-time values; aggregate by last
  kMax,      ///< quantile-like; aggregate by max
};

const char* SeriesKindName(SeriesKind kind);

struct TimeSeriesOptions {
  double interval_seconds = 1.0;  ///< recorder cadence the store assumes
  size_t fine_capacity = 900;     ///< 15 min at 1 s
  size_t downsample_factor = 60;  ///< fine samples per coarse bucket
  size_t coarse_capacity = 1440;  ///< 24 h at 1 min
};

/// \brief One queried window: `values` is oldest-to-newest, each
/// `interval_seconds` apart, ending at `end_seconds`.
struct SeriesWindow {
  SeriesKind kind = SeriesKind::kGauge;
  double interval_seconds = 0;
  double end_seconds = 0;
  std::vector<double> values;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesOptions options = {});

  /// Appends one sample per derived series. `now_seconds` is the recorder's
  /// clock (monotonic; tests use a synthetic one).
  void Ingest(const MetricsSnapshot& snapshot, double now_seconds);

  std::vector<std::string> Names() const;

  /// The requested tier's full window, or nullopt for an unknown series.
  std::optional<SeriesWindow> Query(const std::string& name,
                                    bool coarse) const;

  /// Sum of the newest samples covering `window_seconds` (counter series:
  /// total events in the window). Uses the fine tier when it spans the
  /// window, else the coarse tier. Returns 0 for unknown series.
  double SumOver(const std::string& name, double window_seconds) const;

  /// Max of the newest samples covering `window_seconds` (quantile series:
  /// worst value seen in the window). 0 for unknown series.
  double MaxOver(const std::string& name, double window_seconds) const;

  /// The newest sample, or `fallback` for unknown/empty series.
  double LastValue(const std::string& name, double fallback = 0) const;

  uint64_t ticks() const;
  double last_ingest_seconds() const;
  double interval_seconds() const { return options_.interval_seconds; }
  size_t series_count() const;

 private:
  struct Ring {
    std::vector<double> values;  // capacity-sized once first pushed
    size_t next = 0;             // write cursor
    size_t size = 0;             // grows until == capacity

    void Push(double v, size_t capacity);
    /// Oldest-to-newest copy.
    std::vector<double> Unroll() const;
    /// Newest `n` samples combined: sum or max.
    double TailSum(size_t n) const;
    double TailMax(size_t n) const;
    double Last(double fallback) const;
  };

  struct Series {
    SeriesKind kind = SeriesKind::kGauge;
    bool has_last_cumulative = false;
    double last_cumulative = 0;  // counters: previous raw value
    Ring fine;
    Ring coarse;
    double accumulator = 0;      // partial coarse bucket
    size_t accumulated = 0;      // fine samples folded into accumulator
  };

  void Append(const std::string& name, SeriesKind kind, double raw,
              bool flush_coarse);
  double AggregateOver(const std::string& name, double window_seconds,
                       bool use_max) const;

  const TimeSeriesOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Series> series_;
  uint64_t ticks_ = 0;
  double last_ingest_seconds_ = 0;
};

/// \brief Renders `values` (oldest-to-newest) as a one-line UTF-8 sparkline
/// of at most `width` cells, rescaled to the window's min..max.
std::string AsciiSparkline(const std::vector<double>& values, size_t width);

}  // namespace health
}  // namespace tegra

#endif  // TEGRA_HEALTH_TIMESERIES_H_
