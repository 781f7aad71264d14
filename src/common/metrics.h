// Process-wide metrics primitives: monotonic counters, point-in-time gauges,
// and fixed-bucket latency histograms with percentile snapshots. All
// instruments are lock-free on the hot path (relaxed atomics); the registry
// itself takes a mutex only on first registration of a name.
//
// The registry is the single observable surface of a tegra process: every
// layer from the corpus memo up to the ExtractionService reports through it,
// and `tegra_serve` exposes it on the admin plane (/varz, /metrics).

#ifndef TEGRA_COMMON_METRICS_H_
#define TEGRA_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace tegra {

/// \brief A monotonically increasing event counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief A settable point-in-time value (queue depth, cache size, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief One recent observation pinned to a histogram bucket, carrying the
/// identifiers needed to find the request behind it (OpenMetrics exemplar).
/// trace_id == 0 means "no exemplar recorded for this bucket".
struct Exemplar {
  double value = 0;
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
};

/// \brief Percentile summary of a histogram at snapshot time.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0;   ///< Sum of observed values.
  double min = 0;   ///< Smallest observation (0 when count == 0).
  double max = 0;   ///< Largest observation (0 when count == 0).
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  /// Bucket upper bounds and per-bucket (NOT cumulative) counts;
  /// bucket_counts has bounds.size() + 1 entries (the extra one is the
  /// implicit +inf bucket). Consumed by the Prometheus exposition.
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
  /// Per-bucket exemplars, same length as bucket_counts (empty when no
  /// exemplar source is installed). Entries with trace_id == 0 are unset.
  std::vector<Exemplar> exemplars;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// \brief A fixed-bucket histogram with cheap concurrent Observe and
/// interpolated percentile estimates.
///
/// Buckets are defined by their inclusive upper bounds; an implicit +inf
/// bucket catches everything beyond the last bound. Percentiles are estimated
/// by linear interpolation inside the bucket containing the target rank —
/// exact enough for latency SLO reporting as long as bounds grow
/// geometrically (the default bounds cover 50us .. 30s).
class Histogram {
 public:
  /// Default latency bucket bounds in *seconds*, geometric from 50us to 30s.
  static std::vector<double> DefaultLatencyBounds();

  /// Linear bucket bounds: start, start+width, ..., start+(count-1)*width.
  /// For score-like quantities (e.g. the extract.sp_score quality histogram)
  /// where geometric latency buckets would waste resolution.
  static std::vector<double> LinearBounds(double start, double width,
                                          size_t count);

  /// \param bounds strictly increasing inclusive upper bounds. An empty
  /// vector falls back to DefaultLatencyBounds().
  explicit Histogram(std::vector<double> bounds = {});

  /// Records one observation. Thread-safe, wait-free.
  void Observe(double value);

  HistogramSnapshot Snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// \brief Process-wide exemplar source hook. When installed (non-null),
  /// every Observe asks it for the identifiers of the in-flight request;
  /// on success the observation is recorded as that bucket's exemplar. The
  /// hook must be cheap (thread-local reads) and is called outside any
  /// lock. Installed by prof::InstallExemplarSource(); the indirection
  /// exists because common/ sits *below* trace/ and cannot reach the trace
  /// context itself.
  using ExemplarSourceFn = bool (*)(uint64_t* trace_id, uint64_t* request_id);
  static void SetExemplarSource(ExemplarSourceFn fn);

 private:
  /// Per-bucket exemplar storage: a seqlock (seq odd = write in progress)
  /// over three relaxed atomics, so one writer wins per update and readers
  /// always see a consistent triple. All-atomic fields keep it TSan-clean.
  struct ExemplarSlot {
    std::atomic<uint32_t> seq{0};
    std::atomic<double> value{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> request_id{0};
  };

  double PercentileLocked(const std::vector<uint64_t>& counts, uint64_t total,
                          double q) const;

  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::unique_ptr<ExemplarSlot[]> exemplar_slots_;  // buckets_.size() entries
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;  // +inf until the first observation.
  std::atomic<double> max_;  // -inf until the first observation.

  static std::atomic<ExemplarSourceFn> exemplar_source_;
};

/// \brief A full registry snapshot, suitable for rendering.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Renders `name value` lines (counters, gauges) and
  /// `name{count,mean,p50,p95,p99}` lines for histograms.
  std::string ToString() const;
  /// Renders one JSON object {"counters":{...},"gauges":{...},...}.
  std::string ToJson() const;
};

/// \brief Named instrument registry. Get* registers on first use and returns
/// a stable pointer thereafter; instruments live as long as the registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  Counter* GetCounter(const std::string& name);
  /// Returns the gauge registered under `name`, creating it on first use.
  Gauge* GetGauge(const std::string& name);
  /// Returns the histogram under `name`; `bounds` applies only on creation.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// \brief RAII latency recorder: observes elapsed seconds into a histogram
/// (when non-null) at scope exit.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist);
  ~ScopedLatency();

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  Stopwatch watch_;
};

}  // namespace tegra

#endif  // TEGRA_COMMON_METRICS_H_
