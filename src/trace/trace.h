// tegra::trace — pipeline-wide span tracing.
//
// The serving layer's aggregate histograms (PR 1) say *that* a request was
// slow; spans say *where*: TEGRA's cost is spread across tokenization,
// candidate-cell enumeration, anchor search, the SLGR alignment DP and
// corpus-stat lookups, and the paper's own efficiency analysis (§5.7, Fig 9)
// reasons in exactly these per-phase terms.
//
// Building blocks:
//
//  * Span — RAII scope timer. On destruction it records one TraceEvent into
//    the Tracer's ring buffer, observes the duration into a per-phase
//    histogram of the bound MetricsRegistry (when a metric name was given),
//    and appends to the current request's TraceContext collector. Spans nest
//    via a thread-local stack, so every event knows its parent and depth.
//
//  * TraceContext — RAII per-request scope. Assigns a process-unique trace
//    id, tags every span that ends while it is current (including spans on
//    ThreadPool workers that installed a ScopedContext handoff), and
//    collects those spans so callers (the slow-request log) can retain the
//    full span tree of one request.
//
//  * Tracer — the recording backend: a fixed-capacity, sharded, drop-oldest
//    ring buffer of TraceEvents plus cached per-phase histogram handles.
//    Recording is gated by a single relaxed atomic (`enabled()`), so a
//    runtime-disabled tracer costs one predictable branch per span.
//
// Compile-time removal: building with -DTEGRA_TRACE=OFF (CMake) defines
// TEGRA_TRACE_ENABLED=0, which turns Span and TraceContext into empty inline
// stubs — instrumented call sites compile to nothing. The Tracer, exporters
// and logger remain so /tracez et al. still link (and report empty).
//
// Threading rules: a Span must be destroyed on the thread that created it
// (guaranteed by RAII scoping; Span is neither copyable nor movable). A
// TraceContext must be created and destroyed on one thread, but can be
// *observed* from workers through ScopedContext.

#ifndef TEGRA_TRACE_TRACE_H_
#define TEGRA_TRACE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/stopwatch.h"

#ifndef TEGRA_TRACE_ENABLED
#define TEGRA_TRACE_ENABLED 1
#endif

namespace tegra {
namespace trace {

/// True when span recording is compiled into this binary (TEGRA_TRACE=ON).
inline constexpr bool kCompiledIn = TEGRA_TRACE_ENABLED != 0;

/// \brief One completed span, as stored in the ring buffer.
///
/// `name` and `category` must be string literals (or otherwise outlive the
/// tracer): events store the pointers, never copies — this keeps an event at
/// 64 bytes and recording allocation-free.
struct TraceEvent {
  const char* name = "";      ///< Span name, e.g. "anchor_search".
  const char* category = "";  ///< Grouping, e.g. "extract", "serve".
  uint64_t trace_id = 0;      ///< Enclosing TraceContext id; 0 = none.
  uint64_t span_id = 0;       ///< Process-unique id of this span.
  uint64_t parent_id = 0;     ///< Enclosing span on the same thread; 0 = root.
  uint64_t start_us = 0;      ///< Microseconds since the tracer's epoch.
  uint64_t duration_us = 0;   ///< Span duration in microseconds.
  uint64_t seq = 0;           ///< Global completion sequence number.
  uint32_t thread_id = 0;     ///< Small per-process sequential thread id.
  uint32_t depth = 0;         ///< Nesting depth at span start (0 = root).
};

class TraceContext;

/// \brief The recording backend. One Global() instance serves the whole
/// process; tests may instantiate private tracers.
class Tracer {
 public:
  /// \param ring_capacity total TraceEvent slots across all shards (each
  /// slot is ~64B; the default retains the last ~16k spans in ~1MB).
  explicit Tracer(size_t ring_capacity = 16384);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer used by the TEGRA_TRACE_* macros.
  static Tracer& Global();

  /// Runtime switch. Disabled (the default) means Span construction is a
  /// single relaxed load + branch; nothing is recorded.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Directs per-phase histograms and the trace.* counters into `registry`
  /// (nullptr reverts to the tracer-owned registry). Call before recording
  /// begins; cached histogram handles are re-resolved.
  void BindMetrics(MetricsRegistry* registry);

  /// The registry spans report into: the bound one, else the owned one.
  MetricsRegistry* metrics();

  /// Microseconds since this tracer's construction (the trace timebase).
  uint64_t NowMicros() const;

  /// Issues a fresh process-unique trace id (used by TraceContext).
  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Issues a fresh process-unique span id.
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// \brief Records a fully-formed span that was timed externally (e.g. the
  /// service's queue wait, whose start predates the worker picking the
  /// request up). Fills in thread id, current context and sequence number;
  /// observes into `metric` when non-null. No-op when disabled.
  void RecordManual(const char* name, const char* category, uint64_t start_us,
                    uint64_t duration_us, const char* metric = nullptr);

  /// \brief Internal: completes `event` (seq number), appends it to the ring
  /// and the current TraceContext, and feeds `metric`. Called by Span/
  /// RecordManual; exposed for the OFF-mode stubs' tests.
  void FinishSpan(TraceEvent event, const char* metric);

  /// Events currently retained in the ring, ordered by start time (ties by
  /// completion sequence). O(capacity) copy; intended for dump commands.
  std::vector<TraceEvent> RingSnapshot() const;

  /// Number of events overwritten (drop-oldest) since construction/reset.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Total spans recorded since construction/reset.
  uint64_t spans_recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }

  size_t ring_capacity() const { return ring_capacity_; }

  /// Clears the ring and the dropped/sequence counters (not the metrics
  /// registry). For tests and between benchmark phases.
  void Reset();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<TraceEvent> slots;  // Fixed capacity ring.
    size_t next = 0;                // Next write position.
    size_t used = 0;                // Valid slots (<= capacity).
  };

  Histogram* MetricFor(const char* name);

  static constexpr size_t kShards = 8;

  std::atomic<bool> enabled_{false};
  const Stopwatch epoch_;  ///< Started at construction; NowMicros timebase.
  // Capacity is distributed over min(kShards, capacity) shards, rounded down
  // to a multiple of the shard count (ring_capacity() reports the rounded
  // value). Shards are written round-robin by sequence number.
  const size_t num_shards_;
  const size_t per_shard_;
  const size_t ring_capacity_;
  Shard shards_[kShards];

  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> dropped_{0};

  MetricsRegistry owned_metrics_;
  std::atomic<MetricsRegistry*> metrics_;
  std::atomic<Counter*> dropped_counter_;
  std::atomic<Counter*> spans_counter_;

  // Memoized metric-name -> Histogram* (hot spans skip the registry mutex
  // after first use). Guarded by metric_mu_; invalidated by BindMetrics.
  std::mutex metric_mu_;
  std::vector<std::pair<const char*, Histogram*>> metric_cache_;
};

/// \brief The TraceContext currently installed on this thread (nullptr when
/// none). Cheap thread-local read.
TraceContext* CurrentContext();

/// \brief This thread's small sequential id (assigned on first use). Stable
/// for the thread's lifetime; also used to pick the ring shard.
uint32_t CurrentThreadId();

#if TEGRA_TRACE_ENABLED

/// \brief RAII span: times a scope and records it on destruction.
class Span {
 public:
  /// \param tracer recording backend (usually &Tracer::Global()).
  /// \param name span name; must be a string literal.
  /// \param category grouping label; must be a string literal.
  /// \param metric optional histogram name in the tracer's registry that
  /// receives the duration in *seconds* (e.g. "extract.phase.tokenize").
  Span(Tracer* tracer, const char* name, const char* category = "tegra",
       const char* metric = nullptr);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent; the destructor calls it).
  void End();

  bool active() const { return active_; }

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = "";
  const char* category_ = "";
  const char* metric_ = nullptr;
  uint64_t start_us_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint32_t depth_ = 0;
  bool active_ = false;
};

/// \brief RAII per-request scope: issues a trace id, tags and collects every
/// span completed while current (on this thread, or on workers holding a
/// ScopedContext for it).
class TraceContext {
 public:
  /// Inactive (id 0, collects nothing) when the tracer is disabled.
  TraceContext(Tracer* tracer, const char* name, bool capture = true);
  ~TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  uint64_t trace_id() const { return trace_id_; }
  const char* name() const { return name_; }
  bool capturing() const { return capture_; }

  /// Spans captured so far (completion order). Thread-safe.
  std::vector<TraceEvent> Events() const;

  /// Internal: append one completed span (called from any thread).
  void Collect(const TraceEvent& event);

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t trace_id_ = 0;
  bool capture_ = false;
  bool installed_ = false;
  TraceContext* prev_ = nullptr;

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// \brief Installs `context` as current on *this* thread for the scope —
/// the cross-thread handoff used inside ThreadPool tasks, so worker spans
/// inherit the submitting request's trace id and collector.
class ScopedContext {
 public:
  explicit ScopedContext(TraceContext* context);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceContext* prev_;
  bool installed_ = false;
};

#else  // !TEGRA_TRACE_ENABLED — all tracing classes become empty stubs.

class Span {
 public:
  Span(Tracer*, const char*, const char* = "tegra", const char* = nullptr) {}
  void End() {}
  bool active() const { return false; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

class TraceContext {
 public:
  TraceContext(Tracer*, const char* name, bool = true) : name_(name) {}
  uint64_t trace_id() const { return 0; }
  const char* name() const { return name_; }
  bool capturing() const { return false; }
  std::vector<TraceEvent> Events() const { return {}; }
  void Collect(const TraceEvent&) {}
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  const char* name_;
};

class ScopedContext {
 public:
  explicit ScopedContext(TraceContext*) {}
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;
};

#endif  // TEGRA_TRACE_ENABLED

// Convenience macros. They always expand to *something* valid at block
// scope; under TEGRA_TRACE=OFF the declared objects are the no-op stubs
// above, which optimizers delete entirely.
#define TEGRA_TRACE_CONCAT_INNER(a, b) a##b
#define TEGRA_TRACE_CONCAT(a, b) TEGRA_TRACE_CONCAT_INNER(a, b)

/// Times the enclosing scope as a span on the global tracer.
/// `metric` may be nullptr to skip histogram feeding.
#define TEGRA_TRACE_SPAN(name, category, metric)                \
  ::tegra::trace::Span TEGRA_TRACE_CONCAT(tegra_span_, __LINE__)( \
      &::tegra::trace::Tracer::Global(), (name), (category), (metric))

/// Declares a request-scoped TraceContext named `var` on the global tracer.
#define TEGRA_TRACE_CONTEXT(var, name) \
  ::tegra::trace::TraceContext var(&::tegra::trace::Tracer::Global(), (name))

}  // namespace trace
}  // namespace tegra

#endif  // TEGRA_TRACE_TRACE_H_
