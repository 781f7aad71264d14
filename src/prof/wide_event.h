// Wide events: the one record of a served request. The extraction service
// fills a WideEvent at its single exit — timings, cache disposition, corpus
// generation, degradation rung, quality score, sizes, outcome and the trace
// id linking it to exemplars — and the data plane adds the HTTP-only fields
// before writing it as one structured JSON access-log line.
//
// Two sinks hold these records:
//  * WideEventLog, the access log. Logging every request at high QPS is
//    unaffordable, so it is *tail-sampled*: errors and slow requests are
//    always kept (they are the ones someone will ask about), ordinary
//    requests are kept with a deterministic per-request-id probability. The
//    sink is a buffered FILE* flushed explicitly on shutdown (and
//    periodically by libc's buffering); Record never blocks on disk in the
//    common case.
//  * SlowEventLog, the N slowest requests with their span trees (anchor
//    search vs SLGR DP vs queue wait...), served by /slowlogz. Capacity-
//    bounded and sorted slowest-first, so memory is O(N * spans) no matter
//    how long the process lives.

#ifndef TEGRA_PROF_WIDE_EVENT_H_
#define TEGRA_PROF_WIDE_EVENT_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"

namespace tegra {
namespace prof {

/// \brief Everything we know about one completed data-plane request.
struct WideEvent {
  uint64_t request_id = 0;
  uint64_t trace_id = 0;         ///< 0 when tracing is off / not sampled.
  std::string endpoint;          ///< e.g. "/v1/extract"
  std::string outcome;           ///< OutcomeForStatus, or the data plane's
                                 ///< "bad_request", "quota_rejected",
                                 ///< "partial"
  int http_status = 200;
  bool cache_hit = false;
  bool batch = false;
  int items = 1;                 ///< tables in the request (batch size)
  uint64_t corpus_generation = 0;  ///< 0 before an engine was acquired
  double queue_seconds = 0;      ///< time waiting for a worker
  double extract_seconds = 0;    ///< time inside the extractor (0 on a hit)
  double total_seconds = 0;      ///< submit-to-completion wall clock
  /// Per-pair SP objective of the returned segmentation (the Fig 8(a)
  /// quality proxy; lower is better). Negative when no result was produced.
  double sp_score = -1;
  int quality_level = 0;         ///< qos degradation rung (0 = full pipeline;
                                 ///< a batch reports its worst item's rung)
  uint64_t num_lines = 0;        ///< input list size (a batch sums its items)
  int num_columns = 0;           ///< requested column count (0 = unsupervised)
  std::string tenant;            ///< X-Tegra-Tenant header ("" = none sent)
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// The request's span tree in completion order. Filled only for events a
  /// SlowEventLog retains, and empty when the tracer was disabled.
  std::vector<trace::TraceEvent> spans;

  /// The access-log line (every field except `spans`).
  std::string ToJson() const;
};

/// \brief The outcome label of a request answered with `status`: "ok",
/// "rejected" (unavailable: shed, shutting down or no engine loaded),
/// "deadline_exceeded", "bad_request" or "failed".
const char* OutcomeForStatus(const Status& status);

/// \brief Tail-sampled JSON-lines sink for WideEvents. Thread-safe.
class WideEventLog {
 public:
  struct Options {
    /// Probability of keeping an ordinary (non-error, non-slow) request.
    double sample = 1.0;
    /// Requests at or above this total latency are always kept.
    double slow_ms = 100.0;
  };

  WideEventLog() = default;
  ~WideEventLog();

  WideEventLog(const WideEventLog&) = delete;
  WideEventLog& operator=(const WideEventLog&) = delete;

  /// Opens `path` for appending ("stderr" selects stderr). Replaces any
  /// previously open sink.
  Status Open(const std::string& path, Options options);

  /// Points the log at an already-open stream (tests). Not owned.
  void SetSink(FILE* sink, Options options);

  /// Decides keep/drop and, when kept, writes one JSON line. Returns
  /// whether the event was written. Safe to call with no sink (drops).
  bool Record(const WideEvent& event);

  /// Flushes the sink; part of the daemon's ordered shutdown.
  void Flush();

  /// True when the tail-sampling policy alone would keep this event —
  /// exposed so the sampling decision is unit-testable without I/O.
  bool WouldKeep(const WideEvent& event) const;

  uint64_t written() const { return written_; }
  uint64_t sampled_out() const { return sampled_out_; }
  bool enabled() const { return sink_ != nullptr; }

 private:
  mutable std::mutex mu_;
  FILE* sink_ = nullptr;
  bool owns_sink_ = false;
  Options options_;
  uint64_t written_ = 0;
  uint64_t sampled_out_ = 0;
};

/// \brief Thread-safe, capacity-bounded, slowest-first retention of
/// WideEvents (the /slowlogz view).
class SlowEventLog {
 public:
  /// \param capacity number of events retained (0 disables the log).
  explicit SlowEventLog(size_t capacity = 8) : capacity_(capacity) {}

  SlowEventLog(const SlowEventLog&) = delete;
  SlowEventLog& operator=(const SlowEventLog&) = delete;

  /// True when Add would currently admit an event this slow, so a caller
  /// can skip assembling (copying the span tree of) one it would drop.
  bool WouldAdmit(double total_seconds) const;

  /// Admits `event` if it is slower than the current N-th slowest (or the
  /// log is not yet full). Returns true when retained.
  bool Add(WideEvent event);

  /// The retained events, slowest first.
  std::vector<WideEvent> Snapshot() const;

  size_t capacity() const { return capacity_; }
  size_t size() const;

  /// Drops all retained events (capacity unchanged).
  void Clear();

 private:
  bool AdmitsLocked(double total_seconds) const;

  const size_t capacity_;
  mutable std::mutex mu_;
  /// Sorted by total_seconds descending; ties keep insertion order.
  std::vector<WideEvent> events_;
};

}  // namespace prof
}  // namespace tegra

#endif  // TEGRA_PROF_WIDE_EVENT_H_
