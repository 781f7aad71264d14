// tegra::serve::ExtractionService — the long-lived online serving path.
//
// The paper deploys TEGRA as an offline scale-out job (§5.6); BatchExtractor
// reproduces that. This service is the complementary deployment mode the
// ROADMAP targets: a resident process that accepts one list at a time from
// many concurrent callers and returns a segmented table, under explicit
// resource bounds:
//
//  * Admission control. Requests enter a bounded FIFO queue. When the queue
//    is full, Submit fails *immediately* with kUnavailable (load shedding)
//    instead of blocking the caller — the standard overload posture for a
//    service fronting millions of users. Per-request deadlines are checked
//    when a worker dequeues the request; a request that waited past its
//    deadline is answered with kDeadlineExceeded without burning extraction
//    CPU on an answer nobody is waiting for.
//
//  * Bounded memory. Whole-list results are cached in a sharded LRU keyed by
//    a content hash of (lines, num_columns), so repeated extraction of hot
//    lists (crawl revisits, popular pages) is O(1). The underlying
//    CorpusStats co-occurrence memo is likewise LRU-bounded (see
//    corpus_stats.h), so a resident process cannot OOM from memoization.
//
//  * Observability. Every request is accounted in a MetricsRegistry:
//    counters for accepted / rejected / completed work, gauges for queue
//    depth and cache occupancy, and latency histograms (queue wait,
//    extraction, end-to-end) with p50/p95/p99 snapshots.
//
// The extractor itself is immutable and shared; every response is
// deterministic and identical to a direct sequential TegraExtractor call on
// the same input (the service_test asserts this byte-for-byte).

#ifndef TEGRA_SERVICE_EXTRACTION_SERVICE_H_
#define TEGRA_SERVICE_EXTRACTION_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/tegra.h"
#include "health/heartbeat.h"
#include "prof/wide_event.h"
#include "qos/degradation.h"
#include "service/extractor_source.h"
#include "trace/trace.h"

namespace tegra {
namespace serve {

/// \brief Static configuration of an ExtractionService.
struct ServiceOptions {
  /// Number of dedicated worker threads executing extractions.
  int num_workers = 4;
  /// Maximum number of requests waiting to be picked up by a worker. A
  /// Submit that would exceed this fails with kUnavailable.
  size_t max_queue_depth = 64;
  /// Deadline applied to requests that do not carry their own
  /// (seconds, measured from Submit; 0 = no deadline).
  double default_deadline_seconds = 0;
  /// Whole-list result cache budget in entries (0 disables caching).
  size_t result_cache_capacity = 1024;
  /// Requests retained by the slow-request log, slowest first (0 disables).
  /// Each retained request keeps its full span tree when tracing is on.
  size_t slowlog_capacity = 8;
  /// When set (not owned; must outlive the service), every worker registers
  /// a kWorker heartbeat ("svc-worker<i>") and brackets each request with
  /// BeginWork/EndWork, so the health watchdog can detect a wedged
  /// extraction and capture its stack.
  health::HeartbeatRegistry* heartbeats = nullptr;
  /// When set (not owned; must outlive the service), workers consult the
  /// qos degradation controller at dequeue time and execute each request at
  /// the current rung via the engine's per-rung extractors (EngineRef::rungs;
  /// requests fall back to the full pipeline when the engine carries none).
  /// Null = qos off: behavior is identical to the reject-at-queue service.
  qos::DegradationController* degradation = nullptr;
};

/// \brief One extraction request.
struct ExtractionRequest {
  /// The unsegmented list, one row per element.
  std::vector<std::string> lines;
  /// Fixed column count (Definition 2); 0 = unsupervised sweep
  /// (Definition 3).
  int num_columns = 0;
  /// Per-request deadline in seconds from Submit; 0 = use the service
  /// default.
  double deadline_seconds = 0;
  /// Skip the result cache for this request (both lookup and fill).
  bool bypass_cache = false;
  /// Caller-assigned request id (the data plane passes the HTTP request id).
  /// Installed as the thread-local prof request id while the request runs,
  /// so histogram exemplars and wide events can name it. 0 = anonymous.
  uint64_t request_id = 0;
  /// Fault injection for watchdog drills: the worker sleeps this long
  /// *inside* Process before extracting, simulating a wedged request. Only
  /// reachable through the daemon's control plane ({"cmd":"inject_stall"}),
  /// never via the data plane.
  double debug_sleep_ms = 0;
};

/// \brief One extraction response.
struct ExtractionResponse {
  /// OK, or kUnavailable (shed / shutdown), kDeadlineExceeded (expired in
  /// queue), or the underlying extraction failure.
  Status status;
  /// Valid when status.ok(). Shared with the result cache — treat as
  /// immutable.
  std::shared_ptr<const ExtractionResult> result;
  /// The request's record: request id, trace id (joins the response to
  /// /slowlogz, /tracez and OpenMetrics exemplars; 0 when tracing is off or
  /// the request never reached a worker), queue/extract/total seconds,
  /// cache disposition, corpus generation, degradation rung (always 0 when
  /// qos is off), SP score, list size and outcome. The data plane adds the
  /// HTTP fields and writes it to the access log. `spans` stays empty here;
  /// only the copy the slow-event log retains carries the span tree.
  prof::WideEvent event;

  bool ok() const { return status.ok(); }
};

/// \brief Stable content hash of a request's cache identity: the list lines
/// (length-delimited) and the requested column count. Exposed for tests and
/// for external result stores.
uint64_t RequestCacheKey(const std::vector<std::string>& lines,
                         int num_columns);

/// \brief A long-lived, thread-safe extraction front end.
///
/// Construction spins up the worker threads; destruction rejects queued
/// work with kUnavailable and joins the workers. All public methods are
/// thread-safe.
class ExtractionService {
 public:
  /// \param extractor the shared immutable engine (not owned; must outlive
  /// this service). Convenience over the ExtractorSource constructor: wraps
  /// the pointer in an owned FixedExtractorSource.
  /// \param registry metrics sink; when null the service owns a private one.
  explicit ExtractionService(const TegraExtractor* extractor,
                             ServiceOptions options = {},
                             MetricsRegistry* registry = nullptr);

  /// \param source the engine provider consulted once per request (not
  /// owned; must outlive this service). A hot-reloading deployment passes a
  /// ReloadableEngine here; each request pins the engine generation it
  /// started on, and the generation participates in the result-cache key so
  /// reloads implicitly invalidate stale cached results.
  explicit ExtractionService(const ExtractorSource* source,
                             ServiceOptions options = {},
                             MetricsRegistry* registry = nullptr);
  ~ExtractionService();

  ExtractionService(const ExtractionService&) = delete;
  ExtractionService& operator=(const ExtractionService&) = delete;

  /// Submits a request. The returned future is *always* eventually
  /// satisfied: with kUnavailable immediately when the queue is full or the
  /// service is shutting down, with kDeadlineExceeded if the request expires
  /// in the queue, otherwise with the extraction outcome.
  std::future<ExtractionResponse> Submit(ExtractionRequest request);

  /// Completion callback flavor of Submit, for callers that must not block
  /// on a future (the net data plane's event loop). `done` is invoked
  /// exactly once — inline from the submitting thread on immediate
  /// rejection (queue full / shutdown), otherwise from a worker thread —
  /// with the same response a Submit future would carry. The callback must
  /// be safe to run on any of those threads.
  using ResponseCallback = std::function<void(ExtractionResponse)>;
  void SubmitWithCallback(ExtractionRequest request, ResponseCallback done);

  /// Convenience: Submit + wait.
  ExtractionResponse SubmitAndWait(ExtractionRequest request);

  /// Stops accepting work, fails all queued requests with kUnavailable and
  /// joins the workers. Idempotent; also invoked by the destructor.
  void Shutdown();

  /// Current number of queued (not yet running) requests.
  size_t QueueDepth() const;

  /// True once Shutdown() has begun; the admin plane's /readyz reports 503
  /// from that point so load balancers drain before the workers join.
  bool shutting_down() const;

  /// The metrics registry this service reports into. Refreshes the derived
  /// gauges (queue depth, cache occupancy and hit rates, corpus co-cache
  /// counters) before returning, so Snapshot() on the result is current.
  MetricsRegistry* metrics();

  /// The N slowest requests seen so far, with their captured span trees.
  const prof::SlowEventLog& slowlog() const { return slowlog_; }

  const ServiceOptions& options() const { return options_; }

  /// Estimated time (seconds) for the current queue to drain: queued
  /// requests times mean extraction time over the worker pool. The data
  /// plane turns this into Retry-After hints on 503s. Falls back to a small
  /// constant before any extraction has completed.
  double EstimatedDrainSeconds() const;

 private:
  struct PendingRequest {
    ExtractionRequest request;
    std::promise<ExtractionResponse> promise;
    ResponseCallback callback;  // When set, delivery bypasses the promise.
    std::chrono::steady_clock::time_point enqueue_time;
    std::chrono::steady_clock::time_point deadline;  // time_point::max() = none
    bool has_deadline = false;
  };

  /// Shared admission path of Submit / SubmitWithCallback: stamps the
  /// enqueue time and deadline, sheds on overload, queues otherwise.
  void Enqueue(PendingRequest pending);
  /// Satisfies a pending request through whichever channel it carries.
  static void Deliver(PendingRequest* pending, ExtractionResponse response);
  void WorkerLoop(int worker_index);
  void Process(PendingRequest pending);
  void RefreshGauges();

  /// Set when constructed from a raw extractor pointer (legacy signature).
  std::unique_ptr<FixedExtractorSource> owned_source_;
  const ExtractorSource* source_;  // Not owned (or owned_source_.get()).
  ServiceOptions options_;

  std::unique_ptr<MetricsRegistry> owned_registry_;
  MetricsRegistry* registry_;  // Either owned_registry_.get() or external.

  // Instrument handles (resolved once; hot path never touches the registry
  // mutex).
  Counter* requests_total_;
  Counter* rejected_total_;
  Counter* deadline_exceeded_total_;
  Counter* completed_total_;
  Counter* failed_total_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* degraded_total_;
  Counter* rung_requests_[qos::kNumRungs];
  Histogram* queue_latency_;
  Histogram* extract_latency_;
  Histogram* total_latency_;

  ShardedLruCache<uint64_t, std::shared_ptr<const ExtractionResult>>
      result_cache_;
  prof::SlowEventLog slowlog_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool shutdown_ = false;
  std::mutex join_mu_;  // Serializes the worker-join phase of Shutdown.
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace tegra

#endif  // TEGRA_SERVICE_EXTRACTION_SERVICE_H_
