// tegra::serve::AdminPages — the standard zPage set served by the HTTP
// admin plane (a net::HttpServer listener named "admin"), wired to the live
// subsystems of a serving process:
//
//   /          index: endpoint directory
//   /metrics   Prometheus text exposition (scrape-ready; includes the
//              extract.sp_score quality histogram and tegra_build_info).
//              ?format=openmetrics (or an Accept header naming
//              application/openmetrics-text) switches to OpenMetrics with
//              histogram exemplars carrying trace/request ids.
//   /healthz   liveness: 200 as long as the process can answer at all
//   /readyz    readiness: 200 only when the corpus is loaded, the service
//              accepts work and the queue is not saturated; 503 + reason
//              otherwise (load-balancer drain signal)
//   /statusz   HTML: build info, uptime, effective ServiceOptions, corpus
//              summary, cache hit rates, queue/inflight gauges and the
//              extraction-quality picture at a glance
//   /tracez    Chrome trace_event JSON of the span ring (open in Perfetto)
//   /slowlogz  the N slowest requests with span trees (HTML; ?format=json)
//   /varz      raw JSON metrics snapshot (self-identifying via "build";
//              includes process.uptime_seconds and, when the health monitor
//              is attached, health.recorder_staleness_seconds)
//   /timeseriesz  in-process time series from the health recorder:
//              ?metric=NAME[&tier=fine|coarse][&format=json] answers one
//              window; without ?metric= an HTML index of every series with
//              sparklines (json lists names)
//   /alertz    SLO burn-rate alerts (firing/pending/inactive) plus the last
//              watchdog stall; ?format=json for machines
//   /qosz      degradation-ladder state (current rung, pressure, transition
//              counters, per-rung option overrides) and per-tenant quota
//              buckets; ?format=json for machines
//   /pprof/profile  on-demand CPU profile from the always-on SIGPROF
//              sampler: blocks for ?seconds=N (default 2, clamped to
//              [0.1, 30]) and answers folded stacks ("a;b;c N" per line),
//              ready for a flamegraph tool
//
// The pages are plain handler methods over non-owned pointers, so tests can
// call them directly without sockets. Handler() routes a request to them by
// exact path; the daemon installs it on the admin listener with
// set_handler. The plane is read-only: any method but GET is answered 405.
// Every page renders in memory and answers on the event loop, except
// /pprof/profile, which blocks for its capture window and so runs on a
// thread this object owns (never a ThreadPool worker: the watchdog counts
// pool tasks as busy time, and a 30 s capture would look like a stall).

#ifndef TEGRA_SERVICE_ADMIN_PAGES_H_
#define TEGRA_SERVICE_ADMIN_PAGES_H_

#include <atomic>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "health/monitor.h"
#include "net/http_server.h"
#include "qos/degradation.h"
#include "qos/token_bucket.h"
#include "service/extraction_service.h"
#include "service/serve_json.h"
#include "service/slowlog.h"
#include "store/corpus_manager.h"
#include "trace/trace.h"

namespace tegra {
namespace serve {

/// \brief Static configuration of the page set.
struct AdminPagesOptions {
  /// /readyz reports 503 once QueueDepth() reaches this fraction of
  /// max_queue_depth (at least one entry). 1.0 = only a completely full
  /// queue makes the process unready.
  double ready_queue_fraction = 1.0;
  /// Human-readable corpus provenance shown on /statusz (a file path or a
  /// synthetic-build spec).
  std::string corpus_description;
};

/// \brief zPage handlers over a live service. All referenced objects are
/// borrowed and must outlive this instance.
class AdminPages {
 public:
  /// Any pointer may be null; the affected pages degrade gracefully
  /// (/readyz reports 503, /statusz omits the section). The corpus manager
  /// is the hot-reload handle: /statusz and /varz surface its generation,
  /// format, byte footprint and reload outcome counters, and /readyz turns
  /// 503 while no corpus generation is resident.
  AdminPages(ExtractionService* service, trace::Tracer* tracer,
             const store::CorpusManager* corpus, AdminPagesOptions options = {});
  /// Joins any /pprof/profile capture still running.
  ~AdminPages();

  AdminPages(const AdminPages&) = delete;
  AdminPages& operator=(const AdminPages&) = delete;

  /// The admin listener's dispatch handler: GET routes by exact path to the
  /// pages below; other methods get 405, unknown paths 404 listing every
  /// endpoint. Borrows `this`, which must outlive the server.
  net::AsyncHandler Handler();

  // Individual handlers, exposed so tests can exercise them socket-free.
  net::HttpResponse Index(const net::HttpRequest& request);
  net::HttpResponse Metrics(const net::HttpRequest& request);
  net::HttpResponse Healthz(const net::HttpRequest& request);
  net::HttpResponse Readyz(const net::HttpRequest& request);
  net::HttpResponse Statusz(const net::HttpRequest& request);
  net::HttpResponse Tracez(const net::HttpRequest& request);
  net::HttpResponse Slowlogz(const net::HttpRequest& request);
  net::HttpResponse Varz(const net::HttpRequest& request);
  net::HttpResponse PprofProfile(const net::HttpRequest& request);
  net::HttpResponse Timeseriesz(const net::HttpRequest& request);
  net::HttpResponse Alertz(const net::HttpRequest& request);
  net::HttpResponse Qosz(const net::HttpRequest& request);

  /// Test hook: substitute the queue-depth probe consulted by /readyz (the
  /// default reads service->QueueDepth()), so saturation is testable
  /// deterministically.
  void set_queue_depth_fn(std::function<size_t()> fn);

  /// Attaches the net data plane (borrowed; may be null). /readyz then
  /// reports 503 while the listener sheds at max_connections, and /statusz
  /// gains a data-plane section with connection/request/timeout counters.
  void set_data_plane(const net::HttpServer* data_plane) {
    data_plane_ = data_plane;
  }

  /// Attaches the health monitor (borrowed; may be null). Enables
  /// /timeseriesz and /alertz, the /statusz health section, the watchdog
  /// verdict on /healthz (503 during an active stall), the degraded
  /// annotation on /readyz, and recorder staleness on /varz.
  void set_health(health::HealthMonitor* health) { health_ = health; }

  /// Attaches the qos subsystem (either pointer may be null). Enables
  /// /qosz (ladder state, rung table, per-tenant buckets; ?format=json)
  /// and the qos section on /statusz.
  void set_qos(const qos::DegradationController* degradation,
               const qos::TenantQuotas* quotas) {
    degradation_ = degradation;
    quotas_ = quotas;
  }

 private:
  struct Readiness {
    bool ready = false;
    std::string reason;  ///< Human-readable cause when not ready.
  };
  Readiness CheckReadiness();

  /// Runs PprofProfile on a capture thread and completes `done` from it.
  void StartProfileCapture(const net::HttpRequest& request,
                           net::ResponseCallback done);

  /// Refreshes corpus gauges (generation, mapped/heap bytes) on `registry`
  /// so /metrics and /varz reflect the current generation at scrape time.
  void RefreshCorpusGauges(MetricsRegistry* registry);

  /// Bridges the live span-ring counters (recorded/dropped/capacity) into
  /// `registry` as trace.ring.* gauges at scrape time, so a scraper can
  /// alert on span loss without polling /statusz HTML.
  void RefreshTraceGauges(MetricsRegistry* registry);

  /// Stamps health.recorder_staleness_seconds on `registry` at scrape time
  /// (-1 before the recorder's first tick), so a scraper can alert on a
  /// wedged recorder — the watcher is itself watched.
  void RefreshHealthGauges(MetricsRegistry* registry);

  ExtractionService* service_;          // Not owned; may be null.
  trace::Tracer* tracer_;               // Not owned; may be null.
  const store::CorpusManager* corpus_;  // Not owned; may be null.
  const net::HttpServer* data_plane_ = nullptr;  // Not owned; may be null.
  health::HealthMonitor* health_ = nullptr;      // Not owned; may be null.
  const qos::DegradationController* degradation_ = nullptr;  // Not owned.
  const qos::TenantQuotas* quotas_ = nullptr;                // Not owned.
  AdminPagesOptions options_;
  std::function<size_t()> queue_depth_fn_;

  struct ProfileCapture {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::mutex captures_mu_;
  std::list<ProfileCapture> captures_;  // Guarded by captures_mu_.
};

/// \brief Renders the slow-request log as {"ok":true,"records":[...]}.
JsonValue SlowlogToJson(const SlowRequestLog& slowlog);

/// \brief Escapes `s` for embedding in HTML text content.
std::string HtmlEscape(std::string_view s);

}  // namespace serve
}  // namespace tegra

#endif  // TEGRA_SERVICE_ADMIN_PAGES_H_
