#include "service/admin_pages.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/string_util.h"
#include "store/sharded_corpus.h"
#include "prof/profiler.h"
#include "trace/chrome_trace.h"
#include "trace/prometheus.h"

namespace tegra {
namespace serve {

namespace {

/// One "<tr><th>k</th><td>v</td></tr>" row.
void Row(std::string* out, const std::string& key, const std::string& value) {
  *out += "<tr><th>" + HtmlEscape(key) + "</th><td>" + HtmlEscape(value) +
          "</td></tr>\n";
}

void RowNum(std::string* out, const std::string& key, double value,
            int digits = 3) {
  Row(out, key, FormatDouble(value, digits));
}

void RowCount(std::string* out, const std::string& key, uint64_t value) {
  Row(out, key, std::to_string(value));
}

std::string PageHead(const std::string& title) {
  return "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>" +
         HtmlEscape(title) +
         "</title><style>"
         "body{font-family:monospace;margin:2em;background:#fafafa}"
         "h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.5em}"
         "table{border-collapse:collapse;margin:0.5em 0}"
         "th,td{border:1px solid #ccc;padding:2px 10px;text-align:left}"
         "th{background:#eee}"
         ".warn{color:#b00}"
         "</style></head><body>\n<h1>" +
         HtmlEscape(title) + "</h1>\n";
}

constexpr char kPageFoot[] = "</body></html>\n";

std::string NavLinks() {
  return "<p><a href=\"/statusz\">statusz</a> | "
         "<a href=\"/metrics\">metrics</a> | "
         "<a href=\"/varz\">varz</a> | "
         "<a href=\"/timeseriesz\">timeseriesz</a> | "
         "<a href=\"/alertz\">alertz</a> | "
         "<a href=\"/qosz\">qosz</a> | "
         "<a href=\"/tracez\">tracez</a> | "
         "<a href=\"/slowlogz\">slowlogz</a> | "
         "<a href=\"/pprof/profile?seconds=2\">pprof</a> | "
         "<a href=\"/healthz\">healthz</a> | "
         "<a href=\"/readyz\">readyz</a></p>\n";
}

uint64_t CounterOr0(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double GaugeOr0(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0.0 : it->second;
}

std::string FormatUptime(double seconds) {
  const uint64_t s = static_cast<uint64_t>(seconds);
  std::ostringstream out;
  if (s >= 86400) out << s / 86400 << "d ";
  if (s >= 3600) out << (s % 86400) / 3600 << "h ";
  if (s >= 60) out << (s % 3600) / 60 << "m ";
  out << s % 60 << "s";
  return out.str();
}

/// Comma-joined names of the alerts in `state`.
std::string AlertNames(const std::vector<health::AlertStatus>& alerts,
                       health::AlertState state) {
  std::string out;
  for (const health::AlertStatus& alert : alerts) {
    if (alert.state != state) continue;
    if (!out.empty()) out += ", ";
    out += alert.name;
  }
  return out;
}

JsonValue AlertToJson(const health::AlertStatus& alert) {
  JsonValue a = JsonValue::Object();
  a.Set("name", JsonValue::Str(alert.name));
  a.Set("state", JsonValue::Str(health::AlertStateName(alert.state)));
  a.Set("since_seconds", JsonValue::Number(alert.since_seconds));
  a.Set("value", JsonValue::Number(alert.value));
  a.Set("detail", JsonValue::Str(alert.detail));
  return a;
}

JsonValue StallToJson(const health::StallRecord& stall) {
  JsonValue s = JsonValue::Object();
  s.Set("thread", JsonValue::Str(stall.thread_name));
  s.Set("label", JsonValue::Str(stall.label));
  s.Set("stuck_seconds", JsonValue::Number(stall.stuck_seconds));
  s.Set("stack", JsonValue::Str(stall.folded_stack));
  return s;
}

/// Every admin page, by exact path. /pprof/profile is listed for the 404
/// endpoint directory but dispatched to a capture thread, never inline.
struct Route {
  const char* path;
  net::HttpResponse (AdminPages::*page)(const net::HttpRequest&);
};
constexpr Route kRoutes[] = {
    {"/", &AdminPages::Index},
    {"/metrics", &AdminPages::Metrics},
    {"/healthz", &AdminPages::Healthz},
    {"/readyz", &AdminPages::Readyz},
    {"/statusz", &AdminPages::Statusz},
    {"/tracez", &AdminPages::Tracez},
    {"/slowlogz", &AdminPages::Slowlogz},
    {"/varz", &AdminPages::Varz},
    {"/pprof/profile", &AdminPages::PprofProfile},
    {"/timeseriesz", &AdminPages::Timeseriesz},
    {"/alertz", &AdminPages::Alertz},
    {"/qosz", &AdminPages::Qosz},
};

/// One recorded span: an entry of a slow-request record's span tree.
JsonValue SpanToJson(const trace::TraceEvent& span) {
  JsonValue s = JsonValue::Object();
  s.Set("name", JsonValue::Str(span.name));
  s.Set("cat", JsonValue::Str(span.category));
  s.Set("span_id", JsonValue::Number(static_cast<double>(span.span_id)));
  s.Set("parent_id", JsonValue::Number(static_cast<double>(span.parent_id)));
  s.Set("start_us", JsonValue::Number(static_cast<double>(span.start_us)));
  s.Set("dur_us", JsonValue::Number(static_cast<double>(span.duration_us)));
  s.Set("tid", JsonValue::Number(span.thread_id));
  s.Set("depth", JsonValue::Number(span.depth));
  return s;
}

}  // namespace

std::string HtmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

JsonValue SlowlogToJson(const prof::SlowEventLog& slowlog) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  JsonValue records = JsonValue::Array();
  for (const prof::WideEvent& rec : slowlog.Snapshot()) {
    JsonValue r = JsonValue::Object();
    r.Set("trace_id", JsonValue::Number(static_cast<double>(rec.trace_id)));
    r.Set("request_id",
          JsonValue::Number(static_cast<double>(rec.request_id)));
    r.Set("total_ms", JsonValue::Number(rec.total_seconds * 1e3));
    r.Set("queue_ms", JsonValue::Number(rec.queue_seconds * 1e3));
    r.Set("extract_ms", JsonValue::Number(rec.extract_seconds * 1e3));
    r.Set("num_lines", JsonValue::Number(static_cast<double>(rec.num_lines)));
    r.Set("columns", JsonValue::Number(rec.num_columns));
    r.Set("sp", JsonValue::Number(rec.sp_score));
    r.Set("quality_level", JsonValue::Number(rec.quality_level));
    r.Set("corpus_generation",
          JsonValue::Number(static_cast<double>(rec.corpus_generation)));
    r.Set("cache_hit", JsonValue::Bool(rec.cache_hit));
    r.Set("outcome", JsonValue::Str(rec.outcome));
    JsonValue spans = JsonValue::Array();
    for (const auto& span : rec.spans) spans.Append(SpanToJson(span));
    r.Set("spans", std::move(spans));
    records.Append(std::move(r));
  }
  out.Set("records", std::move(records));
  return out;
}

AdminPages::AdminPages(ExtractionService* service, trace::Tracer* tracer,
                       const store::CorpusManager* corpus,
                       AdminPagesOptions options)
    : service_(service),
      tracer_(tracer),
      corpus_(corpus),
      options_(std::move(options)) {
  queue_depth_fn_ = [this]() -> size_t {
    return service_ == nullptr ? 0 : service_->QueueDepth();
  };
}

void AdminPages::set_queue_depth_fn(std::function<size_t()> fn) {
  queue_depth_fn_ = std::move(fn);
}

void AdminPages::RefreshCorpusGauges(MetricsRegistry* registry) {
  if (corpus_ == nullptr || registry == nullptr) return;
  registry->GetGauge("corpus.generation")
      ->Set(static_cast<double>(corpus_->Generation()));
  const std::shared_ptr<const CorpusView> view = corpus_->Current();
  registry->GetGauge("corpus.mapped_bytes")
      ->Set(view == nullptr ? 0.0
                            : static_cast<double>(view->MappedBytes()));
  registry->GetGauge("corpus.heap_bytes")
      ->Set(view == nullptr ? 0.0 : static_cast<double>(view->HeapBytes()));
  registry->GetGauge("corpus.values")
      ->Set(view == nullptr ? 0.0 : static_cast<double>(view->NumValues()));
  // Sharded-corpus geometry: overlays count the appended deltas awaiting
  // compaction; parts_reused shows how much of the last reload was O(delta)
  // (an overlay-only reload reuses every base shard mapping).
  const auto* sharded =
      dynamic_cast<const store::ShardedCorpus*>(view.get());
  registry->GetGauge("corpus.shards")
      ->Set(sharded == nullptr ? 0.0
                               : static_cast<double>(sharded->num_shards()));
  registry->GetGauge("corpus.overlays")
      ->Set(sharded == nullptr
                ? 0.0
                : static_cast<double>(sharded->num_overlays()));
  registry->GetGauge("corpus.parts_reused")
      ->Set(sharded == nullptr
                ? 0.0
                : static_cast<double>(sharded->reused_parts()));
}

void AdminPages::RefreshTraceGauges(MetricsRegistry* registry) {
  if (tracer_ == nullptr || registry == nullptr) return;
  // Distinct names from any bound counters: these are point-in-time reads of
  // the ring, refreshed at scrape, so a Prometheus rule can alert on
  // increase(tegra_trace_ring_dropped[5m]) > 0 (span evidence is being lost).
  registry->GetGauge("trace.ring.dropped")
      ->Set(static_cast<double>(tracer_->dropped()));
  registry->GetGauge("trace.ring.spans")
      ->Set(static_cast<double>(tracer_->spans_recorded()));
  registry->GetGauge("trace.ring.capacity")
      ->Set(static_cast<double>(tracer_->ring_capacity()));
}

void AdminPages::RefreshHealthGauges(MetricsRegistry* registry) {
  if (health_ == nullptr || registry == nullptr) return;
  const double staleness = health_->staleness_seconds();
  registry->GetGauge("health.recorder_staleness_seconds")
      ->Set(std::isfinite(staleness) ? staleness : -1.0);
}

AdminPages::~AdminPages() {
  std::lock_guard<std::mutex> lock(captures_mu_);
  for (ProfileCapture& capture : captures_) capture.thread.join();
}

net::AsyncHandler AdminPages::Handler() {
  return [this](const net::HttpRequest& request, net::ResponseCallback done) {
    if (request.method != "GET") {
      // The admin plane is strictly read-only; the data plane owns POST.
      done(net::HttpResponse::Text(405, "admin plane is GET-only\n"));
      return;
    }
    if (request.path == "/pprof/profile") {
      StartProfileCapture(request, std::move(done));
      return;
    }
    for (const Route& route : kRoutes) {
      if (request.path == route.path) {
        done((this->*route.page)(request));
        return;
      }
    }
    std::string body = "404 not found: " + request.path + "\n\nendpoints:\n";
    for (const Route& route : kRoutes) {
      body += std::string("  ") + route.path + "\n";
    }
    done(net::HttpResponse::Text(404, std::move(body)));
  };
}

void AdminPages::StartProfileCapture(const net::HttpRequest& request,
                                     net::ResponseCallback done) {
  std::lock_guard<std::mutex> lock(captures_mu_);
  // Reap finished captures; the admin listener's connection cap bounds how
  // many can be in flight.
  for (auto it = captures_.begin(); it != captures_.end();) {
    if (it->finished.load(std::memory_order_acquire)) {
      it->thread.join();
      it = captures_.erase(it);
    } else {
      ++it;
    }
  }
  // The node stays put until its thread is joined, so the thread may keep a
  // reference to it.
  ProfileCapture& capture = captures_.emplace_back();
  capture.thread =
      std::thread([this, request, done = std::move(done), &capture] {
        done(PprofProfile(request));
        capture.finished.store(true, std::memory_order_release);
      });
}

net::HttpResponse AdminPages::Index(const net::HttpRequest&) {
  std::string body = PageHead("tegra admin");
  body += "<p>build " + std::string(GetBuildInfo().git_sha) + " · up " +
          FormatUptime(ProcessUptimeSeconds()) + "</p>\n";
  body += NavLinks();
  body += kPageFoot;
  return net::HttpResponse::Html(std::move(body));
}

net::HttpResponse AdminPages::Metrics(const net::HttpRequest& request) {
  MetricsRegistry* registry =
      service_ != nullptr
          ? service_->metrics()  // refreshes queue/cache gauges
          : (tracer_ != nullptr ? tracer_->metrics() : nullptr);
  if (registry == nullptr) {
    return net::HttpResponse::Text(503, "no metrics registry\n");
  }
  registry->GetGauge("process.uptime_seconds")->Set(ProcessUptimeSeconds());
  RefreshCorpusGauges(registry);
  RefreshTraceGauges(registry);
  RefreshHealthGauges(registry);
  // Content negotiation: a Prometheus >=2.43 scraper (or a human with
  // ?format=openmetrics) gets OpenMetrics with histogram exemplars; the
  // default stays the classic 0.0.4 text format so existing scrapers and
  // tests see byte-identical output.
  const bool openmetrics =
      request.Param("format") == "openmetrics" ||
      request.Header("accept").find("application/openmetrics-text") !=
          std::string::npos;
  if (openmetrics) {
    net::HttpResponse response = net::HttpResponse::Text(
        200, trace::ToOpenMetricsText(registry->Snapshot()));
    response.content_type =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    return response;
  }
  net::HttpResponse response = net::HttpResponse::Text(
      200, trace::ToPrometheusText(registry->Snapshot()));
  // The exposition-format content type Prometheus expects.
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  return response;
}

net::HttpResponse AdminPages::Healthz(const net::HttpRequest&) {
  // Liveness, with one sharpening: a process whose worker threads are
  // wedged is *not* alive in any useful sense, even though this handler
  // (on the admin thread) still runs. The watchdog verdict makes the
  // orchestrator restart a stuck process instead of routing around it
  // forever. Readiness is still /readyz's job.
  if (health_ != nullptr && health_->watchdog()->stalled()) {
    return net::HttpResponse::Text(
        503, "stalled=true\nstalls_total=" +
                 std::to_string(health_->watchdog()->stalls_total()) + "\n");
  }
  if (health_ != nullptr) {
    return net::HttpResponse::Text(200, "ok\nstalled=false\n");
  }
  return net::HttpResponse::Text(200, "ok\n");
}

AdminPages::Readiness AdminPages::CheckReadiness() {
  Readiness result;
  if (service_ == nullptr) {
    result.reason = "extraction service not attached";
    return result;
  }
  if (service_->shutting_down()) {
    result.reason = "service shutting down";
    return result;
  }
  if (corpus_ == nullptr || corpus_->Current() == nullptr) {
    result.reason = "background corpus not loaded";
    return result;
  }
  const size_t max_depth = service_->options().max_queue_depth;
  const size_t threshold = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(options_.ready_queue_fraction *
                       static_cast<double>(max_depth))));
  const size_t depth = queue_depth_fn_();
  if (depth >= threshold) {
    result.reason = "queue saturated (" + std::to_string(depth) + "/" +
                    std::to_string(max_depth) + " waiting, threshold " +
                    std::to_string(threshold) + ")";
    return result;
  }
  // The data plane sheds whole connections at max_connections; while that is
  // happening a load balancer should stop routing here, exactly like queue
  // saturation.
  if (data_plane_ != nullptr && data_plane_->running() &&
      data_plane_->saturated()) {
    result.reason =
        "data plane saturated (" +
        std::to_string(data_plane_->active_connections()) + "/" +
        std::to_string(data_plane_->options().max_connections) +
        " connections); shedding new clients";
    return result;
  }
  result.ready = true;
  return result;
}

net::HttpResponse AdminPages::Readyz(const net::HttpRequest&) {
  const Readiness readiness = CheckReadiness();
  if (!readiness.ready) {
    return net::HttpResponse::Text(503,
                                   "not ready: " + readiness.reason + "\n");
  }
  // Degraded-but-ready: firing SLO alerts do not flip readiness (that would
  // drain the very capacity needed to recover), but the annotation lets a
  // human or rollout tool distinguish "green" from "serving while burning
  // error budget".
  if (health_ != nullptr && health_->slo()->firing() > 0) {
    return net::HttpResponse::Text(
        200, "ok\ndegraded: " + std::to_string(health_->slo()->firing()) +
                 " alert(s) firing: " +
                 AlertNames(health_->slo()->Snapshot(),
                            health::AlertState::kFiring) +
                 "\n");
  }
  return net::HttpResponse::Text(200, "ok\n");
}

net::HttpResponse AdminPages::Statusz(const net::HttpRequest&) {
  const BuildInfo& build = GetBuildInfo();
  std::string body = PageHead("tegra /statusz");
  body += NavLinks();

  body += "<h2>build</h2>\n<table>\n";
  Row(&body, "git_sha", build.git_sha);
  Row(&body, "build_type", build.build_type);
  Row(&body, "trace", build.trace);
  Row(&body, "compiler", build.compiler);
  Row(&body, "cxx_standard", build.cxx_standard);
  Row(&body, "uptime", FormatUptime(ProcessUptimeSeconds()));
  body += "</table>\n";

  const Readiness readiness = CheckReadiness();
  body += "<h2>readiness</h2>\n<p>";
  body += readiness.ready
              ? "<b>READY</b>"
              : "<b class=\"warn\">NOT READY</b>: " +
                    HtmlEscape(readiness.reason);
  body += "</p>\n";

  if (corpus_ != nullptr) {
    body += "<h2>corpus</h2>\n<table>\n";
    if (!options_.corpus_description.empty()) {
      Row(&body, "source", options_.corpus_description);
    }
    if (!corpus_->path().empty()) Row(&body, "path", corpus_->path());
    const std::shared_ptr<const CorpusView> view = corpus_->Current();
    if (view != nullptr) {
      Row(&body, "format", view->FormatName());
      RowCount(&body, "columns", view->TotalColumns());
      RowCount(&body, "distinct_values", view->NumValues());
      RowCount(&body, "heap_bytes", view->HeapBytes());
      RowCount(&body, "mapped_bytes", view->MappedBytes());
      const auto* sharded =
          dynamic_cast<const store::ShardedCorpus*>(view.get());
      if (sharded != nullptr) {
        RowCount(&body, "shards", sharded->num_shards());
        RowCount(&body, "overlays", sharded->num_overlays());
        RowCount(&body, "manifest_sequence", sharded->manifest().sequence);
        RowCount(&body, "parts_reused_on_reload", sharded->reused_parts());
      }
    } else {
      Row(&body, "format", "none (no generation loaded)");
    }
    RowCount(&body, "generation", corpus_->Generation());
    RowCount(&body, "reloads", corpus_->ReloadCount());
    RowCount(&body, "reload_errors", corpus_->ReloadErrorCount());
    if (!corpus_->LastError().empty()) {
      Row(&body, "last_reload_error", corpus_->LastError());
    }
    body += "</table>\n";
  }

  if (service_ != nullptr) {
    const ServiceOptions& opts = service_->options();
    body += "<h2>service options</h2>\n<table>\n";
    RowCount(&body, "num_workers", static_cast<uint64_t>(opts.num_workers));
    RowCount(&body, "max_queue_depth", opts.max_queue_depth);
    RowNum(&body, "default_deadline_seconds", opts.default_deadline_seconds);
    RowCount(&body, "result_cache_capacity", opts.result_cache_capacity);
    RowCount(&body, "slowlog_capacity", opts.slowlog_capacity);
    body += "</table>\n";

    const MetricsSnapshot snap = service_->metrics()->Snapshot();
    const uint64_t requests = CounterOr0(snap, "service.requests_total");
    const uint64_t completed = CounterOr0(snap, "service.completed_total");
    const uint64_t rejected = CounterOr0(snap, "service.rejected_total");
    const uint64_t failed = CounterOr0(snap, "service.failed_total");
    const uint64_t deadline =
        CounterOr0(snap, "service.deadline_exceeded_total");
    const uint64_t done = completed + rejected + failed + deadline;
    body += "<h2>serving</h2>\n<table>\n";
    RowCount(&body, "requests_total", requests);
    RowCount(&body, "completed_total", completed);
    RowCount(&body, "rejected_total (shed)", rejected);
    RowCount(&body, "deadline_exceeded_total", deadline);
    RowCount(&body, "failed_total", failed);
    RowCount(&body, "inflight+queued", requests > done ? requests - done : 0);
    RowNum(&body, "queue_depth", GaugeOr0(snap, "service.queue_depth"), 0);
    RowNum(&body, "result_cache_size",
           GaugeOr0(snap, "service.result_cache_size"), 0);
    RowNum(&body, "result_cache_hit_rate",
           GaugeOr0(snap, "service.result_cache_hit_rate"));
    RowNum(&body, "co_cache_hit_rate",
           GaugeOr0(snap, "corpus.co_cache_hit_rate"));
    const auto lat = snap.histograms.find("service.total_seconds");
    if (lat != snap.histograms.end() && lat->second.count > 0) {
      Row(&body, "latency p50/p95/p99 (ms)",
          FormatDouble(lat->second.p50 * 1e3, 2) + " / " +
              FormatDouble(lat->second.p95 * 1e3, 2) + " / " +
              FormatDouble(lat->second.p99 * 1e3, 2));
    }
    body += "</table>\n";

    // Algorithm health, not just system health: the SP-score distribution is
    // the online quality signal (Fig 8(a)); drift here means the corpus no
    // longer matches the workload even if latency looks perfect.
    body += "<h2>extraction quality</h2>\n<table>\n";
    const auto sp = snap.histograms.find("extract.sp_score");
    if (sp != snap.histograms.end() && sp->second.count > 0) {
      RowCount(&body, "extractions_scored", sp->second.count);
      RowNum(&body, "sp_score mean", sp->second.Mean());
      RowNum(&body, "sp_score p50", sp->second.p50);
      RowNum(&body, "sp_score p95", sp->second.p95);
      RowNum(&body, "sp_score max", sp->second.max);
    } else {
      Row(&body, "extractions_scored", "0 (no extractions yet)");
    }
    RowCount(&body, "low_confidence_total",
             CounterOr0(snap, "extract.low_confidence_total"));
    body += "</table>\n";
  }

  if (data_plane_ != nullptr) {
    const net::HttpServerStats stats = data_plane_->Stats();
    body += "<h2>data plane</h2>\n<table>\n";
    Row(&body, "listening",
        data_plane_->running()
            ? "yes (port " + std::to_string(data_plane_->port()) + ")"
            : "no");
    RowCount(&body, "connections_active", stats.connections_active);
    RowCount(&body, "max_connections",
             data_plane_->options().max_connections);
    Row(&body, "saturated", stats.saturated ? "YES (shedding)" : "no");
    RowCount(&body, "connections_total", stats.connections_total);
    RowCount(&body, "requests_total", stats.requests_total);
    RowCount(&body, "shed_connections_total", stats.shed_connections_total);
    RowCount(&body, "bad_requests_total", stats.bad_requests_total);
    RowCount(&body, "read_timeouts_total", stats.read_timeouts_total);
    RowCount(&body, "write_timeouts_total", stats.write_timeouts_total);
    RowCount(&body, "handler_timeouts_total", stats.handler_timeouts_total);
    body += "</table>\n";
  }

  if (degradation_ != nullptr) {
    const qos::DegradationController::Snapshot qs = degradation_->snapshot();
    body += "<h2>qos</h2>\n<table>\n";
    if (qs.rung > 0) {
      body += "<tr><th>rung</th><td class=\"warn\"><b>" +
              std::to_string(qs.rung) + " (" + qos::RungName(qs.rung) +
              ")</b> — quality degraded</td></tr>\n";
    } else {
      Row(&body, "rung", "0 (full pipeline)");
    }
    RowNum(&body, "pressure", qs.pressure);
    RowCount(&body, "escalations_total", qs.escalations);
    RowCount(&body, "recoveries_total", qs.recoveries);
    RowNum(&body, "degraded_seconds", qs.degraded_seconds, 1);
    if (quotas_ != nullptr && quotas_->enabled()) {
      Row(&body, "tenant_quota",
          FormatDouble(quotas_->options().rate, 1) + " req/s, burst " +
              FormatDouble(quotas_->options().burst, 1));
    } else {
      Row(&body, "tenant_quota", "disabled");
    }
    body += "</table>\n<p><a href=\"/qosz\">qosz</a> has the full ladder "
            "and per-tenant buckets</p>\n";
  }

  if (tracer_ != nullptr) {
    body += "<h2>tracing</h2>\n<table>\n";
    Row(&body, "enabled", tracer_->enabled() ? "yes" : "no");
    RowCount(&body, "spans_recorded", tracer_->spans_recorded());
    RowCount(&body, "spans_dropped", tracer_->dropped());
    RowCount(&body, "ring_capacity", tracer_->ring_capacity());
    // Span loss means /slowlogz and /tracez are missing evidence; surface
    // the ratio loudly instead of burying an absolute counter.
    const uint64_t recorded = tracer_->spans_recorded();
    const uint64_t dropped = tracer_->dropped();
    if (dropped > 0) {
      const double ratio =
          static_cast<double>(dropped) /
          static_cast<double>(recorded + dropped);
      body += "<tr><th>drop_ratio</th><td class=\"warn\">" +
              FormatDouble(ratio * 100.0, 2) + "% (span evidence lost)" +
              "</td></tr>\n";
    } else {
      Row(&body, "drop_ratio", "0%");
    }
    body += "</table>\n";
  }

  {
    prof::CpuProfiler& profiler = prof::CpuProfiler::Global();
    body += "<h2>profiler</h2>\n<table>\n";
    Row(&body, "running", profiler.running() ? "yes" : "no");
    if (profiler.running()) RowCount(&body, "hz", profiler.hz());
    RowCount(&body, "samples_total", profiler.samples_total());
    RowCount(&body, "samples_dropped", profiler.dropped_total());
    RowCount(&body, "registered_threads",
             prof::RegisteredThreads().size());
    body += "<tr><th>profile</th><td><a href=\"/pprof/profile?seconds=2\">"
            "capture 2s (folded)</a></td></tr>\n";
    body += "</table>\n";
  }

  if (health_ != nullptr) {
    const health::Watchdog* watchdog = health_->watchdog();
    body += "<h2>health</h2>\n<table>\n";
    RowNum(&body, "recorder_interval_seconds", health_->interval_seconds(), 1);
    RowCount(&body, "recorder_ticks", health_->store()->ticks());
    const double staleness = health_->staleness_seconds();
    Row(&body, "recorder_staleness",
        std::isfinite(staleness) ? FormatDouble(staleness, 1) + "s"
                                 : "never ticked");
    RowCount(&body, "series", health_->store()->series_count());
    const size_t firing = health_->slo()->firing();
    if (firing > 0) {
      body += "<tr><th>alerts_firing</th><td class=\"warn\"><b>" +
              std::to_string(firing) + "</b> (" +
              HtmlEscape(AlertNames(health_->slo()->Snapshot(),
                                    health::AlertState::kFiring)) +
              " — <a href=\"/alertz\">alertz</a>)</td></tr>\n";
    } else {
      Row(&body, "alerts_firing", "0");
    }
    RowCount(&body, "alerts_pending", health_->slo()->pending());
    Row(&body, "stalled now", watchdog->stalled() ? "YES" : "no");
    RowCount(&body, "stalls_total", watchdog->stalls_total());
    body += "</table>\n";

    // The at-a-glance picture: request rate, tail latency, quality, queue.
    body += "<table>\n<tr><th>series (fine tier)</th><th>last</th>"
            "<th>window</th></tr>\n";
    for (const char* name :
         {"service.requests_total", "service.total_seconds.p99",
          "extract.sp_score.p50", "service.queue_depth",
          "health.alerts_firing"}) {
      const std::optional<health::SeriesWindow> window =
          health_->store()->Query(name, /*coarse=*/false);
      if (!window.has_value() || window->values.empty()) continue;
      body += "<tr><td><a href=\"/timeseriesz?metric=" + std::string(name) +
              "\">" + std::string(name) + "</a></td><td>" +
              FormatDouble(window->values.back(), 3) + "</td><td>" +
              HtmlEscape(health::AsciiSparkline(window->values, 60)) +
              "</td></tr>\n";
    }
    body += "</table>\n";

    const std::vector<health::HeartbeatSnapshot> beats =
        health_->heartbeats()->Snapshot();
    if (!beats.empty()) {
      const uint64_t now_us = health::Heartbeat::NowMicros();
      body += "<table>\n<tr><th>heartbeat</th><th>kind</th><th>state</th>"
              "</tr>\n";
      for (const health::HeartbeatSnapshot& beat : beats) {
        std::string state;
        if (beat.kind == health::ThreadKind::kWorker) {
          if (beat.busy_since_us == 0) {
            state = "idle";
          } else {
            state = "busy";
            if (beat.label != nullptr) {
              state += " (" + std::string(beat.label) + ")";
            }
            state += " for " +
                     FormatDouble(static_cast<double>(
                                      now_us - beat.busy_since_us) /
                                      1e6,
                                  1) +
                     "s";
          }
        } else {
          state = "last beat " +
                  FormatDouble(beat.last_beat_us == 0
                                   ? 0.0
                                   : static_cast<double>(
                                         now_us - beat.last_beat_us) /
                                         1e6,
                               1) +
                  "s ago";
        }
        body += "<tr><td>" + HtmlEscape(beat.name) + "</td><td>" +
                (beat.kind == health::ThreadKind::kWorker ? "worker"
                                                          : "loop") +
                "</td><td>" + HtmlEscape(state) + "</td></tr>\n";
      }
      body += "</table>\n";
    }

    const std::optional<health::StallRecord> stall = watchdog->last_stall();
    if (stall.has_value()) {
      body += "<p class=\"warn\">last stall: <b>" +
              HtmlEscape(stall->thread_name) + "</b>" +
              (stall->label.empty()
                   ? std::string()
                   : " doing " + HtmlEscape(stall->label)) +
              ", stuck " + FormatDouble(stall->stuck_seconds, 1) +
              "s</p>\n";
      if (!stall->folded_stack.empty()) {
        std::string frames = stall->folded_stack;
        std::replace(frames.begin(), frames.end(), ';', '\n');
        body += "<pre>" + HtmlEscape(frames) + "</pre>\n";
      }
    }
  }

  body += kPageFoot;
  return net::HttpResponse::Html(std::move(body));
}

net::HttpResponse AdminPages::Tracez(const net::HttpRequest&) {
  if (tracer_ == nullptr) {
    return net::HttpResponse::Text(503, "tracer not attached\n");
  }
  // The Chrome trace_event "JSON object format" — save and load in
  // ui.perfetto.dev, or point a fetch at this endpoint directly.
  return net::HttpResponse::Json(
      trace::ToChromeTraceJson(tracer_->RingSnapshot()));
}

net::HttpResponse AdminPages::Slowlogz(const net::HttpRequest& request) {
  if (service_ == nullptr) {
    return net::HttpResponse::Text(503, "extraction service not attached\n");
  }
  const prof::SlowEventLog& slowlog = service_->slowlog();
  if (request.Param("format") == "json") {
    return net::HttpResponse::Json(SlowlogToJson(slowlog).Dump());
  }

  std::string body = PageHead("tegra /slowlogz");
  body += NavLinks();
  body += "<p>slowest " + std::to_string(slowlog.size()) + " of capacity " +
          std::to_string(slowlog.capacity()) +
          " — <a href=\"/slowlogz?format=json\">json</a></p>\n";
  for (const prof::WideEvent& rec : slowlog.Snapshot()) {
    body += "<h2>trace " + std::to_string(rec.trace_id) + " — " +
            FormatDouble(rec.total_seconds * 1e3, 2) + " ms (" +
            HtmlEscape(rec.outcome) + ")</h2>\n<table>\n";
    RowCount(&body, "request_id", rec.request_id);
    RowNum(&body, "queue_ms", rec.queue_seconds * 1e3, 2);
    RowNum(&body, "extract_ms", rec.extract_seconds * 1e3, 2);
    RowCount(&body, "num_lines", rec.num_lines);
    RowCount(&body, "columns", static_cast<uint64_t>(
                                   rec.num_columns < 0 ? 0 : rec.num_columns));
    Row(&body, "sp_score",
        rec.sp_score < 0 ? "n/a" : FormatDouble(rec.sp_score, 4));
    Row(&body, "quality_level",
        std::to_string(rec.quality_level) + " (" +
            qos::RungName(rec.quality_level) + ")");
    RowCount(&body, "corpus_generation", rec.corpus_generation);
    Row(&body, "cache_hit", rec.cache_hit ? "yes" : "no");
    body += "</table>\n";
    if (!rec.spans.empty()) {
      body += "<pre>\n";
      for (const trace::TraceEvent& span : rec.spans) {
        body += std::string(2 * span.depth, ' ');
        body += HtmlEscape(span.name);
        body += " [" + HtmlEscape(span.category) + "] " +
                FormatDouble(static_cast<double>(span.duration_us) / 1e3, 3) +
                " ms (tid " + std::to_string(span.thread_id) + ")\n";
      }
      body += "</pre>\n";
    }
  }
  body += kPageFoot;
  return net::HttpResponse::Html(std::move(body));
}

net::HttpResponse AdminPages::Varz(const net::HttpRequest&) {
  MetricsRegistry* registry =
      service_ != nullptr
          ? service_->metrics()
          : (tracer_ != nullptr ? tracer_->metrics() : nullptr);
  if (registry == nullptr) {
    return net::HttpResponse::Text(503, "no metrics registry\n");
  }
  registry->GetGauge("process.uptime_seconds")->Set(ProcessUptimeSeconds());
  RefreshCorpusGauges(registry);
  RefreshTraceGauges(registry);
  RefreshHealthGauges(registry);
  return net::HttpResponse::Json(registry->Snapshot().ToJson());
}

net::HttpResponse AdminPages::PprofProfile(const net::HttpRequest& request) {
  double seconds = 2.0;
  const std::string param = request.Param("seconds");
  if (!param.empty()) {
    char* end = nullptr;
    const double parsed = std::strtod(param.c_str(), &end);
    if (end == param.c_str() || !std::isfinite(parsed)) {
      return net::HttpResponse::Text(400, "bad seconds parameter\n");
    }
    seconds = parsed;
  }
  // Clamp instead of reject: a scraper asking for 600s should not be able to
  // pin a capture thread (and its connection) for 10 minutes.
  seconds = std::min(30.0, std::max(0.1, seconds));
  Result<prof::Profile> profile =
      prof::CpuProfiler::Global().Capture(seconds);
  if (!profile.ok()) {
    return net::HttpResponse::Text(
        503, "profiler unavailable: " + profile.status().message() + "\n");
  }
  // Folded-stack format ("frame;frame;frame count"), the lingua franca of
  // flamegraph tooling: flamegraph.pl, inferno, speedscope all ingest it.
  return net::HttpResponse::Text(200, profile.value().ToFolded());
}

net::HttpResponse AdminPages::Timeseriesz(const net::HttpRequest& request) {
  if (health_ == nullptr) {
    return net::HttpResponse::Text(503, "health monitor not attached\n");
  }
  const health::TimeSeriesStore* store = health_->store();
  const bool coarse = request.Param("tier") == "coarse";
  const bool json = request.Param("format") == "json";
  const std::string metric = request.Param("metric");

  if (!metric.empty()) {
    const std::optional<health::SeriesWindow> window =
        store->Query(metric, coarse);
    if (!window.has_value()) {
      return net::HttpResponse::Text(404, "unknown series: " + metric + "\n");
    }
    if (json) {
      JsonValue out = JsonValue::Object();
      out.Set("ok", JsonValue::Bool(true));
      out.Set("metric", JsonValue::Str(metric));
      out.Set("kind",
              JsonValue::Str(health::SeriesKindName(window->kind)));
      out.Set("tier", JsonValue::Str(coarse ? "coarse" : "fine"));
      out.Set("interval_seconds",
              JsonValue::Number(window->interval_seconds));
      out.Set("end_seconds", JsonValue::Number(window->end_seconds));
      JsonValue values = JsonValue::Array();
      for (const double v : window->values) {
        values.Append(JsonValue::Number(v));
      }
      out.Set("values", std::move(values));
      return net::HttpResponse::Json(out.Dump());
    }
    std::string body = PageHead("tegra /timeseriesz — " + metric);
    body += NavLinks();
    body += "<table>\n";
    Row(&body, "metric", metric);
    Row(&body, "kind", health::SeriesKindName(window->kind));
    Row(&body, "tier", coarse ? "coarse" : "fine");
    RowNum(&body, "interval_seconds", window->interval_seconds, 1);
    RowCount(&body, "samples", window->values.size());
    if (!window->values.empty()) {
      RowNum(&body, "last", window->values.back());
    }
    body += "</table>\n<pre>" +
            HtmlEscape(health::AsciiSparkline(window->values, 120)) +
            "</pre>\n";
    body += "<p><a href=\"/timeseriesz?metric=" + metric +
            (coarse ? "" : "&tier=coarse") + "\">" +
            (coarse ? "fine tier" : "coarse tier") +
            "</a> | <a href=\"/timeseriesz?metric=" + metric +
            (coarse ? "&tier=coarse" : "") +
            "&format=json\">json</a></p>\n";
    body += kPageFoot;
    return net::HttpResponse::Html(std::move(body));
  }

  const std::vector<std::string> names = store->Names();
  if (json) {
    JsonValue out = JsonValue::Object();
    out.Set("ok", JsonValue::Bool(true));
    out.Set("ticks", JsonValue::Number(static_cast<double>(store->ticks())));
    JsonValue arr = JsonValue::Array();
    for (const std::string& name : names) arr.Append(JsonValue::Str(name));
    out.Set("series", std::move(arr));
    return net::HttpResponse::Json(out.Dump());
  }
  std::string body = PageHead("tegra /timeseriesz");
  body += NavLinks();
  body += "<p>" + std::to_string(names.size()) + " series, " +
          std::to_string(store->ticks()) + " recorder ticks, interval " +
          FormatDouble(store->interval_seconds(), 1) +
          "s — <a href=\"/timeseriesz?format=json\">json</a></p>\n";
  body += "<table>\n<tr><th>series</th><th>kind</th><th>last</th>"
          "<th>fine window (oldest→newest)</th></tr>\n";
  for (const std::string& name : names) {
    const std::optional<health::SeriesWindow> window =
        store->Query(name, /*coarse=*/false);
    if (!window.has_value()) continue;
    body += "<tr><td><a href=\"/timeseriesz?metric=" + HtmlEscape(name) +
            "\">" + HtmlEscape(name) + "</a></td><td>" +
            health::SeriesKindName(window->kind) + "</td><td>" +
            (window->values.empty()
                 ? "-"
                 : FormatDouble(window->values.back(), 3)) +
            "</td><td>" +
            HtmlEscape(health::AsciiSparkline(window->values, 60)) +
            "</td></tr>\n";
  }
  body += "</table>\n";
  body += kPageFoot;
  return net::HttpResponse::Html(std::move(body));
}

net::HttpResponse AdminPages::Alertz(const net::HttpRequest& request) {
  if (health_ == nullptr) {
    return net::HttpResponse::Text(503, "health monitor not attached\n");
  }
  const std::vector<health::AlertStatus> alerts = health_->slo()->Snapshot();
  const health::Watchdog* watchdog = health_->watchdog();
  const std::optional<health::StallRecord> stall = watchdog->last_stall();

  if (request.Param("format") == "json") {
    JsonValue out = JsonValue::Object();
    out.Set("ok", JsonValue::Bool(true));
    out.Set("firing",
            JsonValue::Number(static_cast<double>(health_->slo()->firing())));
    out.Set("pending",
            JsonValue::Number(static_cast<double>(health_->slo()->pending())));
    JsonValue arr = JsonValue::Array();
    for (const health::AlertStatus& alert : alerts) {
      arr.Append(AlertToJson(alert));
    }
    out.Set("alerts", std::move(arr));
    JsonValue wd = JsonValue::Object();
    wd.Set("stalled", JsonValue::Bool(watchdog->stalled()));
    wd.Set("stalls_total",
           JsonValue::Number(static_cast<double>(watchdog->stalls_total())));
    if (stall.has_value()) wd.Set("last_stall", StallToJson(*stall));
    out.Set("watchdog", std::move(wd));
    return net::HttpResponse::Json(out.Dump());
  }

  std::string body = PageHead("tegra /alertz");
  body += NavLinks();
  body += "<p>" + std::to_string(health_->slo()->firing()) + " firing, " +
          std::to_string(health_->slo()->pending()) +
          " pending — <a href=\"/alertz?format=json\">json</a></p>\n";
  body += "<h2>SLO alerts</h2>\n<table>\n"
          "<tr><th>alert</th><th>state</th><th>value</th><th>detail</th>"
          "</tr>\n";
  for (const health::AlertStatus& alert : alerts) {
    const bool hot = alert.state == health::AlertState::kFiring;
    body += "<tr><td>" + HtmlEscape(alert.name) + "</td><td" +
            (hot ? " class=\"warn\"><b>" : ">") +
            health::AlertStateName(alert.state) + (hot ? "</b>" : "") +
            "</td><td>" + FormatDouble(alert.value, 3) + "</td><td>" +
            HtmlEscape(alert.detail) + "</td></tr>\n";
  }
  body += "</table>\n";

  body += "<h2>watchdog</h2>\n<table>\n";
  Row(&body, "stalled now",
      watchdog->stalled() ? "YES (a heartbeat is overdue)" : "no");
  RowCount(&body, "stalls_total", watchdog->stalls_total());
  RowNum(&body, "stall_threshold_seconds",
         watchdog->options().stall_threshold_seconds, 1);
  RowNum(&body, "loop_threshold_seconds",
         watchdog->options().loop_threshold_seconds, 1);
  RowCount(&body, "heartbeats", health_->heartbeats()->active());
  body += "</table>\n";
  if (stall.has_value()) {
    body += "<h2>last stall</h2>\n<table>\n";
    Row(&body, "thread", stall->thread_name);
    if (!stall->label.empty()) Row(&body, "doing", stall->label);
    RowNum(&body, "stuck_seconds", stall->stuck_seconds, 1);
    body += "</table>\n";
    if (!stall->folded_stack.empty()) {
      // Folded "root;...;leaf" rendered one frame per line, leaf last —
      // read it like a backtrace of where the thread was wedged.
      std::string frames = stall->folded_stack;
      std::replace(frames.begin(), frames.end(), ';', '\n');
      body += "<pre>" + HtmlEscape(frames) + "</pre>\n";
    }
  }
  body += kPageFoot;
  return net::HttpResponse::Html(std::move(body));
}

net::HttpResponse AdminPages::Qosz(const net::HttpRequest& request) {
  if (degradation_ == nullptr && quotas_ == nullptr) {
    return net::HttpResponse::Text(503, "qos not attached\n");
  }
  // Same monotonic clock the data plane charges the buckets on.
  const double now_seconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();

  if (request.Param("format") == "json") {
    JsonValue out = JsonValue::Object();
    out.Set("ok", JsonValue::Bool(true));
    if (degradation_ != nullptr) {
      const qos::DegradationController::Snapshot qs =
          degradation_->snapshot();
      JsonValue ladder = JsonValue::Object();
      ladder.Set("rung", JsonValue::Number(qs.rung));
      ladder.Set("rung_name", JsonValue::Str(qos::RungName(qs.rung)));
      ladder.Set("max_rung",
                 JsonValue::Number(degradation_->options().max_rung));
      ladder.Set("pressure", JsonValue::Number(qs.pressure));
      ladder.Set("escalations",
                 JsonValue::Number(static_cast<double>(qs.escalations)));
      ladder.Set("recoveries",
                 JsonValue::Number(static_cast<double>(qs.recoveries)));
      ladder.Set("degraded_seconds", JsonValue::Number(qs.degraded_seconds));
      JsonValue signals = JsonValue::Object();
      signals.Set("queue_fraction",
                  JsonValue::Number(qs.last_signals.queue_fraction));
      signals.Set("p99_seconds",
                  JsonValue::Number(qs.last_signals.p99_seconds));
      signals.Set("queue_p99_seconds",
                  JsonValue::Number(qs.last_signals.queue_p99_seconds));
      signals.Set("deadline_seconds",
                  JsonValue::Number(qs.last_signals.deadline_seconds));
      ladder.Set("signals", std::move(signals));
      out.Set("ladder", std::move(ladder));
    }
    if (quotas_ != nullptr) {
      JsonValue tenants = JsonValue::Array();
      for (const qos::TenantQuotas::TenantState& state :
           quotas_->Snapshot(now_seconds)) {
        JsonValue t = JsonValue::Object();
        t.Set("tenant", JsonValue::Str(state.tenant));
        t.Set("tokens", JsonValue::Number(state.tokens));
        t.Set("rate", JsonValue::Number(state.rate));
        t.Set("burst", JsonValue::Number(state.burst));
        t.Set("admitted", JsonValue::Number(static_cast<double>(
                              state.admitted)));
        t.Set("rejected", JsonValue::Number(static_cast<double>(
                              state.rejected)));
        tenants.Append(std::move(t));
      }
      JsonValue quota = JsonValue::Object();
      quota.Set("enabled", JsonValue::Bool(quotas_->enabled()));
      quota.Set("rate", JsonValue::Number(quotas_->options().rate));
      quota.Set("burst", JsonValue::Number(quotas_->options().burst));
      quota.Set("tenants", std::move(tenants));
      out.Set("quotas", std::move(quota));
    }
    return net::HttpResponse::Json(out.Dump());
  }

  std::string body = PageHead("tegra /qosz");
  body += NavLinks();
  body += "<p><a href=\"/qosz?format=json\">json</a></p>\n";

  if (degradation_ != nullptr) {
    const qos::DegradationController::Snapshot qs = degradation_->snapshot();
    const qos::DegradationOptions& opts = degradation_->options();
    body += "<h2>degradation ladder</h2>\n<table>\n";
    Row(&body, "rung",
        std::to_string(qs.rung) + " (" + qos::RungName(qs.rung) + ")");
    RowNum(&body, "pressure", qs.pressure);
    RowNum(&body, "escalate_at (held " +
                      FormatDouble(opts.escalate_hold_seconds, 1) + "s)",
           opts.escalate_pressure, 2);
    RowNum(&body, "recover_at (held " +
                      FormatDouble(opts.recover_hold_seconds, 1) + "s)",
           opts.recover_pressure, 2);
    RowCount(&body, "escalations_total", qs.escalations);
    RowCount(&body, "recoveries_total", qs.recoveries);
    RowNum(&body, "degraded_seconds", qs.degraded_seconds, 1);
    RowNum(&body, "signal queue_fraction", qs.last_signals.queue_fraction);
    RowNum(&body, "signal p99_seconds", qs.last_signals.p99_seconds);
    RowNum(&body, "signal queue_p99_seconds",
           qs.last_signals.queue_p99_seconds);
    body += "</table>\n";

    // The full ladder, current rung highlighted: what each step trades away.
    static const char* kRungWhat[] = {
        "exact pipeline (A* anchor search, exact SP, semantic+syntactic)",
        "anchor candidates sampled; per-anchor node budget",
        "+ capped SLGR DP width, sampled SP scoring",
        "+ syntactic-only distance (no corpus lookups)",
        "ListExtract baseline (linear-time, no alignment search)"};
    body += "<table>\n<tr><th>rung</th><th>name</th><th>what degrades</th>"
            "</tr>\n";
    for (int rung = 0; rung < qos::kNumRungs; ++rung) {
      const bool current = rung == qs.rung;
      body += "<tr><td>" + std::string(current ? "<b>" : "") +
              std::to_string(rung) + (current ? " ←</b>" : "") + "</td><td>" +
              qos::RungName(rung) + "</td><td>" + kRungWhat[rung] +
              "</td></tr>\n";
    }
    body += "</table>\n";
  }

  if (quotas_ != nullptr) {
    body += "<h2>tenant quotas</h2>\n";
    if (!quotas_->enabled()) {
      body += "<p>disabled (start with --quota-rate to enable)</p>\n";
    } else {
      body += "<p>" + FormatDouble(quotas_->options().rate, 1) +
              " req/s per tenant, burst " +
              FormatDouble(quotas_->options().burst, 1) + "</p>\n";
      body += "<table>\n<tr><th>tenant</th><th>tokens</th><th>admitted</th>"
              "<th>rejected</th></tr>\n";
      for (const qos::TenantQuotas::TenantState& state :
           quotas_->Snapshot(now_seconds)) {
        body += "<tr><td>" + HtmlEscape(state.tenant) + "</td><td>" +
                FormatDouble(state.tokens, 1) + " / " +
                FormatDouble(state.burst, 1) + "</td><td>" +
                std::to_string(state.admitted) + "</td><td>" +
                (state.rejected > 0
                     ? "<b class=\"warn\">" + std::to_string(state.rejected) +
                           "</b>"
                     : std::to_string(state.rejected)) +
                "</td></tr>\n";
      }
      body += "</table>\n";
    }
  }

  body += kPageFoot;
  return net::HttpResponse::Html(std::move(body));
}

}  // namespace serve
}  // namespace tegra
