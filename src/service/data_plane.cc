#include "service/data_plane.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace tegra {
namespace serve {

namespace {

/// Monotonic seconds for the quota buckets (they only ever see deltas).
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Turns a backoff estimate (queue drain time, bucket refill time) into a
/// Retry-After value: clamped to [1, 30] seconds, plus a deterministic
/// per-request jitter of 0-2s so a fleet of rejected clients does not
/// retry in lockstep at the same instant.
int RetryAfterHint(double backoff_seconds, uint64_t request_id) {
  double base = std::ceil(backoff_seconds);
  if (base < 1) base = 1;
  if (base > 30) base = 30;
  const int jitter = static_cast<int>(request_id % 3);
  const int hint = static_cast<int>(base) + jitter;
  return hint > 30 ? 30 : hint;
}

/// Renders `payload` with the HTTP status derived from the extraction
/// outcome; 503s carry Retry-After so clients and proxies back off politely.
net::HttpResponse JsonWithStatus(const Status& status, JsonValue payload,
                                 int retry_after_seconds) {
  net::HttpResponse response =
      net::HttpResponse::JsonStatus(HttpStatusForExtraction(status),
                                    payload.Dump() + "\n");
  if (response.status == 503) {
    response.extra_headers.emplace_back(
        "Retry-After", std::to_string(retry_after_seconds));
  }
  return response;
}

/// A 400 with the NDJSON bad-request object shape.
net::HttpResponse BadRequest(const std::string& message) {
  JsonValue err = JsonValue::Object();
  err.Set("ok", JsonValue::Bool(false));
  err.Set("code", JsonValue::Str("InvalidArgument"));
  err.Set("error", JsonValue::Str(message));
  return net::HttpResponse::JsonStatus(400, err.Dump() + "\n");
}

/// The 429 a tenant over its quota receives; mirrors the NDJSON error shape
/// with a distinct code so clients can tell "you are over quota" (back off
/// per-tenant) from "the service is overloaded" (back off globally).
net::HttpResponse QuotaRejected(const std::string& tenant,
                                int retry_after_seconds) {
  JsonValue err = JsonValue::Object();
  err.Set("ok", JsonValue::Bool(false));
  err.Set("code", JsonValue::Str("ResourceExhausted"));
  err.Set("error", JsonValue::Str("tenant \"" + tenant +
                                  "\" is over its request quota"));
  err.Set("retry_after_s", JsonValue::Number(retry_after_seconds));
  net::HttpResponse response =
      net::HttpResponse::JsonStatus(429, err.Dump() + "\n");
  response.extra_headers.emplace_back("Retry-After",
                                      std::to_string(retry_after_seconds));
  return response;
}

/// Adds the HTTP-only fields of an exchange to a request's record and
/// writes it to the access log (when one is attached).
void RecordExchange(prof::WideEventLog* log, prof::WideEvent event,
                    const std::string& tenant, uint64_t bytes_in,
                    const net::HttpResponse& http) {
  if (log == nullptr || !log->enabled()) return;
  event.endpoint = "/v1/extract";
  event.http_status = http.status;
  event.tenant = tenant;
  event.bytes_in = bytes_in;
  event.bytes_out = http.body.size();
  log->Record(event);
}

/// Cross-thread aggregation of one batch: items complete on arbitrary
/// worker threads (or inline on rejection); the last one renders and sends.
struct BatchState {
  std::mutex mu;
  std::vector<JsonValue> ids;
  std::vector<ExtractionResponse> responses;
  size_t remaining = 0;
  net::ResponseCallback done;
  prof::WideEventLog* wide = nullptr;  // Not owned; may be null.
  ExtractionService* service = nullptr;  // Not owned; Retry-After source.
  std::string tenant;
  uint64_t request_id = 0;
  uint64_t bytes_in = 0;
};

void FinishBatch(BatchState* state) {
  JsonValue out = JsonValue::Object();
  JsonValue items = JsonValue::Array();
  bool all_unavailable = !state->responses.empty();
  for (size_t i = 0; i < state->responses.size(); ++i) {
    const JsonValue* id = state->ids[i].is_null() ? nullptr : &state->ids[i];
    items.Append(ExtractionResponseToJson(id, state->responses[i]));
    if (state->responses[i].status.code() != StatusCode::kUnavailable) {
      all_unavailable = false;
    }
  }
  out.Set("ok", JsonValue::Bool(true));
  out.Set("responses", std::move(items));
  // A batch that was shed in its entirety reports the same overload signal
  // as a shed single request, so retry logic needs one code path.
  net::HttpResponse response = net::HttpResponse::JsonStatus(
      all_unavailable ? 503 : 200, out.Dump() + "\n");
  if (response.status == 503) {
    const double drain = state->service != nullptr
                             ? state->service->EstimatedDrainSeconds()
                             : 0;
    response.extra_headers.emplace_back(
        "Retry-After",
        std::to_string(RetryAfterHint(drain, state->request_id)));
  }

  // One wide event per HTTP exchange: the batch reports as its slowest
  // item's record (trace id, total latency) aggregated to the shape of its
  // worst item, so tail sampling keys off the same signals as a single
  // request (any error, slowest item).
  if (state->wide != nullptr && state->wide->enabled()) {
    const std::vector<ExtractionResponse>& responses = state->responses;
    prof::WideEvent event =
        std::max_element(responses.begin(), responses.end(),
                         [](const ExtractionResponse& a,
                            const ExtractionResponse& b) {
                           return a.event.total_seconds <
                                  b.event.total_seconds;
                         })
            ->event;
    event.batch = true;
    event.items = static_cast<int>(responses.size());
    event.extract_seconds = 0;
    event.num_lines = 0;
    bool any_failed = false;
    for (const ExtractionResponse& item : responses) {
      const prof::WideEvent& e = item.event;
      event.cache_hit = event.cache_hit && e.cache_hit;
      event.queue_seconds = std::max(event.queue_seconds, e.queue_seconds);
      event.extract_seconds += e.extract_seconds;
      event.sp_score = std::max(event.sp_score, e.sp_score);
      event.quality_level = std::max(event.quality_level, e.quality_level);
      event.num_lines += e.num_lines;
      if (!item.ok()) any_failed = true;
    }
    event.outcome =
        all_unavailable ? "rejected" : (any_failed ? "partial" : "ok");
    RecordExchange(state->wide, std::move(event), state->tenant,
                   state->bytes_in, response);
  }

  state->done(std::move(response));
}

}  // namespace

int HttpStatusForExtraction(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kDeadlineExceeded:
      return 408;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kNotImplemented:
      return 501;
    default:
      return 500;
  }
}

JsonValue ExtractionResponseToJson(const JsonValue* id,
                                   const ExtractionResponse& resp) {
  const prof::WideEvent& event = resp.event;
  JsonValue out = JsonValue::Object();
  if (id != nullptr && !id->is_null()) out.Set("id", *id);
  if (!resp.ok()) {
    out.Set("ok", JsonValue::Bool(false));
    out.Set("code", JsonValue::Str(StatusCodeToString(resp.status.code())));
    out.Set("error", JsonValue::Str(resp.status.message()));
    out.Set("quality_level", JsonValue::Number(event.quality_level));
    out.Set("queue_ms", JsonValue::Number(event.queue_seconds * 1e3));
    out.Set("total_ms", JsonValue::Number(event.total_seconds * 1e3));
    return out;
  }
  const ExtractionResult& result = *resp.result;
  out.Set("ok", JsonValue::Bool(true));
  out.Set("columns", JsonValue::Number(result.num_columns));
  JsonValue rows = JsonValue::Array();
  for (const auto& row : result.table.rows()) {
    JsonValue cells = JsonValue::Array();
    for (const auto& cell : row) cells.Append(JsonValue::Str(cell));
    rows.Append(std::move(cells));
  }
  out.Set("rows", std::move(rows));
  out.Set("sp", JsonValue::Number(result.sp));
  out.Set("per_column_objective",
          JsonValue::Number(result.per_column_objective));
  out.Set("quality_level", JsonValue::Number(event.quality_level));
  out.Set("cache_hit", JsonValue::Bool(event.cache_hit));
  out.Set("queue_ms", JsonValue::Number(event.queue_seconds * 1e3));
  out.Set("extract_ms", JsonValue::Number(event.extract_seconds * 1e3));
  out.Set("total_ms", JsonValue::Number(event.total_seconds * 1e3));
  return out;
}

namespace {

/// Wires the connection-shed Retry-After hint to the service's queue-drain
/// estimate (unless the caller installed their own hook).
DataPlaneOptions WithDrainRetryAfter(DataPlaneOptions options,
                                     ExtractionService* service) {
  if (service != nullptr && !options.server.retry_after_fn) {
    options.server.retry_after_fn = [service] {
      return RetryAfterHint(service->EstimatedDrainSeconds(),
                            /*request_id=*/0);
    };
  }
  return options;
}

}  // namespace

DataPlane::DataPlane(ExtractionService* service, DataPlaneOptions options,
                     MetricsRegistry* registry)
    : service_(service),
      options_(WithDrainRetryAfter(std::move(options), service)),
      server_(options_.server, registry) {
  if (registry != nullptr) {
    extract_total_ = registry->GetCounter("dataplane.extract_total");
    batch_total_ = registry->GetCounter("dataplane.batch_total");
    batch_items_total_ = registry->GetCounter("dataplane.batch_items_total");
    rejected_total_ = registry->GetCounter("dataplane.rejected_total");
    quota_rejected_total_ =
        registry->GetCounter("dataplane.quota_rejected_total");
  }
  server_.set_handler([this](const net::HttpRequest& request,
                             net::ResponseCallback done) {
    HandleHttp(request, std::move(done));
  });
}

Status DataPlane::Start() {
  if (service_ == nullptr) {
    return Status::InvalidArgument("data plane has no extraction service");
  }
  return server_.Start();
}

void DataPlane::Stop() { server_.Stop(); }

void DataPlane::HandleHttp(const net::HttpRequest& request,
                           net::ResponseCallback done) {
  if (request.path == "/v1/extract") {
    if (request.method != "POST") {
      done(net::HttpResponse::Text(405, "use POST /v1/extract\n"));
      return;
    }
    HandleExtract(request, std::move(done));
    return;
  }
  done(net::HttpResponse::Text(
      404, "404 not found: " + request.path + "\n\nendpoints:\n"
           "  POST /v1/extract   single {\"lines\":[...]} or batch "
           "{\"requests\":[...]}\n"));
}

Status DataPlane::ParseExtraction(const JsonValue& body,
                                  ExtractionRequest* out) {
  if (!body.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  if (!body.Has("lines") || body["lines"].AsArray().empty()) {
    return Status::InvalidArgument("request has no \"lines\"");
  }
  for (const JsonValue& item : body["lines"].AsArray()) {
    out->lines.push_back(item.AsString());
  }
  out->num_columns = static_cast<int>(body["columns"].AsNumber(0));
  out->deadline_seconds = body["deadline_ms"].AsNumber(0) / 1e3;
  out->bypass_cache = body["bypass_cache"].AsBool(false);
  return Status::OK();
}

void DataPlane::RecordBadRequest(const net::HttpRequest& request,
                                 const net::HttpResponse& response) {
  prof::WideEvent event;
  event.request_id = request.request_id;
  event.outcome = "bad_request";
  event.items = 0;
  RecordExchange(wide_events_, std::move(event), /*tenant=*/"",
                 request.body.size(), response);
}

bool DataPlane::CheckQuota(const net::HttpRequest& request,
                           const std::string& tenant, double tokens,
                           net::ResponseCallback* done) {
  if (options_.quotas == nullptr || !options_.quotas->enabled()) return true;
  const qos::TenantQuotas::Decision decision =
      options_.quotas->Check(tenant, NowSeconds(), tokens);
  if (decision.allowed) return true;
  if (quota_rejected_total_ != nullptr) quota_rejected_total_->Increment();
  const std::string bucket =
      tenant.empty() ? qos::kAnonymousTenant : tenant;
  const int retry_after =
      RetryAfterHint(decision.retry_after_seconds, request.request_id);
  net::HttpResponse response = QuotaRejected(bucket, retry_after);
  prof::WideEvent event;
  event.request_id = request.request_id;
  event.outcome = "quota_rejected";
  event.items = static_cast<int>(tokens);
  RecordExchange(wide_events_, std::move(event), tenant, request.body.size(),
                 response);
  (*done)(std::move(response));
  return false;
}

void DataPlane::HandleExtract(const net::HttpRequest& request,
                              net::ResponseCallback done) {
  auto parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    net::HttpResponse response = BadRequest(parsed.status().message());
    RecordBadRequest(request, response);
    done(std::move(response));
    return;
  }
  const JsonValue& body = *parsed;
  const std::string tenant = request.Header("x-tegra-tenant");

  // Batch body: {"requests": [ ... ]}.
  if (body.Has("requests")) {
    if (batch_total_ != nullptr) batch_total_->Increment();
    const std::vector<JsonValue>& items = body["requests"].AsArray();
    if (items.empty()) {
      if (rejected_total_ != nullptr) rejected_total_->Increment();
      net::HttpResponse response =
          BadRequest("\"requests\" must be a non-empty array");
      RecordBadRequest(request, response);
      done(std::move(response));
      return;
    }
    if (items.size() > options_.max_batch_items) {
      if (rejected_total_ != nullptr) rejected_total_->Increment();
      net::HttpResponse response =
          BadRequest("batch of " + std::to_string(items.size()) +
                     " exceeds limit of " +
                     std::to_string(options_.max_batch_items));
      RecordBadRequest(request, response);
      done(std::move(response));
      return;
    }

    // Every item must parse before any is admitted, so a malformed batch
    // never does half its work.
    std::vector<ExtractionRequest> requests(items.size());
    auto state = std::make_shared<BatchState>();
    state->ids.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      const Status status = ParseExtraction(items[i], &requests[i]);
      if (!status.ok()) {
        if (rejected_total_ != nullptr) rejected_total_->Increment();
        net::HttpResponse response = BadRequest(
            "requests[" + std::to_string(i) + "]: " + status.message());
        RecordBadRequest(request, response);
        done(std::move(response));
        return;
      }
      requests[i].request_id = request.request_id;
      state->ids.push_back(items[i]["id"]);
    }
    // Quota after shape validation (a malformed batch costs no tokens),
    // before admission: one token per item, so batches cannot out-compete
    // single-request tenants.
    if (!CheckQuota(request, tenant, static_cast<double>(items.size()),
                    &done)) {
      return;
    }
    if (batch_items_total_ != nullptr) {
      batch_items_total_->Increment(items.size());
    }
    state->responses.resize(items.size());
    state->remaining = items.size();
    state->done = std::move(done);
    state->wide = wide_events_;
    state->service = service_;
    state->tenant = tenant;
    state->request_id = request.request_id;
    state->bytes_in = request.body.size();
    for (size_t i = 0; i < requests.size(); ++i) {
      service_->SubmitWithCallback(
          std::move(requests[i]), [state, i](ExtractionResponse response) {
            bool last = false;
            {
              std::lock_guard<std::mutex> lock(state->mu);
              state->responses[i] = std::move(response);
              last = --state->remaining == 0;
            }
            if (last) FinishBatch(state.get());
          });
    }
    return;
  }

  // Single body.
  if (extract_total_ != nullptr) extract_total_->Increment();
  ExtractionRequest extraction;
  const Status status = ParseExtraction(body, &extraction);
  if (!status.ok()) {
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    net::HttpResponse response = BadRequest(status.message());
    RecordBadRequest(request, response);
    done(std::move(response));
    return;
  }
  extraction.request_id = request.request_id;
  if (!CheckQuota(request, tenant, 1, &done)) return;
  // The id must survive until the worker completes; capture by value.
  auto id = std::make_shared<JsonValue>(body["id"]);
  Counter* rejected = rejected_total_;
  prof::WideEventLog* wide = wide_events_;
  ExtractionService* service = service_;
  const uint64_t bytes_in = request.body.size();
  service_->SubmitWithCallback(
      std::move(extraction),
      [id, rejected, wide, service, tenant, bytes_in,
       done = std::move(done)](ExtractionResponse response) {
        if (!response.ok() && rejected != nullptr) rejected->Increment();
        const JsonValue* id_ptr = id->is_null() ? nullptr : id.get();
        // The drain estimate is read at completion (not admission), so the
        // hint reflects the queue the retry will actually face.
        int retry_after = 1;
        if (response.status.code() == StatusCode::kUnavailable) {
          retry_after = RetryAfterHint(service->EstimatedDrainSeconds(),
                                       response.event.request_id);
        }
        net::HttpResponse http = JsonWithStatus(
            response.status, ExtractionResponseToJson(id_ptr, response),
            retry_after);
        RecordExchange(wide, std::move(response.event), tenant, bytes_in,
                       http);
        done(std::move(http));
      });
}

}  // namespace serve
}  // namespace tegra
