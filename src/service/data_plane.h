// tegra::serve::DataPlane — POST /v1/extract over the tegra::net event-loop
// server.
//
// This is the network front end of the ExtractionService: the piece that
// turns "a bounded worker pool behind an admission queue" into "a service
// thousands of concurrent HTTP clients can call". The admin plane stays
// GET-only and thread-per-connection; this plane is write-path and
// epoll-driven, with one event-loop thread multiplexing every client.
//
// Endpoint contract (JSON in the tegra_serve NDJSON vocabulary):
//
//   POST /v1/extract
//     single body  {"id": <any>, "lines": ["row", ...],
//                   "columns": N, "deadline_ms": D, "bypass_cache": true}
//     batch body   {"requests": [<single body>, ...]}
//
//   single response: the NDJSON response object ({"ok":true,"columns":...,
//   "rows":[[...]],...} or {"ok":false,"code":...,"error":...}), with the
//   HTTP status carrying the Status code:
//
//     200  OK
//     400  kInvalidArgument (and malformed JSON / missing "lines")
//     404  kNotFound
//     408  kDeadlineExceeded (expired waiting in the admission queue)
//     503  kUnavailable — queue full or shutting down; carries Retry-After
//     500  anything else
//
//   batch response: {"ok":true,"responses":[...]} in request order, HTTP 200
//   unless *every* item was shed with kUnavailable (then 503 + Retry-After,
//   so a saturated server looks identical to batch and single clients).
//
// Backpressure is layered: the net server sheds whole connections at
// max_connections (503 before a byte of the request is read), and the
// service sheds individual requests when the admission queue is full —
// SubmitWithCallback delivers the rejection inline, the event loop maps it
// to 503 + Retry-After. No thread ever blocks on a full queue.
//
// The handler never blocks the event loop: extraction requests are handed
// to the service's worker pool via SubmitWithCallback, and the workers
// complete the HTTP exchange through the server's thread-safe completion
// queue.

#ifndef TEGRA_SERVICE_DATA_PLANE_H_
#define TEGRA_SERVICE_DATA_PLANE_H_

#include <cstddef>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "net/http_server.h"
#include "prof/wide_event.h"
#include "qos/token_bucket.h"
#include "service/extraction_service.h"
#include "service/serve_json.h"

namespace tegra {
namespace serve {

/// \brief Static configuration of the data plane.
struct DataPlaneOptions {
  /// Transport options (port, bind address, max_connections, io timeout,
  /// parser limits, drain behaviour) — see net::HttpServerOptions.
  net::HttpServerOptions server;
  /// Upper bound on items in one batch body; larger batches are rejected
  /// with 400 before any item is admitted.
  size_t max_batch_items = 64;
  /// Per-tenant admission quotas (not owned; must outlive the plane). Null
  /// or disabled = admit everything. A request is charged one token (a batch
  /// one token per item) against its X-Tegra-Tenant bucket; exhaustion
  /// answers 429 with a Retry-After derived from the bucket's refill time.
  qos::TenantQuotas* quotas = nullptr;
};

/// \brief Maps an extraction Status to the HTTP status POST /v1/extract
/// answers with. Exposed for tests and the docs table.
int HttpStatusForExtraction(const Status& status);

/// \brief Renders one ExtractionResponse as the shared NDJSON/HTTP response
/// object; `id` is echoed when non-null.
JsonValue ExtractionResponseToJson(const JsonValue* id,
                                   const ExtractionResponse& response);

/// \brief The extraction data plane. Lifecycle: construct, Start(), ...,
/// Stop() (idempotent; destructor calls it). The service must outlive it.
class DataPlane {
 public:
  /// \param service the admission-controlled extraction front end (not
  /// owned; must outlive this plane).
  /// \param registry metrics sink for net.* and dataplane.* instruments.
  DataPlane(ExtractionService* service, DataPlaneOptions options = {},
            MetricsRegistry* registry = nullptr);

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  Status Start();
  void Stop();

  int port() const { return server_.port(); }
  bool running() const { return server_.running(); }

  /// The transport, exposed read-only so /readyz and /statusz can report
  /// listener saturation and connection stats.
  const net::HttpServer& server() const { return server_; }

  const DataPlaneOptions& options() const { return options_; }

  /// Wires the wide-event access log (not owned; must outlive the plane, or
  /// be detached with nullptr before it dies). When set, every completed
  /// /v1/extract exchange — including parse rejections — emits one
  /// tail-sampled JSON line. Set before Start(); not thread-safe against
  /// in-flight requests.
  void set_wide_events(prof::WideEventLog* log) { wide_events_ = log; }

 private:
  void HandleHttp(const net::HttpRequest& request,
                  net::ResponseCallback done);
  void HandleExtract(const net::HttpRequest& request,
                     net::ResponseCallback done);
  /// Parses one single-extraction JSON object into `out`; non-OK on a body
  /// that cannot be admitted (no "lines", bad shape).
  static Status ParseExtraction(const JsonValue& body,
                                ExtractionRequest* out);

  /// Emits the "request was rejected before admission" wide event (parse
  /// failures, oversized batches) so the access log covers every exchange.
  void RecordBadRequest(const net::HttpRequest& request,
                        const net::HttpResponse& response);

  /// Charges `tokens` against `tenant`'s quota bucket. Returns true when
  /// admitted; otherwise answers the exchange with 429 + Retry-After
  /// (consuming `done`) and returns false.
  bool CheckQuota(const net::HttpRequest& request, const std::string& tenant,
                  double tokens, net::ResponseCallback* done);

  ExtractionService* service_;  // Not owned.
  DataPlaneOptions options_;
  net::HttpServer server_;
  prof::WideEventLog* wide_events_ = nullptr;  // Not owned.

  Counter* extract_total_ = nullptr;
  Counter* batch_total_ = nullptr;
  Counter* batch_items_total_ = nullptr;
  Counter* rejected_total_ = nullptr;
  Counter* quota_rejected_total_ = nullptr;
};

}  // namespace serve
}  // namespace tegra

#endif  // TEGRA_SERVICE_DATA_PLANE_H_
