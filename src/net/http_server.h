// tegra::net::HttpServer — the epoll-driven HTTP/1.1 server behind both
// planes of tegra_serve: the data plane (POST /v1/extract) and the admin
// zPages each run one instance on their own listener. The server owns the
// connection lifecycle the way a production front end does:
//
//  * One event-loop thread multiplexing every connection through epoll
//    (level-triggered; a portable poll(2) backend is selectable for
//    non-Linux builds and for exercising both paths in tests). Accept,
//    read, parse, write — all non-blocking; the loop never sleeps inside a
//    connection.
//
//  * Asynchronous handlers. The handler receives the parsed request plus a
//    completion callback and must NOT block the loop. Work that blocks is
//    handed to an executor (the ExtractionService worker pool in the data
//    plane, a capture thread for the admin plane's /pprof/profile), which
//    invokes the callback from any thread when the response is ready. The
//    callback enqueues the response and wakes the loop through a self-pipe,
//    so handler threads never touch connection state.
//
//  * Keep-alive with pipelining: a connection parses its next buffered
//    request as soon as the previous response is flushed. At most one
//    request per connection is in a handler at a time (responses stay in
//    order by construction).
//
//  * Deadlines off a timer wheel. Every connection carries a read/write
//    deadline (io_timeout_ms from the last state change) tracked in a
//    coarse hashed timing wheel — O(1) re-arm per event, no per-connection
//    timerfd. A connection that stalls mid-request is answered 408 and
//    closed; an idle keep-alive connection is closed silently; a stalled
//    writer is dropped. Requests parked in a handler get a separate, more
//    generous deadline so a slow extraction is not mistaken for a dead
//    peer.
//
//  * Admission at the socket. Beyond max_connections the listener accepts,
//    answers "503 Retry-After" and closes — clients see explicit
//    backpressure, never a SYN backlog timeout or an RST. saturated() is
//    exported so /readyz can report the same condition.
//
//  * Graceful drain. Stop() closes the listener, lets in-flight requests
//    finish (up to drain_timeout_ms), turns keep-alive responses into
//    "Connection: close", then tears down. In-flight work is never
//    dropped.
//
// Instrumentation (when a MetricsRegistry is supplied), every name prefixed
// with HttpServerOptions::name ("net" below): net.connections_*,
// net.requests_total, net.responses_{2xx,4xx,5xx}_total,
// net.{read,write,handler}_timeout_total, net.shed_connections_total,
// net.bad_request_total, net.request_seconds, net.saturated, net.port, plus
// a manual "net.request" trace span covering first byte of the request head
// to response enqueue.

#ifndef TEGRA_NET_HTTP_SERVER_H_
#define TEGRA_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/http_parser.h"

namespace tegra {
namespace net {

/// \brief Completion callback a handler invokes (from any thread, exactly
/// once) when its response is ready.
using ResponseCallback = std::function<void(HttpResponse)>;

/// \brief The single dispatch point of the server. Must not block; routing
/// is the application's business.
using AsyncHandler =
    std::function<void(const HttpRequest& request, ResponseCallback done)>;

/// \brief Which readiness-multiplexing backend drives the event loop.
enum class PollerBackend {
  kEpoll,  ///< epoll(7), level-triggered (Linux; falls back to poll
           ///< elsewhere).
  kPoll,   ///< poll(2); portable fallback, also used to test both paths.
};

/// \brief Static configuration of one listener.
struct HttpServerOptions {
  /// Name of the listener: the prefix of its metric names
  /// ("net" -> net.requests_total), its trace span ("net.request") and its
  /// event-loop thread ("net-loop"), and the subject of its log messages.
  /// Listeners sharing one MetricsRegistry need distinct names.
  std::string name = "net";
  /// Port to bind; 0 requests an ephemeral port (read it back via port()).
  int port = 0;
  /// Bind address; default loopback-only.
  std::string bind_address = "127.0.0.1";
  /// Hard cap on concurrently open connections; beyond it new connections
  /// are answered 503 + Retry-After and closed.
  size_t max_connections = 1024;
  /// Read/write deadline: a connection that makes no progress receiving a
  /// request or draining a response for this long is timed out (408 for a
  /// half-received request, silent close when idle between requests).
  int io_timeout_ms = 10000;
  /// Deadline for a request parked in a handler; generous because the
  /// extraction itself enforces per-request deadlines.
  int handler_timeout_ms = 60000;
  /// Serve multiple requests per connection (HTTP/1.1 keep-alive).
  bool keep_alive = true;
  /// Requests served per connection before forcing Connection: close
  /// (0 = unlimited).
  int max_requests_per_connection = 0;
  /// listen(2) backlog.
  int listen_backlog = 128;
  /// How long Stop() waits for in-flight requests before force-closing.
  int drain_timeout_ms = 5000;
  /// Value of the Retry-After header on 503 shed responses, seconds.
  int retry_after_seconds = 1;
  /// When set, consulted per shed for a live Retry-After hint (the data
  /// plane wires the service's queue-drain estimate here) instead of the
  /// constant above. Must be cheap and thread-safe: it runs on the event
  /// loop thread.
  std::function<int()> retry_after_fn;
  /// Per-request framing limits (head/headers/body).
  HttpParserLimits limits;
  /// Event backend; kEpoll degrades to poll off Linux.
  PollerBackend backend = PollerBackend::kEpoll;
  /// Invoked once per event-loop iteration (the poller wakes at least every
  /// timer tick, so this fires at a bounded cadence even when idle). The
  /// daemon installs a health::Heartbeat::Beat here so a wedged loop is
  /// distinguishable from an idle one; a function hook because tegra_net
  /// sits below tegra_health.
  std::function<void()> loop_heartbeat;
};

/// \brief Point-in-time counters for /statusz-style reporting (gauges are
/// also pushed into the registry continuously).
struct HttpServerStats {
  uint64_t connections_total = 0;
  size_t connections_active = 0;
  uint64_t requests_total = 0;
  uint64_t shed_connections_total = 0;
  uint64_t read_timeouts_total = 0;
  uint64_t write_timeouts_total = 0;
  uint64_t handler_timeouts_total = 0;
  uint64_t bad_requests_total = 0;
  bool saturated = false;
};

/// \brief The event-loop HTTP server. Lifecycle: construct, set_handler,
/// Start(), ..., Stop() (idempotent; the destructor calls it).
class HttpServer {
 public:
  explicit HttpServer(HttpServerOptions options = {},
                      MetricsRegistry* registry = nullptr);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Installs the dispatch handler. Must be called before Start().
  void set_handler(AsyncHandler handler) { handler_ = std::move(handler); }

  /// Binds, listens, spins up the event-loop thread.
  Status Start();

  /// Graceful drain then shutdown. Idempotent.
  void Stop();

  /// The bound port (the ephemeral one when options.port == 0). Valid after
  /// a successful Start(); -1 before.
  int port() const { return port_.load(std::memory_order_acquire); }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Currently open connections (excluding shed ones).
  size_t active_connections() const {
    return active_connections_.load(std::memory_order_acquire);
  }

  /// True while the connection table is at max_connections — new clients
  /// are being shed. /readyz reports 503 off this.
  bool saturated() const {
    return active_connections() >= options_.max_connections;
  }

  HttpServerStats Stats() const;

  const HttpServerOptions& options() const { return options_; }

 private:
  class Poller;
  class EpollPoller;
  class PollPoller;

  using Clock = std::chrono::steady_clock;

  /// Per-connection state machine.
  struct Connection {
    enum class Phase {
      kReading,   ///< Waiting for (more of) a request.
      kHandling,  ///< One request dispatched; awaiting the completion.
      kWriting,   ///< Flushing a response.
    };
    int fd = -1;
    uint64_t id = 0;
    Phase phase = Phase::kReading;
    HttpParser parser;
    std::string write_buf;
    size_t write_off = 0;
    Clock::time_point deadline;
    int requests_served = 0;
    bool close_after_write = false;
    bool want_write = false;  ///< Mirror of the poller registration.
    bool want_read = true;    ///< Mirror of the poller registration.
    /// Set when the fd was removed from the poller ahead of teardown (peer
    /// hung up mid-handling; HUP is level-triggered and unmaskable).
    bool unregistered = false;
    Clock::time_point request_start;  ///< First byte of the current request.
    uint64_t request_start_us = 0;    ///< Same instant, tracer timebase.
    bool request_started = false;
  };

  struct Completion {
    uint64_t conn_id = 0;
    HttpResponse response;
  };

  /// Cross-thread handoff from handler completions to the loop. Held by
  /// shared_ptr: ResponseCallbacks keep only a weak reference, so a callback
  /// invoked after the server died degrades to a no-op instead of a
  /// use-after-free.
  struct CompletionQueue {
    std::mutex mu;
    std::vector<Completion> items;  // Guarded by mu.
    int wake_fd = -1;               // Guarded by mu; -1 once Stop() ran.
  };

  void EventLoop();
  void AcceptReady();
  void ConnReadable(Connection* conn);
  void ConnWritable(Connection* conn);
  /// Parser produced a complete request (or an error): dispatch / answer.
  void OnRequestParsed(Connection* conn);
  void DispatchRequest(Connection* conn);
  /// Serializes `response` onto the connection and flips it to kWriting.
  void StartResponse(Connection* conn, const HttpResponse& response,
                     bool keep_alive);
  /// Response fully flushed: recycle for keep-alive or close.
  void ResponseFlushed(Connection* conn);
  void CloseConnection(Connection* conn);
  void ProcessCompletions();
  void ExpireDeadlines();
  void ArmDeadline(Connection* conn, int timeout_ms);
  bool FlushWrites(Connection* conn);
  void UpdateWantWrite(Connection* conn, bool want_write);
  void Wake();

  HttpServerOptions options_;
  AsyncHandler handler_;

  // Instrumentation (all may be null when no registry was given).
  Counter* connections_total_ = nullptr;
  Counter* requests_total_ = nullptr;
  Counter* responses_2xx_ = nullptr;
  Counter* responses_4xx_ = nullptr;
  Counter* responses_5xx_ = nullptr;
  Counter* bad_requests_total_ = nullptr;
  Counter* shed_total_ = nullptr;
  Counter* read_timeouts_ = nullptr;
  Counter* write_timeouts_ = nullptr;
  Counter* handler_timeouts_ = nullptr;
  Histogram* request_latency_ = nullptr;
  Gauge* active_gauge_ = nullptr;
  Gauge* saturated_gauge_ = nullptr;
  Gauge* port_gauge_ = nullptr;
  // Span name and category derived from options_.name, interned for the
  // process lifetime because TraceEvent keeps raw pointers.
  const char* span_name_ = nullptr;
  const char* span_category_ = nullptr;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> port_{-1};
  std::atomic<size_t> active_connections_{0};

  // Loop-thread-only state.
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  std::unique_ptr<Poller> poller_;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;      // by fd
  std::unordered_map<uint64_t, Connection*> conns_by_id_;
  uint64_t next_conn_id_ = 1;

  // Timer wheel: kWheelBuckets buckets of kTickMs each; entries are lazy
  // (stale ids are skipped against the connection's live deadline).
  static constexpr int kTickMs = 100;
  static constexpr size_t kWheelBuckets = 128;
  std::vector<std::vector<uint64_t>> wheel_;
  size_t wheel_pos_ = 0;
  Clock::time_point wheel_last_advance_;

  // Cross-thread: handler completions + self-pipe wakeup.
  std::shared_ptr<CompletionQueue> completions_;

  // Cross-thread counters backing Stats().
  std::atomic<uint64_t> stat_connections_total_{0};
  std::atomic<uint64_t> stat_requests_total_{0};
  std::atomic<uint64_t> stat_shed_total_{0};
  std::atomic<uint64_t> stat_read_timeouts_{0};
  std::atomic<uint64_t> stat_write_timeouts_{0};
  std::atomic<uint64_t> stat_handler_timeouts_{0};
  std::atomic<uint64_t> stat_bad_requests_{0};

  std::mutex lifecycle_mu_;  ///< Serializes Start/Stop.
  std::thread loop_;
};

}  // namespace net
}  // namespace tegra

#endif  // TEGRA_NET_HTTP_SERVER_H_
