#include "net/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#define TEGRA_NET_HAVE_EPOLL 1
#else
#define TEGRA_NET_HAVE_EPOLL 0
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <set>
#include <utility>

#include "prof/profiler.h"
#include "trace/log.h"
#include "trace/trace.h"

namespace tegra {
namespace net {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One best-effort non-blocking send for tiny fixed responses (the 503 shed
/// path): a fresh socket's send buffer always has room for ~100 bytes, and
/// if it somehow doesn't, shedding must not block the event loop.
void BestEffortSend(int fd, const std::string& data) {
  (void)!::send(fd, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

/// Returns a copy of `s` that lives until process exit. Trace events keep
/// span names as raw pointers, possibly beyond the server that recorded
/// them, so names built at run time go into a set that is never freed
/// (node-based, so earlier pointers survive later inserts).
const char* InternName(std::string s) {
  static std::mutex mu;
  static auto* names = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return names->insert(std::move(s)).first->c_str();
}

}  // namespace

// ---- Poller backends -------------------------------------------------------

/// Readiness multiplexer: register fds with read/write interest, wait for
/// events. Level-triggered semantics in both backends.
class HttpServer::Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  ///< HUP / ERR — delivered regardless of interest.
  };
  virtual ~Poller() = default;
  virtual bool Add(int fd, bool want_read, bool want_write) = 0;
  virtual bool Modify(int fd, bool want_read, bool want_write) = 0;
  virtual void Remove(int fd) = 0;
  /// Fills `out`; returns the number of events, 0 on timeout, -1 on error.
  virtual int Wait(std::vector<Event>* out, int timeout_ms) = 0;
};

#if TEGRA_NET_HAVE_EPOLL
class HttpServer::EpollPoller : public HttpServer::Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(0)) {}
  ~EpollPoller() override {
    if (epfd_ >= 0) ::close(epfd_);
  }
  bool ok() const { return epfd_ >= 0; }

  bool Add(int fd, bool want_read, bool want_write) override {
    struct epoll_event ev = MakeEvent(fd, want_read, want_write);
    return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }
  bool Modify(int fd, bool want_read, bool want_write) override {
    struct epoll_event ev = MakeEvent(fd, want_read, want_write);
    return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
  }
  void Remove(int fd) override {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  int Wait(std::vector<Event>* out, int timeout_ms) override {
    struct epoll_event events[256];
    const int n = ::epoll_wait(epfd_, events, 256, timeout_ms);
    out->clear();
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = events[i].data.fd;
      e.readable = (events[i].events & EPOLLIN) != 0;
      e.writable = (events[i].events & EPOLLOUT) != 0;
      e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out->push_back(e);
    }
    return n;
  }

 private:
  static struct epoll_event MakeEvent(int fd, bool want_read,
                                      bool want_write) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.data.fd = fd;
    if (want_read) ev.events |= EPOLLIN;
    if (want_write) ev.events |= EPOLLOUT;
    return ev;
  }
  int epfd_;
};
#endif  // TEGRA_NET_HAVE_EPOLL

class HttpServer::PollPoller : public HttpServer::Poller {
 public:
  bool Add(int fd, bool want_read, bool want_write) override {
    interest_[fd] = Mask(want_read, want_write);
    return true;
  }
  bool Modify(int fd, bool want_read, bool want_write) override {
    const auto it = interest_.find(fd);
    if (it == interest_.end()) return false;
    it->second = Mask(want_read, want_write);
    return true;
  }
  void Remove(int fd) override { interest_.erase(fd); }
  int Wait(std::vector<Event>* out, int timeout_ms) override {
    pollfds_.clear();
    pollfds_.reserve(interest_.size());
    for (const auto& [fd, events] : interest_) {
      pollfds_.push_back({fd, events, 0});
    }
    const int n = ::poll(pollfds_.data(),
                         static_cast<nfds_t>(pollfds_.size()), timeout_ms);
    out->clear();
    if (n <= 0) return n;
    for (const struct pollfd& p : pollfds_) {
      if (p.revents == 0) continue;
      Event e;
      e.fd = p.fd;
      e.readable = (p.revents & POLLIN) != 0;
      e.writable = (p.revents & POLLOUT) != 0;
      e.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out->push_back(e);
    }
    return static_cast<int>(out->size());
  }

 private:
  static short Mask(bool want_read, bool want_write) {
    short mask = 0;
    if (want_read) mask |= POLLIN;
    if (want_write) mask |= POLLOUT;
    return mask;
  }
  std::unordered_map<int, short> interest_;
  std::vector<struct pollfd> pollfds_;
};

// ---- Server ----------------------------------------------------------------

HttpServer::HttpServer(HttpServerOptions options, MetricsRegistry* registry)
    : options_(std::move(options)),
      completions_(std::make_shared<CompletionQueue>()) {
  wheel_.resize(kWheelBuckets);
  const std::string& name = options_.name;
  span_name_ = InternName(name + ".request");
  span_category_ = InternName(name);
  if (registry != nullptr) {
    connections_total_ = registry->GetCounter(name + ".connections_total");
    requests_total_ = registry->GetCounter(name + ".requests_total");
    responses_2xx_ = registry->GetCounter(name + ".responses_2xx_total");
    responses_4xx_ = registry->GetCounter(name + ".responses_4xx_total");
    responses_5xx_ = registry->GetCounter(name + ".responses_5xx_total");
    bad_requests_total_ = registry->GetCounter(name + ".bad_request_total");
    shed_total_ = registry->GetCounter(name + ".shed_connections_total");
    read_timeouts_ = registry->GetCounter(name + ".read_timeout_total");
    write_timeouts_ = registry->GetCounter(name + ".write_timeout_total");
    handler_timeouts_ = registry->GetCounter(name + ".handler_timeout_total");
    request_latency_ = registry->GetHistogram(name + ".request_seconds");
    active_gauge_ = registry->GetGauge(name + ".connections_active");
    saturated_gauge_ = registry->GetGauge(name + ".saturated");
    port_gauge_ = registry->GetGauge(name + ".port");
  }
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(options_.name + " server already running");
  }
  if (!handler_) {
    return Status::InvalidArgument("no handler installed; call set_handler()");
  }

#if TEGRA_NET_HAVE_EPOLL
  if (options_.backend == PollerBackend::kEpoll) {
    auto epoll = std::make_unique<EpollPoller>();
    if (!epoll->ok()) {
      return Status::IOError(std::string("epoll_create1(): ") +
                             std::strerror(errno));
    }
    poller_ = std::move(epoll);
  }
#endif
  if (poller_ == nullptr) poller_ = std::make_unique<PollPoller>();

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    poller_.reset();
    return Status::IOError(std::string("pipe(): ") + std::strerror(errno));
  }
  SetNonBlocking(pipe_fds[0]);
  SetNonBlocking(pipe_fds[1]);
  wake_read_fd_ = pipe_fds[0];
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    completions_->wake_fd = pipe_fds[1];
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("bind(" + options_.bind_address + ":" +
                           std::to_string(options_.port) + "): " + err);
  }
  if (::listen(fd, options_.listen_backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("listen(): " + err);
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("getsockname(): " + err);
  }
  SetNonBlocking(fd);

  listen_fd_ = fd;
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  if (port_gauge_ != nullptr) port_gauge_->Set(port());
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  poller_->Add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
  poller_->Add(wake_read_fd_, /*want_read=*/true, /*want_write=*/false);
  wheel_last_advance_ = Clock::now();
  loop_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) {
    draining_.store(true, std::memory_order_release);
    Wake();
    if (loop_.joinable()) loop_.join();
    running_.store(false, std::memory_order_release);
  }
  // Reap fds from a completed (or failed) Start. The loop already closed
  // every connection; the listener is closed when drain began.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_read_fd_ >= 0) {
    ::close(wake_read_fd_);
    wake_read_fd_ = -1;
  }
  {
    // Detach the wake pipe under the queue lock so a handler thread that
    // still holds a ResponseCallback can never write into a recycled fd.
    std::lock_guard<std::mutex> lock(completions_->mu);
    if (completions_->wake_fd >= 0) {
      ::close(completions_->wake_fd);
      completions_->wake_fd = -1;
    }
  }
  poller_.reset();
}

void HttpServer::Wake() {
  std::lock_guard<std::mutex> lock(completions_->mu);
  if (completions_->wake_fd >= 0) {
    const char byte = 1;
    (void)!::write(completions_->wake_fd, &byte, 1);
  }
}

HttpServerStats HttpServer::Stats() const {
  HttpServerStats stats;
  stats.connections_total =
      stat_connections_total_.load(std::memory_order_relaxed);
  stats.connections_active = active_connections();
  stats.requests_total = stat_requests_total_.load(std::memory_order_relaxed);
  stats.shed_connections_total =
      stat_shed_total_.load(std::memory_order_relaxed);
  stats.read_timeouts_total =
      stat_read_timeouts_.load(std::memory_order_relaxed);
  stats.write_timeouts_total =
      stat_write_timeouts_.load(std::memory_order_relaxed);
  stats.handler_timeouts_total =
      stat_handler_timeouts_.load(std::memory_order_relaxed);
  stats.bad_requests_total =
      stat_bad_requests_.load(std::memory_order_relaxed);
  stats.saturated = saturated();
  return stats;
}

// ---- Event loop ------------------------------------------------------------

void HttpServer::EventLoop() {
  prof::EnsureThreadRegistered(options_.name + "-loop");
  std::vector<Poller::Event> events;
  bool drain_started = false;
  Clock::time_point drain_deadline;

  while (true) {
    if (draining_.load(std::memory_order_acquire) && !drain_started) {
      drain_started = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
      // Stop accepting; finish what is in flight.
      if (listen_fd_ >= 0) {
        poller_->Remove(listen_fd_);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Connections idle between requests are done from the protocol's point
      // of view; close them now. Half-received and in-flight requests keep
      // their deadlines.
      std::vector<Connection*> idle;
      for (auto& [fd, conn] : conns_) {
        if (conn->phase == Connection::Phase::kReading &&
            !conn->request_started && conn->parser.buffered_bytes() == 0) {
          idle.push_back(conn.get());
        }
      }
      for (Connection* conn : idle) CloseConnection(conn);
    }
    if (drain_started && (conns_.empty() || Clock::now() >= drain_deadline)) {
      break;
    }

    const int n = poller_->Wait(&events, kTickMs);
    // Wait is bounded by kTickMs, so the beat proves the loop is turning
    // even on an idle server; silence beyond a few ticks means wedged.
    if (options_.loop_heartbeat) options_.loop_heartbeat();
    if (n < 0 && errno != EINTR) {
      trace::LogError(options_.name + " poller failed",
                      {{"errno", std::strerror(errno)}});
      break;
    }
    for (const Poller::Event& event : events) {
      if (event.fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      if (event.fd == wake_read_fd_) {
        char buf[256];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(event.fd);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      if (event.error) {
        // HUP/ERR is delivered regardless of interest and level-triggered
        // semantics would redeliver it forever. With a request in flight,
        // unregister and let the completion discover the dead peer;
        // otherwise tear down now.
        if (conn->phase == Connection::Phase::kHandling) {
          if (!conn->unregistered) {
            poller_->Remove(conn->fd);
            conn->unregistered = true;
          }
          conn->close_after_write = true;
        } else {
          CloseConnection(conn);
        }
        continue;
      }
      if (event.writable) ConnWritable(conn);
      // The writable branch may have closed the connection; re-look it up.
      if (event.readable && conns_.count(event.fd) != 0) {
        ConnReadable(conns_[event.fd].get());
      }
    }
    ProcessCompletions();
    ExpireDeadlines();
    if (active_gauge_ != nullptr) {
      active_gauge_->Set(static_cast<double>(active_connections()));
    }
    if (saturated_gauge_ != nullptr) {
      saturated_gauge_->Set(saturated() ? 1.0 : 0.0);
    }
  }

  // Drain finished (or timed out): force-close whatever is left.
  std::vector<Connection*> leftover;
  leftover.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) leftover.push_back(conn.get());
  for (Connection* conn : leftover) CloseConnection(conn);
}

void HttpServer::AcceptReady() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != ECONNABORTED) {
        trace::LogWarn(options_.name + " accept failed",
                       {{"errno", std::strerror(errno)}});
      }
      return;
    }
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (conns_.size() >= options_.max_connections) {
      // Explicit backpressure at the socket: the client gets a parseable
      // 503 with Retry-After, not a SYN timeout or an RST.
      stat_shed_total_.fetch_add(1, std::memory_order_relaxed);
      if (shed_total_ != nullptr) shed_total_->Increment();
      HttpResponse shed = HttpResponse::Text(503, "connection limit reached\n");
      const int retry_after = options_.retry_after_fn
                                  ? options_.retry_after_fn()
                                  : options_.retry_after_seconds;
      shed.extra_headers.emplace_back("Retry-After",
                                      std::to_string(retry_after));
      BestEffortSend(fd, SerializeResponse(shed, /*keep_alive=*/false));
      ::close(fd);
      continue;
    }

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->phase = Connection::Phase::kReading;
    conn->parser = HttpParser(options_.limits);
    poller_->Add(fd, /*want_read=*/true, /*want_write=*/false);
    ArmDeadline(conn.get(), options_.io_timeout_ms);
    conns_by_id_[conn->id] = conn.get();
    conns_[fd] = std::move(conn);
    active_connections_.store(conns_.size(), std::memory_order_release);
    stat_connections_total_.fetch_add(1, std::memory_order_relaxed);
    if (connections_total_ != nullptr) connections_total_->Increment();
  }
}

void HttpServer::ConnReadable(Connection* conn) {
  if (conn->phase != Connection::Phase::kReading) return;
  char chunk[16384];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      if (!conn->request_started) {
        // The request clock (and its trace span) starts at first socket
        // readability, covering parse + queue + handler + write.
        conn->request_started = true;
        conn->request_start = Clock::now();
        conn->request_start_us = trace::Tracer::Global().NowMicros();
        ArmDeadline(conn, options_.io_timeout_ms);
      }
      conn->parser.Feed(std::string_view(chunk, static_cast<size_t>(n)));
      if (conn->parser.done() || conn->parser.failed()) {
        OnRequestParsed(conn);
        return;  // Phase changed; stop reading until the response is out.
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error between requests: nothing in flight, tear down.
    CloseConnection(conn);
    return;
  }
}

void HttpServer::OnRequestParsed(Connection* conn) {
  if (conn->parser.failed()) {
    stat_bad_requests_.fetch_add(1, std::memory_order_relaxed);
    if (bad_requests_total_ != nullptr) bad_requests_total_->Increment();
    conn->close_after_write = true;
    StartResponse(conn,
                  HttpResponse::Text(conn->parser.error_status(),
                                     conn->parser.error_message() + "\n"),
                  /*keep_alive=*/false);
    return;
  }
  DispatchRequest(conn);
}

void HttpServer::DispatchRequest(Connection* conn) {
  stat_requests_total_.fetch_add(1, std::memory_order_relaxed);
  if (requests_total_ != nullptr) requests_total_->Increment();
  // Stamp the per-process request id (loop thread only, so a plain counter
  // would do; atomic keeps multiple HttpServer instances in one process
  // from sharing ids).
  static std::atomic<uint64_t> next_request_id{1};
  conn->parser.mutable_request().request_id =
      next_request_id.fetch_add(1, std::memory_order_relaxed);
  conn->phase = Connection::Phase::kHandling;
  // No read interest while a request is in flight: pipelined bytes stay in
  // the kernel buffer (TCP backpressure) instead of growing ours, and the
  // loop cannot busy-spin on a half-closed peer.
  UpdateWantWrite(conn, /*want_write=*/false);
  ArmDeadline(conn, options_.handler_timeout_ms);

  const std::weak_ptr<CompletionQueue> queue = completions_;
  const uint64_t conn_id = conn->id;
  ResponseCallback done = [queue, conn_id](HttpResponse response) {
    // May run on any thread, after the server is gone: the queue outlives
    // the server only as this weak reference, and a dead queue means the
    // response has nowhere to go.
    const std::shared_ptr<CompletionQueue> q = queue.lock();
    if (q == nullptr) return;
    std::lock_guard<std::mutex> lock(q->mu);
    if (q->wake_fd < 0) return;
    q->items.push_back(Completion{conn_id, std::move(response)});
    const char byte = 1;
    (void)!::write(q->wake_fd, &byte, 1);
  };
  handler_(conn->parser.request(), std::move(done));
}

void HttpServer::ProcessCompletions() {
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    ready.swap(completions_->items);
  }
  for (Completion& completion : ready) {
    const auto it = conns_by_id_.find(completion.conn_id);
    if (it == conns_by_id_.end()) continue;  // Connection died in flight.
    Connection* conn = it->second;
    if (conn->phase != Connection::Phase::kHandling) continue;
    if (conn->unregistered) {
      // The peer hung up while the request was being handled; the response
      // has no reader.
      CloseConnection(conn);
      continue;
    }
    const bool keep_alive =
        options_.keep_alive && !conn->close_after_write &&
        !draining_.load(std::memory_order_acquire) &&
        conn->parser.request().WantsKeepAlive() &&
        (options_.max_requests_per_connection <= 0 ||
         conn->requests_served + 1 < options_.max_requests_per_connection);
    StartResponse(conn, completion.response, keep_alive);
  }
}

void HttpServer::StartResponse(Connection* conn, const HttpResponse& response,
                               bool keep_alive) {
  if (!keep_alive) conn->close_after_write = true;
  if (response.status >= 500) {
    if (responses_5xx_ != nullptr) responses_5xx_->Increment();
  } else if (response.status >= 400) {
    if (responses_4xx_ != nullptr) responses_4xx_->Increment();
  } else {
    if (responses_2xx_ != nullptr) responses_2xx_->Increment();
  }
  if (conn->request_started) {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - conn->request_start)
            .count();
    if (request_latency_ != nullptr) request_latency_->Observe(seconds);
    trace::Tracer& tracer = trace::Tracer::Global();
    tracer.RecordManual(span_name_, span_category_, conn->request_start_us,
                        static_cast<uint64_t>(seconds * 1e6));
    conn->request_started = false;
  }
  conn->write_buf = SerializeResponse(response, keep_alive);
  conn->write_off = 0;
  conn->phase = Connection::Phase::kWriting;
  ArmDeadline(conn, options_.io_timeout_ms);
  // Optimistic flush: the common response fits the socket buffer whole and
  // never needs a poller round-trip.
  if (FlushWrites(conn)) return;
  if (conn->write_off >= conn->write_buf.size()) {
    ResponseFlushed(conn);
  } else {
    UpdateWantWrite(conn, /*want_write=*/true);
  }
}

void HttpServer::ConnWritable(Connection* conn) {
  if (conn->phase != Connection::Phase::kWriting) return;
  if (FlushWrites(conn)) return;  // Connection was closed on error.
  if (conn->write_off >= conn->write_buf.size()) ResponseFlushed(conn);
}

/// Returns true when the connection was torn down (caller must not touch it).
bool HttpServer::FlushWrites(Connection* conn) {
  while (conn->write_off < conn->write_buf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->write_buf.data() + conn->write_off,
               conn->write_buf.size() - conn->write_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn);
    return true;
  }
  return false;
}

void HttpServer::ResponseFlushed(Connection* conn) {
  conn->requests_served++;
  conn->write_buf.clear();
  conn->write_off = 0;
  if (conn->close_after_write) {
    CloseConnection(conn);
    return;
  }
  // Recycle for keep-alive. A pipelined request may already be buffered and
  // complete, in which case it is dispatched immediately.
  conn->phase = Connection::Phase::kReading;
  UpdateWantWrite(conn, /*want_write=*/false);
  ArmDeadline(conn, options_.io_timeout_ms);
  conn->parser.Next();
  if (conn->parser.buffered_bytes() > 0 || conn->parser.done() ||
      conn->parser.failed()) {
    conn->request_started = true;
    conn->request_start = Clock::now();
    conn->request_start_us = trace::Tracer::Global().NowMicros();
  }
  if (conn->parser.done() || conn->parser.failed()) OnRequestParsed(conn);
}

void HttpServer::CloseConnection(Connection* conn) {
  if (!conn->unregistered) poller_->Remove(conn->fd);
  ::close(conn->fd);
  conns_by_id_.erase(conn->id);
  conns_.erase(conn->fd);  // Frees `conn`.
  active_connections_.store(conns_.size(), std::memory_order_release);
}

// ---- Deadlines -------------------------------------------------------------

void HttpServer::ArmDeadline(Connection* conn, int timeout_ms) {
  conn->deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  // Lazy hashed wheel: park the id in the bucket nearest the deadline; a
  // stale entry (deadline re-armed since) is reinserted when its bucket
  // fires, so re-arming is O(1) with no removal.
  const size_t ticks_ahead =
      std::max<size_t>(1, static_cast<size_t>(timeout_ms) / kTickMs);
  const size_t bucket =
      (wheel_pos_ + std::min(ticks_ahead, kWheelBuckets - 1)) % kWheelBuckets;
  wheel_[bucket].push_back(conn->id);
}

void HttpServer::ExpireDeadlines() {
  const Clock::time_point now = Clock::now();
  while (wheel_last_advance_ + std::chrono::milliseconds(kTickMs) <= now) {
    wheel_last_advance_ += std::chrono::milliseconds(kTickMs);
    wheel_pos_ = (wheel_pos_ + 1) % kWheelBuckets;
    std::vector<uint64_t> due;
    due.swap(wheel_[wheel_pos_]);
    for (const uint64_t id : due) {
      const auto it = conns_by_id_.find(id);
      if (it == conns_by_id_.end()) continue;  // Closed since parking.
      Connection* conn = it->second;
      if (conn->deadline > now) {
        // Re-armed since this entry was parked; park again.
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                conn->deadline - now)
                .count();
        ArmDeadline(conn, static_cast<int>(std::max<long long>(
                              1, static_cast<long long>(remaining))));
        conn->deadline = now + std::chrono::milliseconds(
                                   static_cast<long long>(remaining));
        continue;
      }
      switch (conn->phase) {
        case Connection::Phase::kReading:
          if (conn->request_started || conn->parser.buffered_bytes() > 0) {
            // Half a request arrived and then the line went quiet.
            stat_read_timeouts_.fetch_add(1, std::memory_order_relaxed);
            if (read_timeouts_ != nullptr) read_timeouts_->Increment();
            conn->close_after_write = true;
            StartResponse(conn,
                          HttpResponse::Text(408, "request read timeout\n"),
                          /*keep_alive=*/false);
          } else {
            // Idle keep-alive connection; close silently.
            CloseConnection(conn);
          }
          break;
        case Connection::Phase::kWriting:
          stat_write_timeouts_.fetch_add(1, std::memory_order_relaxed);
          if (write_timeouts_ != nullptr) write_timeouts_->Increment();
          CloseConnection(conn);
          break;
        case Connection::Phase::kHandling:
          // Defensive: the ExtractionService always completes its futures,
          // so this fires only if a handler loses its callback.
          stat_handler_timeouts_.fetch_add(1, std::memory_order_relaxed);
          if (handler_timeouts_ != nullptr) handler_timeouts_->Increment();
          CloseConnection(conn);
          break;
      }
    }
  }
}

void HttpServer::UpdateWantWrite(Connection* conn, bool want_write) {
  const bool want_read = conn->phase == Connection::Phase::kReading;
  if (conn->want_write == want_write &&
      conn->want_read == want_read) {
    return;
  }
  conn->want_write = want_write;
  conn->want_read = want_read;
  poller_->Modify(conn->fd, want_read, want_write);
}

}  // namespace net
}  // namespace tegra
