// tegra::net::HttpServer — the event-loop data-plane transport, exercised
// over real sockets through tegra::net::HttpClient, and under BOTH poller
// backends (epoll and poll) so the portable path cannot rot: keep-alive
// reuse, asynchronous completions from foreign threads, read deadlines
// (408), idle-connection reaping, shed-at-accept (503 + Retry-After),
// malformed-request rejection and graceful drain with an in-flight request.

#include "net/http_server.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "gtest/gtest.h"
#include "net/http_client.h"

namespace tegra {
namespace net {
namespace {

/// Echo handler: answers 200 with method, path and body, completing inline
/// on the event loop (the simplest legal handler).
AsyncHandler EchoHandler() {
  return [](const HttpRequest& request, ResponseCallback done) {
    done(HttpResponse::Text(
        200, request.method + " " + request.path + " " + request.body));
  };
}

class HttpServerTest : public ::testing::TestWithParam<PollerBackend> {
 protected:
  HttpServerOptions BaseOptions() {
    HttpServerOptions options;
    options.port = 0;  // Ephemeral.
    options.backend = GetParam();
    return options;
  }
};

TEST_P(HttpServerTest, StartServesStop) {
  HttpServer server(BaseOptions());
  server.set_handler(EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  HttpClient client("127.0.0.1", server.port());
  auto response = client.Post("/v1/extract", "hello");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "POST /v1/extract hello");

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.
}

TEST_P(HttpServerTest, KeepAliveReusesOneConnection) {
  HttpServer server(BaseOptions());
  server.set_handler(EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    auto response = client.Get("/ping/" + std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200);
  }
  // All ten requests rode a single dial.
  EXPECT_EQ(client.connects(), 1u);

  const HttpServerStats stats = server.Stats();
  EXPECT_EQ(stats.connections_total, 1u);
  EXPECT_EQ(stats.requests_total, 10u);
  server.Stop();
}

TEST_P(HttpServerTest, CompletionFromForeignThread) {
  // The data plane completes requests from worker threads; the callback
  // must marshal the response back to the loop safely.
  HttpServer server(BaseOptions());
  server.set_handler([](const HttpRequest& request, ResponseCallback done) {
    std::thread([body = request.body, done = std::move(done)]() mutable {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      done(HttpResponse::Text(200, "deferred:" + body));
    }).detach();
  });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  auto response = client.Post("/x", "abc");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().body, "deferred:abc");
  server.Stop();
}

TEST_P(HttpServerTest, StalledMidRequestGets408) {
  HttpServerOptions options = BaseOptions();
  options.io_timeout_ms = 150;
  HttpServer server(options);
  server.set_handler(EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  // Declare a 100-byte body, send 7, stall. The read deadline must answer
  // 408 instead of waiting forever for the rest.
  HttpClient client("127.0.0.1", server.port(), /*timeout_ms=*/5000);
  auto response = client.RoundTrip(
      "POST /v1/extract HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 408);
  EXPECT_GE(server.Stats().read_timeouts_total, 1u);
  server.Stop();
}

TEST_P(HttpServerTest, IdleKeepAliveConnectionIsReaped) {
  HttpServerOptions options = BaseOptions();
  options.io_timeout_ms = 100;
  HttpServer server(options);
  server.set_handler(EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Get("/a").ok());
  EXPECT_EQ(server.active_connections(), 1u);

  // Idle past the deadline: the server closes silently (no 408 — there is
  // no half-received request to answer).
  for (int i = 0; i < 50 && server.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.active_connections(), 0u);

  // The client's next request transparently redials.
  auto response = client.Get("/b");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(client.connects(), 2u);
  server.Stop();
}

TEST_P(HttpServerTest, ShedBeyondMaxConnections) {
  HttpServerOptions options = BaseOptions();
  options.max_connections = 1;
  HttpServer server(options);
  server.set_handler(EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  HttpClient first("127.0.0.1", server.port());
  ASSERT_TRUE(first.Get("/hold").ok());  // Keep-alive holds the one slot.
  EXPECT_TRUE(server.saturated());

  // The second client is shed with an explicit 503, not a reset.
  HttpClient second("127.0.0.1", server.port());
  auto shed = second.Get("/shed");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().status, 503);
  EXPECT_EQ(shed.value().Header("retry-after"), "1");
  EXPECT_GE(server.Stats().shed_connections_total, 1u);

  // Freeing the slot restores service.
  first.Close();
  for (int i = 0; i < 50 && server.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  auto ok = second.Get("/after");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().status, 200);
  server.Stop();
}

TEST_P(HttpServerTest, MalformedRequestRejectedAndClosed) {
  HttpServer server(BaseOptions());
  server.set_handler(EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  auto response = client.RoundTrip("NONSENSE\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 400);
  EXPECT_GE(server.Stats().bad_requests_total, 1u);
  server.Stop();
}

TEST_P(HttpServerTest, PipelinedRequestsAnsweredInOrder) {
  HttpServer server(BaseOptions());
  server.set_handler(EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  // Two requests in one write; responses must come back in order on the
  // same connection.
  HttpClient client("127.0.0.1", server.port());
  auto first = client.RoundTrip(
      "GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().body, "GET /one ");
  auto second = client.RoundTrip("");  // Just read the second response.
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().body, "GET /two ");
  server.Stop();
}

TEST_P(HttpServerTest, GracefulDrainFinishesInFlightRequest) {
  HttpServer server(BaseOptions());
  std::atomic<bool> handler_entered{false};
  server.set_handler([&](const HttpRequest&, ResponseCallback done) {
    handler_entered.store(true);
    std::thread([done = std::move(done)]() mutable {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      done(HttpResponse::Text(200, "finished"));
    }).detach();
  });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  std::thread requester([&] {
    auto response = client.Post("/slow", "x");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200);
    EXPECT_EQ(response.value().body, "finished");
    // Draining turns keep-alive off so the client does not re-use a dying
    // connection.
    EXPECT_EQ(response.value().Header("connection"), "close");
  });
  while (!handler_entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();  // Must wait for the in-flight response, then tear down.
  requester.join();
}

TEST_P(HttpServerTest, MaxRequestsPerConnectionForcesClose) {
  HttpServerOptions options = BaseOptions();
  options.max_requests_per_connection = 2;
  HttpServer server(options);
  server.set_handler(EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Get("/1").ok());
  auto second = client.Get("/2");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().Header("connection"), "close");
  auto third = client.Get("/3");  // Redials transparently.
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(client.connects(), 2u);
  server.Stop();
}

TEST_P(HttpServerTest, MetricsRegistered) {
  MetricsRegistry registry;
  HttpServer server(BaseOptions(), &registry);
  server.set_handler(EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.Get("/x").ok());
  server.Stop();

  const auto snapshot = registry.Snapshot();
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("net.requests_total"), std::string::npos);
  EXPECT_NE(json.find("net.connections_total"), std::string::npos);
  EXPECT_NE(json.find("net.responses_2xx_total"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Backends, HttpServerTest,
                         ::testing::Values(PollerBackend::kEpoll,
                                           PollerBackend::kPoll),
                         [](const auto& info) {
                           return info.param == PollerBackend::kEpoll
                                      ? "epoll"
                                      : "poll";
                         });

}  // namespace
}  // namespace net
}  // namespace tegra
