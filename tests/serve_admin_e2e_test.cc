// End-to-end test of the tegra_serve admin plane: starts the real daemon
// binary with `--admin-port 0`, discovers the ephemeral port from the
// {"event":"admin_ready","port":N} stdout line, fetches every zPage over real
// sockets, drives extractions through stdin and checks they appear in a real
// Prometheus scrape, and saturates the (deliberately tiny) queue to observe
// /readyz flip to 503. It also pins the stdin contract: a lone request is
// answered while stdin stays open, and the retired telemetry commands are
// counted bad requests (their data lives on the admin plane).
//
// The binary path is injected at compile time via TEGRA_SERVE_BINARY.

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "net/http_client.h"
#include "serve_process_util.h"
#include "service/serve_json.h"

namespace tegra {
namespace serve {
namespace {

TEST(ServeAdminE2eTest, FullAdminPlaneAgainstRealDaemon) {
  ServeProcess daemon;
  // Tiny corpus for startup speed; one worker and a 2-deep queue so the
  // saturation phase below can actually fill it.
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:300:7", "--admin-port", "0",
                            "--workers", "1", "--queue-depth", "2",
                            "--slowlog", "4"}));

  // 1. The first stdout line announces the admin plane and its bound port.
  const std::string ready_line = daemon.NextLine();
  ASSERT_FALSE(ready_line.empty()) << "daemon produced no output";
  const auto ready = ParseJson(ready_line);
  ASSERT_TRUE(ready.ok()) << ready_line;
  ASSERT_EQ((*ready)["event"].AsString(), "admin_ready") << ready_line;
  const int port = static_cast<int>((*ready)["port"].AsNumber(0));
  ASSERT_GT(port, 0) << ready_line;

  // 2. Drive one extraction through stdin so the telemetry has content.
  ASSERT_TRUE(daemon.WriteLine(ExtractionRequestLine(1, 8, 0)));
  const std::string response_line = daemon.NextLine();
  const auto response = ParseJson(response_line);
  ASSERT_TRUE(response.ok()) << response_line;
  EXPECT_TRUE((*response)["ok"].AsBool(false)) << response_line;

  // 3. Every endpoint answers 200 with plausible content.
  struct Endpoint {
    const char* path;
    const char* must_contain;
  };
  const std::vector<Endpoint> endpoints = {
      {"/", "tegra admin"},
      {"/healthz", "ok"},
      {"/readyz", "ok"},
      {"/metrics", "tegra_service_requests_total"},
      {"/statusz", "extraction quality"},
      {"/tracez", "traceEvents"},
      {"/slowlogz", "trace"},
      {"/varz", "\"build\""},
  };
  for (const Endpoint& endpoint : endpoints) {
    const auto result = net::HttpClient("127.0.0.1", port).Get(endpoint.path);
    ASSERT_TRUE(result.ok())
        << endpoint.path << ": " << result.status().ToString();
    EXPECT_EQ(result->status, 200) << endpoint.path << "\n" << result->body;
    EXPECT_NE(result->body.find(endpoint.must_contain), std::string::npos)
        << endpoint.path << " missing \"" << endpoint.must_contain << "\":\n"
        << result->body;
  }

  // 4. The quality histogram and build info appear in a real scrape, with
  //    the extraction from step 2 counted.
  const auto scrape = net::HttpClient("127.0.0.1", port).Get("/metrics");
  ASSERT_TRUE(scrape.ok());
  const auto scrape_ct = scrape->headers.find("content-type");
  ASSERT_NE(scrape_ct, scrape->headers.end());
  EXPECT_NE(scrape_ct->second.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(scrape->body.find("tegra_extract_sp_score_bucket"),
            std::string::npos);
  EXPECT_NE(scrape->body.find("tegra_extract_sp_score_count 1"),
            std::string::npos)
      << scrape->body;
  EXPECT_NE(scrape->body.find("tegra_build_info{git_sha="),
            std::string::npos);

  // 5. /slowlogz?format=json carries the per-request sp score.
  const auto slowlog =
      net::HttpClient("127.0.0.1", port).Get("/slowlogz?format=json");
  ASSERT_TRUE(slowlog.ok());
  const auto slow_json = ParseJson(slowlog->body);
  ASSERT_TRUE(slow_json.ok()) << slowlog->body;
  const auto& records = (*slow_json)["records"].AsArray();
  ASSERT_GE(records.size(), 1u);
  EXPECT_GE(records[0]["sp"].AsNumber(-1), 0) << slowlog->body;

  // 6. Saturate the queue (1 worker, depth 2, large bypass-cache requests)
  //    and watch /readyz flip to 503. Refill between polls so the window is
  //    not a one-shot race; bounded so a fast machine cannot hang the test.
  bool saw_unready = false;
  std::string last_readyz;
  int id = 100;
  for (int round = 0; round < 40 && !saw_unready; ++round) {
    for (int i = 0; i < 6; ++i) {
      const int request_id = id++;
      ASSERT_TRUE(daemon.WriteLine(
          ExtractionRequestLine(request_id, 64, request_id % 8)));
    }
    for (int poll = 0; poll < 20 && !saw_unready; ++poll) {
      const auto readyz = net::HttpClient("127.0.0.1", port).Get("/readyz");
      if (!readyz.ok()) break;
      last_readyz = readyz->body;
      if (readyz->status == 503) {
        saw_unready = true;
        EXPECT_NE(readyz->body.find("queue saturated"), std::string::npos)
            << readyz->body;
      }
    }
  }
  EXPECT_TRUE(saw_unready)
      << "never observed 503 from /readyz; last body: " << last_readyz;

  // Drain whatever the saturation phase produced, then quit cleanly.
  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"quit\"}"));
  daemon.CloseStdin();
  EXPECT_EQ(daemon.Wait(), 0);

  // 7. After shutdown the admin plane is gone: probes fail at connect.
  const auto after =
      net::HttpClient("127.0.0.1", port, /*timeout_ms=*/1000).Get("/healthz");
  EXPECT_FALSE(after.ok() && after->status == 200);
}

TEST(ServeAdminE2eTest, AdminDisabledByDefault) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:3"}));
  // No admin plane: the first output must be a response to our request, not
  // an admin_ready event. Quit immediately — the daemon answers every
  // request it read before it exits.
  ASSERT_TRUE(daemon.WriteLine(ExtractionRequestLine(1, 6, 0)));
  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"quit\"}"));
  daemon.CloseStdin();
  const std::string first = daemon.NextLine();
  const auto parsed = ParseJson(first);
  ASSERT_TRUE(parsed.ok()) << first;
  EXPECT_FALSE((*parsed).Has("event")) << first;
  EXPECT_TRUE((*parsed)["ok"].AsBool(false)) << first;
  EXPECT_EQ(daemon.Wait(), 0);
}

/// Reads the admin_ready line and returns the bound port (0 on failure).
int AdminPort(ServeProcess* daemon) {
  const std::string line = daemon->NextLine();
  const auto ready = ParseJson(line);
  if (!ready.ok() || (*ready)["event"].AsString() != "admin_ready") return 0;
  return static_cast<int>((*ready)["port"].AsNumber(0));
}

TEST(ServeAdminE2eTest, LoneRequestIsAnsweredWhileStdinStaysOpen) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:3", "--admin-port",
                            "0"}));
  // admin_ready is written once the corpus is built, so the 5 s below
  // measure the request, not the startup.
  ASSERT_GT(AdminPort(&daemon), 0);
  ASSERT_TRUE(daemon.WriteLine(ExtractionRequestLine(1, 2, 0)));
  const std::string line = daemon.NextLine(/*timeout_ms=*/5000);
  ASSERT_FALSE(line.empty()) << "no reply within 5 s while stdin was open";
  const auto reply = ParseJson(line);
  ASSERT_TRUE(reply.ok()) << line;
  EXPECT_TRUE((*reply)["ok"].AsBool(false)) << line;
  EXPECT_EQ((*reply)["id"].AsNumber(0), 1) << line;

  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"quit\"}"));
  daemon.CloseStdin();
  EXPECT_EQ(daemon.Wait(), 0);
}

TEST(ServeAdminE2eTest, RetiredTelemetryCommandsAreBadRequests) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:3", "--admin-port",
                            "0"}));
  const int port = AdminPort(&daemon);
  ASSERT_GT(port, 0);
  const std::string dump_path = testing::TempDir() + "retired_trace_dump_" +
                                std::to_string(::getpid()) + ".json";
  ::unlink(dump_path.c_str());

  // Telemetry lives on the admin plane (/varz, /tracez, ...); the stdin
  // commands that mirrored it are unknown now, and a "file" key is inert.
  ASSERT_TRUE(daemon.WriteLine("{\"id\":9,\"cmd\":\"metrics\"}"));
  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"trace_dump\",\"file\":\"" +
                               dump_path + "\"}"));
  const struct {
    const char* cmd;
    double id;
  } expected[] = {{"metrics", 9}, {"trace_dump", 0}};
  for (const auto& want : expected) {
    const std::string line = daemon.NextLine();
    const auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_FALSE((*parsed)["ok"].AsBool(true)) << line;
    EXPECT_EQ((*parsed)["code"].AsString(), "InvalidArgument") << line;
    EXPECT_EQ((*parsed)["error"].AsString(),
              std::string("unknown cmd: ") + want.cmd)
        << line;
    EXPECT_EQ((*parsed).Has("id"), want.id != 0) << line;
    EXPECT_EQ((*parsed)["id"].AsNumber(0), want.id) << line;
  }
  EXPECT_EQ(VarzCounter(port, "serve.bad_request"), 2);
  EXPECT_NE(::access(dump_path.c_str(), F_OK), 0)
      << "a retired command created " << dump_path;

  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"quit\"}"));
  daemon.CloseStdin();
  EXPECT_EQ(daemon.Wait(), 0);
}

TEST(ServeAdminE2eTest, UnknownLogFormatOrLevelIsAUsageError) {
  // A misspelt value must not silently fall back to a default.
  const std::vector<std::vector<std::string>> bad = {
      {"--log-format", "JSON"}, {"--log-format", "xml"},
      {"--log-level", "warning"}, {"--log-level", ""}};
  for (const auto& args : bad) {
    ServeProcess daemon;
    ASSERT_TRUE(daemon.Start(args));
    EXPECT_EQ(daemon.Wait(), 2) << args[0] << " " << args[1];
  }
  // Every documented value parses (--help then exits 0 before serving).
  for (const char* format : {"text", "json"}) {
    for (const char* level : {"debug", "info", "warn", "error"}) {
      ServeProcess daemon;
      ASSERT_TRUE(daemon.Start(
          {"--log-format", format, "--log-level", level, "--help"}));
      EXPECT_EQ(daemon.Wait(), 0) << format << " " << level;
    }
  }
}

TEST(ServeAdminE2eTest, MalformedNumericFlagsAreUsageErrors) {
  // A trailing --help makes a parser that accepts the value exit 0 there,
  // before it starts a worker or builds a corpus, so a regression fails the
  // test instead of serving with a wrapped negative or a huge thread count.
  const std::vector<std::vector<std::string>> bad = {
      {"--queue-depth", "-1"},     // as SIZE_MAX: no admission control
      {"--slowlog", "-1"},         // as SIZE_MAX: every request retained
      {"--workers", "four"},       // as atoi: 0, clamped to one worker
      {"--cache-capacity", "-1"},  // as SIZE_MAX: per-shard capacity wraps
      {"--co-cache-capacity", "1e6"},
      {"--workers", "0"},
      {"--workers", "1025"},
      {"--threads", "0"},
      {"--threads", "4096"},
      {"--queue-depth", "+8"},
      {"--queue-depth", " 8"},
      {"--queue-depth", "8x"},
      {"--queue-depth", ""},
      {"--queue-depth", "18446744073709551616"},
      {"--deadline-ms", "-5"},
      {"--deadline-ms", "nan"},
      {"--deadline-ms", "0x10"}};
  for (const auto& args : bad) {
    ServeProcess daemon;
    ASSERT_TRUE(daemon.Start({args[0], args[1], "--help"}));
    EXPECT_EQ(daemon.Wait(), 2) << args[0] << " '" << args[1] << "'";
  }
  // In-range values, limits included, still parse.
  const std::vector<std::vector<std::string>> good = {
      {"--workers", "1"},          {"--workers", "1024"},
      {"--threads", "1024"},       {"--queue-depth", "0"},
      {"--slowlog", "0"},          {"--cache-capacity", "0"},
      {"--co-cache-capacity", "1048576"},
      {"--deadline-ms", "250"},    {"--deadline-ms", "2.5"}};
  for (const auto& args : good) {
    ServeProcess daemon;
    ASSERT_TRUE(daemon.Start({args[0], args[1], "--help"}));
    EXPECT_EQ(daemon.Wait(), 0) << args[0] << " '" << args[1] << "'";
  }
}

}  // namespace
}  // namespace serve
}  // namespace tegra
