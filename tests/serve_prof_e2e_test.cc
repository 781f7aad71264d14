// End-to-end test of the profiling/evidence layer in the real tegra_serve
// binary: fork/exec the daemon, drive POST /v1/extract over sockets, and
// assert the observability contract of tegra::prof:
//
//  * GET /pprof/profile under load returns non-empty folded stacks whose
//    frames symbolize into tegra code (the SIGPROF sampler, the
//    frame-pointer walk and dladdr symbolization all working together in a
//    multi-threaded process),
//  * the wide-event access log emits EXACTLY one JSON line per completed
//    /v1/extract exchange — singles, batches and parse rejections alike —
//    and errors are kept even when ordinary-request sampling drops to 0,
//  * an OpenMetrics exemplar's trace id resolves to a record in
//    /slowlogz?format=json (metrics -> trace joinability),
//  * SIGTERM drains gracefully: exit code 0 and a flushed access log,
//  * the span-ring counters surface as trace.ring.* gauges on /varz.
//
// The binary path is injected at compile time via TEGRA_SERVE_BINARY.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.h"
#include "serve_process_util.h"
#include "service/serve_json.h"
#include "trace/trace.h"

namespace tegra {
namespace serve {
namespace {

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string contents;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    contents.append(chunk, n);
  }
  std::fclose(f);
  return contents;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0, pos;
  while ((pos = text.find('\n', start)) != std::string::npos) {
    lines.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  if (start < text.size()) lines.push_back(text.substr(start));
  return lines;
}

TEST(ServeProfE2eTest, ProfileUnderLoadHasNonEmptyTegraStacks) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--admin-port", "0", "--workers", "4",
                            "--profile-hz", "199"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/true);
  ASSERT_GT(ports.data, 0);
  ASSERT_GT(ports.admin, 0);

  // Offer continuous extraction load while the capture window is open, so
  // SIGPROF (which fires on consumed CPU time) has something to sample.
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string body =
            ExtractionRequestLine(c * 100000 + i, 8, (c + i) % 8);
        (void)client.Post("/v1/extract", body);
        ++i;
      }
    });
  }

  const auto profile =
      net::HttpClient("127.0.0.1", ports.admin, /*timeout_ms=*/30000)
          .Get("/pprof/profile?seconds=1.5");
  stop.store(true);
  for (auto& client : clients) client.join();

  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->status, 200);
  const std::vector<std::string> lines = SplitLines(profile->body);
  ASSERT_FALSE(lines.empty()) << "empty profile body";
  // Every line is "stack count"; at least one stack must be a real chain
  // that symbolized into tegra code.
  bool tegra_chain = false;
  for (const std::string& line : lines) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(std::atoll(line.c_str() + space + 1), 0) << line;
    if (line.find(';') != std::string::npos &&
        line.find("tegra") != std::string::npos) {
      tegra_chain = true;
    }
  }
  EXPECT_TRUE(tegra_chain)
      << "no multi-frame tegra stack in:\n" << profile->body;

  Quit(&daemon);
}

TEST(ServeProfE2eTest, WideEventLogEmitsExactlyOneLinePerRequest) {
  const std::string log_path = testing::TempDir() + "serve_prof_access_" +
                               std::to_string(::getpid()) + ".jsonl";
  std::remove(log_path.c_str());
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--workers", "2", "--access-log", log_path,
                            "--access-log-sample", "1.0"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/false);
  ASSERT_GT(ports.data, 0);

  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  constexpr int kSingles = 6;
  for (int i = 0; i < kSingles; ++i) {
    const auto response =
        client.Post("/v1/extract", ExtractionRequestLine(i, 8, i % 8));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200);
  }
  // One batch of three -> ONE aggregate wide event with items=3.
  const std::string batch = "{\"requests\":[" + ExtractionRequestLine(100, 8, 0) +
                            "," + ExtractionRequestLine(101, 8, 1) + "," +
                            ExtractionRequestLine(102, 8, 2) + "]}";
  const auto batch_response = client.Post("/v1/extract", batch);
  ASSERT_TRUE(batch_response.ok());
  EXPECT_EQ(batch_response.value().status, 200);
  // One parse rejection -> one bad_request wide event.
  const auto bad_response = client.Post("/v1/extract", "this is not json");
  ASSERT_TRUE(bad_response.ok());
  EXPECT_EQ(bad_response.value().status, 400);

  Quit(&daemon);  // Graceful drain flushes the access log.

  const std::vector<std::string> lines = SplitLines(ReadFile(log_path));
  ASSERT_EQ(lines.size(), static_cast<size_t>(kSingles + 2))
      << ReadFile(log_path);
  int singles = 0, batches = 0, bad = 0;
  std::set<uint64_t> request_ids;
  for (const std::string& line : lines) {
    const auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const JsonValue& v = *parsed;
    EXPECT_EQ(v["endpoint"].AsString(), "/v1/extract");
    const uint64_t request_id =
        static_cast<uint64_t>(v["request_id"].AsNumber(0));
    EXPECT_GT(request_id, 0u) << line;
    EXPECT_TRUE(request_ids.insert(request_id).second)
        << "duplicate request_id: " << line;
    if (v["outcome"].AsString() == "bad_request") {
      ++bad;
    } else if (v["batch"].AsBool(false)) {
      ++batches;
      EXPECT_EQ(v["items"].AsNumber(0), 3);
      EXPECT_EQ(v["outcome"].AsString(), "ok");
    } else {
      ++singles;
      EXPECT_EQ(v["outcome"].AsString(), "ok");
      EXPECT_EQ(v["status"].AsNumber(0), 200);
      EXPECT_GT(v["total_ms"].AsNumber(-1), 0.0);
      EXPECT_GT(v["bytes_out"].AsNumber(0), 0.0);
    }
  }
  EXPECT_EQ(singles, kSingles);
  EXPECT_EQ(batches, 1);
  EXPECT_EQ(bad, 1);
  std::remove(log_path.c_str());
}

TEST(ServeProfE2eTest, TailSamplingZeroStillKeepsErrors) {
  const std::string log_path = testing::TempDir() + "serve_prof_tail_" +
                               std::to_string(::getpid()) + ".jsonl";
  std::remove(log_path.c_str());
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--workers", "2", "--access-log", log_path,
                            "--access-log-sample", "0.0",
                            "--access-log-slow-ms", "1000000"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/false);
  ASSERT_GT(ports.data, 0);

  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  for (int i = 0; i < 4; ++i) {
    const auto response =
        client.Post("/v1/extract", ExtractionRequestLine(i, 8, i % 8));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 200);
  }
  const auto bad_response = client.Post("/v1/extract", "{\"lines\":[]}");
  ASSERT_TRUE(bad_response.ok());
  EXPECT_EQ(bad_response.value().status, 400);

  Quit(&daemon);

  const std::vector<std::string> lines = SplitLines(ReadFile(log_path));
  ASSERT_EQ(lines.size(), 1u) << ReadFile(log_path);
  const auto parsed = ParseJson(lines[0]);
  ASSERT_TRUE(parsed.ok()) << lines[0];
  EXPECT_EQ((*parsed)["outcome"].AsString(), "bad_request");
  std::remove(log_path.c_str());
}

TEST(ServeProfE2eTest, ExemplarTraceIdResolvesInSlowlog) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--admin-port", "0", "--workers", "2",
                            "--trace", "on"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/true);
  ASSERT_GT(ports.data, 0);
  ASSERT_GT(ports.admin, 0);

  // At most 6 requests: the slowlog (default capacity 8) then retains every
  // request, so any exemplar's trace id must be resolvable.
  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  for (int i = 0; i < 6; ++i) {
    const auto response =
        client.Post("/v1/extract", ExtractionRequestLine(i, 8, i % 8));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 200);
  }

  // Default format stays classic Prometheus: no exemplar syntax, no EOF.
  const auto classic =
      net::HttpClient("127.0.0.1", ports.admin).Get("/metrics");
  ASSERT_TRUE(classic.ok());
  EXPECT_NE(classic->headers.at("content-type").find("version=0.0.4"),
            std::string::npos);
  EXPECT_EQ(classic->body.find("# {trace_id="), std::string::npos);

  const auto openmetrics =
      net::HttpClient("127.0.0.1", ports.admin)
          .Get("/metrics?format=openmetrics");
  ASSERT_TRUE(openmetrics.ok());
  EXPECT_EQ(openmetrics->status, 200);
  EXPECT_NE(
      openmetrics->headers.at("content-type").find("openmetrics-text"),
      std::string::npos);
  EXPECT_NE(openmetrics->body.find("# EOF"), std::string::npos);

  // Pull every exemplar trace id out of the exposition.
  std::set<uint64_t> exemplar_ids;
  const std::string& body = openmetrics->body;
  const std::string needle = "# {trace_id=\"";
  for (size_t pos = body.find(needle); pos != std::string::npos;
       pos = body.find(needle, pos + 1)) {
    exemplar_ids.insert(
        static_cast<uint64_t>(std::atoll(body.c_str() + pos + needle.size())));
  }
  if (trace::kCompiledIn) {
    ASSERT_FALSE(exemplar_ids.empty())
        << "no exemplars in OpenMetrics exposition:\n" << body;

    // Every request is in the slowlog; at least one exemplar must join.
    const auto slowlog =
        net::HttpClient("127.0.0.1", ports.admin).Get("/slowlogz?format=json");
    ASSERT_TRUE(slowlog.ok());
    const auto parsed = ParseJson(slowlog->body);
    ASSERT_TRUE(parsed.ok());
    std::set<uint64_t> slowlog_ids;
    for (const JsonValue& record : (*parsed)["records"].AsArray()) {
      slowlog_ids.insert(
          static_cast<uint64_t>(record["trace_id"].AsNumber(0)));
    }
    bool joined = false;
    for (const uint64_t id : exemplar_ids) {
      if (slowlog_ids.count(id) > 0) joined = true;
    }
    EXPECT_TRUE(joined) << "no exemplar trace id found in /slowlogz";
  } else {
    // Spans compiled out (TEGRA_TRACE=OFF): no trace context ever installs
    // itself, so exemplars must never fire — the documented interaction.
    EXPECT_TRUE(exemplar_ids.empty()) << body;
  }

  // Satellite: the span-ring counters are scrapeable gauges on /varz.
  const auto varz = net::HttpClient("127.0.0.1", ports.admin).Get("/varz");
  ASSERT_TRUE(varz.ok());
  const auto varz_json = ParseJson(varz->body);
  ASSERT_TRUE(varz_json.ok());
  EXPECT_GT((*varz_json)["gauges"]["trace.ring.capacity"].AsNumber(0), 0.0);
  if (trace::kCompiledIn) {
    EXPECT_GT((*varz_json)["gauges"]["trace.ring.spans"].AsNumber(-1), 0.0);
  }
  EXPECT_GE((*varz_json)["gauges"]["trace.ring.dropped"].AsNumber(-1), 0.0);

  Quit(&daemon);
}

TEST(ServeProfE2eTest, SigtermDrainsGracefullyAndFlushesAccessLog) {
  const std::string log_path = testing::TempDir() + "serve_prof_sigterm_" +
                               std::to_string(::getpid()) + ".jsonl";
  std::remove(log_path.c_str());
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--workers", "2", "--access-log", log_path}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/false);
  ASSERT_GT(ports.data, 0);

  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  for (int i = 0; i < 3; ++i) {
    const auto response =
        client.Post("/v1/extract", ExtractionRequestLine(i, 8, i % 8));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 200);
  }

  // SIGTERM (not quit, not stdin EOF): the daemon must drain and exit 0
  // with the access log flushed — the ordered-shutdown contract.
  ASSERT_EQ(::kill(daemon.pid(), SIGTERM), 0);
  EXPECT_EQ(daemon.Wait(), 0);

  const std::vector<std::string> lines = SplitLines(ReadFile(log_path));
  EXPECT_EQ(lines.size(), 3u) << ReadFile(log_path);
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace tegra
