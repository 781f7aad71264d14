// End-to-end test of the health layer in the real tegra_serve binary:
// fork/exec the daemon with a fast recorder, drive POST /v1/extract over
// sockets, and assert the tentpole contract of tegra::health:
//
//  * /timeseriesz records the traffic the clients actually sent (the
//    service.requests_total series is non-empty and sums to the request
//    count), in both JSON tiers,
//  * an induced overload — every request carrying an already-expired
//    deadline, against an availability SLO with second-scale windows — trips
//    the burn-rate alert: /alertz reports it firing and /readyz stays 200
//    but annotates the degradation (degraded-but-ready, never a drain),
//  * an injected worker stall (control-plane inject_stall) is detected by
//    the watchdog exactly once, with a folded stack through tegra frames,
//    /healthz dips to 503 stalled=true during the episode and recovers to
//    200 stalled=false after it — with zero failed in-flight requests,
//  * /varz carries process.uptime_seconds and the recorder staleness gauge.
//
// The binary path is injected at compile time via TEGRA_SERVE_BINARY.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.h"
#include "serve_process_util.h"
#include "service/serve_json.h"

namespace tegra {
namespace serve {
namespace {

struct ReadyPorts {
  int admin = -1;
  int data = -1;
};

ReadyPorts ReadReadyEvents(ServeProcess* daemon) {
  ReadyPorts ports;
  for (int i = 0; i < 2; ++i) {
    const std::string line = daemon->NextLine();
    const auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (!parsed.ok()) return ports;
    const std::string event = (*parsed)["event"].AsString();
    const int port = static_cast<int>((*parsed)["port"].AsNumber(0));
    if (event == "admin_ready") {
      ports.admin = port;
    } else if (event == "data_ready") {
      ports.data = port;
    } else {
      ADD_FAILURE() << "unexpected event line: " << line;
    }
  }
  return ports;
}

void Quit(ServeProcess* daemon) {
  ASSERT_TRUE(daemon->WriteLine("{\"cmd\":\"quit\"}"));
  daemon->CloseStdin();
  EXPECT_EQ(daemon->Wait(), 0);
}

// Polls `fetch` every 50 ms until it returns true or `timeout_ms` elapses.
template <typename Fn>
bool PollUntil(Fn fetch, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (fetch()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

TEST(ServeHealthE2eTest, TimeseriesRecordServedTraffic) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--admin-port", "0", "--workers", "2",
                            "--health-interval-ms", "100"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon);
  ASSERT_GT(ports.data, 0);
  ASSERT_GT(ports.admin, 0);

  // Wait for the recorder's first tick: counter series are delta-encoded,
  // so traffic sent before the baseline sample would be absorbed by it.
  ASSERT_TRUE(PollUntil(
      [&] {
        const auto response =
            net::HttpClient("127.0.0.1", ports.admin)
                .Get("/timeseriesz?format=json");
        if (!response.ok() || response->status != 200) return false;
        const auto parsed = ParseJson(response->body);
        return parsed.ok() && (*parsed)["ticks"].AsNumber(0) >= 1;
      },
      10000));

  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    const auto response =
        client.Post("/v1/extract", ExtractionRequestLine(i, 8, i % 8));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200);
  }

  // The recorder runs at 100 ms; within a couple of ticks the counter series
  // must hold every request we sent (deltas sum to the total).
  double sum = 0;
  const bool recorded = PollUntil(
      [&] {
        const auto response =
            net::HttpClient("127.0.0.1", ports.admin)
                .Get("/timeseriesz?metric=service.requests_total&format=json");
        if (!response.ok() || response->status != 200) return false;
        const auto parsed = ParseJson(response->body);
        if (!parsed.ok()) return false;
        EXPECT_EQ((*parsed)["kind"].AsString(), "counter");
        EXPECT_DOUBLE_EQ((*parsed)["interval_seconds"].AsNumber(0), 0.1);
        sum = 0;
        for (const JsonValue& v : (*parsed)["values"].AsArray()) {
          sum += v.AsNumber(0);
        }
        return sum >= kRequests;
      },
      10000);
  EXPECT_TRUE(recorded) << "series sum " << sum;

  // The index lists a healthy population of derived series.
  const auto index =
      net::HttpClient("127.0.0.1", ports.admin).Get("/timeseriesz?format=json");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->status, 200);
  const auto index_json = ParseJson(index->body);
  ASSERT_TRUE(index_json.ok());
  EXPECT_GT((*index_json)["series"].AsArray().size(), 10u);
  EXPECT_GT((*index_json)["ticks"].AsNumber(0), 0.0);

  // The coarse tier answers too (empty so early in the run, but queryable).
  const auto coarse =
      net::HttpClient("127.0.0.1", ports.admin)
          .Get("/timeseriesz?metric=service.requests_total&tier=coarse"
               "&format=json");
  ASSERT_TRUE(coarse.ok());
  EXPECT_EQ(coarse->status, 200);

  // Unknown metrics are a clean 404, not an empty series.
  const auto missing =
      net::HttpClient("127.0.0.1", ports.admin)
          .Get("/timeseriesz?metric=no.such");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  // Satellite: uptime + recorder staleness ride along on /varz.
  const auto varz = net::HttpClient("127.0.0.1", ports.admin).Get("/varz");
  ASSERT_TRUE(varz.ok());
  const auto varz_json = ParseJson(varz->body);
  ASSERT_TRUE(varz_json.ok());
  EXPECT_GT((*varz_json)["gauges"]["process.uptime_seconds"].AsNumber(-1),
            0.0);
  const double staleness =
      (*varz_json)["gauges"]["health.recorder_staleness_seconds"].AsNumber(-2);
  EXPECT_GE(staleness, 0.0);
  EXPECT_LT(staleness, 10.0);

  Quit(&daemon);
}

TEST(ServeHealthE2eTest, OverloadFiresAvailabilityAlertAndDegradesReadyz) {
  // Second-scale SLO windows so the burn-rate alert fires within seconds of
  // sustained failure instead of the production 5m/1h pair.
  const std::string slo_path = testing::TempDir() + "serve_health_slo_" +
                               std::to_string(::getpid()) + ".json";
  {
    std::FILE* f = std::fopen(slo_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string config = R"({"slos":[{
      "name": "extract_availability",
      "kind": "error_ratio",
      "description": "e2e: second-scale availability",
      "bad_series": ["service.rejected_total", "service.failed_total",
                     "service.deadline_exceeded_total"],
      "total_series": "service.requests_total",
      "objective": 0.9,
      "windows": [{"short_seconds": 1, "long_seconds": 3,
                   "burn_threshold": 2.0}],
      "keep_seconds": 600
    }]})";
    std::fwrite(config.data(), 1, config.size(), f);
    std::fclose(f);
  }

  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--admin-port", "0", "--workers", "2",
                            "--health-interval-ms", "100", "--slo-config",
                            slo_path}));
  const ReadyPorts ports = ReadReadyEvents(&daemon);
  ASSERT_GT(ports.data, 0);
  ASSERT_GT(ports.admin, 0);

  // Induced overload: every request arrives with an already-expired
  // deadline, so the service counts a deadline_exceeded for each — a 100%
  // bad ratio, burn 10x against the 2x threshold.
  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  auto expired_request = [](int id) {
    JsonValue request = JsonValue::Object();
    request.Set("id", JsonValue::Number(id));
    JsonValue lines = JsonValue::Array();
    lines.Append(JsonValue::Str("Boston Massachusetts 645,966"));
    lines.Append(JsonValue::Str("Worcester Massachusetts 182,544"));
    request.Set("lines", std::move(lines));
    request.Set("bypass_cache", JsonValue::Bool(true));
    request.Set("deadline_ms", JsonValue::Number(0.001));
    return request.Dump();
  };

  std::string alertz_body;
  const bool fired = PollUntil(
      [&] {
        for (int i = 0; i < 10; ++i) {
          (void)client.Post("/v1/extract", expired_request(i));
        }
        const auto response =
            net::HttpClient("127.0.0.1", ports.admin)
                .Get("/alertz?format=json");
        if (!response.ok() || response->status != 200) return false;
        alertz_body = response->body;
        const auto parsed = ParseJson(response->body);
        if (!parsed.ok()) return false;
        for (const JsonValue& alert : (*parsed)["alerts"].AsArray()) {
          if (alert["name"].AsString() == "extract_availability" &&
              alert["state"].AsString() == "firing") {
            EXPECT_GT(alert["value"].AsNumber(0), 2.0) << response->body;
            return true;
          }
        }
        return false;
      },
      20000);
  EXPECT_TRUE(fired) << "alert never fired; last /alertz: " << alertz_body;

  // Degraded-but-ready: /readyz stays 200 (draining would remove the very
  // capacity needed to recover) but names the firing alert.
  const auto readyz = net::HttpClient("127.0.0.1", ports.admin).Get("/readyz");
  ASSERT_TRUE(readyz.ok());
  EXPECT_EQ(readyz->status, 200);
  EXPECT_NE(readyz->body.find("degraded"), std::string::npos) << readyz->body;
  EXPECT_NE(readyz->body.find("extract_availability"), std::string::npos)
      << readyz->body;

  // The firing count is a scrapeable gauge.
  const auto varz = net::HttpClient("127.0.0.1", ports.admin).Get("/varz");
  ASSERT_TRUE(varz.ok());
  const auto varz_json = ParseJson(varz->body);
  ASSERT_TRUE(varz_json.ok());
  EXPECT_GE((*varz_json)["gauges"]["health.alerts_firing"].AsNumber(0), 1.0);

  std::remove(slo_path.c_str());
  Quit(&daemon);
}

TEST(ServeHealthE2eTest, InjectedStallTripsWatchdogOnceWithTegraStack) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--admin-port", "0", "--workers", "2",
                            "--health-interval-ms", "100",
                            "--stall-threshold-ms", "300"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon);
  ASSERT_GT(ports.data, 0);
  ASSERT_GT(ports.admin, 0);

  // Healthy liveness before the fault.
  const auto healthz_before =
      net::HttpClient("127.0.0.1", ports.admin).Get("/healthz");
  ASSERT_TRUE(healthz_before.ok());
  EXPECT_EQ(healthz_before->status, 200);
  EXPECT_NE(healthz_before->body.find("stalled=false"), std::string::npos);

  // Inject: one worker sleeps 1.5 s inside a task, 5x the stall threshold.
  ASSERT_TRUE(
      daemon.WriteLine("{\"id\":1,\"cmd\":\"inject_stall\",\"ms\":1500}"));
  const std::string reply = daemon.NextLine();
  const auto reply_json = ParseJson(reply);
  ASSERT_TRUE(reply_json.ok()) << reply;
  EXPECT_TRUE((*reply_json)["ok"].AsBool(false)) << reply;

  // While the worker is wedged, liveness must report it: 503 stalled=true.
  const bool went_stalled = PollUntil(
      [&] {
        const auto response =
            net::HttpClient("127.0.0.1", ports.admin).Get("/healthz");
        return response.ok() && response->status == 503 &&
               response->body.find("stalled=true") != std::string::npos;
      },
      10000);
  EXPECT_TRUE(went_stalled);

  // The episode ends; liveness recovers.
  const bool recovered = PollUntil(
      [&] {
        const auto response =
            net::HttpClient("127.0.0.1", ports.admin).Get("/healthz");
        return response.ok() && response->status == 200 &&
               response->body.find("stalled=false") != std::string::npos;
      },
      10000);
  EXPECT_TRUE(recovered);

  // Exactly one stall episode, carrying a folded stack through tegra frames.
  const auto alertz =
      net::HttpClient("127.0.0.1", ports.admin).Get("/alertz?format=json");
  ASSERT_TRUE(alertz.ok());
  const auto alertz_json = ParseJson(alertz->body);
  ASSERT_TRUE(alertz_json.ok()) << alertz->body;
  const JsonValue& watchdog = (*alertz_json)["watchdog"];
  EXPECT_DOUBLE_EQ(watchdog["stalls_total"].AsNumber(-1), 1.0)
      << alertz->body;
  const JsonValue& stall = watchdog["last_stall"];
  EXPECT_EQ(stall["thread"].AsString().substr(0, 10), "svc-worker");
  EXPECT_GE(stall["stuck_seconds"].AsNumber(0), 0.3);
  const std::string stack = stall["stack"].AsString();
  EXPECT_NE(stack.find("tegra"), std::string::npos) << stack;
  EXPECT_NE(stack.find(';'), std::string::npos) << stack;

  // The probe request itself completed: a stall detection never fails
  // in-flight work.
  const auto varz = net::HttpClient("127.0.0.1", ports.admin).Get("/varz");
  ASSERT_TRUE(varz.ok());
  const auto varz_json = ParseJson(varz->body);
  ASSERT_TRUE(varz_json.ok());
  EXPECT_DOUBLE_EQ(
      (*varz_json)["counters"]["service.failed_total"].AsNumber(-1), 0.0);
  EXPECT_DOUBLE_EQ((*varz_json)["counters"]["health.stalls_total"].AsNumber(-1),
                   1.0);

  // Ordinary traffic still flows after the episode.
  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  const auto response =
      client.Post("/v1/extract", ExtractionRequestLine(7, 8, 3));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);

  Quit(&daemon);
}

TEST(ServeHealthE2eTest, HealthDisabledServesPagesEmpty) {
  // --health-interval-ms 0: no recorder thread, the pages still answer (the
  // bench baseline must be a runnable configuration, not a crash).
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--admin-port", "0", "--workers", "2",
                            "--health-interval-ms", "0"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon);
  ASSERT_GT(ports.admin, 0);

  const auto index =
      net::HttpClient("127.0.0.1", ports.admin).Get("/timeseriesz?format=json");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->status, 200);
  const auto parsed = ParseJson(index->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)["ticks"].AsNumber(-1), 0.0);

  const auto alertz =
      net::HttpClient("127.0.0.1", ports.admin).Get("/alertz?format=json");
  ASSERT_TRUE(alertz.ok());
  EXPECT_EQ(alertz->status, 200);

  const auto healthz =
      net::HttpClient("127.0.0.1", ports.admin).Get("/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status, 200);

  Quit(&daemon);
}

}  // namespace
}  // namespace serve
}  // namespace tegra
