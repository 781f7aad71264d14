// End-to-end test of the HTTP data plane in the real tegra_serve binary:
// fork/exec the daemon with --port 0, discover the port from the
// {"event":"data_ready"} line, then drive POST /v1/extract over real
// sockets. Covers the acceptance bar of the subsystem:
//
//  * 64 concurrent keep-alive clients with ZERO failed in-flight requests
//    while SIGHUP hot-reloads the corpus underneath them,
//  * batch bodies ({"requests":[...]}) answered in order with ids echoed,
//  * queue saturation surfacing as HTTP 503 + Retry-After (never a reset),
//  * transport deadlines (stalled mid-request -> 408) and queue deadlines
//    (expired deadline_ms -> 408),
//  * /readyz turning 503 with a data-plane reason while the listener sheds.
//
// The binary path is injected at compile time via TEGRA_SERVE_BINARY.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.h"
#include "serve_process_util.h"
#include "service/serve_json.h"
#include "store/snapshot_writer.h"
#include "synth/corpus_gen.h"

namespace tegra {
namespace serve {
namespace {

/// Ports announced by the daemon's ready events, in any order.
struct ReadyPorts {
  int admin = -1;
  int data = -1;
};

ReadyPorts ReadReadyEvents(ServeProcess* daemon, bool expect_admin) {
  ReadyPorts ports;
  const int expected = expect_admin ? 2 : 1;
  for (int i = 0; i < expected; ++i) {
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

TEST(ServeHttpE2eTest, ConcurrentKeepAliveClientsSurviveCorpusReload) {
  const std::string path = testing::TempDir() + "serve_http_e2e_" +
                           std::to_string(::getpid()) + ".idx2";
  {
    const ColumnIndex index =
        synth::BuildBackgroundIndex(synth::CorpusProfile::kWeb, 300, 7);
    const Status written = store::WriteSnapshot(index, path);
    ASSERT_TRUE(written.ok()) << written.ToString();
  }

  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--corpus", path, "--port", "0", "--admin-port",
                            "0", "--workers", "4", "--queue-depth", "256"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/true);
  ASSERT_GT(ports.data, 0);
  ASSERT_GT(ports.admin, 0);

  // 64 clients, each holding ONE keep-alive connection across 8 extraction
  // requests, while the main thread SIGHUPs a corpus swap into the middle
  // of the traffic. The acceptance bar: zero failed in-flight requests.
  constexpr int kClients = 64;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> http_ok{0};
  std::atomic<int> body_ok{0};
  std::atomic<int> failures{0};
  std::atomic<int> extra_connects{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::string body =
            ExtractionRequestLine(c * 1000 + i, 8, (c + i) % 8);
        auto response = client.Post("/v1/extract", body);
        if (!response.ok()) {
          ++failures;
          ADD_FAILURE() << "client " << c << " request " << i << ": "
                        << response.status().ToString();
          continue;
        }
        if (response.value().status == 200) ++http_ok;
        const auto parsed = ParseJson(response.value().body);
        if (parsed.ok() && (*parsed)["ok"].AsBool(false)) ++body_ok;
      }
      // Keep-alive must hold: every request rode the first dial.
      if (client.connects() != 1) ++extra_connects;
    });
  }

  // Two hot reloads while the fleet is mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::kill(daemon.pid(), SIGHUP), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::kill(daemon.pid(), SIGHUP), 0);

  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(http_ok.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(body_ok.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(extra_connects.load(), 0)
      << extra_connects.load() << " clients needed a reconnect";

  // The reloads actually happened (generation climbed past the initial 1).
  const auto varz = net::HttpClient("127.0.0.1", ports.admin).Get("/varz");
  ASSERT_TRUE(varz.ok()) << varz.status().ToString();
  const auto parsed = ParseJson(varz->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_GE((*parsed)["gauges"]["corpus.generation"].AsNumber(0), 2);
  // The data plane's own gauges are in the same registry.
  EXPECT_GE((*parsed)["counters"]["net.requests_total"].AsNumber(0),
            kClients * kRequestsPerClient);

  Quit(&daemon);
  std::remove(path.c_str());
}

TEST(ServeHttpE2eTest, BatchBodiesAndErrorMapping) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start(
      {"--build-corpus", "web:200:1", "--port", "0", "--workers", "2"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/false);
  ASSERT_GT(ports.data, 0);

  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);

  // Batch of three: one response per item, ids echoed, order preserved.
  std::string batch = "{\"requests\":[";
  for (int i = 0; i < 3; ++i) {
    if (i > 0) batch += ",";
    batch += ExtractionRequestLine(100 + i, 8, i);
  }
  batch += "]}";
  auto response = client.Post("/v1/extract", batch);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
  const auto parsed = ParseJson(response.value().body);
  ASSERT_TRUE(parsed.ok()) << response.value().body;
  EXPECT_TRUE((*parsed)["ok"].AsBool(false));
  const auto& responses = (*parsed)["responses"].AsArray();
  ASSERT_EQ(responses.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(responses[i]["ok"].AsBool(false)) << responses[i].Dump();
    EXPECT_EQ(responses[i]["id"].AsNumber(0), 100 + i);
  }

  // Error mapping, all on the same keep-alive connection.
  auto bad_json = client.Post("/v1/extract", "{not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json.value().status, 400);

  auto no_lines = client.Post("/v1/extract", "{\"lines\":[]}");
  ASSERT_TRUE(no_lines.ok());
  EXPECT_EQ(no_lines.value().status, 400);

  auto bad_item = client.Post("/v1/extract",
                              "{\"requests\":[{\"lines\":[\"a b c\"]},{}]}");
  ASSERT_TRUE(bad_item.ok());
  EXPECT_EQ(bad_item.value().status, 400);  // All-or-nothing admission.

  auto empty_batch = client.Post("/v1/extract", "{\"requests\":[]}");
  ASSERT_TRUE(empty_batch.ok());
  EXPECT_EQ(empty_batch.value().status, 400);

  auto wrong_method = client.Get("/v1/extract");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 405);

  auto wrong_path = client.Post("/v2/nope", "{}");
  ASSERT_TRUE(wrong_path.ok());
  EXPECT_EQ(wrong_path.value().status, 404);

  EXPECT_EQ(client.connects(), 1u);
  Quit(&daemon);
}

TEST(ServeHttpE2eTest, QueueSaturationSurfacesAs503NotResets) {
  // One worker, a one-deep queue: a burst of concurrent extractions MUST
  // split into 200s and explicit 503+Retry-After rejections — transport
  // errors (resets, dropped connections) are the failure mode this
  // subsystem exists to prevent.
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--workers", "1", "--queue-depth", "1"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/false);
  ASSERT_GT(ports.data, 0);

  constexpr int kBurst = 24;
  std::atomic<int> ok_200{0};
  std::atomic<int> shed_503{0};
  std::atomic<int> missing_retry_after{0};
  std::atomic<int> transport_errors{0};
  std::atomic<int> other_status{0};
  std::vector<std::thread> burst;
  burst.reserve(kBurst);
  for (int c = 0; c < kBurst; ++c) {
    burst.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
      const std::string body = ExtractionRequestLine(c, 32, c % 8);
      auto response = client.Post("/v1/extract", body);
      if (!response.ok()) {
        ++transport_errors;
        return;
      }
      if (response.value().status == 200) {
        ++ok_200;
      } else if (response.value().status == 503) {
        ++shed_503;
        if (response.value().Header("retry-after").empty()) {
          ++missing_retry_after;
        }
        const auto parsed = ParseJson(response.value().body);
        if (parsed.ok()) {
          EXPECT_EQ((*parsed)["code"].AsString(), "Unavailable")
              << response.value().body;
        }
      } else {
        ++other_status;
      }
    });
  }
  for (auto& thread : burst) thread.join();

  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(other_status.load(), 0);
  EXPECT_GT(ok_200.load(), 0);
  EXPECT_GT(shed_503.load(), 0) << "burst never saturated the queue";
  EXPECT_EQ(missing_retry_after.load(), 0);
  EXPECT_EQ(ok_200.load() + shed_503.load(), kBurst);
  Quit(&daemon);
}

TEST(ServeHttpE2eTest, DeadlinesTransportAndQueue) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--io-timeout-ms", "200", "--workers", "1",
                            "--queue-depth", "16"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/false);
  ASSERT_GT(ports.data, 0);

  // Transport deadline: declare a body, stall mid-request -> 408.
  {
    net::HttpClient staller("127.0.0.1", ports.data, /*timeout_ms=*/10000);
    auto response = staller.RoundTrip(
        "POST /v1/extract HTTP/1.1\r\nContent-Length: 500\r\n\r\nstall");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 408);
  }

  // Queue deadline: pile a backlog of heavy extractions onto the single
  // worker, then submit one whose 1ms deadline is guaranteed to expire
  // while it waits in the admission queue; it must come back 408
  // kDeadlineExceeded, never hang and never silently run late.
  constexpr int kHeavies = 8;
  std::vector<std::thread> heavies;
  heavies.reserve(kHeavies);
  for (int i = 0; i < kHeavies; ++i) {
    heavies.emplace_back([&, i] {
      net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/60000);
      auto response =
          client.Post("/v1/extract", ExtractionRequestLine(i, 256, i % 8));
      EXPECT_TRUE(response.ok());
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/60000);
  auto expired = client.Post(
      "/v1/extract",
      "{\"id\":99,\"lines\":[\"Boston Massachusetts 645,966\"],"
      "\"deadline_ms\":1,\"bypass_cache\":true}");
  for (auto& heavy : heavies) heavy.join();
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(expired.value().status, 408);
  const auto parsed = ParseJson(expired.value().body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)["code"].AsString(), "DeadlineExceeded")
      << expired.value().body;
  Quit(&daemon);
}

TEST(ServeHttpE2eTest, ReadyzReportsDataPlaneSaturation) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--admin-port", "0", "--max-connections", "1"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/true);
  ASSERT_GT(ports.data, 0);
  ASSERT_GT(ports.admin, 0);

  // Ready while the one connection slot is free.
  auto ready = net::HttpClient("127.0.0.1", ports.admin).Get("/readyz");
  ASSERT_TRUE(ready.ok()) << ready.status().ToString();
  EXPECT_EQ(ready->status, 200) << ready->body;

  // Hold the slot with a keep-alive connection: the listener is saturated,
  // and /readyz must say so (load balancers drain on this).
  net::HttpClient holder("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  ASSERT_TRUE(holder.Post("/v1/extract", ExtractionRequestLine(1, 4, 0)).ok());
  auto saturated = net::HttpClient("127.0.0.1", ports.admin).Get("/readyz");
  ASSERT_TRUE(saturated.ok()) << saturated.status().ToString();
  EXPECT_EQ(saturated->status, 503) << saturated->body;
  EXPECT_NE(saturated->body.find("data plane"), std::string::npos)
      << saturated->body;

  // And /statusz renders the data-plane section.
  auto statusz = net::HttpClient("127.0.0.1", ports.admin).Get("/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_NE(statusz->body.find("data plane"), std::string::npos);

  holder.Close();
  Quit(&daemon);
}

}  // namespace
}  // namespace serve
}  // namespace tegra
