// End-to-end test of tegra::qos in the real tegra_serve binary: sustained
// overload of a single worker must be absorbed by the degradation ladder
// (quality_level climbs, zero 503s) and released again once the load stops
// (quality_level returns to 0); per-tenant token buckets must 429 the
// abusive tenant while a polite tenant on the same server sails through;
// and a daemon started without --qos must behave exactly like the legacy
// reject-at-queue build (quality_level pinned to 0, /qosz not attached).
//
// The binary path is injected at compile time via TEGRA_SERVE_BINARY.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.h"
#include "serve_process_util.h"
#include "service/serve_json.h"

namespace tegra {
namespace serve {
namespace {

/// quality_level of one served request right now (or -1 on any failure).
int ProbeQualityLevel(int port) {
  net::HttpClient client("127.0.0.1", port, /*timeout_ms=*/30000);
  auto response =
      client.Post("/v1/extract", ExtractionRequestLine(9999, 8, 0));
  if (!response.ok() || response.value().status != 200) return -1;
  const auto parsed = ParseJson(response.value().body);
  if (!parsed.ok()) return -1;
  return static_cast<int>((*parsed)["quality_level"].AsNumber(-1));
}

TEST(ServeQosE2eTest, OverloadDegradesQualityNotAvailability) {
  // One worker and a deep queue: a closed-loop fleet of 8 clients keeps
  // ~7 requests queued, far above the 5% queue-fraction target, so the
  // ladder must escalate — while the queue itself never fills, so NOT ONE
  // request may be answered 503.
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start(
      {"--build-corpus", "web:300:1", "--port", "0", "--admin-port", "0",
       "--workers", "1", "--queue-depth", "64", "--qos", "on",
       "--qos-target-queue-fraction", "0.05", "--qos-escalate-hold-ms",
       "100", "--qos-recover-hold-ms", "150", "--health-interval-ms", "50"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/true);
  ASSERT_GT(ports.data, 0);
  ASSERT_GT(ports.admin, 0);

  constexpr int kClients = 8;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2500);
  std::atomic<int> http_ok{0};
  std::atomic<int> shed_503{0};
  std::atomic<int> transport_errors{0};
  std::atomic<int> degraded_responses{0};
  std::atomic<int> max_rung_seen{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
      int i = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        const std::string body =
            ExtractionRequestLine(c * 100000 + i, 8, (c + i) % 8);
        ++i;
        auto response = client.Post("/v1/extract", body);
        if (!response.ok()) {
          ++transport_errors;
          continue;
        }
        if (response.value().status == 503) {
          ++shed_503;
          continue;
        }
        if (response.value().status != 200) continue;
        ++http_ok;
        const auto parsed = ParseJson(response.value().body);
        if (!parsed.ok()) continue;
        const int rung =
            static_cast<int>((*parsed)["quality_level"].AsNumber(0));
        if (rung > 0) ++degraded_responses;
        int seen = max_rung_seen.load();
        while (rung > seen && !max_rung_seen.compare_exchange_weak(seen, rung)) {
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  // The acceptance bar: overload bought degraded quality, not rejections.
  EXPECT_EQ(shed_503.load(), 0);
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_GT(http_ok.load(), 0);
  EXPECT_GT(degraded_responses.load(), 0)
      << "sustained overload never degraded quality (max rung seen "
      << max_rung_seen.load() << ")";

  // The controller's own account of the episode, via the admin plane.
  const auto qosz =
      net::HttpClient("127.0.0.1", ports.admin).Get("/qosz?format=json");
  ASSERT_TRUE(qosz.ok()) << qosz.status().ToString();
  ASSERT_EQ(qosz->status, 200) << qosz->body;
  const auto parsed = ParseJson(qosz->body);
  ASSERT_TRUE(parsed.ok()) << qosz->body;
  EXPECT_GE((*parsed)["ladder"]["escalations"].AsNumber(0), 1);
  EXPECT_GT((*parsed)["ladder"]["degraded_seconds"].AsNumber(0), 0.0);

  // Load gone: the ladder must walk back to full quality (one rung per
  // 150ms hold; allow generous wall time for the slowest CI).
  int final_rung = -1;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    final_rung = ProbeQualityLevel(ports.data);
    if (final_rung == 0) break;
  }
  EXPECT_EQ(final_rung, 0) << "ladder never recovered to full quality";

  Quit(&daemon);
}

TEST(ServeQosE2eTest, QuotaRejectsAbusiveTenantOnly) {
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--admin-port", "0", "--workers", "2",
                            "--quota-rate", "1", "--quota-burst", "2"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/true);
  ASSERT_GT(ports.data, 0);

  // The abuser fires 6 requests back to back: the 2-token burst admits the
  // first two, the rest must come back 429 with a Retry-After.
  net::HttpClient abuser("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  int abuser_ok = 0;
  int abuser_429 = 0;
  for (int i = 0; i < 6; ++i) {
    auto response = abuser.PostWithHeaders(
        "/v1/extract", ExtractionRequestLine(i, 8, i % 8),
        {{"X-Tegra-Tenant", "abuser"}});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response.value().status == 200) {
      ++abuser_ok;
    } else if (response.value().status == 429) {
      ++abuser_429;
      EXPECT_FALSE(response.value().Header("retry-after").empty());
      const auto parsed = ParseJson(response.value().body);
      ASSERT_TRUE(parsed.ok()) << response.value().body;
      EXPECT_EQ((*parsed)["code"].AsString(), "ResourceExhausted");
      EXPECT_GE((*parsed)["retry_after_s"].AsNumber(0), 1);
    } else {
      ADD_FAILURE() << "unexpected status " << response.value().status;
    }
  }
  EXPECT_GE(abuser_ok, 2);  // burst admitted (+ any refill trickle)
  EXPECT_GE(abuser_429, 1);

  // A batch also charges one token per item: 3 items > remaining budget.
  std::string batch = "{\"requests\":[";
  for (int i = 0; i < 3; ++i) {
    if (i > 0) batch += ",";
    batch += ExtractionRequestLine(100 + i, 8, i);
  }
  batch += "]}";
  auto batch_response = abuser.PostWithHeaders(
      "/v1/extract", batch, {{"X-Tegra-Tenant", "abuser"}});
  ASSERT_TRUE(batch_response.ok());
  EXPECT_EQ(batch_response.value().status, 429) << batch_response.value().body;

  // The polite tenant's own bucket is untouched by all of the above.
  net::HttpClient polite("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  for (int i = 0; i < 2; ++i) {
    auto response = polite.PostWithHeaders(
        "/v1/extract", ExtractionRequestLine(200 + i, 8, i),
        {{"X-Tegra-Tenant", "polite"}});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 200) << response.value().body;
  }

  // /qosz knows both buckets and who was rejected.
  const auto qosz =
      net::HttpClient("127.0.0.1", ports.admin).Get("/qosz?format=json");
  ASSERT_TRUE(qosz.ok());
  ASSERT_EQ(qosz->status, 200);
  const auto parsed = ParseJson(qosz->body);
  ASSERT_TRUE(parsed.ok()) << qosz->body;
  EXPECT_TRUE((*parsed)["quotas"]["enabled"].AsBool(false));
  bool saw_abuser = false;
  bool saw_polite = false;
  for (const auto& tenant : (*parsed)["quotas"]["tenants"].AsArray()) {
    if (tenant["tenant"].AsString() == "abuser") {
      saw_abuser = true;
      EXPECT_GE(tenant["rejected"].AsNumber(0), 1);
    } else if (tenant["tenant"].AsString() == "polite") {
      saw_polite = true;
      EXPECT_EQ(tenant["rejected"].AsNumber(-1), 0);
    }
  }
  EXPECT_TRUE(saw_abuser);
  EXPECT_TRUE(saw_polite);

  Quit(&daemon);
}

TEST(ServeQosE2eTest, QosOffBehavesLikeLegacyBuild) {
  // No --qos, no --quota-rate: the daemon must look exactly like the
  // pre-qos build — full-quality responses (quality_level 0) and no /qosz.
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:1", "--port", "0",
                            "--admin-port", "0", "--workers", "2"}));
  const ReadyPorts ports = ReadReadyEvents(&daemon, /*expect_admin=*/true);
  ASSERT_GT(ports.data, 0);

  net::HttpClient client("127.0.0.1", ports.data, /*timeout_ms=*/30000);
  auto response =
      client.Post("/v1/extract", ExtractionRequestLine(1, 8, 0));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  const auto parsed = ParseJson(response.value().body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)["quality_level"].AsNumber(-1), 0);

  // A tenant header is harmless noise when quotas are off.
  auto with_header = client.PostWithHeaders(
      "/v1/extract", ExtractionRequestLine(2, 8, 1),
      {{"X-Tegra-Tenant", "anyone"}});
  ASSERT_TRUE(with_header.ok());
  EXPECT_EQ(with_header.value().status, 200);

  const auto qosz = net::HttpClient("127.0.0.1", ports.admin).Get("/qosz");
  ASSERT_TRUE(qosz.ok());
  EXPECT_EQ(qosz->status, 503) << "qosz should not be attached when qos is off";

  Quit(&daemon);
}

}  // namespace
}  // namespace serve
}  // namespace tegra
