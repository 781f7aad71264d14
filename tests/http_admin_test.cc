// Tests for the HTTP admin plane: AdminPages (the zPage set wired to a live
// ExtractionService) served on a net::HttpServer listener named "admin" —
// routing, 404/405, the off-loop /pprof/profile capture, metric isolation
// from the data plane, lifecycle, the /slowlogz rendering of retained wide
// events — plus the TSan-relevant concurrency cases: scrapes racing
// extractions and Stop() racing in-flight requests.

#include "service/admin_pages.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/column_index.h"
#include "corpus/corpus_stats.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "qos/degradation.h"
#include "qos/rung_engine.h"
#include "service/extraction_service.h"
#include "service/serve_json.h"
#include "store/corpus_manager.h"
#include "synth/corpus_gen.h"
#include "trace/trace.h"

namespace tegra {
namespace serve {
namespace {

/// Routes the global tracer's metric sink (where the core extractor records
/// extract.sp_score / extract.low_confidence_total) into a test-local
/// registry, and restores the tracer-owned registry on scope exit so later
/// tests never write through a dangling pointer.
struct ScopedBindMetrics {
  explicit ScopedBindMetrics(MetricsRegistry* registry) {
    trace::Tracer::Global().BindMetrics(registry);
  }
  ~ScopedBindMetrics() { trace::Tracer::Global().BindMetrics(nullptr); }
};

/// An admin listener on an ephemeral loopback port serving `pages`, named
/// "admin" as in the daemon. Not started.
std::unique_ptr<net::HttpServer> MakeAdminServer(
    AdminPages* pages, MetricsRegistry* registry = nullptr, int port = 0) {
  net::HttpServerOptions options;
  options.name = "admin";
  options.port = port;
  auto server = std::make_unique<net::HttpServer>(options, registry);
  server->set_handler(pages->Handler());
  return server;
}

uint64_t CounterValue(const MetricsRegistry& registry,
                      const std::string& name) {
  const MetricsSnapshot snap = registry.Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// The admin listener: routing and lifecycle with pages over no subsystems.
// ---------------------------------------------------------------------------

TEST(AdminListenerTest, StartsOnEphemeralPortAndServes) {
  AdminPages pages(nullptr, nullptr, nullptr);
  auto server = MakeAdminServer(&pages);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_GT(server->port(), 0);
  EXPECT_TRUE(server->running());

  const auto result =
      net::HttpClient("127.0.0.1", server->port()).Get("/healthz");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, 200);
  EXPECT_EQ(result->body, "ok\n");
  EXPECT_NE(result->Header("content-type").find("text/plain"),
            std::string::npos);
  server->Stop();
  EXPECT_FALSE(server->running());
  server->Stop();  // Second Stop is a no-op.
  EXPECT_FALSE(server->running());
}

TEST(AdminListenerTest, UnknownPathIs404ListingEndpoints) {
  AdminPages pages(nullptr, nullptr, nullptr);
  auto server = MakeAdminServer(&pages);
  ASSERT_TRUE(server->Start().ok());
  const auto result = net::HttpClient("127.0.0.1", server->port()).Get("/nope");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, 404);
  EXPECT_NE(result->body.find("/nope"), std::string::npos);
  for (const char* endpoint : {"/metrics", "/healthz", "/pprof/profile",
                               "/timeseriesz", "/qosz"}) {
    EXPECT_NE(result->body.find(endpoint), std::string::npos) << endpoint;
  }
}

TEST(AdminListenerTest, NonGetMethodsAre405) {
  AdminPages pages(nullptr, nullptr, nullptr);
  auto server = MakeAdminServer(&pages);
  ASSERT_TRUE(server->Start().ok());
  const auto result =
      net::HttpClient("127.0.0.1", server->port()).Post("/healthz", "");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->status, 405);
}

TEST(AdminListenerTest, PortConflictFailsCleanly) {
  AdminPages pages(nullptr, nullptr, nullptr);
  auto first = MakeAdminServer(&pages);
  ASSERT_TRUE(first->Start().ok());

  auto second = MakeAdminServer(&pages, nullptr, first->port());
  const Status status = second->Start();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(second->running());
  // The failure names the listener's own address, and the first listener
  // keeps serving.
  EXPECT_NE(status.ToString().find(std::to_string(first->port())),
            std::string::npos);
  const auto result =
      net::HttpClient("127.0.0.1", first->port()).Get("/healthz");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, 200);
}

TEST(AdminListenerTest, StopWithoutStartIsSafe) {
  AdminPages pages(nullptr, nullptr, nullptr);
  auto server = MakeAdminServer(&pages);
  server->Stop();  // Never started; must not crash or hang.
  EXPECT_FALSE(server->running());
  EXPECT_EQ(server->port(), -1);
}

TEST(AdminListenerTest, ConcurrentClientsAllServed) {
  MetricsRegistry registry;
  AdminPages pages(nullptr, nullptr, nullptr);
  auto server = MakeAdminServer(&pages, &registry);
  ASSERT_TRUE(server->Start().ok());
  const int port = server->port();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto result = net::HttpClient("127.0.0.1", port).Get("/healthz");
        if (result.ok() && result->status == 200) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_EQ(CounterValue(registry, "admin.requests_total"),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(CounterValue(registry, "admin.responses_2xx_total"),
            static_cast<uint64_t>(kThreads * kPerThread));
}

// /healthz must stay answerable while a profile capture blocks for seconds:
// the capture runs on its own thread, never on the admin event loop.
TEST(AdminListenerTest, HealthzAnswersDuringProfileCapture) {
  AdminPages pages(nullptr, nullptr, nullptr);
  auto server = MakeAdminServer(&pages);
  ASSERT_TRUE(server->Start().ok());
  const int port = server->port();

  std::atomic<bool> profile_done{false};
  int profile_status = 0;
  std::thread profiler([&] {
    const auto profile = net::HttpClient("127.0.0.1", port, 30000)
                             .Get("/pprof/profile?seconds=3");
    profile_status = profile.ok() ? profile->status : -1;
    profile_done.store(true);
  });
  // Let the capture request reach its thread before probing.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const auto start = std::chrono::steady_clock::now();
  const auto healthz = net::HttpClient("127.0.0.1", port).Get("/healthz");
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  const bool capture_in_flight = !profile_done.load();
  profiler.join();

  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz->status, 200);
  EXPECT_LT(elapsed_s, 1.0);
  EXPECT_TRUE(capture_in_flight);
  EXPECT_EQ(profile_status, 200);
}

// ---------------------------------------------------------------------------
// AdminPages over a live ExtractionService.
// ---------------------------------------------------------------------------

class AdminPagesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new ColumnIndex(synth::BuildBackgroundIndex(
        synth::CorpusProfile::kWeb, /*num_tables=*/800, /*seed=*/404));
    stats_ = new CorpusStats(index_);
    extractor_ = new TegraExtractor(stats_);
    // AdminPages consumes the corpus through a CorpusManager; wrap the
    // fixture index in a non-owning view (no file backing, generation 1).
    manager_ = new store::CorpusManager(
        std::shared_ptr<const CorpusView>(index_, [](const CorpusView*) {}),
        /*path=*/"");
  }
  static void TearDownTestSuite() {
    delete manager_;
    delete extractor_;
    delete stats_;
    delete index_;
    manager_ = nullptr;
    extractor_ = nullptr;
    stats_ = nullptr;
    index_ = nullptr;
  }

  static ExtractionRequest MakeRequest(size_t rotate = 0) {
    static const std::vector<std::string> base = {
        "Boston Massachusetts 645,966",
        "Worcester Massachusetts 182,544",
        "Providence Rhode Island 178,042",
        "Hartford Connecticut 124,775",
        "Springfield Massachusetts 153,060",
        "Bridgeport Connecticut 144,229",
    };
    ExtractionRequest request;
    for (size_t j = 0; j < base.size(); ++j) {
      request.lines.push_back(base[(rotate + j) % base.size()]);
    }
    return request;
  }

  static ColumnIndex* index_;
  static CorpusStats* stats_;
  static TegraExtractor* extractor_;
  static store::CorpusManager* manager_;
};

ColumnIndex* AdminPagesTest::index_ = nullptr;
CorpusStats* AdminPagesTest::stats_ = nullptr;
TegraExtractor* AdminPagesTest::extractor_ = nullptr;
store::CorpusManager* AdminPagesTest::manager_ = nullptr;

TEST_F(AdminPagesTest, AllPagesRespondOverSockets) {
  MetricsRegistry registry;
  ScopedBindMetrics bind(&registry);
  ExtractionService service(extractor_, {}, &registry);
  AdminPages pages(&service, &trace::Tracer::Global(), manager_);
  auto server = MakeAdminServer(&pages, &registry);
  ASSERT_TRUE(server->Start().ok());

  // Drive one extraction through so the pages have content to show.
  const ExtractionResponse response = service.SubmitAndWait(MakeRequest());
  ASSERT_TRUE(response.ok()) << response.status.ToString();

  const std::vector<std::string> endpoints = {
      "/", "/metrics", "/healthz", "/readyz", "/statusz", "/tracez",
      "/slowlogz", "/varz"};
  for (const std::string& endpoint : endpoints) {
    const auto result =
        net::HttpClient("127.0.0.1", server->port()).Get(endpoint);
    ASSERT_TRUE(result.ok()) << endpoint << ": " << result.status().ToString();
    EXPECT_EQ(result->status, 200) << endpoint << "\n" << result->body;
    EXPECT_FALSE(result->body.empty()) << endpoint;
  }

  // /metrics speaks the Prometheus exposition format and carries both the
  // quality histogram and the build-info marker.
  const auto metrics =
      net::HttpClient("127.0.0.1", server->port()).Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  const auto ct = metrics->headers.find("content-type");
  ASSERT_NE(ct, metrics->headers.end());
  EXPECT_NE(ct->second.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics->body.find("tegra_extract_sp_score_bucket"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("tegra_build_info{git_sha="),
            std::string::npos);
  EXPECT_NE(metrics->body.find("tegra_service_requests_total"),
            std::string::npos);

  // /varz is parseable JSON, self-identifies the build, and carries uptime.
  const auto varz = net::HttpClient("127.0.0.1", server->port()).Get("/varz");
  ASSERT_TRUE(varz.ok());
  const auto varz_json = ParseJson(varz->body);
  ASSERT_TRUE(varz_json.ok()) << varz_json.status().ToString();
  EXPECT_TRUE((*varz_json)["build"].is_object());
  EXPECT_GT((*varz_json)["gauges"]["process.uptime_seconds"].AsNumber(-1), 0);

  // /tracez is loadable Chrome trace JSON.
  const auto tracez =
      net::HttpClient("127.0.0.1", server->port()).Get("/tracez");
  ASSERT_TRUE(tracez.ok());
  const auto trace_json = ParseJson(tracez->body);
  ASSERT_TRUE(trace_json.ok()) << trace_json.status().ToString();
  EXPECT_TRUE((*trace_json)["traceEvents"].is_array());

  // /slowlogz?format=json renders the shared shape with the sp field.
  const auto slowlog =
      net::HttpClient("127.0.0.1", server->port()).Get("/slowlogz?format=json");
  ASSERT_TRUE(slowlog.ok());
  const auto slow_json = ParseJson(slowlog->body);
  ASSERT_TRUE(slow_json.ok()) << slow_json.status().ToString();
  const auto& records = (*slow_json)["records"].AsArray();
  ASSERT_GE(records.size(), 1u);
  EXPECT_GE(records[0]["sp"].AsNumber(-1), 0) << slowlog->body;
}

TEST_F(AdminPagesTest, QueryParametersAreDecodedAndDispatched) {
  MetricsRegistry registry;
  ExtractionService service(extractor_, {}, &registry);
  AdminPages pages(&service, &trace::Tracer::Global(), manager_);
  auto server = MakeAdminServer(&pages, &registry);
  ASSERT_TRUE(server->Start().ok());
  net::HttpClient client("127.0.0.1", server->port());

  // "%6Ason" decodes to "json": the page sees the decoded parameter.
  const auto json = client.Get("/slowlogz?format=%6Ason&x=a%20b");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->status, 200);
  EXPECT_NE(json->Header("content-type").find("application/json"),
            std::string::npos);
  EXPECT_TRUE(ParseJson(json->body).ok()) << json->body;

  const auto html = client.Get("/slowlogz");
  ASSERT_TRUE(html.ok());
  EXPECT_NE(html->Header("content-type").find("text/html"),
            std::string::npos);
}

TEST_F(AdminPagesTest, SlowlogzShowsTheDegradationRung) {
  // Per-rung engines plus a ladder held at rung 1: every request executes
  // degraded, and /slowlogz must say so.
  qos::RungEngine rungs(stats_, extractor_->options());
  FixedExtractorSource source(extractor_);
  source.set_rungs(&rungs);
  qos::DegradationController controller(qos::DegradationOptions{}, nullptr);
  qos::QosSignals overloaded;
  overloaded.queue_fraction = 1.0;  // pressure 2 at the default target
  controller.Evaluate(overloaded, 0.0);
  ASSERT_EQ(controller.Evaluate(overloaded, 1.0), 1);

  MetricsRegistry registry;
  ServiceOptions options;
  options.degradation = &controller;
  ExtractionService service(&source, options, &registry);
  ExtractionRequest request = MakeRequest();
  request.request_id = 77;
  const ExtractionResponse response = service.SubmitAndWait(request);
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.event.quality_level, 1);

  AdminPages pages(&service, &trace::Tracer::Global(), manager_);
  auto server = MakeAdminServer(&pages, &registry);
  ASSERT_TRUE(server->Start().ok());
  net::HttpClient client("127.0.0.1", server->port());
  const auto json = client.Get("/slowlogz?format=json");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const auto parsed = ParseJson(json->body);
  ASSERT_TRUE(parsed.ok()) << json->body;
  const auto& records = (*parsed)["records"].AsArray();
  ASSERT_EQ(records.size(), 1u) << json->body;
  EXPECT_EQ(records[0]["quality_level"].AsNumber(-1), 1) << json->body;
  EXPECT_EQ(records[0]["corpus_generation"].AsNumber(-1), 1) << json->body;
  EXPECT_EQ(records[0]["request_id"].AsNumber(-1), 77) << json->body;
  EXPECT_EQ(records[0]["outcome"].AsString(), "ok");

  const auto html = client.Get("/slowlogz");
  ASSERT_TRUE(html.ok());
  EXPECT_NE(html->body.find("1 (anchor_budget)"), std::string::npos)
      << html->body;
}

TEST(SlowlogzTest, JsonRenderingIncludesSpAndSpans) {
  prof::SlowEventLog log(4);
  prof::WideEvent rec;
  rec.trace_id = 11;
  rec.total_seconds = 0.5;
  rec.queue_seconds = 0.125;
  rec.extract_seconds = 0.375;
  rec.num_lines = 8;
  rec.num_columns = 3;
  rec.outcome = "ok";
  rec.sp_score = 0.31;
  trace::TraceEvent span;
  span.name = "extract";
  span.category = "core";
  span.span_id = 1;
  span.duration_us = 500;
  rec.spans.push_back(span);
  log.Add(rec);

  const JsonValue out = SlowlogToJson(log);
  EXPECT_TRUE(out["ok"].AsBool(false));
  const auto& records = out["records"].AsArray();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0]["sp"].AsNumber(-1), 0.31);
  EXPECT_DOUBLE_EQ(records[0]["total_ms"].AsNumber(0), 500.0);
  const auto& spans = records[0]["spans"].AsArray();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0]["name"].AsString(), "extract");
  // The dump is one NDJSON-safe line.
  const std::string dump = out.Dump();
  EXPECT_EQ(dump.find('\n'), std::string::npos);
}

TEST_F(AdminPagesTest, ReadyzReports503WhenQueueSaturated) {
  MetricsRegistry registry;
  ServiceOptions service_options;
  service_options.max_queue_depth = 4;
  ExtractionService service(extractor_, service_options, &registry);
  AdminPages pages(&service, &trace::Tracer::Global(), manager_);

  // Healthy: ready.
  net::HttpResponse ready = pages.Readyz(net::HttpRequest());
  EXPECT_EQ(ready.status, 200);

  // Deterministic saturation via the queue-depth hook: at the threshold the
  // page must flip to 503 and explain itself.
  pages.set_queue_depth_fn([] { return size_t{4}; });
  ready = pages.Readyz(net::HttpRequest());
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("queue saturated"), std::string::npos)
      << ready.body;

  pages.set_queue_depth_fn([] { return size_t{3}; });
  EXPECT_EQ(pages.Readyz(net::HttpRequest()).status, 200);
}

TEST_F(AdminPagesTest, ReadyzReports503WithoutServiceOrCorpus) {
  AdminPages no_service(nullptr, nullptr, nullptr);
  net::HttpResponse response = no_service.Readyz(net::HttpRequest());
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("not attached"), std::string::npos);

  MetricsRegistry registry;
  ExtractionService service(extractor_, {}, &registry);
  AdminPages no_corpus(&service, nullptr, nullptr);
  response = no_corpus.Readyz(net::HttpRequest());
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("corpus"), std::string::npos);
}

TEST_F(AdminPagesTest, ReadyzReports503DuringShutdown) {
  MetricsRegistry registry;
  auto* service = new ExtractionService(extractor_, {}, &registry);
  AdminPages pages(service, nullptr, manager_);
  EXPECT_EQ(pages.Readyz(net::HttpRequest()).status, 200);
  service->Shutdown();
  net::HttpResponse response = pages.Readyz(net::HttpRequest());
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("shutting down"), std::string::npos);
  delete service;
}

TEST_F(AdminPagesTest, StatuszShowsBuildCorpusAndQuality) {
  MetricsRegistry registry;
  ScopedBindMetrics bind(&registry);
  ExtractionService service(extractor_, {}, &registry);
  AdminPagesOptions options;
  options.corpus_description = "synthetic web:800:404";
  AdminPages pages(&service, &trace::Tracer::Global(), manager_, options);

  const ExtractionResponse response = service.SubmitAndWait(MakeRequest(1));
  ASSERT_TRUE(response.ok());

  const net::HttpResponse statusz = pages.Statusz(net::HttpRequest());
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.content_type.find("text/html"), std::string::npos);
  EXPECT_NE(statusz.body.find("git_sha"), std::string::npos);
  EXPECT_NE(statusz.body.find("synthetic web:800:404"), std::string::npos);
  EXPECT_NE(statusz.body.find("extraction quality"), std::string::npos);
  EXPECT_NE(statusz.body.find("sp_score"), std::string::npos);
  EXPECT_NE(statusz.body.find("max_queue_depth"), std::string::npos);
}

// Both listeners record into one registry under their own prefixes: admin
// traffic must never show up in the data plane's net.* series.
TEST_F(AdminPagesTest, AdminScrapesLeaveDataPlaneMetricsUnchanged) {
  MetricsRegistry registry;
  ExtractionService service(extractor_, {}, &registry);
  net::HttpServer data_plane(net::HttpServerOptions{}, &registry);
  data_plane.set_handler(
      [](const net::HttpRequest&, net::ResponseCallback done) {
        done(net::HttpResponse::Text(200, "extracted\n"));
      });
  ASSERT_TRUE(data_plane.Start().ok());
  AdminPages pages(&service, &trace::Tracer::Global(), manager_);
  pages.set_data_plane(&data_plane);
  auto admin = MakeAdminServer(&pages, &registry);
  ASSERT_TRUE(admin->Start().ok());

  ASSERT_TRUE(
      net::HttpClient("127.0.0.1", data_plane.port()).Post("/v1/extract", "{}")
          .ok());
  const uint64_t net_before = CounterValue(registry, "net.requests_total");
  const uint64_t admin_before = CounterValue(registry, "admin.requests_total");
  EXPECT_EQ(net_before, 1u);

  constexpr int kScrapes = 5;
  net::HttpClient scraper("127.0.0.1", admin->port());
  for (int i = 0; i < kScrapes; ++i) {
    const auto scrape = scraper.Get(i % 2 == 0 ? "/metrics" : "/varz");
    ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
    EXPECT_EQ(scrape->status, 200);
  }
  EXPECT_EQ(CounterValue(registry, "net.requests_total"), net_before);
  EXPECT_EQ(CounterValue(registry, "admin.requests_total"),
            admin_before + kScrapes);
  admin->Stop();
  data_plane.Stop();
}

// The TSan case: /metrics scrapes racing extractions.
// Run extraction load on several client threads while a scraper hammers the
// endpoint; every scrape must return a well-formed 200 and the final counters
// must be exact.
TEST_F(AdminPagesTest, ConcurrentScrapesDuringExtractions) {
  MetricsRegistry registry;
  ScopedBindMetrics bind(&registry);
  ServiceOptions service_options;
  service_options.num_workers = 2;
  ExtractionService service(extractor_, service_options, &registry);
  AdminPages pages(&service, &trace::Tracer::Global(), manager_);
  auto server = MakeAdminServer(&pages, &registry);
  ASSERT_TRUE(server->Start().ok());

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 6;
  std::atomic<bool> done{false};
  std::atomic<int> scrapes_ok{0};
  std::atomic<int> scrapes_bad{0};

  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto result =
          net::HttpClient("127.0.0.1", server->port()).Get("/metrics");
      if (result.ok() && result->status == 200 &&
          result->body.find("tegra_build_info") != std::string::npos) {
        scrapes_ok.fetch_add(1);
      } else {
        scrapes_bad.fetch_add(1);
      }
      // Also exercise the JSON path, which walks the same histograms.
      const auto varz =
          net::HttpClient("127.0.0.1", server->port()).Get("/varz");
      if (!varz.ok() || varz->status != 200) scrapes_bad.fetch_add(1);
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> extract_ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ExtractionRequest request = MakeRequest(c * kRequestsPerClient + i);
        request.bypass_cache = true;  // Force real extractor work every time.
        const ExtractionResponse response =
            service.SubmitAndWait(std::move(request));
        if (response.ok()) extract_ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(extract_ok.load(), kClients * kRequestsPerClient);
  EXPECT_GT(scrapes_ok.load(), 0);
  EXPECT_EQ(scrapes_bad.load(), 0);

  // After the dust settles, the scrape totals must be exact, not torn.
  const auto final_scrape =
      net::HttpClient("127.0.0.1", server->port()).Get("/metrics");
  ASSERT_TRUE(final_scrape.ok());
  // Line-anchored so the "# TYPE ..." comment line cannot match first.
  const std::string needle = "\ntegra_service_completed_total ";
  const size_t pos = final_scrape->body.find(needle);
  ASSERT_NE(pos, std::string::npos);
  const int completed =
      std::atoi(final_scrape->body.c_str() + pos + needle.size());
  EXPECT_EQ(completed, kClients * kRequestsPerClient);
}

// Stop() racing in-flight requests must not deadlock, crash or leak threads.
TEST_F(AdminPagesTest, StopWhileClientsAreFetching) {
  MetricsRegistry registry;
  ExtractionService service(extractor_, {}, &registry);
  AdminPages pages(&service, &trace::Tracer::Global(), manager_);
  auto server = MakeAdminServer(&pages, &registry);
  ASSERT_TRUE(server->Start().ok());
  const int port = server->port();

  std::atomic<bool> stop_clients{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      while (!stop_clients.load(std::memory_order_acquire)) {
        // Failures are expected once the server goes down; only liveness
        // matters here.
        (void)net::HttpClient("127.0.0.1", port, /*timeout_ms=*/1000)
            .Get("/statusz");
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->Stop();
  stop_clients.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  EXPECT_FALSE(server->running());
}

}  // namespace
}  // namespace serve
}  // namespace tegra
