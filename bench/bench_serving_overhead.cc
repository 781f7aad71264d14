// bench_serving_overhead — answers "what does an always-on serving feature
// cost the extraction path?": closed-loop extraction throughput with the
// feature on vs. off, one feature (arm) per run:
//
//  * --arm admin: a concurrent /metrics scraper. The admin pages run on
//    their own net::HttpServer listener (one event-loop thread, named
//    "admin" as in tegra_serve) and share nothing with the extraction
//    workers except the (lock-free on the hot path) metrics registry, so
//    the budget documented in docs/OBSERVABILITY.md is < 2% throughput
//    delta at a 10 Hz scrape rate.
//  * --arm health: the full recorder pipeline (metrics snapshot ->
//    time-series ingest -> SLO evaluation -> watchdog scan, plus per-task
//    heartbeat stamps) vs. --health-interval-ms=0. The heartbeat stamps are
//    two relaxed atomic stores per task and the recorder runs off-thread
//    once a second, so the budget documented in docs/OBSERVABILITY.md is
//    < 2% throughput delta.
//
//   ./bench_serving_overhead --arm admin|health [--seconds S] [--clients N]
//                            [--rounds R] [--scrape-hz HZ] [--interval-ms MS]
//
// Rounds alternate baseline / treatment so thermal and cache drift hit both
// arms equally; the report shows per-round and aggregate throughput.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "corpus/column_index.h"
#include "corpus/corpus_stats.h"
#include "health/monitor.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "service/admin_pages.h"
#include "service/extraction_service.h"
#include "store/corpus_manager.h"
#include "synth/corpus_gen.h"
#include "trace/trace.h"

namespace {

using tegra::serve::AdminPages;
using tegra::serve::ExtractionRequest;
using tegra::serve::ExtractionService;
using tegra::serve::ServiceOptions;

struct BenchConfig {
  std::string arm;
  double seconds_per_round = 1.5;
  int clients = 2;
  double scrape_hz = 10.0;      // --arm admin
  double interval_ms = 1000.0;  // --arm health
  int rounds = 3;  // Per arm; total rounds = 2 * rounds (alternating).
};

std::vector<std::string> MakeList(size_t rotate) {
  static const std::vector<std::string> base = {
      "Boston Massachusetts 645,966",    "Worcester Massachusetts 182,544",
      "Providence Rhode Island 178,042", "Hartford Connecticut 124,775",
      "Springfield Massachusetts 153,060", "Bridgeport Connecticut 144,229",
      "New Haven Connecticut 129,779",   "Stamford Connecticut 122,643",
  };
  std::vector<std::string> lines;
  for (size_t j = 0; j < base.size(); ++j) {
    lines.push_back(base[(rotate + j) % base.size()]);
  }
  return lines;
}

/// One timed round of closed-loop extraction load; returns requests/second.
double RunRound(ExtractionService* service, const BenchConfig& config) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ExtractionRequest request;
        request.lines = MakeList((static_cast<size_t>(c) * 131 + i++) % 8);
        request.bypass_cache = true;  // Measure extraction, not the cache.
        const auto response = service->SubmitAndWait(std::move(request));
        if (response.ok()) completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(config.seconds_per_round));
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(completed.load()) / elapsed;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// The feature under measurement, switched on for the treatment rounds.
class Arm {
 public:
  virtual ~Arm() = default;
  virtual void SetOn(bool on) = 0;
  /// Per-round label of the treatment rounds.
  virtual const char* label() const = 0;
  /// "with 10 Hz scraper" — names the treatment in the summary line.
  virtual std::string treatment() const = 0;
  /// "scrapes served N" — proof the feature actually ran.
  virtual std::string work_done() const = 0;
};

/// A /metrics scraper against an admin listener over the service.
class ScraperArm : public Arm {
 public:
  ScraperArm(ExtractionService* service, const tegra::ColumnIndex* index,
             tegra::MetricsRegistry* registry, double scrape_hz)
      : manager_(std::shared_ptr<const tegra::CorpusView>(
                     index, [](const tegra::CorpusView*) {}),
                 /*path=*/""),
        pages_(service, &tegra::trace::Tracer::Global(), &manager_),
        admin_(AdminOptions(), registry),
        scrape_hz_(scrape_hz) {
    admin_.set_handler(pages_.Handler());
  }

  ~ScraperArm() override {
    exit_.store(true, std::memory_order_release);
    if (scraper_.joinable()) scraper_.join();
    admin_.Stop();
  }

  bool Start() {
    if (!admin_.Start().ok()) return false;
    const int port = admin_.port();
    scraper_ = std::thread([this, port] {
      const auto period =
          std::chrono::duration<double>(1.0 / std::max(0.1, scrape_hz_));
      while (!exit_.load(std::memory_order_acquire)) {
        if (on_.load(std::memory_order_acquire)) {
          const auto result =
              tegra::net::HttpClient("127.0.0.1", port).Get("/metrics");
          if (result.ok() && result->status == 200) {
            scrapes_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        std::this_thread::sleep_for(period);
      }
    });
    return true;
  }

  void SetOn(bool on) override { on_.store(on, std::memory_order_release); }
  const char* label() const override { return "scraped"; }
  std::string treatment() const override {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "with %.0f Hz scraper", scrape_hz_);
    return buf;
  }
  std::string work_done() const override {
    return "scrapes served " + std::to_string(scrapes_.load());
  }

 private:
  static tegra::net::HttpServerOptions AdminOptions() {
    tegra::net::HttpServerOptions options;
    options.name = "admin";
    return options;
  }

  tegra::store::CorpusManager manager_;
  AdminPages pages_;
  tegra::net::HttpServer admin_;
  const double scrape_hz_;
  std::atomic<bool> on_{false};
  std::atomic<bool> exit_{false};
  std::atomic<uint64_t> scrapes_{0};
  std::thread scraper_;
};

/// The health recorder thread; off is the daemon's --health-interval-ms=0.
class RecorderArm : public Arm {
 public:
  RecorderArm(tegra::health::HealthMonitor* monitor, double interval_ms)
      : monitor_(monitor), interval_ms_(interval_ms) {}
  ~RecorderArm() override { monitor_->Stop(); }

  void SetOn(bool on) override {
    if (on) {
      monitor_->Start();
    } else {
      monitor_->Stop();
    }
  }
  const char* label() const override { return "recorded"; }
  std::string treatment() const override {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "recorder @ %.0f ms", interval_ms_);
    return buf;
  }
  std::string work_done() const override {
    return "recorder ticks " + std::to_string(monitor_->store()->ticks());
  }

 private:
  tegra::health::HealthMonitor* monitor_;
  const double interval_ms_;
};

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--arm") == 0) {
      config.arm = argv[++i];
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      config.seconds_per_round = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      config.clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scrape-hz") == 0) {
      config.scrape_hz = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--interval-ms") == 0) {
      config.interval_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      config.rounds = std::atoi(argv[++i]);
    }
  }
  if (config.arm != "admin" && config.arm != "health") {
    std::fprintf(stderr,
                 "usage: %s --arm admin|health [--seconds S] [--clients N] "
                 "[--rounds R] [--scrape-hz HZ] [--interval-ms MS]\n",
                 argv[0]);
    return 2;
  }

  std::fprintf(stderr, "building corpus...\n");
  tegra::ColumnIndex index = tegra::synth::BuildBackgroundIndex(
      tegra::synth::CorpusProfile::kWeb, /*num_tables=*/2000, /*seed=*/11);
  tegra::CorpusStats stats(&index);
  tegra::TegraExtractor extractor(&stats);

  tegra::MetricsRegistry registry;
  tegra::trace::Tracer::Global().BindMetrics(&registry);
  ServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.result_cache_capacity = 0;

  // Both health rounds run the same service construction: heartbeats
  // registered, ScopedWork stamping every task. The treatment adds the
  // recorder thread; the baseline leaves it stopped (interval 0, the
  // daemon's --health-interval-ms=0 shape). This isolates exactly what the
  // flag toggles in production.
  std::unique_ptr<tegra::health::HealthMonitor> monitor;
  if (config.arm == "health") {
    tegra::health::HealthOptions health_options;
    health_options.interval_seconds = config.interval_ms / 1e3;
    monitor = std::make_unique<tegra::health::HealthMonitor>(
        &registry, std::move(health_options));
    service_options.heartbeats = monitor->heartbeats();
  }
  ExtractionService service(&extractor, service_options, &registry);

  std::unique_ptr<Arm> arm;
  if (monitor != nullptr) {
    arm = std::make_unique<RecorderArm>(monitor.get(), config.interval_ms);
  } else {
    auto scraper = std::make_unique<ScraperArm>(&service, &index, &registry,
                                                config.scrape_hz);
    if (!scraper->Start()) {
      std::fprintf(stderr, "failed to start admin server\n");
      return 1;
    }
    arm = std::move(scraper);
  }

  // Warm-up: populate the co-occurrence cache so round 1 is not special.
  RunRound(&service, config);

  std::vector<double> baseline, treated;
  std::printf("round  arm        req/s\n");
  for (int round = 0; round < config.rounds; ++round) {
    arm->SetOn(false);
    const double off = RunRound(&service, config);
    baseline.push_back(off);
    std::printf("%-6d baseline  %8.1f\n", round, off);

    arm->SetOn(true);
    const double on = RunRound(&service, config);
    treated.push_back(on);
    std::printf("%-6d %-9s %8.1f\n", round, arm->label(), on);
    std::fflush(stdout);
  }
  arm->SetOn(false);

  const double base_mean = Mean(baseline);
  const double treated_mean = Mean(treated);
  const double delta_pct =
      base_mean > 0 ? 100.0 * (base_mean - treated_mean) / base_mean : 0.0;
  std::printf("\nbaseline %.1f req/s | %s %.1f req/s | delta %.2f%% | %s\n",
              base_mean, arm->treatment().c_str(), treated_mean, delta_pct,
              arm->work_done().c_str());
  std::printf("budget: < 2%% throughput delta (docs/OBSERVABILITY.md)\n");
  arm.reset();
  tegra::trace::Tracer::Global().BindMetrics(nullptr);
  return 0;
}
