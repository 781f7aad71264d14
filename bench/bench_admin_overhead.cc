// bench_admin_overhead — answers "what does the HTTP admin plane cost the
// serving path?": extraction throughput with a concurrent /metrics scraper
// vs. without one. The admin pages run on their own net::HttpServer
// listener (one event-loop thread, named "admin" as in tegra_serve) and
// share nothing with the extraction workers except the (lock-free on the
// hot path) metrics registry, so the budget documented in
// docs/OBSERVABILITY.md is < 2% throughput delta at a 10 Hz scrape rate.
//
//   ./bench_admin_overhead [--seconds S] [--clients N] [--scrape-hz HZ]
//                          [--rounds R]
//
// Rounds alternate baseline / scraped so thermal and cache drift hit both
// arms equally; the report shows per-round and aggregate throughput.

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

#include "corpus/corpus_stats.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "service/admin_pages.h"
#include "service/extraction_service.h"
#include "store/corpus_manager.h"
#include "synth/corpus_gen.h"
#include "trace/trace.h"
#include "corpus/column_index.h"

namespace {

using tegra::serve::AdminPages;
using tegra::serve::ExtractionRequest;
using tegra::serve::ExtractionService;
using tegra::serve::ServiceOptions;

struct BenchConfig {
  double seconds_per_round = 1.5;
  int clients = 2;
  double scrape_hz = 10.0;
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

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--seconds") == 0) {
      config.seconds_per_round = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      config.clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scrape-hz") == 0) {
      config.scrape_hz = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      config.rounds = std::atoi(argv[++i]);
    }
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
  ExtractionService service(&extractor, service_options, &registry);

  tegra::store::CorpusManager manager(
      std::shared_ptr<const tegra::CorpusView>(&index,
                                               [](const tegra::CorpusView*) {}),
      /*path=*/"");
  AdminPages pages(&service, &tegra::trace::Tracer::Global(), &manager);
  tegra::net::HttpServerOptions admin_options;
  admin_options.name = "admin";
  tegra::net::HttpServer admin(admin_options, &registry);
  admin.set_handler(pages.Handler());
  if (!admin.Start().ok()) {
    std::fprintf(stderr, "failed to start admin server\n");
    return 1;
  }
  const int port = admin.port();

  // Warm-up: populate the co-occurrence cache so round 1 is not special.
  RunRound(&service, config);

  std::atomic<bool> scraper_on{false};
  std::atomic<bool> scraper_exit{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    const auto period =
        std::chrono::duration<double>(1.0 / std::max(0.1, config.scrape_hz));
    while (!scraper_exit.load(std::memory_order_acquire)) {
      if (scraper_on.load(std::memory_order_acquire)) {
        const auto result =
            tegra::net::HttpClient("127.0.0.1", port).Get("/metrics");
        if (result.ok() && result->status == 200) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::this_thread::sleep_for(period);
    }
  });

  std::vector<double> baseline, scraped;
  std::printf("round  arm        req/s\n");
  for (int round = 0; round < config.rounds; ++round) {
    scraper_on.store(false, std::memory_order_release);
    const double off = RunRound(&service, config);
    baseline.push_back(off);
    std::printf("%-6d baseline  %8.1f\n", round, off);

    scraper_on.store(true, std::memory_order_release);
    const double on = RunRound(&service, config);
    scraped.push_back(on);
    std::printf("%-6d scraped   %8.1f\n", round, on);
    std::fflush(stdout);
  }
  scraper_exit.store(true, std::memory_order_release);
  scraper.join();
  admin.Stop();

  const double base_mean = Mean(baseline);
  const double scraped_mean = Mean(scraped);
  const double delta_pct =
      base_mean > 0 ? 100.0 * (base_mean - scraped_mean) / base_mean : 0.0;
  std::printf(
      "\nbaseline %.1f req/s | with %.0f Hz scraper %.1f req/s | "
      "delta %.2f%% | scrapes served %llu\n",
      base_mean, config.scrape_hz, scraped_mean, delta_pct,
      static_cast<unsigned long long>(scrapes.load()));
  std::printf("budget: < 2%% throughput delta (docs/OBSERVABILITY.md)\n");
  tegra::trace::Tracer::Global().BindMetrics(nullptr);
  return 0;
}
