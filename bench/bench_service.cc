// Microbenchmarks for the serving layer: end-to-end ExtractionService
// latency (cold vs. result-cache hit), submission overhead under admission
// control, and the sharded-LRU / metrics primitives that sit on the hot path.
//
//   ./bench_service --benchmark_filter=Service

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus_stats.h"
#include "service/extraction_service.h"
#include "common/lru_cache.h"
#include "common/metrics.h"
#include "synth/corpus_gen.h"
#include "corpus/column_index.h"

namespace {

using tegra::serve::ExtractionRequest;
using tegra::serve::ExtractionService;
using tegra::serve::ServiceOptions;

struct ServeFixture {
  ServeFixture()
      : index(tegra::synth::BuildBackgroundIndex(
            tegra::synth::CorpusProfile::kWeb, /*num_tables=*/2000,
            /*seed=*/11)),
        stats(&index),
        extractor(&stats) {}

  static const ServeFixture& Get() {
    static const ServeFixture fixture;
    return fixture;
  }

  std::vector<std::string> List() const {
    return {
        "Boston Massachusetts 645,966",   "Worcester Massachusetts 182,544",
        "Providence Rhode Island 178,042", "Hartford Connecticut 124,775",
        "Springfield Massachusetts 153,060",
    };
  }

  tegra::ColumnIndex index;
  tegra::CorpusStats stats;
  tegra::TegraExtractor extractor;
};

void BM_ServiceColdExtraction(benchmark::State& state) {
  const ServeFixture& fixture = ServeFixture::Get();
  ServiceOptions options;
  options.num_workers = 2;
  options.result_cache_capacity = 0;  // Force a real extraction per request.
  ExtractionService service(&fixture.extractor, options);
  const auto lines = fixture.List();
  for (auto _ : state) {
    ExtractionRequest request;
    request.lines = lines;
    request.bypass_cache = true;
    auto response = service.SubmitAndWait(std::move(request));
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServiceColdExtraction)->Unit(benchmark::kMicrosecond);

void BM_ServiceCacheHit(benchmark::State& state) {
  const ServeFixture& fixture = ServeFixture::Get();
  ExtractionService service(&fixture.extractor);
  const auto lines = fixture.List();
  {
    ExtractionRequest warmup;
    warmup.lines = lines;
    service.SubmitAndWait(std::move(warmup));
  }
  for (auto _ : state) {
    ExtractionRequest request;
    request.lines = lines;
    auto response = service.SubmitAndWait(std::move(request));
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServiceCacheHit)->Unit(benchmark::kMicrosecond);

void BM_ServiceConcurrentClients(benchmark::State& state) {
  // Measures aggregate throughput with N client threads sharing one service
  // (google/benchmark re-invokes this function once per thread).
  static std::unique_ptr<ExtractionService> service;
  const ServeFixture& fixture = ServeFixture::Get();
  if (state.thread_index() == 0) {
    ServiceOptions options;
    options.num_workers = 4;
    options.max_queue_depth = 256;
    service = std::make_unique<ExtractionService>(&fixture.extractor, options);
  }
  const auto lines = fixture.List();
  for (auto _ : state) {
    ExtractionRequest request;
    request.lines = lines;
    auto response = service->SubmitAndWait(std::move(request));
    benchmark::DoNotOptimize(response);
  }
  if (state.thread_index() == 0) {
    state.SetItemsProcessed(state.iterations() * state.threads());
    service.reset();
  }
}
BENCHMARK(BM_ServiceConcurrentClients)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->Unit(benchmark::kMicrosecond);

void BM_RequestCacheKey(benchmark::State& state) {
  const auto lines = ServeFixture::Get().List();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tegra::serve::RequestCacheKey(lines, 3));
  }
}
BENCHMARK(BM_RequestCacheKey);

void BM_ShardedLruGetHit(benchmark::State& state) {
  tegra::ShardedLruCache<uint64_t, uint32_t> cache(1 << 16, 16);
  for (uint64_t i = 0; i < 1024; ++i) cache.Put(i, static_cast<uint32_t>(i));
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(key));
    key = (key + 1) & 1023;
  }
}
BENCHMARK(BM_ShardedLruGetHit);

void BM_HistogramObserve(benchmark::State& state) {
  tegra::Histogram histogram;
  double v = 1e-4;
  for (auto _ : state) {
    histogram.Observe(v);
    v = v < 1.0 ? v * 1.01 : 1e-4;
  }
}
BENCHMARK(BM_HistogramObserve);

}  // namespace

BENCHMARK_MAIN();
