// Micro-benchmarks (google-benchmark) for the profiling subsystem's overhead
// budget (ISSUE 7 acceptance: 99 Hz continuous sampling + 1% wide-event
// sampling must cost <2% end-to-end).
//
//  * BM_ExtractProfiler{Off,On} — a full unsupervised extraction with the
//    global SIGPROF sampler stopped vs armed at 99 Hz. The Off/On delta is
//    the real cost of always-on profiling in production binaries.
//  * BM_ObserveNoExemplarSource / BM_ObserveWithExemplarSource — per-bucket
//    exemplar capture cost on the histogram hot path (one seqlock write per
//    observation when a source is installed, a null check when not).
//  * BM_WideEventRecordSampled — the per-request cost of the access log at
//    a production 1% tail-sampling rate (most calls decide "drop" from one
//    hash; kept lines serialize + fwrite).
//  * BM_WideEventToJson — serialization alone, for sizing the kept path.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/tegra.h"
#include "corpus/column_index.h"
#include "corpus/corpus_stats.h"
#include "prof/profiler.h"
#include "prof/wide_event.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"

namespace tegra {
namespace {

const ColumnIndex& SmallIndex() {
  static const ColumnIndex* kIndex = [] {
    auto* index = new ColumnIndex(synth::BuildBackgroundIndex(
        synth::CorpusProfile::kWeb, /*num_tables=*/2000, /*seed=*/42));
    return index;
  }();
  return *kIndex;
}

std::vector<std::string> BenchLines() {
  synth::TableGenOptions opts =
      synth::DefaultTableGenOptions(synth::CorpusProfile::kWeb);
  opts.min_cols = 4;
  opts.max_cols = 4;
  opts.min_rows = 12;
  opts.max_rows = 12;
  synth::TableGenerator gen(synth::CorpusProfile::kWeb, opts, /*seed=*/7);
  return synth::MakeBenchmarkInstance(gen.Generate()).lines;
}

// End-to-end: the extraction pipeline with the global sampler stopped vs
// armed at the production default of 99 Hz. The benchmark thread registers
// itself so its stacks are actually captured — an unregistered thread would
// measure only the (cheaper) overflow-ring path.
void ExtractBenchmark(benchmark::State& state, bool profiling) {
  prof::EnsureThreadRegistered("bench-main");
  CorpusStats stats(&SmallIndex());
  TegraExtractor extractor(&stats);
  const std::vector<std::string> lines = BenchLines();
  prof::CpuProfiler& profiler = prof::CpuProfiler::Global();
  if (profiling) profiler.Start(/*hz=*/99);
  for (auto _ : state) {
    auto result = extractor.Extract(lines);
    benchmark::DoNotOptimize(result);
  }
  if (profiling) {
    state.counters["samples"] =
        static_cast<double>(profiler.samples_total());
    profiler.Stop();
  }
}

void BM_ExtractProfilerOff(benchmark::State& state) {
  ExtractBenchmark(state, false);
}
BENCHMARK(BM_ExtractProfilerOff)->Unit(benchmark::kMillisecond);

void BM_ExtractProfilerOn(benchmark::State& state) {
  ExtractBenchmark(state, true);
}
BENCHMARK(BM_ExtractProfilerOn)->Unit(benchmark::kMillisecond);

void BM_ObserveNoExemplarSource(benchmark::State& state) {
  Histogram::SetExemplarSource(nullptr);
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram(
      "bench.observe_seconds", {0.001, 0.01, 0.1, 1.0});
  double value = 0.0;
  for (auto _ : state) {
    histogram->Observe(value);
    value += 1e-6;
    if (value > 1.0) value = 0.0;
  }
}
BENCHMARK(BM_ObserveNoExemplarSource);

bool BenchExemplarSource(uint64_t* trace_id, uint64_t* request_id) {
  *trace_id = 0x1234;
  *request_id = 0x5678;
  return true;
}

void BM_ObserveWithExemplarSource(benchmark::State& state) {
  Histogram::SetExemplarSource(&BenchExemplarSource);
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram(
      "bench.observe_seconds", {0.001, 0.01, 0.1, 1.0});
  double value = 0.0;
  for (auto _ : state) {
    histogram->Observe(value);
    value += 1e-6;
    if (value > 1.0) value = 0.0;
  }
  Histogram::SetExemplarSource(nullptr);
}
BENCHMARK(BM_ObserveWithExemplarSource);

// Per-request access-log cost at the production 1% sample rate. slow_ms is
// pushed out of reach so the sampling hash is the only keep reason; ~99% of
// iterations measure the drop path, ~1% serialize + fwrite to /dev/null.
void BM_WideEventRecordSampled(benchmark::State& state) {
  prof::WideEventLog log;
  std::FILE* sink = std::fopen("/dev/null", "w");
  log.SetSink(sink, {/*sample=*/0.01, /*slow_ms=*/1e12});
  prof::WideEvent event;
  event.endpoint = "/v1/extract";
  event.outcome = "ok";
  event.http_status = 200;
  event.total_seconds = 0.0035;
  event.extract_seconds = 0.0031;
  event.bytes_in = 512;
  event.bytes_out = 2048;
  uint64_t id = 1;
  for (auto _ : state) {
    event.request_id = id++;
    log.Record(event);
  }
  state.counters["kept"] = static_cast<double>(log.written());
  log.SetSink(nullptr, {});
  if (sink != nullptr) std::fclose(sink);
}
BENCHMARK(BM_WideEventRecordSampled);

void BM_WideEventToJson(benchmark::State& state) {
  prof::WideEvent event;
  event.request_id = 42;
  event.trace_id = 7;
  event.endpoint = "/v1/extract";
  event.outcome = "ok";
  event.http_status = 200;
  event.total_seconds = 0.0035;
  event.extract_seconds = 0.0031;
  event.queue_seconds = 0.0002;
  event.bytes_in = 512;
  event.bytes_out = 2048;
  for (auto _ : state) {
    std::string line = event.ToJson();
    benchmark::DoNotOptimize(line);
  }
}
BENCHMARK(BM_WideEventToJson);

}  // namespace
}  // namespace tegra

BENCHMARK_MAIN();
