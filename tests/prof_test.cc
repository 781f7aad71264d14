// Unit tests for tegra::prof — the sampling CPU profiler, histogram
// exemplars, the wide-event access log and the runtime-stats collector.
// The slow-event log behind /slowlogz has its own slowlog_test.
//
// The profiler tests are deliberately conservative about *what* they assert:
// SIGPROF fires on consumed CPU time, so each test burns CPU on purpose and
// asserts that samples with non-empty stacks arrive, not that any particular
// frame is hottest (symbol names depend on inlining decisions). The e2e test
// (serve_prof_e2e_test) asserts tegra frames appear under real load.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "prof/profiler.h"
#include "prof/runtime_stats.h"
#include "prof/wide_event.h"
#include "service/metrics.h"
#include "service/serve_json.h"
#include "trace/prometheus.h"
#include "trace/trace.h"

namespace tegra {
namespace prof {
namespace {

// ---- wide events -----------------------------------------------------------

WideEvent SampleEvent() {
  WideEvent event;
  event.request_id = 42;
  event.trace_id = 7;
  event.endpoint = "/v1/extract";
  event.outcome = "ok";
  event.http_status = 200;
  event.cache_hit = true;
  event.corpus_generation = 3;
  event.queue_seconds = 0.001;
  event.extract_seconds = 0.010;
  event.total_seconds = 0.012;
  event.sp_score = 0.85;
  event.bytes_in = 120;
  event.bytes_out = 480;
  return event;
}

TEST(WideEventTest, ToJsonRoundTripsThroughParser) {
  const WideEvent event = SampleEvent();
  const auto parsed = serve::ParseJson(event.ToJson());
  ASSERT_TRUE(parsed.ok()) << event.ToJson();
  const serve::JsonValue& v = *parsed;
  EXPECT_EQ(v["request_id"].AsNumber(0), 42);
  EXPECT_EQ(v["trace_id"].AsNumber(0), 7);
  EXPECT_EQ(v["endpoint"].AsString(), "/v1/extract");
  EXPECT_EQ(v["outcome"].AsString(), "ok");
  EXPECT_EQ(v["status"].AsNumber(0), 200);
  EXPECT_TRUE(v["cache_hit"].AsBool(false));
  EXPECT_FALSE(v["batch"].AsBool(true));
  EXPECT_EQ(v["corpus_generation"].AsNumber(0), 3);
  EXPECT_NEAR(v["total_ms"].AsNumber(0), 12.0, 1e-9);
  EXPECT_EQ(v["bytes_out"].AsNumber(0), 480);
}

TEST(WideEventTest, ToJsonEscapesStrings) {
  WideEvent event = SampleEvent();
  event.outcome = "bad\"quote\nnewline\\back\x01ctl";
  const auto parsed = serve::ParseJson(event.ToJson());
  ASSERT_TRUE(parsed.ok()) << event.ToJson();
  EXPECT_EQ((*parsed)["outcome"].AsString(),
            "bad\"quote\nnewline\\back\x01ctl");
}

TEST(WideEventTest, OutcomeForStatusNamesEveryAnswer) {
  EXPECT_STREQ(OutcomeForStatus(Status::OK()), "ok");
  EXPECT_STREQ(OutcomeForStatus(Status::Unavailable("queue full")),
               "rejected");
  EXPECT_STREQ(OutcomeForStatus(Status::DeadlineExceeded("late")),
               "deadline_exceeded");
  EXPECT_STREQ(OutcomeForStatus(Status::InvalidArgument("no lines")),
               "bad_request");
  EXPECT_STREQ(OutcomeForStatus(Status::Internal("boom")), "failed");
}

TEST(WideEventLogTest, TailSamplingKeepsErrorsAndSlowEvents) {
  WideEventLog log;
  WideEventLog::Options options;
  options.sample = 0.0;  // Drop every ordinary request...
  options.slow_ms = 100.0;
  log.SetSink(stderr, options);

  WideEvent ordinary = SampleEvent();
  EXPECT_FALSE(log.WouldKeep(ordinary));

  WideEvent error = SampleEvent();
  error.http_status = 503;
  error.outcome = "rejected";
  EXPECT_TRUE(log.WouldKeep(error));  // ...but never an error...

  WideEvent failed = SampleEvent();
  failed.outcome = "failed";
  EXPECT_TRUE(log.WouldKeep(failed));

  WideEvent slow = SampleEvent();
  slow.total_seconds = 0.250;
  EXPECT_TRUE(log.WouldKeep(slow));  // ...or a slow request.
}

TEST(WideEventLogTest, SampleOneKeepsEverything) {
  WideEventLog log;
  WideEventLog::Options options;
  options.sample = 1.0;
  log.SetSink(stderr, options);
  for (uint64_t id = 1; id <= 100; ++id) {
    WideEvent event = SampleEvent();
    event.request_id = id;
    EXPECT_TRUE(log.WouldKeep(event));
  }
}

TEST(WideEventLogTest, FractionalSamplingIsDeterministicPerRequestId) {
  WideEventLog log;
  WideEventLog::Options options;
  options.sample = 0.5;
  options.slow_ms = 1e9;  // Nothing qualifies as slow.
  log.SetSink(stderr, options);
  int kept = 0;
  for (uint64_t id = 1; id <= 1000; ++id) {
    WideEvent event = SampleEvent();
    event.request_id = id;
    event.total_seconds = 0;
    const bool keep = log.WouldKeep(event);
    // Deterministic: the same id always decides the same way.
    EXPECT_EQ(keep, log.WouldKeep(event));
    if (keep) ++kept;
  }
  // Mixing is good enough that 50% +- 10% holds over 1000 ids.
  EXPECT_GT(kept, 400);
  EXPECT_LT(kept, 600);
}

TEST(WideEventLogTest, RecordWritesOneLinePerKeptEvent) {
  const std::string path = testing::TempDir() + "wide_event_test_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    WideEventLog log;
    WideEventLog::Options options;
    options.sample = 1.0;
    ASSERT_TRUE(log.Open(path, options).ok());
    ASSERT_TRUE(log.enabled());
    for (uint64_t id = 1; id <= 5; ++id) {
      WideEvent event = SampleEvent();
      event.request_id = id;
      EXPECT_TRUE(log.Record(event));
    }
    EXPECT_EQ(log.written(), 5u);
    log.Flush();
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    contents.append(chunk, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  int lines = 0;
  for (const char c : contents) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5);
  // Every line parses back as a JSON object.
  size_t start = 0, pos;
  while ((pos = contents.find('\n', start)) != std::string::npos) {
    const std::string line = contents.substr(start, pos - start);
    start = pos + 1;
    EXPECT_TRUE(serve::ParseJson(line).ok()) << line;
  }
}

TEST(WideEventLogTest, RecordWithoutSinkDropsSilently) {
  WideEventLog log;
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.Record(SampleEvent()));
  EXPECT_EQ(log.written(), 0u);
}

// ---- histogram exemplars ---------------------------------------------------

bool FixedExemplarSource(uint64_t* trace_id, uint64_t* request_id) {
  *trace_id = 1234;
  *request_id = 5678;
  return true;
}

class ExemplarSourceGuard {
 public:
  ~ExemplarSourceGuard() { Histogram::SetExemplarSource(nullptr); }
};

TEST(ExemplarTest, ObservationRecordsExemplarNextToItsBucket) {
  ExemplarSourceGuard guard;
  MetricsRegistry registry;
  Histogram* hist =
      registry.GetHistogram("test.latency", {0.01, 0.1, 1.0});
  Histogram::SetExemplarSource(&FixedExemplarSource);
  hist->Observe(0.05);  // Second bucket (0.01, 0.1].

  const MetricsSnapshot snap = registry.Snapshot();
  const auto it = snap.histograms.find("test.latency");
  ASSERT_NE(it, snap.histograms.end());
  const HistogramSnapshot& h = it->second;
  ASSERT_EQ(h.exemplars.size(), h.bucket_counts.size());
  ASSERT_GE(h.exemplars.size(), 2u);
  EXPECT_EQ(h.exemplars[1].trace_id, 1234u);
  EXPECT_EQ(h.exemplars[1].request_id, 5678u);
  EXPECT_NEAR(h.exemplars[1].value, 0.05, 1e-12);
  // The untouched buckets carry no exemplar.
  EXPECT_EQ(h.exemplars[0].trace_id, 0u);
}

TEST(ExemplarTest, NoSourceMeansNoExemplars) {
  ExemplarSourceGuard guard;
  Histogram::SetExemplarSource(nullptr);
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.latency", {0.01, 0.1, 1.0});
  hist->Observe(0.05);
  const MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot& h = snap.histograms.at("test.latency");
  for (const Exemplar& ex : h.exemplars) {
    EXPECT_EQ(ex.trace_id, 0u);
  }
}

TEST(ExemplarTest, OpenMetricsExpositionCarriesExemplars) {
  ExemplarSourceGuard guard;
  MetricsRegistry registry;
  registry.GetCounter("test.requests_total")->Increment();
  Histogram* hist = registry.GetHistogram("test.latency", {0.01, 0.1, 1.0});
  Histogram::SetExemplarSource(&FixedExemplarSource);
  hist->Observe(0.05);

  const std::string text = trace::ToOpenMetricsText(registry.Snapshot());
  // Counter families get exactly one _total suffix.
  EXPECT_NE(text.find("tegra_test_requests_total 1"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("_total_total"), std::string::npos) << text;
  // The exemplar rides the bucket line in OpenMetrics syntax, decimal ids.
  EXPECT_NE(text.find("# {trace_id=\"1234\",request_id=\"5678\"} 0.05"),
            std::string::npos)
      << text;
  // OpenMetrics requires the EOF trailer.
  EXPECT_NE(text.find("# EOF\n"), std::string::npos);
}

TEST(ExemplarTest, InstalledSourceReadsTraceContextAndRequestId) {
  ExemplarSourceGuard guard;
  InstallExemplarSource();
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.latency", {0.01, 0.1, 1.0});

  if (trace::kCompiledIn) {
    trace::Tracer::Global().SetEnabled(true);
    ScopedRequestId request_scope(99);
    TEGRA_TRACE_CONTEXT(ctx, "prof.test");
    hist->Observe(0.05);
    const MetricsSnapshot snap = registry.Snapshot();
    const HistogramSnapshot& h = snap.histograms.at("test.latency");
    EXPECT_EQ(h.exemplars[1].trace_id, ctx.trace_id());
    EXPECT_EQ(h.exemplars[1].request_id, 99u);
  } else {
    // Spans compiled out: no context installs itself, so the source finds
    // no trace id and exemplars never fire — the documented interaction.
    ScopedRequestId request_scope(99);
    hist->Observe(0.05);
    const MetricsSnapshot snap = registry.Snapshot();
    const HistogramSnapshot& h = snap.histograms.at("test.latency");
    for (const Exemplar& ex : h.exemplars) {
      EXPECT_EQ(ex.trace_id, 0u);
    }
  }
}

// ---- request-id scope ------------------------------------------------------

TEST(ScopedRequestIdTest, NestsAndRestores) {
  EXPECT_EQ(CurrentRequestId(), 0u);
  {
    ScopedRequestId outer(10);
    EXPECT_EQ(CurrentRequestId(), 10u);
    {
      ScopedRequestId inner(20);
      EXPECT_EQ(CurrentRequestId(), 20u);
    }
    EXPECT_EQ(CurrentRequestId(), 10u);
  }
  EXPECT_EQ(CurrentRequestId(), 0u);
}

// ---- the sampling profiler -------------------------------------------------

/// Burns CPU until `stop` is raised; the noinline + volatile sink keep the
/// loop from being optimized into nothing.
__attribute__((noinline)) void BurnCpu(const std::atomic<bool>& stop) {
  volatile double sink = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 1; i < 1000; ++i) sink = sink + 1.0 / i;
  }
}

TEST(CpuProfilerTest, CaptureSeesSamplesFromBusyRegisteredThread) {
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    EnsureThreadRegistered("burner");
    BurnCpu(stop);
  });

  Result<Profile> profile = CpuProfiler::Global().Capture(0.5);
  stop.store(true);
  burner.join();

  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  const Profile& p = profile.value();
  EXPECT_GT(p.total_samples, 0u);
  EXPECT_FALSE(p.folded.empty());
  // Folded output renders one "stack count" line per entry.
  const std::string folded = p.ToFolded();
  EXPECT_FALSE(folded.empty());
  EXPECT_NE(folded.find(' '), std::string::npos);
  // At least one sampled stack has real depth (a ';'-joined chain), proving
  // the frame-pointer walk went past the leaf.
  bool has_chain = false;
  for (const auto& [stack, count] : p.folded) {
    if (stack.find(';') != std::string::npos && count > 0) has_chain = true;
  }
  EXPECT_TRUE(has_chain) << folded;
}

TEST(CpuProfilerTest, StartIsIdempotentAndStopDisarms) {
  CpuProfiler& profiler = CpuProfiler::Global();
  ASSERT_TRUE(profiler.Start(99).ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_EQ(profiler.hz(), 99);
  EXPECT_TRUE(profiler.Start(50).ok());  // Idempotent: keeps running at 99.
  EXPECT_EQ(profiler.hz(), 99);
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
}

TEST(CpuProfilerTest, ThreadRegistrationIsIdempotentAndNamed) {
  EnsureThreadRegistered("prof-test-main");
  EnsureThreadRegistered("prof-test-main");  // No second slot.
  const std::vector<RegisteredThread> threads = RegisteredThreads();
  int matches = 0;
  for (const RegisteredThread& t : threads) {
    if (t.name == "prof-test-main") {
      ++matches;
      EXPECT_GT(t.tid, 0);
    }
  }
  EXPECT_EQ(matches, 1);
}

TEST(CpuProfilerTest, ThreadPoolStartHookRegistersWorkers) {
  std::atomic<int> hook_calls{0};
  ThreadPool::SetThreadStartHook([&hook_calls](size_t) {
    ++hook_calls;
  });
  {
    ThreadPool pool(3);
    pool.ParallelFor(8, [](size_t) {});
  }
  ThreadPool::SetThreadStartHook(nullptr);
  EXPECT_EQ(hook_calls.load(), 3);
}

#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
}  // namespace

// External linkage so the profiler's dladdr symbolizer can name them.

/// Spins until `*stop` with a scratch value in the frame-pointer register,
/// the state code built without frame pointers can leave a thread in (a
/// sanitizer's libc interceptor, for one). The function's own frame pointer
/// is saved on the stack first, as such code does with its caller's.
__attribute__((noinline)) void ProfTestSpinWithScratchFp(
    const std::atomic<bool>* stop) {
  static_assert(sizeof(std::atomic<bool>) == 1, "asm reads one byte");
  asm volatile(
      "push %%rbp\n\t"
      "mov $1, %%rbp\n"
      "1:\n\t"
      "pause\n\t"
      "cmpb $0, (%0)\n\t"
      "je 1b\n\t"
      "pop %%rbp"
      :
      : "r"(stop)
      : "memory", "cc");
}
__attribute__((noinline)) void ProfTestParkedCaller(
    const std::atomic<bool>* stop) {
  ProfTestSpinWithScratchFp(stop);
  asm volatile("");  // Not a tail call: this frame stays on the stack.
}
__attribute__((noinline)) void ProfTestParkedOuter(
    const std::atomic<bool>* stop) {
  ProfTestParkedCaller(stop);
  asm volatile("");
}

namespace {

// A directed capture must walk past a frame-pointer register holding a
// scratch value by resuming from the frame pointer saved on the stack.
// (ThreadSanitizer delivers the signal only at an intercepted call, which
// the asm spin never makes, hence the guard above.)
TEST(CpuProfilerTest, StackWalkRecoversFromScratchFramePointer) {
  std::atomic<bool> stop{false};
  std::atomic<bool> registered{false};
  std::thread parked([&] {
    EnsureThreadRegistered("scratch-fp");
    registered.store(true);
    ProfTestParkedOuter(&stop);
    asm volatile("");
  });
  while (!registered.load()) std::this_thread::yield();
  int tid = 0;
  for (const RegisteredThread& t : RegisteredThreads()) {
    if (t.name == "scratch-fp") tid = t.tid;
  }
  ASSERT_GT(tid, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const Result<std::string> stack = CaptureThreadStack(tid, 2000);
  stop.store(true);
  parked.join();

  // The leaf is the interrupted PC. ProfTestParkedCaller's return address
  // sits below the saved frame pointer the walk resumes from, so it is one
  // of the frames in between that the recovery gives up; every frame above
  // it must be there.
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_NE(stack->find("ProfTestSpinWithScratchFp"), std::string::npos)
      << *stack;
  EXPECT_NE(stack->find("ProfTestParkedOuter"), std::string::npos) << *stack;
}
#endif  // __x86_64__ && !__SANITIZE_THREAD__

// ---- runtime stats ---------------------------------------------------------

TEST(RuntimeStatsTest, SampleOncePopulatesProcessGauges) {
  MetricsRegistry registry;
  RuntimeStatsCollector collector(&registry);
  collector.SampleOnce();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.gauges.at("process.rss_bytes"), 0.0);
  EXPECT_GT(snap.gauges.at("process.vsz_bytes"), 0.0);
  EXPECT_GE(snap.gauges.at("process.threads"), 1.0);
  EXPECT_GT(snap.gauges.at("process.open_fds"), 0.0);
  EXPECT_GE(snap.gauges.at("process.cpu_user_seconds"), 0.0);
}

TEST(RuntimeStatsTest, RegisteredThreadsGetPerThreadCpuGauges) {
  EnsureThreadRegistered("prof-test-main");
  MetricsRegistry registry;
  RuntimeStatsCollector collector(&registry);
  collector.SampleOnce();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_NE(snap.gauges.find("process.thread.prof-test-main.cpu_seconds"),
            snap.gauges.end());
}

TEST(RuntimeStatsTest, StartStopIsCleanAndIdempotent) {
  MetricsRegistry registry;
  RuntimeStatsCollector collector(&registry, /*period_seconds=*/0.05);
  collector.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  collector.Stop();
  collector.Stop();  // Idempotent.
  EXPECT_GT(registry.Snapshot().gauges.at("process.rss_bytes"), 0.0);
}

}  // namespace
}  // namespace prof
}  // namespace tegra
