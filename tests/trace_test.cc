// Tests for tegra::trace: span nesting and cross-thread context handoff,
// ring-buffer overflow accounting, Chrome trace / Prometheus export
// well-formedness, the slow-request log, the structured logger, and the
// end-to-end guarantee that one extraction populates the per-phase
// histograms.
//
// The same binary builds under TEGRA_TRACE=OFF: recording assertions are
// gated on trace::kCompiledIn, and the OFF build instead asserts that the
// instrumented pipeline records nothing.

#include "trace/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/tegra.h"
#include "corpus/corpus_stats.h"
#include "service/extraction_service.h"
#include "service/serve_json.h"
#include "synth/corpus_gen.h"
#include "trace/chrome_trace.h"
#include "trace/log.h"
#include "trace/prometheus.h"
#include "corpus/column_index.h"

namespace tegra {
namespace trace {
namespace {

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer(64);
  ASSERT_FALSE(tracer.enabled());
  tracer.RecordManual("x", "test", 0, 10);
  { Span span(&tracer, "y", "test"); }
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  EXPECT_TRUE(tracer.RingSnapshot().empty());
}

TEST(TracerTest, RecordManualLandsInRing) {
  Tracer tracer(64);
  tracer.SetEnabled(true);
  tracer.RecordManual("manual", "test", 5, 10);
  const auto events = tracer.RingSnapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "manual");
  EXPECT_EQ(events[0].start_us, 5u);
  EXPECT_EQ(events[0].duration_us, 10u);
  EXPECT_EQ(tracer.spans_recorded(), 1u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, RingOverflowDropsOldestAndCounts) {
  Tracer tracer(4);
  ASSERT_EQ(tracer.ring_capacity(), 4u);
  tracer.SetEnabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.RecordManual("e", "test", static_cast<uint64_t>(i) * 100, 1);
  }
  EXPECT_EQ(tracer.spans_recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.RingSnapshot();
  ASSERT_EQ(events.size(), 4u);
  // Drop-oldest: exactly the last four records remain, in start order.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].start_us, (6 + i) * 100) << "slot " << i;
  }
}

TEST(TracerTest, DroppedCounterFeedsMetrics) {
  Tracer tracer(2);
  tracer.SetEnabled(true);
  for (int i = 0; i < 5; ++i) tracer.RecordManual("e", "test", 0, 1);
  MetricsSnapshot snap = tracer.metrics()->Snapshot();
  EXPECT_EQ(snap.counters["trace.dropped"], 3u);
  EXPECT_EQ(snap.counters["trace.spans_total"], 5u);
}

TEST(TracerTest, ResetClearsRingAndCounters) {
  Tracer tracer(8);
  tracer.SetEnabled(true);
  for (int i = 0; i < 20; ++i) tracer.RecordManual("e", "test", 0, 1);
  tracer.Reset();
  EXPECT_EQ(tracer.spans_recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.RingSnapshot().empty());
}

TEST(TracerTest, RingSnapshotSortedByStartTime) {
  Tracer tracer(16);
  tracer.SetEnabled(true);
  tracer.RecordManual("late", "test", 300, 1);
  tracer.RecordManual("early", "test", 100, 1);
  tracer.RecordManual("mid", "test", 200, 1);
  const auto events = tracer.RingSnapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_STREQ(events[2].name, "late");
}

TEST(SpanTest, RecordsDurationAndFeedsMetric) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  Tracer tracer(64);
  tracer.SetEnabled(true);
  { Span span(&tracer, "timed", "test", "test.phase_seconds"); }
  const auto events = tracer.RingSnapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "timed");
  const MetricsSnapshot snap = tracer.metrics()->Snapshot();
  ASSERT_TRUE(snap.histograms.count("test.phase_seconds"));
  EXPECT_EQ(snap.histograms.at("test.phase_seconds").count, 1u);
}

TEST(SpanTest, NestingTracksParentAndDepth) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  Tracer tracer(64);
  tracer.SetEnabled(true);
  {
    Span outer(&tracer, "outer", "test");
    {
      Span inner(&tracer, "inner", "test");
    }
  }
  auto events = tracer.RingSnapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(outer->thread_id, inner->thread_id);
}

TEST(SpanTest, EndIsIdempotent) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  Tracer tracer(64);
  tracer.SetEnabled(true);
  Span span(&tracer, "once", "test");
  span.End();
  span.End();
  EXPECT_EQ(tracer.spans_recorded(), 1u);
}

TEST(TraceContextTest, CollectsSpansCompletedWhileCurrent) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  Tracer tracer(64);
  tracer.SetEnabled(true);
  {
    TraceContext ctx(&tracer, "request");
    EXPECT_NE(ctx.trace_id(), 0u);
    { Span span(&tracer, "inside", "test"); }
    const auto collected = ctx.Events();
    ASSERT_EQ(collected.size(), 1u);
    EXPECT_STREQ(collected[0].name, "inside");
    EXPECT_EQ(collected[0].trace_id, ctx.trace_id());
  }
  // After the context ended, new spans are untagged.
  { Span span(&tracer, "outside", "test"); }
  const auto events = tracer.RingSnapshot();
  for (const auto& e : events) {
    if (std::string(e.name) == "outside") {
      EXPECT_EQ(e.trace_id, 0u);
    }
  }
}

TEST(TraceContextTest, ThreadPoolWorkersInheritViaScopedContext) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  Tracer tracer(256);
  tracer.SetEnabled(true);
  constexpr size_t kTasks = 16;
  TraceContext ctx(&tracer, "fanout");
  {
    ThreadPool pool(4);
    // Rendezvous: every task waits until a second task has entered. A
    // spinning worker cannot start another queued task, so the second entry
    // must come from a different pool thread — this forces >= 2 threads to
    // participate even on a single-CPU machine where one worker could
    // otherwise drain the whole queue.
    std::atomic<size_t> entered{0};
    pool.ParallelFor(kTasks, [&](size_t) {
      ScopedContext scoped(&ctx);
      Span span(&tracer, "worker_task", "test");
      entered.fetch_add(1, std::memory_order_acq_rel);
      while (entered.load(std::memory_order_acquire) < 2) {
        std::this_thread::yield();
      }
    });
  }
  const auto collected = ctx.Events();
  ASSERT_EQ(collected.size(), kTasks);
  std::set<uint32_t> worker_threads;
  for (const auto& e : collected) {
    EXPECT_STREQ(e.name, "worker_task");
    EXPECT_EQ(e.trace_id, ctx.trace_id());
    worker_threads.insert(e.thread_id);
  }
  // The pool really did spread the spans over multiple threads.
  EXPECT_GE(worker_threads.size(), 2u);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTraceTest, EmitsWellFormedJson) {
  Tracer tracer(64);
  tracer.SetEnabled(true);
  tracer.RecordManual("alpha", "test", 10, 5);
  tracer.RecordManual("beta", "test", 20, 7);
  const std::string json = ToChromeTraceJson(tracer.RingSnapshot());

  auto parsed = serve::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const serve::JsonValue& root = *parsed;
  EXPECT_EQ(root["displayTimeUnit"].AsString(), "ms");
  const auto& events = root["traceEvents"].AsArray();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0]["name"].AsString(), "alpha");
  EXPECT_EQ(events[0]["ph"].AsString(), "X");
  EXPECT_DOUBLE_EQ(events[0]["ts"].AsNumber(), 10);
  EXPECT_DOUBLE_EQ(events[0]["dur"].AsNumber(), 5);
  EXPECT_DOUBLE_EQ(events[1]["ts"].AsNumber(), 20);
  // Per-event args carry the tree structure.
  EXPECT_TRUE(events[0].Has("args"));
}

TEST(ChromeTraceTest, EmptyRingStillValid) {
  const std::string json = ToChromeTraceJson({});
  auto parsed = serve::ParseJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)["traceEvents"].AsArray().empty());
}

// ---------------------------------------------------------------------------
// Prometheus export
// ---------------------------------------------------------------------------

TEST(PrometheusTest, SanitizesNames) {
  EXPECT_EQ(PrometheusName("service.queue_seconds"),
            "tegra_service_queue_seconds");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "tegra_weird_name_with_spaces");
  EXPECT_EQ(PrometheusName("x", ""), "x");
}

TEST(PrometheusTest, RendersCountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests_total")->Increment(7);
  registry.GetGauge("serve.queue_depth")->Set(3);
  Histogram* h = registry.GetHistogram("extract.phase.total");
  h->Observe(0.002);
  h->Observe(0.004);

  const std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE tegra_serve_requests_total counter\n"
                      "tegra_serve_requests_total 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE tegra_serve_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tegra_extract_phase_total histogram"),
            std::string::npos);
  // Cumulative buckets must close with +Inf == _count.
  EXPECT_NE(text.find("tegra_extract_phase_total_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tegra_extract_phase_total_count 2"),
            std::string::npos);
}

TEST(PrometheusTest, EscapesLabelValues) {
  // The three characters the text formats require escaping — anything else
  // passes through byte-for-byte (label values are free-form UTF-8).
  EXPECT_EQ(EscapeLabelValue("plain-value_1.2"), "plain-value_1.2");
  EXPECT_EQ(EscapeLabelValue("back\\slash"), "back\\\\slash");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(EscapeLabelValue("all\\three\"at\nonce"),
            "all\\\\three\\\"at\\nonce");
  EXPECT_EQ(EscapeLabelValue(""), "");
}

TEST(PrometheusTest, BuildInfoExpositionIsWellFormed) {
  // Compiler banners carry quotes/backslashes on some toolchains; whatever
  // this build's strings are, the rendered line must keep exactly one
  // balanced quote pair per label and no raw newlines inside the braces.
  const std::string text = BuildInfoPrometheusText();
  const size_t open = text.find('{');
  const size_t close = text.find('}');
  ASSERT_NE(open, std::string::npos) << text;
  ASSERT_NE(close, std::string::npos) << text;
  const std::string labels = text.substr(open + 1, close - open - 1);
  EXPECT_EQ(labels.find('\n'), std::string::npos) << text;
  size_t unescaped_quotes = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == '"' && (i == 0 || labels[i - 1] != '\\')) {
      ++unescaped_quotes;
    }
  }
  // 4 labels (git_sha, build_type, trace, compiler), 2 quotes each.
  EXPECT_EQ(unescaped_quotes, 8u) << text;
  EXPECT_NE(text.find("git_sha=\""), std::string::npos);
  EXPECT_NE(text.find("compiler=\""), std::string::npos);
  EXPECT_NE(text.find("} 1\n"), std::string::npos);
}

TEST(PrometheusTest, BucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  // Many small + one large observation: every bucket count must be
  // monotonically non-decreasing down the exposition.
  for (int i = 0; i < 10; ++i) h->Observe(1e-6);
  h->Observe(100.0);
  const std::string text = ToPrometheusText(registry.Snapshot());
  uint64_t prev = 0;
  size_t buckets_seen = 0;
  size_t pos = 0;
  while ((pos = text.find("tegra_lat_bucket{le=", pos)) != std::string::npos) {
    const size_t space = text.find(' ', pos);
    const size_t eol = text.find('\n', space);
    const uint64_t value = std::stoull(text.substr(space + 1, eol - space - 1));
    EXPECT_GE(value, prev);
    prev = value;
    ++buckets_seen;
    pos = eol;
  }
  EXPECT_GT(buckets_seen, 2u);
  EXPECT_EQ(prev, 11u);  // +Inf bucket equals the total count.
}

// ---------------------------------------------------------------------------
// Structured logger
// ---------------------------------------------------------------------------

TEST(LoggerTest, MinLevelSuppresses) {
  Logger logger;
  std::vector<std::string> lines;
  logger.SetCallback([&](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  logger.SetMinLevel(LogLevel::kWarn);
  logger.Log(LogLevel::kDebug, "nope");
  logger.Log(LogLevel::kInfo, "nope");
  logger.Log(LogLevel::kWarn, "yes");
  logger.Log(LogLevel::kError, "also");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("yes"), std::string::npos);
  EXPECT_NE(lines[1].find("also"), std::string::npos);
}

TEST(LoggerTest, TextFormatRendersFields) {
  Logger logger;
  const std::string line =
      logger.Render(LogLevel::kInfo, "ready",
                    {{"workers", 4}, {"mode", "fast path"}});
  EXPECT_NE(line.find("INFO"), std::string::npos);
  EXPECT_NE(line.find("ready"), std::string::npos);
  EXPECT_NE(line.find("workers=4"), std::string::npos);
  // Values with spaces are quoted.
  EXPECT_NE(line.find("mode=\"fast path\""), std::string::npos) << line;
}

TEST(LoggerTest, JsonFormatIsParseable) {
  Logger logger;
  logger.SetFormat(Logger::Format::kJson);
  const std::string line = logger.Render(
      LogLevel::kWarn, "bad \"request\"",
      {{"count", 3}, {"ok", false}, {"detail", "line\n2"}});
  auto parsed = serve::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  const serve::JsonValue& root = *parsed;
  EXPECT_EQ(root["level"].AsString(), "warn");
  EXPECT_EQ(root["msg"].AsString(), "bad \"request\"");
  EXPECT_DOUBLE_EQ(root["count"].AsNumber(), 3);
  EXPECT_FALSE(root["ok"].AsBool(true));
  EXPECT_EQ(root["detail"].AsString(), "line\n2");
}

// ---------------------------------------------------------------------------
// End-to-end: the instrumented pipeline
// ---------------------------------------------------------------------------

class PipelineTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new ColumnIndex(synth::BuildBackgroundIndex(
        synth::CorpusProfile::kWeb, /*num_tables=*/800, /*seed=*/77));
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
  }
  static std::vector<std::string> Lines() {
    return {"Boston Massachusetts 645,966",
            "Worcester Massachusetts 182,544",
            "Providence Rhode Island 178,042",
            "Springfield Massachusetts 153,060"};
  }
  static ColumnIndex* index_;
};

ColumnIndex* PipelineTraceTest::index_ = nullptr;

TEST_F(PipelineTraceTest, OneExtractionPopulatesPhaseHistograms) {
  MetricsRegistry registry;
  Tracer& tracer = Tracer::Global();
  tracer.BindMetrics(&registry);
  tracer.SetEnabled(true);
  tracer.Reset();

  CorpusStats stats(index_);
  TegraExtractor extractor(&stats);
  auto result = extractor.Extract(Lines());
  ASSERT_TRUE(result.ok());

  tracer.SetEnabled(false);
  const MetricsSnapshot snap = registry.Snapshot();
  tracer.BindMetrics(nullptr);

  if (kCompiledIn) {
    // Acceptance criterion: extract.phase.* histograms are non-empty after a
    // single extraction.
    for (const char* phase :
         {"extract.phase.total", "extract.phase.tokenize",
          "extract.phase.list_context", "extract.phase.segmentation",
          "extract.phase.anchor_search", "extract.phase.slgr_dp",
          "extract.phase.materialize"}) {
      ASSERT_TRUE(snap.histograms.count(phase)) << phase;
      EXPECT_GE(snap.histograms.at(phase).count, 1u) << phase;
    }
    EXPECT_GE(snap.counters.at("extract.requests_total"), 1u);
    EXPECT_GT(snap.counters.at("extract.nodes_expanded_total"), 0u);
    EXPECT_GT(snap.counters.at("extract.distance_calls_total"), 0u);
    EXPECT_GT(snap.counters.at("extract.anchors_total"), 0u);
    EXPECT_GT(tracer.spans_recorded(), 0u);
  } else {
    // TEGRA_TRACE=OFF: instrumented call sites compile to nothing.
    EXPECT_EQ(tracer.spans_recorded(), 0u);
    EXPECT_EQ(snap.histograms.count("extract.phase.total"), 0u);
  }
}

TEST_F(PipelineTraceTest, ServiceRequestsLandInSlowlogWithSpans) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.Reset();

  CorpusStats stats(index_);
  TegraExtractor extractor(&stats);
  serve::ServiceOptions options;
  options.num_workers = 2;
  options.slowlog_capacity = 4;
  {
    serve::ExtractionService service(&extractor, options);
    for (int i = 0; i < 3; ++i) {
      serve::ExtractionRequest request;
      request.lines = Lines();
      request.bypass_cache = true;
      auto response = service.SubmitAndWait(std::move(request));
      ASSERT_TRUE(response.ok());
    }
    const auto records = service.slowlog().Snapshot();
    ASSERT_GE(records.size(), 1u);
    ASSERT_LE(records.size(), 3u);
    // Slowest-first ordering.
    for (size_t i = 1; i < records.size(); ++i) {
      EXPECT_GE(records[i - 1].total_seconds, records[i].total_seconds);
    }
    for (const auto& rec : records) {
      EXPECT_EQ(rec.outcome, "ok");
      EXPECT_EQ(rec.num_lines, Lines().size());
      if (kCompiledIn) {
        EXPECT_NE(rec.trace_id, 0u);
        EXPECT_FALSE(rec.spans.empty());
        // Every request tree contains the manually-recorded queue wait.
        const bool has_queue_wait = std::any_of(
            rec.spans.begin(), rec.spans.end(), [](const TraceEvent& e) {
              return std::string(e.name) == "queue_wait";
            });
        EXPECT_TRUE(has_queue_wait);
      }
    }
  }
  tracer.SetEnabled(false);
}

}  // namespace
}  // namespace trace
}  // namespace tegra
