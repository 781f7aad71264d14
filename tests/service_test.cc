// Tests for tegra::serve::ExtractionService: concurrent correctness against
// the sequential extractor, admission control (overload => kUnavailable, not
// deadlock), per-request deadlines, result caching, metrics, and shutdown.

#include "service/extraction_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus_stats.h"
#include "synth/corpus_gen.h"
#include "corpus/column_index.h"

namespace tegra {
namespace serve {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new ColumnIndex(synth::BuildBackgroundIndex(
        synth::CorpusProfile::kWeb, /*num_tables=*/1200, /*seed=*/303));
    stats_ = new CorpusStats(index_);
    extractor_ = new TegraExtractor(stats_);
  }
  static void TearDownTestSuite() {
    delete extractor_;
    delete stats_;
    delete index_;
    extractor_ = nullptr;
    stats_ = nullptr;
    index_ = nullptr;
  }

  /// A pool of distinct extractable lists: rotations of a base city list.
  static std::vector<std::vector<std::string>> MakeLists(size_t count) {
    const std::vector<std::string> base = {
        "Boston Massachusetts 645,966",
        "Worcester Massachusetts 182,544",
        "Providence Rhode Island 178,042",
        "Hartford Connecticut 124,775",
        "Springfield Massachusetts 153,060",
        "Bridgeport Connecticut 144,229",
        "New Haven Connecticut 129,779",
        "Stamford Connecticut 122,643",
    };
    std::vector<std::vector<std::string>> lists;
    for (size_t i = 0; i < count; ++i) {
      std::vector<std::string> rotated;
      for (size_t j = 0; j < base.size(); ++j) {
        rotated.push_back(base[(i + j) % base.size()]);
      }
      lists.push_back(std::move(rotated));
    }
    return lists;
  }

  static ColumnIndex* index_;
  static CorpusStats* stats_;
  static TegraExtractor* extractor_;
};

ColumnIndex* ServiceTest::index_ = nullptr;
CorpusStats* ServiceTest::stats_ = nullptr;
TegraExtractor* ServiceTest::extractor_ = nullptr;

TEST_F(ServiceTest, RequestCacheKeyIsContentSensitive) {
  const uint64_t a = RequestCacheKey({"ab", "c"}, 0);
  EXPECT_EQ(a, RequestCacheKey({"ab", "c"}, 0));
  EXPECT_NE(a, RequestCacheKey({"a", "bc"}, 0));    // boundary-sensitive
  EXPECT_NE(a, RequestCacheKey({"ab", "c"}, 3));    // column-sensitive
  EXPECT_NE(a, RequestCacheKey({"ab", "c", ""}, 0));  // length-sensitive
}

TEST_F(ServiceTest, SingleRequestMatchesSequentialExtractor) {
  const auto lists = MakeLists(1);
  const auto expected = extractor_->Extract(lists[0]);
  ASSERT_TRUE(expected.ok());

  ExtractionService service(extractor_);
  ExtractionRequest request;
  request.lines = lists[0];
  const ExtractionResponse response = service.SubmitAndWait(request);
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  ASSERT_NE(response.result, nullptr);
  EXPECT_EQ(response.result->table.ToString(), expected->table.ToString());
  EXPECT_EQ(response.result->num_columns, expected->num_columns);
  EXPECT_EQ(response.result->bounds, expected->bounds);
  EXPECT_DOUBLE_EQ(response.result->sp, expected->sp);
  EXPECT_FALSE(response.event.cache_hit);
  EXPECT_GE(response.event.total_seconds, 0);
}

TEST_F(ServiceTest, EightConcurrentClientsMatchSequentialByteForByte) {
  const size_t kClients = 8;
  const size_t kRequestsPerClient = 6;
  const auto lists = MakeLists(kClients);

  // Reference answers from the plain sequential engine.
  std::vector<std::string> expected_tables;
  std::vector<int> expected_columns;
  for (const auto& list : lists) {
    const auto expected = extractor_->Extract(list);
    ASSERT_TRUE(expected.ok());
    expected_tables.push_back(expected->table.ToString());
    expected_columns.push_back(expected->num_columns);
  }

  ServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = kClients * kRequestsPerClient + 8;
  ExtractionService service(extractor_, options);

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        // Each client hammers its own list plus a shared hot list (index 0),
        // exercising both cold extraction and cache hits under concurrency.
        const size_t which = (r % 2 == 0) ? c : 0;
        ExtractionRequest request;
        request.lines = lists[which];
        const ExtractionResponse response =
            service.SubmitAndWait(std::move(request));
        if (!response.ok() || response.result == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        if (response.result->table.ToString() != expected_tables[which] ||
            response.result->num_columns != expected_columns[which]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // The shared hot list must have produced cache hits.
  const MetricsSnapshot snap = service.metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("service.requests_total"),
            kClients * kRequestsPerClient);
  EXPECT_EQ(snap.counters.at("service.completed_total"),
            kClients * kRequestsPerClient);
  EXPECT_GT(snap.counters.at("service.result_cache_hits"), 0u);
}

TEST_F(ServiceTest, OverloadBeyondQueueDepthYieldsUnavailableNotDeadlock) {
  const auto lists = MakeLists(4);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  options.result_cache_capacity = 0;  // Every request costs real work.
  ExtractionService service(extractor_, options);

  // Fire a burst far faster than one worker can drain a depth-1 queue.
  const size_t kBurst = 64;
  std::vector<std::future<ExtractionResponse>> futures;
  futures.reserve(kBurst);
  for (size_t i = 0; i < kBurst; ++i) {
    ExtractionRequest request;
    request.lines = lists[i % lists.size()];
    request.bypass_cache = true;
    futures.push_back(service.Submit(std::move(request)));
  }

  size_t ok = 0;
  size_t unavailable = 0;
  for (auto& future : futures) {
    // .get() must return for *every* future — no deadlock on overload.
    const ExtractionResponse response = future.get();
    if (response.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(response.status.IsUnavailable())
          << response.status.ToString();
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, kBurst);
  EXPECT_GT(ok, 0u);           // The worker made progress...
  EXPECT_GT(unavailable, 0u);  // ...and the overflow was shed.

  const MetricsSnapshot snap = service.metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("service.rejected_total"), unavailable);
}

TEST_F(ServiceTest, ExpiredDeadlineIsReportedWithoutBurningExtractionCpu) {
  const auto lists = MakeLists(2);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 8;
  options.result_cache_capacity = 0;
  ExtractionService service(extractor_, options);

  // Occupy the single worker, then enqueue a request that expires while
  // waiting behind it.
  ExtractionRequest slow;
  slow.lines = lists[0];
  slow.bypass_cache = true;
  auto slow_future = service.Submit(std::move(slow));

  ExtractionRequest doomed;
  doomed.lines = lists[1];
  doomed.deadline_seconds = 1e-9;
  auto doomed_future = service.Submit(std::move(doomed));

  EXPECT_TRUE(slow_future.get().ok());
  const ExtractionResponse response = doomed_future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_EQ(response.result, nullptr);
  EXPECT_DOUBLE_EQ(response.event.extract_seconds, 0);
}

TEST_F(ServiceTest, RepeatedListIsServedFromCacheIdentically) {
  const auto lists = MakeLists(1);
  ExtractionService service(extractor_);
  ExtractionRequest request;
  request.lines = lists[0];

  const ExtractionResponse cold = service.SubmitAndWait(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.event.cache_hit);

  const ExtractionResponse warm = service.SubmitAndWait(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.event.cache_hit);
  EXPECT_DOUBLE_EQ(warm.event.extract_seconds, 0);
  EXPECT_EQ(warm.result->table.ToString(), cold.result->table.ToString());
  // The cache stores shared immutable results; both responses may alias.
  EXPECT_EQ(warm.result.get(), cold.result.get());

  // bypass_cache must skip the lookup.
  request.bypass_cache = true;
  const ExtractionResponse bypass = service.SubmitAndWait(request);
  ASSERT_TRUE(bypass.ok());
  EXPECT_FALSE(bypass.event.cache_hit);
  EXPECT_EQ(bypass.result->table.ToString(), cold.result->table.ToString());
}

TEST_F(ServiceTest, FixedColumnRequestsHonorTheColumnCount) {
  const auto lists = MakeLists(1);
  const auto expected = extractor_->ExtractWithColumns(lists[0], 3);
  ASSERT_TRUE(expected.ok());

  ExtractionService service(extractor_);
  ExtractionRequest request;
  request.lines = lists[0];
  request.num_columns = 3;
  const ExtractionResponse response = service.SubmitAndWait(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.result->num_columns, 3);
  EXPECT_EQ(response.result->table.ToString(), expected->table.ToString());
}

TEST_F(ServiceTest, InvalidInputPropagatesTheExtractionError) {
  ExtractionService service(extractor_);
  ExtractionRequest request;  // Empty list cannot be extracted.
  const ExtractionResponse response = service.SubmitAndWait(request);
  EXPECT_FALSE(response.ok());
  EXPECT_FALSE(response.status.IsUnavailable());
  const MetricsSnapshot snap = service.metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("service.failed_total"), 1u);
}

TEST_F(ServiceTest, MetricsSnapshotReportsSaneLatenciesAndHitRate) {
  const auto lists = MakeLists(4);
  ExtractionService service(extractor_);
  for (int round = 0; round < 3; ++round) {
    for (const auto& list : lists) {
      ExtractionRequest request;
      request.lines = list;
      ASSERT_TRUE(service.SubmitAndWait(std::move(request)).ok());
    }
  }

  const MetricsSnapshot snap = service.metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("service.requests_total"), 12u);
  EXPECT_GT(snap.counters.at("service.result_cache_hits"), 0u);
  EXPECT_GT(snap.gauges.at("service.result_cache_hit_rate"), 0.0);

  const HistogramSnapshot& latency =
      snap.histograms.at("service.total_seconds");
  EXPECT_EQ(latency.count, 12u);
  EXPECT_GT(latency.p50, 0.0);
  EXPECT_GE(latency.p99, latency.p50);
  EXPECT_LE(latency.p50, latency.max);

  // The corpus co-occurrence cache surfaces through the same registry.
  EXPECT_GT(snap.gauges.at("corpus.co_cache_hits"), 0.0);
  EXPECT_GT(snap.gauges.at("corpus.co_cache_capacity"), 0.0);
}

TEST_F(ServiceTest, ShutdownFailsPendingAndSubsequentRequestsCleanly) {
  const auto lists = MakeLists(4);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 16;
  options.result_cache_capacity = 0;
  auto service = std::make_unique<ExtractionService>(extractor_, options);

  std::vector<std::future<ExtractionResponse>> futures;
  for (size_t i = 0; i < 8; ++i) {
    ExtractionRequest request;
    request.lines = lists[i % lists.size()];
    request.bypass_cache = true;
    futures.push_back(service->Submit(std::move(request)));
  }
  service->Shutdown();

  for (auto& future : futures) {
    const ExtractionResponse response = future.get();  // Must not hang.
    EXPECT_TRUE(response.ok() || response.status.IsUnavailable())
        << response.status.ToString();
  }

  // Post-shutdown submissions are rejected immediately.
  ExtractionRequest late;
  late.lines = lists[0];
  const ExtractionResponse rejected = service->SubmitAndWait(std::move(late));
  EXPECT_TRUE(rejected.status.IsUnavailable());

  service.reset();  // Double-shutdown via destructor must be safe.
}

}  // namespace
}  // namespace serve
}  // namespace tegra
