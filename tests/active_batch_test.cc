// Tests for the active example-selection extension and the batch extractor.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "core/active.h"
#include "core/batch.h"
#include "common/metrics.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"
#include "corpus/column_index.h"

namespace tegra {
namespace {

class ActiveBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new ColumnIndex(synth::BuildBackgroundIndex(
        synth::CorpusProfile::kWeb, /*num_tables=*/1200, /*seed=*/303));
    stats_ = new CorpusStats(index_);
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete index_;
  }
  static ColumnIndex* index_;
  static CorpusStats* stats_;
};

ColumnIndex* ActiveBatchTest::index_ = nullptr;
CorpusStats* ActiveBatchTest::stats_ = nullptr;

TEST_F(ActiveBatchTest, RanksEveryUnlabeledRow) {
  const std::vector<std::string> lines = {
      "Boston Massachusetts 645,966",
      "Worcester Massachusetts 182,544",
      "Providence Rhode Island 178,042",
      "Hartford Connecticut 124,775",
  };
  TegraExtractor extractor(stats_);
  auto result = extractor.Extract(lines);
  ASSERT_TRUE(result.ok());
  auto ranked = RankRowsByUncertainty(extractor, lines, *result);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_EQ(ranked->size(), 4u);
  // Sorted most-uncertain first.
  for (size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_GE((*ranked)[i - 1].mean_distance, (*ranked)[i].mean_distance);
  }
}

TEST_F(ActiveBatchTest, ExcludesLabeledRows) {
  const std::vector<std::string> lines = {
      "Boston Massachusetts 1", "Chicago Illinois 2", "Houston Texas 3"};
  TegraExtractor extractor(stats_);
  auto result = extractor.Extract(lines);
  ASSERT_TRUE(result.ok());
  auto ranked = RankRowsByUncertainty(extractor, lines, *result, {1});
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), 2u);
  for (const auto& r : *ranked) EXPECT_NE(r.line_index, 1u);
}

TEST_F(ActiveBatchTest, SuggestsTheOddRowOut) {
  // Rows 0-3 are clean city/state/number; row 4 is a misfit the aligner
  // struggles with — the suggestion should be row 4.
  const std::vector<std::string> lines = {
      "Boston Massachusetts 645,966",
      "Worcester Massachusetts 182,544",
      "Providence Rhode Island 178,042",
      "Hartford Connecticut 124,775",
      "zqx wvv kjh ploo mnwte",
  };
  TegraExtractor extractor(stats_);
  auto suggestion = SuggestNextExample(extractor, lines, {});
  ASSERT_TRUE(suggestion.ok()) << suggestion.status().ToString();
  EXPECT_EQ(*suggestion, 4u);
}

TEST_F(ActiveBatchTest, SuggestNextExampleExhausts) {
  const std::vector<std::string> lines = {"a 1", "b 2"};
  TegraExtractor extractor(stats_);
  std::vector<SegmentationExample> examples = {
      {0, {"a", "1"}},
      {1, {"b", "2"}},
  };
  auto suggestion = SuggestNextExample(extractor, lines, examples);
  EXPECT_FALSE(suggestion.ok());
  EXPECT_TRUE(suggestion.status().IsNotFound());
}

TEST_F(ActiveBatchTest, ActiveLoopConverges) {
  // Labeling the suggested row (from ground truth) must never crash and
  // should keep or improve the extraction.
  auto instances = synth::MakeBenchmark(synth::CorpusProfile::kWeb, 1, 42);
  const auto& inst = instances[0];
  TegraExtractor extractor(stats_);
  std::vector<SegmentationExample> examples;
  for (int round = 0; round < 2; ++round) {
    auto suggestion = SuggestNextExample(extractor, inst.lines, examples);
    ASSERT_TRUE(suggestion.ok());
    SegmentationExample ex;
    ex.line_index = *suggestion;
    ex.cells = inst.ground_truth.Row(*suggestion);
    examples.push_back(std::move(ex));
  }
  auto result = extractor.ExtractWithExamples(inst.lines, examples);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.NumCols(), inst.ground_truth.NumCols());
}

// ---- batch ----------------------------------------------------------------

TEST_F(ActiveBatchTest, BatchMatchesSequentialResults) {
  auto instances = synth::MakeBenchmark(synth::CorpusProfile::kWeb, 6, 77);
  std::vector<std::vector<std::string>> lists;
  for (const auto& inst : instances) lists.push_back(inst.lines);

  TegraExtractor extractor(stats_);
  BatchOptions opts;
  opts.num_threads = 4;
  BatchExtractor batch(&extractor, opts);
  const auto items = batch.ExtractAll(lists);
  ASSERT_EQ(items.size(), lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    ASSERT_EQ(items[i].disposition, BatchItem::Disposition::kExtracted);
    auto sequential = extractor.Extract(lists[i]);
    ASSERT_TRUE(sequential.ok());
    EXPECT_EQ(items[i].result.table.rows(), sequential->table.rows())
        << "list " << i;
  }
}

TEST_F(ActiveBatchTest, BatchFiltersShortAndLowQualityLists) {
  std::vector<std::vector<std::string>> lists = {
      {"only one row"},
      {"Boston Massachusetts 1", "Chicago Illinois 2", "Houston Texas 3",
       "Phoenix Arizona 4", "Seattle Washington 5"},
  };
  TegraExtractor extractor(stats_);
  BatchOptions opts;
  opts.num_threads = 1;
  opts.min_rows = 2;
  BatchExtractor batch(&extractor, opts);
  const auto items = batch.ExtractAll(lists);
  EXPECT_EQ(items[0].disposition, BatchItem::Disposition::kFiltered);
  EXPECT_EQ(items[1].disposition, BatchItem::Disposition::kExtracted);
  EXPECT_EQ(BatchExtractor::Count(items, BatchItem::Disposition::kExtracted),
            1u);
}

TEST_F(ActiveBatchTest, BatchQualityGate) {
  std::vector<std::vector<std::string>> lists = {
      // Incoherent junk should trip a tight objective gate.
      {"zz qq ww", "mm kk jj pp", "aa", "yy tt rr ee ww qq"},
  };
  TegraExtractor extractor(stats_);
  BatchOptions opts;
  opts.num_threads = 1;
  opts.max_per_pair_objective = 0.05;  // Unachievably strict.
  BatchExtractor batch(&extractor, opts);
  const auto items = batch.ExtractAll(lists);
  EXPECT_EQ(items[0].disposition, BatchItem::Disposition::kFiltered);
}

TEST_F(ActiveBatchTest, BatchProgressCallbackFires) {
  auto instances = synth::MakeBenchmark(synth::CorpusProfile::kWeb, 4, 99);
  std::vector<std::vector<std::string>> lists;
  for (const auto& inst : instances) lists.push_back(inst.lines);
  TegraExtractor extractor(stats_);
  BatchExtractor batch(&extractor, {.num_threads = 2});
  std::atomic<size_t> calls{0};
  batch.ExtractAll(lists, [&](size_t done, size_t total) {
    EXPECT_LE(done, total);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 4u);
}

TEST_F(ActiveBatchTest, ProgressCallbackIsThreadSafeUnderManyWorkers) {
  // A counting callback driven from many worker threads at once: every list
  // must be reported exactly once, `done` must be a positive value <= total,
  // and the *final* values seen must cover the full range 1..total (each
  // fetch_add(1)+1 in the extractor is unique).
  auto instances = synth::MakeBenchmark(synth::CorpusProfile::kWeb, 12, 41);
  std::vector<std::vector<std::string>> lists;
  for (const auto& inst : instances) lists.push_back(inst.lines);
  TegraExtractor extractor(stats_);
  BatchExtractor batch(&extractor, {.num_threads = 8});

  std::mutex mu;
  std::vector<size_t> seen_done;
  std::atomic<size_t> bad_totals{0};
  const auto items = batch.ExtractAll(lists, [&](size_t done, size_t total) {
    if (total != lists.size() || done == 0 || done > total) {
      bad_totals.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(mu);
    seen_done.push_back(done);
  });
  EXPECT_EQ(items.size(), lists.size());
  EXPECT_EQ(bad_totals.load(), 0u);
  ASSERT_EQ(seen_done.size(), lists.size());
  // Every completion rank 1..N appears exactly once.
  std::sort(seen_done.begin(), seen_done.end());
  for (size_t i = 0; i < seen_done.size(); ++i) {
    EXPECT_EQ(seen_done[i], i + 1);
  }
}

TEST_F(ActiveBatchTest, CountAccountsForEveryDispositionMix) {
  // One failing list (empty tokens after min_rows pass is impossible here,
  // so craft: a too-short list -> filtered; junk gated by the objective ->
  // filtered; healthy lists -> extracted).
  auto instances = synth::MakeBenchmark(synth::CorpusProfile::kWeb, 3, 7);
  std::vector<std::vector<std::string>> lists;
  for (const auto& inst : instances) lists.push_back(inst.lines);
  lists.push_back({"lonely row"});                      // filtered: min_rows
  lists.push_back({});                                  // filtered: empty
  lists.push_back({"zz qq ww", "mm kk jj pp", "aa"});   // gated below

  TegraExtractor extractor(stats_);
  BatchOptions opts;
  opts.num_threads = 4;
  opts.min_rows = 2;
  opts.max_per_pair_objective = 0.05;  // Tight gate trips the junk list.
  BatchExtractor batch(&extractor, opts);
  const auto items = batch.ExtractAll(lists);
  ASSERT_EQ(items.size(), lists.size());

  const size_t extracted =
      BatchExtractor::Count(items, BatchItem::Disposition::kExtracted);
  const size_t filtered =
      BatchExtractor::Count(items, BatchItem::Disposition::kFiltered);
  const size_t failed =
      BatchExtractor::Count(items, BatchItem::Disposition::kFailed);
  // Disposition accounting must partition the batch exactly.
  EXPECT_EQ(extracted + filtered + failed, items.size());
  EXPECT_GE(filtered, 2u);  // The short and empty lists at minimum.
  // Count on an empty vector is zero for every disposition.
  EXPECT_EQ(BatchExtractor::Count({}, BatchItem::Disposition::kFailed), 0u);
}

TEST_F(ActiveBatchTest, BatchReportsIntoMetricsRegistry) {
  auto instances = synth::MakeBenchmark(synth::CorpusProfile::kWeb, 5, 13);
  std::vector<std::vector<std::string>> lists;
  for (const auto& inst : instances) lists.push_back(inst.lines);
  lists.push_back({"short"});  // One filtered item.

  MetricsRegistry registry;
  TegraExtractor extractor(stats_);
  BatchOptions opts;
  opts.num_threads = 4;
  opts.metrics = &registry;
  BatchExtractor batch(&extractor, opts);
  const auto items = batch.ExtractAll(lists);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("batch.lists_total"), lists.size());
  EXPECT_EQ(snap.counters.at("batch.extracted_total"),
            BatchExtractor::Count(items, BatchItem::Disposition::kExtracted));
  EXPECT_EQ(snap.counters.at("batch.filtered_total"),
            BatchExtractor::Count(items, BatchItem::Disposition::kFiltered));
  EXPECT_EQ(snap.counters.at("batch.failed_total"),
            BatchExtractor::Count(items, BatchItem::Disposition::kFailed));
  EXPECT_EQ(snap.histograms.at("batch.extract_seconds").count, lists.size());
}

}  // namespace
}  // namespace tegra
