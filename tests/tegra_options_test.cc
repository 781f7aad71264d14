// Tests for TegraExtractor configuration axes and the distance-function
// ablation knobs.

#include <gtest/gtest.h>

#include <cmath>

#include "core/tegra.h"
#include "distance/distance.h"
#include "synth/corpus_gen.h"
#include "corpus/column_index.h"
#include "common/metrics.h"
#include "trace/trace.h"

namespace tegra {
namespace {

class OptionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new ColumnIndex(synth::BuildBackgroundIndex(
        synth::CorpusProfile::kWeb, /*num_tables=*/800, /*seed=*/404));
    stats_ = new CorpusStats(index_);
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete index_;
  }
  static ColumnIndex* index_;
  static CorpusStats* stats_;

  const std::vector<std::string> lines_ = {
      "Boston Massachusetts 645,966",
      "Worcester Massachusetts 182,544",
      "Providence Rhode Island 178,042",
      "Hartford Connecticut 124,775",
      "Stamford Connecticut 122,643",
  };
};

ColumnIndex* OptionsTest::index_ = nullptr;
CorpusStats* OptionsTest::stats_ = nullptr;

TEST_F(OptionsTest, MaxColumnsCapsTheSweep) {
  TegraOptions opts;
  opts.max_columns = 2;
  TegraExtractor tegra(stats_, opts);
  auto result = tegra.Extract(lines_);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->num_columns, 2);
}

TEST_F(OptionsTest, TokenizerOptionsFlowThrough) {
  TegraOptions opts;
  opts.tokenizer.punctuation_delimiters = ",";
  TegraExtractor tegra(stats_, opts);
  auto result = tegra.ExtractWithColumns({"a,b", "c,d"}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.Cell(0, 0), "a");
  EXPECT_EQ(result->table.Cell(0, 1), "b");
}

TEST_F(OptionsTest, ExtractTokensEquivalentToExtract) {
  TegraExtractor tegra(stats_);
  Tokenizer tok;
  std::vector<std::vector<std::string>> token_lines;
  for (const auto& l : lines_) token_lines.push_back(tok.Tokenize(l));
  auto a = tegra.Extract(lines_);
  auto b = tegra.ExtractTokens(std::move(token_lines), 0, nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->table.rows(), b->table.rows());
  EXPECT_NEAR(a->sp, b->sp, 1e-9);
}

TEST_F(OptionsTest, ResultFieldsAreConsistent) {
  TegraExtractor tegra(stats_);
  auto result = tegra.Extract(lines_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bounds.size(), lines_.size());
  EXPECT_EQ(result->table.NumRows(), lines_.size());
  EXPECT_EQ(static_cast<int>(result->table.NumCols()), result->num_columns);
  EXPECT_NEAR(result->per_column_objective,
              result->sp / result->num_columns, 1e-9);
  const double pairs = 5.0 * 4.0 / 2.0;
  EXPECT_NEAR(result->per_pair_objective,
              result->sp / (pairs * result->num_columns), 1e-9);
  EXPECT_GE(result->anchor_distance, 0.0);
  EXPECT_LT(result->anchor_line, lines_.size());
  EXPECT_GT(result->nodes_expanded, 0u);
  EXPECT_GE(result->seconds, 0.0);
}

TEST_F(OptionsTest, ConflictingColumnsAndExamplesRejected) {
  TegraExtractor tegra(stats_);
  std::vector<SegmentationExample> examples = {
      {0, {"Boston", "Massachusetts", "645,966"}},
  };
  Tokenizer tok;
  std::vector<std::vector<std::string>> token_lines;
  for (const auto& l : lines_) token_lines.push_back(tok.Tokenize(l));
  auto result = tegra.ExtractTokens(std::move(token_lines), 2, &examples);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(OptionsTest, MismatchedExampleWidthsRejected) {
  TegraExtractor tegra(stats_);
  std::vector<SegmentationExample> examples = {
      {0, {"Boston", "Massachusetts", "645,966"}},
      {1, {"Worcester Massachusetts", "182,544"}},
  };
  auto result = tegra.ExtractWithExamples(lines_, examples);
  EXPECT_FALSE(result.ok());
}

TEST_F(OptionsTest, ExhaustiveSweepMatchesOrBeatsSampledSweep) {
  TegraOptions sampled;
  sampled.sweep_anchor_sample = 1;
  TegraOptions exhaustive;
  exhaustive.sweep_anchor_sample = 0;
  exhaustive.final_anchor_sample = 0;
  TegraExtractor fast(stats_, sampled);
  TegraExtractor full(stats_, exhaustive);
  auto a = fast.Extract(lines_);
  auto b = full.Extract(lines_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both must produce valid rectangular tables for the same list.
  EXPECT_EQ(a->table.NumRows(), b->table.NumRows());
}

TEST_F(OptionsTest, WidthCapRelaxationKeepsLongLinesFeasible) {
  TegraOptions opts;
  opts.max_cell_tokens = 2;
  TegraExtractor tegra(stats_, opts);
  // 12 tokens into 3 columns needs width 4 > cap 2: cap must relax.
  auto result = tegra.ExtractWithColumns(
      {"a b c d e f g h i j k l", "m n o p q r s t u v w x"}, 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.NumCols(), 3u);
}

/// extract.distance_calls_total delta of one ExtractWithColumns call.
uint64_t DistanceCallsOf(const CorpusStats* stats, int num_threads,
                         const std::vector<std::string>& lines) {
  MetricsRegistry registry;
  trace::Tracer& tracer = trace::Tracer::Global();
  tracer.BindMetrics(&registry);
  tracer.SetEnabled(true);
  TegraOptions opts;
  opts.num_threads = num_threads;
  TegraExtractor tegra(stats, opts);
  auto result = tegra.ExtractWithColumns(lines, 3);
  tracer.SetEnabled(false);
  tracer.BindMetrics(nullptr);
  EXPECT_TRUE(result.ok());
  const MetricsSnapshot snap = registry.Snapshot();
  const auto it = snap.counters.find("extract.distance_calls_total");
  return it == snap.counters.end() ? 0 : it->second;
}

TEST_F(OptionsTest, DistanceCallsCountParallelAnchorTasks) {
  // Parallel anchor tasks each own a memo; their pairs must reach the
  // counter too, so spreading the anchors over threads never lowers it.
  const uint64_t one = DistanceCallsOf(stats_, 1, lines_);
  const uint64_t four = DistanceCallsOf(stats_, 4, lines_);
  if (trace::kCompiledIn) {
    EXPECT_GT(one, 0u);
  }
  EXPECT_GE(four, one);
}

TEST_F(OptionsTest, DistanceOptionsThatCouldGoNegativeAreRejected) {
  // The distance memo needs d >= 0; alpha outside [0, 1], a NaN alpha or a
  // negative null-null price could break that, so extraction refuses them.
  const double bad_alpha[] = {-0.1, 1.5, std::nan("")};
  for (double alpha : bad_alpha) {
    TegraOptions opts;
    opts.distance.alpha = alpha;
    TegraExtractor tegra(stats_, opts);
    EXPECT_EQ(tegra.Extract(lines_).status().code(),
              StatusCode::kInvalidArgument)
        << alpha;
  }
  TegraOptions opts;
  opts.distance.null_null_distance = -1;
  TegraExtractor tegra(stats_, opts);
  EXPECT_EQ(tegra.ExtractWithColumns(lines_, 2).status().code(),
            StatusCode::kInvalidArgument);
  opts.distance.null_null_distance = 0;
  opts.distance.alpha = 1;
  EXPECT_TRUE(TegraExtractor(stats_, opts).Extract(lines_).ok());
}

// ---- distance ablation knobs ---------------------------------------------

TEST(DistanceKnobsTest, TypeCoherenceToggle) {
  CellCatalog catalog(nullptr);
  const CellInfo& a = catalog.Register("1,532,001", 1);
  const CellInfo& b = catalog.Register("874,223", 1);
  CellDistance with(nullptr, {});
  DistanceOptions off_opts;
  off_opts.type_coherence = false;
  CellDistance without(nullptr, off_opts);
  EXPECT_DOUBLE_EQ(with.SemanticDistance(a, b), 0.55);
  EXPECT_DOUBLE_EQ(without.SemanticDistance(a, b), 1.0);
}

TEST(DistanceKnobsTest, KnownValuePriorToggle) {
  ColumnIndex index;
  index.AddColumn({"alpha"});
  index.AddColumn({"omega"});
  index.Finalize();
  CorpusStats stats(&index);
  CellCatalog catalog(&index);
  const CellInfo& a = catalog.Register("alpha", 1);
  const CellInfo& b = catalog.Register("omega", 1);
  CellDistance with(&stats, {});
  DistanceOptions off_opts;
  off_opts.known_value_prior = false;
  CellDistance without(&stats, off_opts);
  EXPECT_DOUBLE_EQ(with.SemanticDistance(a, b), 0.85);
  EXPECT_DOUBLE_EQ(without.SemanticDistance(a, b), 1.0);
}

TEST(DistanceKnobsTest, NullNullPriceConfigurable) {
  CellCatalog catalog(nullptr);
  DistanceOptions opts;
  opts.null_null_distance = 0.5;
  CellDistance d(nullptr, opts);
  EXPECT_DOUBLE_EQ(d.Distance(catalog.NullCell(), catalog.NullCell()), 0.5);
}

}  // namespace
}  // namespace tegra
