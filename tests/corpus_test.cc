// Tests for Table, ColumnIndex and CorpusStats (including the paper's PMI
// worked example). Corpus files are tested in store_test.

#include <gtest/gtest.h>

#include <cmath>

#include "corpus/column_index.h"
#include "corpus/corpus_stats.h"
#include "corpus/table.h"

namespace tegra {
namespace {

// ---- Table -----------------------------------------------------------------

TEST(TableTest, AddRowFixesWidth) {
  Table t;
  t.AddRow({"a", "b"});
  t.AddRow({"c", "d"});
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.NumCols(), 2u);
  EXPECT_EQ(t.NumCells(), 4u);
  EXPECT_EQ(t.Cell(1, 0), "c");
  EXPECT_EQ(t.Column(1), (std::vector<std::string>{"b", "d"}));
}

TEST(TableTest, NumericFraction) {
  Table t({{"Boston", "42"}, {"Toronto", "7.5"}});
  EXPECT_DOUBLE_EQ(t.NumericCellFraction(), 0.5);
}

TEST(TableTest, NumericFractionIgnoresEmptyCells) {
  Table t(std::vector<std::vector<std::string>>{{"", "42"}});
  EXPECT_DOUBLE_EQ(t.NumericCellFraction(), 1.0);
}

TEST(TableTest, AvgTokensPerCell) {
  Tokenizer tok;
  Table t({{"New York City", "7"}, {"Boston", "12"}});
  // (3 + 1 + 1 + 1) / 4.
  EXPECT_DOUBLE_EQ(t.AvgTokensPerCell(tok), 1.5);
}

TEST(TableTest, ToStringAlignsColumns) {
  Table t({{"a", "bb"}, {"ccc", "d"}});
  EXPECT_EQ(t.ToString(), "| a   | bb |\n| ccc | d  |\n");
}

// ---- NormalizeValue ---------------------------------------------------------

TEST(NormalizeValueTest, CaseAndWhitespace) {
  EXPECT_EQ(NormalizeValue("  New   YORK  "), "new york");
  EXPECT_EQ(NormalizeValue("x"), "x");
  EXPECT_EQ(NormalizeValue("   "), "");
}

// ---- ColumnIndex ------------------------------------------------------------

TEST(ColumnIndexTest, PostingsAndCounts) {
  ColumnIndex index;
  index.AddColumn({"Toronto", "Boston"});
  index.AddColumn({"Toronto", "Chicago"});
  index.AddColumn({"Boston"});
  index.Finalize();

  EXPECT_EQ(index.TotalColumns(), 3u);
  const ValueId toronto = index.Lookup("toronto");
  const ValueId boston = index.Lookup("Boston");  // Case-insensitive.
  ASSERT_NE(toronto, kInvalidValueId);
  ASSERT_NE(boston, kInvalidValueId);
  EXPECT_EQ(index.ColumnCount(toronto), 2u);
  EXPECT_EQ(index.ColumnCount(boston), 2u);
  EXPECT_EQ(index.CoOccurrenceCount(toronto, boston), 1u);
  EXPECT_EQ(index.Lookup("nowhere"), kInvalidValueId);
}

TEST(ColumnIndexTest, DuplicatesWithinColumnCountOnce) {
  ColumnIndex index;
  index.AddColumn({"x", "x", "X", " x "});
  index.Finalize();
  EXPECT_EQ(index.ColumnCount(index.Lookup("x")), 1u);
}

TEST(ColumnIndexTest, EmptyCellsIgnored) {
  ColumnIndex index;
  index.AddColumn({"", "  ", "a"});
  index.Finalize();
  EXPECT_EQ(index.NumValues(), 1u);
}

TEST(ColumnIndexTest, IntersectionAsymmetricSizes) {
  ColumnIndex index;
  // "common" in every column; "rare" in one.
  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> col = {"common", "filler" + std::to_string(i)};
    if (i == 137) col.push_back("rare");
    index.AddColumn(col);
  }
  index.Finalize();
  const ValueId common = index.Lookup("common");
  const ValueId rare = index.Lookup("rare");
  EXPECT_EQ(index.ColumnCount(common), 200u);
  EXPECT_EQ(index.CoOccurrenceCount(common, rare), 1u);
  EXPECT_EQ(index.CoOccurrenceCount(rare, common), 1u);
  EXPECT_EQ(index.UnionCount(rare, common), 200u);
}

TEST(ColumnIndexTest, SelfIntersectionIsCount) {
  ColumnIndex index;
  index.AddColumn({"a"});
  index.AddColumn({"a"});
  index.Finalize();
  const ValueId a = index.Lookup("a");
  EXPECT_EQ(index.CoOccurrenceCount(a, a), 2u);
}

TEST(ColumnIndexTest, AddTableIndexesEveryColumn) {
  Table t({{"Boston", "42"}, {"Toronto", "17"}});
  ColumnIndex index;
  index.AddTable(t);
  index.Finalize();
  EXPECT_EQ(index.TotalColumns(), 2u);
  EXPECT_NE(index.Lookup("boston"), kInvalidValueId);
  EXPECT_NE(index.Lookup("42"), kInvalidValueId);
}

// ---- CorpusStats ------------------------------------------------------------

/// Builds a corpus realizing the paper's Example 2 ratios at a reduced
/// scale: N = 10,000 columns, |C(canada)| = 100, |C(republic of korea)| = 50,
/// co-occurrence 30.
ColumnIndex BuildExample2Corpus() {
  ColumnIndex index;
  for (int i = 0; i < 10000; ++i) {
    std::vector<std::string> col = {"pad" + std::to_string(i)};
    if (i < 30) {
      col.push_back("Canada");
      col.push_back("Republic of Korea");
    } else if (i < 100) {
      col.push_back("Canada");
    } else if (i < 120) {
      col.push_back("Republic of Korea");
    }
    index.AddColumn(col);
  }
  index.Finalize();
  return index;
}

TEST(CorpusStatsTest, PaperExample2Pmi) {
  // PMI = log(p(a,b) / (p(a) p(b))) with p(a)=1e-2, p(b)=5e-3, p(ab)=3e-3:
  // log(3e-3 / 5e-5) = log(60) = 4.094. (The paper's absolute value differs
  // because its N is 100M; the ratio structure is identical.)
  ColumnIndex index = BuildExample2Corpus();
  CorpusStats stats(&index);
  const ValueId a = index.Lookup("canada");
  const ValueId b = index.Lookup("republic of korea");
  EXPECT_NEAR(stats.Probability(a), 0.01, 1e-9);
  EXPECT_NEAR(stats.JointProbability(a, b), 0.003, 1e-9);
  EXPECT_NEAR(stats.Pmi(a, b), std::log(60.0), 1e-9);
  EXPECT_GT(stats.Pmi(a, b), 0) << "strongly related values";
  // NPMI = PMI / -log p(ab).
  EXPECT_NEAR(stats.Npmi(a, b), std::log(60.0) / -std::log(0.003), 1e-9);
}

TEST(CorpusStatsTest, NpmiBounds) {
  ColumnIndex index = BuildExample2Corpus();
  CorpusStats stats(&index);
  const ValueId a = index.Lookup("canada");
  const ValueId b = index.Lookup("republic of korea");
  const ValueId pad = index.Lookup("pad5000");  // Shares no column with b.
  EXPECT_GE(stats.Npmi(a, b), -1.0);
  EXPECT_LE(stats.Npmi(a, b), 1.0);
  // Identical value: NPMI = 1.
  EXPECT_DOUBLE_EQ(stats.Npmi(a, a), 1.0);
  // Never co-occurring: NPMI = -1.
  EXPECT_DOUBLE_EQ(stats.Npmi(b, pad), -1.0);
}

TEST(CorpusStatsTest, SemanticDistanceTransformRange) {
  ColumnIndex index = BuildExample2Corpus();
  CorpusStats stats(&index);
  const ValueId a = index.Lookup("canada");
  const ValueId b = index.Lookup("republic of korea");
  const double d = stats.SemanticDistance(a, b);
  EXPECT_GE(d, 0.5);
  EXPECT_LE(d, 1.0);
  EXPECT_DOUBLE_EQ(stats.SemanticDistance(a, a), 0.5);
  EXPECT_DOUBLE_EQ(stats.SemanticDistance(kInvalidValueId, a), 1.0);
}

TEST(CorpusStatsTest, JaccardMeasure) {
  ColumnIndex index = BuildExample2Corpus();
  CorpusStats stats(&index);
  const ValueId a = index.Lookup("canada");
  const ValueId b = index.Lookup("republic of korea");
  // |A∩B| = 30, |A∪B| = 100 + 50 - 30 = 120.
  EXPECT_NEAR(stats.SemanticDistance(a, b, SemanticMeasure::kJaccard),
              1.0 - 30.0 / 120.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.SemanticDistance(a, a, SemanticMeasure::kJaccard),
                   0.0);
}

TEST(CorpusStatsTest, CacheGrowsAndHits) {
  ColumnIndex index = BuildExample2Corpus();
  CorpusStats stats(&index);
  const ValueId a = index.Lookup("canada");
  const ValueId b = index.Lookup("republic of korea");
  EXPECT_EQ(stats.CacheSize(), 0u);
  (void)stats.JointProbability(a, b);
  EXPECT_EQ(stats.CacheSize(), 1u);
  (void)stats.JointProbability(b, a);  // Symmetric key: no growth.
  EXPECT_EQ(stats.CacheSize(), 1u);
}

TEST(CorpusStatsTest, ColumnFrequency) {
  ColumnIndex index = BuildExample2Corpus();
  CorpusStats stats(&index);
  EXPECT_EQ(stats.ColumnFrequency("Canada"), 100u);
  EXPECT_EQ(stats.ColumnFrequency("never seen"), 0u);
}

TEST(CorpusStatsTest, SymmetricPairsShareOneCacheEntryWithHit) {
  ColumnIndex index = BuildExample2Corpus();
  CorpusStats stats(&index);
  const ValueId a = index.Lookup("canada");
  const ValueId b = index.Lookup("republic of korea");
  (void)stats.JointProbability(a, b);
  (void)stats.JointProbability(b, a);
  const LruCacheStats cache = stats.CoCacheStats();
  EXPECT_EQ(cache.size, 1u);    // (a,b) and (b,a) canonicalize to one key.
  EXPECT_EQ(cache.misses, 1u);  // First order computed...
  EXPECT_EQ(cache.hits, 1u);    // ...reversed order was a memo hit.
}

TEST(CorpusStatsTest, CoCacheStaysWithinConfiguredCapacityUnderStress) {
  ColumnIndex index = BuildExample2Corpus();
  CorpusStatsOptions options;
  options.co_cache_capacity = 128;
  options.co_cache_shards = 4;
  CorpusStats stats(&index, options);

  // Stress far more distinct pairs than the capacity: every pad value
  // against several others. The old unbounded map would hold all ~30k pairs.
  std::vector<ValueId> ids;
  for (int i = 0; i < 250; ++i) {
    ids.push_back(index.Lookup("pad" + std::to_string(i)));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); j += 2) {
      (void)stats.JointProbability(ids[i], ids[j]);
    }
  }
  const LruCacheStats cache = stats.CoCacheStats();
  EXPECT_LE(cache.size, options.co_cache_capacity);
  EXPECT_LE(stats.CacheSize(), options.co_cache_capacity);
  EXPECT_GT(cache.evictions, 0u);
  EXPECT_GT(cache.misses, options.co_cache_capacity);  // Far more traffic...
  EXPECT_EQ(cache.capacity, options.co_cache_capacity);

  // Bounded memoization must never change answers, only recompute them.
  const ValueId a = index.Lookup("canada");
  const ValueId b = index.Lookup("republic of korea");
  EXPECT_NEAR(stats.JointProbability(a, b), 0.003, 1e-9);
  EXPECT_NEAR(stats.JointProbability(b, a), 0.003, 1e-9);
}

TEST(CorpusStatsTest, ZeroCapacityDisablesMemoizationButStaysCorrect) {
  ColumnIndex index = BuildExample2Corpus();
  CorpusStatsOptions options;
  options.co_cache_capacity = 0;
  CorpusStats stats(&index, options);
  const ValueId a = index.Lookup("canada");
  const ValueId b = index.Lookup("republic of korea");
  EXPECT_NEAR(stats.JointProbability(a, b), 0.003, 1e-9);
  EXPECT_NEAR(stats.JointProbability(a, b), 0.003, 1e-9);
  EXPECT_EQ(stats.CacheSize(), 0u);
  EXPECT_EQ(stats.CoCacheStats().hits, 0u);
}

}  // namespace
}  // namespace tegra
