// Tests for the cell catalog and the distance function, including the metric
// properties (non-negativity, symmetry, triangle inequality) that the
// 2-approximation guarantee of Theorem 2 requires — verified as property
// tests over randomized cell triples.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "distance/cell.h"
#include "distance/distance.h"
#include "synth/corpus_gen.h"
#include "corpus/column_index.h"

namespace tegra {
namespace {

// ---- CellCatalog ---------------------------------------------------------

TEST(CellCatalogTest, NullCellIsIdZero) {
  CellCatalog catalog(nullptr);
  EXPECT_TRUE(catalog.NullCell().is_null());
  EXPECT_EQ(catalog.NullCell().token_count, 0u);
  EXPECT_EQ(catalog.NullCell().type, ValueType::kEmpty);
}

TEST(CellCatalogTest, RegisterInternsOnce) {
  CellCatalog catalog(nullptr);
  const CellInfo& a = catalog.Register("New York", 2);
  const CellInfo& b = catalog.Register("New York", 2);
  EXPECT_EQ(a.local_id, b.local_id);
  EXPECT_EQ(catalog.size(), 2u);  // Null + one value.
}

TEST(CellCatalogTest, FeaturesPrecomputed) {
  CellCatalog catalog(nullptr);
  const CellInfo& cell = catalog.Register("645,966", 1);
  EXPECT_EQ(cell.type, ValueType::kInteger);
  EXPECT_EQ(cell.token_count, 1u);
  EXPECT_EQ(cell.profile.digits, 6);
}

TEST(CellCatalogTest, CorpusIdResolvedWhenIndexGiven) {
  ColumnIndex index;
  index.AddColumn({"Toronto", "Boston"});
  index.Finalize();
  CellCatalog catalog(&index);
  EXPECT_NE(catalog.Register("Toronto", 1).corpus_id, kInvalidValueId);
  EXPECT_EQ(catalog.Register("Nowhere", 1).corpus_id, kInvalidValueId);
}

TEST(CellCatalogTest, StableReferencesAcrossGrowth) {
  CellCatalog catalog(nullptr);
  const CellInfo& first = catalog.Register("first", 1);
  for (int i = 0; i < 1000; ++i) {
    catalog.Register("cell" + std::to_string(i), 1);
  }
  EXPECT_EQ(first.text, "first");  // deque keeps addresses stable.
}

// ---- distance fixture --------------------------------------------------------

class DistanceTest : public ::testing::Test {
 protected:
  DistanceTest()
      : index_(synth::BuildBackgroundIndex(synth::CorpusProfile::kWeb,
                                           /*num_tables=*/800, /*seed=*/21)),
        stats_(&index_),
        distance_(&stats_),
        catalog_(&index_) {}

  const CellInfo& Cell(const std::string& text) {
    size_t tokens = 1 + std::count(text.begin(), text.end(), ' ');
    return catalog_.Register(text, text.empty() ? 0 : tokens);
  }

  ColumnIndex index_;
  CorpusStats stats_;
  CellDistance distance_;
  CellCatalog catalog_;
};

TEST_F(DistanceTest, NullHandlingPerAppendixI) {
  const CellInfo& null_cell = catalog_.NullCell();
  const CellInfo& toronto = Cell("Toronto");
  // d_sem(null, s) = 1.
  EXPECT_DOUBLE_EQ(distance_.SemanticDistance(null_cell, toronto), 1.0);
  // d_syn(null, s) = d_syn("", s): length part 1, type part 1.
  const double syn = distance_.SyntacticDistance(null_cell, toronto);
  EXPECT_GT(syn, 0.5);
  EXPECT_LE(syn, 1.0);
  // Combined d(null, s) around 0.9 (the paper's Figure 5 uses 0.9).
  EXPECT_NEAR(distance_.Distance(null_cell, toronto), 0.9, 0.1);
}

TEST_F(DistanceTest, NullNullIsMaximal) {
  const CellInfo& null_cell = catalog_.NullCell();
  EXPECT_DOUBLE_EQ(distance_.Distance(null_cell, null_cell), 1.0);
}

TEST_F(DistanceTest, IdenticalKnownValuesAreFloor) {
  const CellInfo& a = Cell("London");
  EXPECT_DOUBLE_EQ(distance_.SemanticDistance(a, a), 0.5);
  EXPECT_DOUBLE_EQ(distance_.SyntacticDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(distance_.Distance(a, a), 0.25);  // alpha=0.5 mix.
}

TEST_F(DistanceTest, IdenticalUnknownValuesAreFloor) {
  const CellInfo& a = Cell("zzz-unseen-value");
  EXPECT_DOUBLE_EQ(distance_.SemanticDistance(a, a), 0.5);
}

TEST_F(DistanceTest, SameDomainValuesAreCloserThanCrossDomain) {
  const double same =
      distance_.SemanticDistance(Cell("London"), Cell("Paris"));
  const double cross =
      distance_.SemanticDistance(Cell("London"), Cell("Monday"));
  EXPECT_LT(same, cross);
  EXPECT_GE(same, 0.5);
}

TEST_F(DistanceTest, TypedUnknownPairsAreDomainCoherent) {
  // Unique numerals never co-occur in the corpus, but share a type.
  const double d =
      distance_.SemanticDistance(Cell("1,532,001"), Cell("874,223"));
  EXPECT_DOUBLE_EQ(d, 0.55);
  const double cross =
      distance_.SemanticDistance(Cell("1,532,001"), Cell("12:30"));
  EXPECT_GT(cross, 0.55);
}

TEST_F(DistanceTest, BothKnownWithoutCoOccurrenceGetsPrior) {
  // Two known values from unrelated domains that never share a column, and
  // with different types... both are kText: person-vs-city style. Compose a
  // pair guaranteed known: head vocabulary entries from distinct domains.
  const CellInfo& a = Cell("James");     // May or may not be known.
  const CellInfo& b = Cell("Honolulu");  // Tail city.
  const double d = distance_.SemanticDistance(a, b);
  EXPECT_GE(d, 0.5);
  EXPECT_LE(d, 1.0);
}

TEST_F(DistanceTest, UnknownTextPairsAreMaximal) {
  EXPECT_DOUBLE_EQ(
      distance_.SemanticDistance(Cell("qqq zzz"), Cell("jjj www")), 1.0);
}

TEST_F(DistanceTest, AlphaMixesComponents) {
  const CellInfo& a = Cell("London");
  const CellInfo& b = Cell("New York City");
  CellDistance syntactic_only(&stats_, {.alpha = 1.0});
  CellDistance semantic_only(&stats_, {.alpha = 0.0});
  EXPECT_DOUBLE_EQ(syntactic_only.Distance(a, b),
                   distance_.SyntacticDistance(a, b));
  EXPECT_DOUBLE_EQ(semantic_only.Distance(a, b),
                   distance_.SemanticDistance(a, b));
}

TEST_F(DistanceTest, NullCorpusStatsIsPureSyntaxPlusPenalty) {
  CellDistance no_corpus(nullptr);
  const CellInfo& a = Cell("London");
  const CellInfo& b = Cell("Paris");
  // Semantic part falls back to 1.0 for distinct values without stats.
  EXPECT_DOUBLE_EQ(no_corpus.SemanticDistance(a, b), 1.0);
}

TEST_F(DistanceTest, JaccardMeasureMode) {
  CellDistance jaccard(&stats_, {.alpha = 0.5,
                                 .measure = SemanticMeasure::kJaccard});
  const double d = jaccard.SemanticDistance(Cell("London"), Cell("Paris"));
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

// ---- metric properties (property test) ---------------------------------------

class DistancePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DistancePropertyTest, MetricPropertiesOnRandomTriples) {
  ColumnIndex index = synth::BuildBackgroundIndex(
      synth::CorpusProfile::kWeb, /*num_tables=*/400, /*seed=*/50);
  CorpusStats stats(&index);
  CellDistance distance(&stats);
  CellCatalog catalog(&index);

  // A pool of realistic cells: known values, unknown junk, numerals, nulls.
  synth::TableGenerator gen(synth::CorpusProfile::kWeb,
                            static_cast<uint64_t>(GetParam()) * 7919 + 13);
  std::vector<const CellInfo*> pool;
  pool.push_back(&catalog.NullCell());
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    Table t = gen.Generate();
    const std::string& cell =
        t.Cell(rng.Uniform(t.NumRows()), rng.Uniform(t.NumCols()));
    if (cell.empty()) continue;
    const size_t tokens = 1 + std::count(cell.begin(), cell.end(), ' ');
    pool.push_back(&catalog.Register(cell, tokens));
    // Also junk: a fragment of the cell.
    const size_t half = cell.size() / 2;
    if (half > 0) {
      pool.push_back(&catalog.Register(cell.substr(0, half), 1));
    }
  }

  for (size_t x = 0; x < pool.size(); ++x) {
    for (size_t y = 0; y < pool.size(); ++y) {
      const double dxy = distance.Distance(*pool[x], *pool[y]);
      // Non-negativity and boundedness.
      ASSERT_GE(dxy, 0.0);
      ASSERT_LE(dxy, 1.0 + 1e-12);
      // Symmetry.
      ASSERT_DOUBLE_EQ(dxy, distance.Distance(*pool[y], *pool[x]));
    }
  }
  // Triangle inequality over all triples.
  for (size_t x = 0; x < pool.size(); x += 2) {
    for (size_t y = 0; y < pool.size(); y += 2) {
      for (size_t z = 0; z < pool.size(); z += 2) {
        const double dxz = distance.Distance(*pool[x], *pool[z]);
        const double dxy = distance.Distance(*pool[x], *pool[y]);
        const double dyz = distance.Distance(*pool[y], *pool[z]);
        ASSERT_LE(dxz, dxy + dyz + 1e-9)
            << "triangle violated: '" << pool[x]->text << "' '"
            << pool[y]->text << "' '" << pool[z]->text << "'";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistancePropertyTest,
                         ::testing::Range(1, 6));

// ---- DistanceCache ---------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Registers distinct cells until `catalog` holds ids 0..max_id.
void FillCatalog(CellCatalog* catalog, uint32_t max_id) {
  while (catalog->size() <= max_id) {
    std::string text = std::to_string(catalog->size());
    text.insert(text.begin(), 'v');
    catalog->Register(std::move(text), 1);
  }
}

TEST_F(DistanceTest, CacheReturnsSameValues) {
  DistanceCache cache(&distance_);
  const CellInfo& a = Cell("London");
  const CellInfo& b = Cell("Paris");
  const double direct = distance_.Distance(a, b);
  EXPECT_DOUBLE_EQ(cache(a, b), direct);
  EXPECT_DOUBLE_EQ(cache(b, a), direct);  // Symmetric key.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache(a, b), direct);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(DistanceTest, CacheSizeCountsUnorderedPairsOnce) {
  DistanceCache cache(&distance_);
  const CellInfo& a = Cell("London");
  const CellInfo& b = Cell("Paris");
  cache(a, b);
  cache(b, a);
  EXPECT_EQ(cache.size(), 1u);
  cache(a, a);
  EXPECT_EQ(cache.size(), 2u);
  cache(b, catalog_.NullCell());
  cache(catalog_.NullCell(), b);
  EXPECT_EQ(cache.size(), 3u);
}

TEST_F(DistanceTest, CacheValuesSurviveTileAndGridGrowth) {
  // Ids on both sides of a tile edge (63 | 64) and far past the first grid
  // (4097): values read back after the grid grows must be the ones stored.
  static_assert(DistanceCache::kTile == 64, "ids below straddle 64 tiles");
  FillCatalog(&catalog_, 4097);
  const uint32_t ids[] = {0, 63, 64, 4097};
  DistanceCache cache(&distance_);
  std::vector<uint64_t> first;
  for (uint32_t x : ids) {
    for (uint32_t y : ids) {
      first.push_back(Bits(cache(catalog_.Get(x), catalog_.Get(y))));
    }
  }
  const size_t pairs = cache.size();
  EXPECT_EQ(pairs, 10u);  // 4 * 5 / 2 unordered pairs.
  // Grow the grid in both directions and touch neighbouring tiles.
  FillCatalog(&catalog_, 9000);
  cache(catalog_.Get(9000), catalog_.Get(1));
  cache(catalog_.Get(65), catalog_.Get(8999));
  size_t k = 0;
  for (uint32_t x : ids) {
    for (uint32_t y : ids) {
      EXPECT_EQ(Bits(cache(catalog_.Get(x), catalog_.Get(y))), first[k++])
          << x << "," << y;
    }
  }
  EXPECT_EQ(cache.size(), pairs + 2);
}

TEST_F(DistanceTest, CacheValuesSurviveListToDenseSwitch) {
  // A tile turns from a list into a dense array when its list overflows or
  // after it has answered kTile^2 lookups; values and the pair count must
  // not change across either switch.
  FillCatalog(&catalog_, 200);
  constexpr size_t kDenseTile = sizeof(double) * DistanceCache::kTile *
                                DistanceCache::kTile;
  // Hits: three pairs in tile (0, 1), read until the list gives way.
  DistanceCache hits(&distance_);
  const uint64_t first = Bits(hits(catalog_.Get(1), catalog_.Get(64)));
  hits(catalog_.Get(2), catalog_.Get(65));
  hits(catalog_.Get(3), catalog_.Get(66));
  EXPECT_LT(hits.memory_bytes(), kDenseTile);
  for (uint32_t i = 0; i < DistanceCache::kTile * DistanceCache::kTile; ++i) {
    ASSERT_EQ(Bits(hits(catalog_.Get(1), catalog_.Get(64))), first);
  }
  EXPECT_GE(hits.memory_bytes(), kDenseTile);
  EXPECT_EQ(Bits(hits(catalog_.Get(64), catalog_.Get(1))), first);
  EXPECT_EQ(hits.size(), 3u);
  // Overflow: every pair of ids 1..20 fills tile (0, 0) past its list.
  DistanceCache overflow(&distance_);
  std::vector<uint64_t> stored;
  for (uint32_t x = 1; x <= 20; ++x) {
    for (uint32_t y = 1; y <= 20; ++y) {
      stored.push_back(Bits(overflow(catalog_.Get(x), catalog_.Get(y))));
    }
  }
  EXPECT_GE(overflow.memory_bytes(), kDenseTile);
  EXPECT_EQ(overflow.size(), 20u * 21 / 2);
  size_t k = 0;
  for (uint32_t x = 1; x <= 20; ++x) {
    for (uint32_t y = 1; y <= 20; ++y) {
      EXPECT_EQ(Bits(overflow(catalog_.Get(x), catalog_.Get(y))), stored[k++]);
    }
  }
}

TEST_F(DistanceTest, CopiedCacheIsIndependent) {
  const CellInfo& a = Cell("London");
  const CellInfo& b = Cell("Paris");
  const CellInfo& c = Cell("Tokyo");
  DistanceCache source(&distance_);
  const double ab = source(a, b);
  DistanceCache copy = source;
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(Bits(copy(b, a)), Bits(ab));
  copy(a, c);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(source.size(), 1u);
  source(b, c);
  source(c, c);
  EXPECT_EQ(source.size(), 3u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(Bits(source(a, b)), Bits(ab));
}

TEST(DistanceCacheTest, EveryPairMatchesDistanceBitForBit) {
  ColumnIndex index = synth::BuildBackgroundIndex(
      synth::CorpusProfile::kWeb, /*num_tables=*/400, /*seed=*/50);
  CorpusStats stats(&index);
  CellDistance distance(&stats);
  CellCatalog catalog(&index);
  synth::TableGenerator gen(synth::CorpusProfile::kWeb, /*seed=*/77);
  while (catalog.size() < 200) {
    Table t = gen.Generate();
    for (size_t r = 0; r < t.NumRows() && catalog.size() < 200; ++r) {
      for (size_t col = 0; col < t.NumCols() && catalog.size() < 200; ++col) {
        const std::string& cell = t.Cell(r, col);
        if (cell.empty()) continue;
        catalog.Register(cell, 1 + std::count(cell.begin(), cell.end(), ' '));
      }
    }
  }
  // A miss evaluates in the caller's argument order and serves the stored
  // value for the reversed order.
  DistanceCache cache(&distance);
  const uint32_t n = static_cast<uint32_t>(catalog.size());
  for (uint32_t x = 0; x < n; ++x) {
    for (uint32_t y = x; y < n; ++y) {
      const CellInfo& a = catalog.Get(x);
      const CellInfo& b = catalog.Get(y);
      const uint64_t direct = Bits(distance.Distance(a, b));
      ASSERT_EQ(Bits(cache(a, b)), direct) << x << "," << y;
      ASSERT_EQ(Bits(cache(b, a)), direct) << y << "," << x;
    }
  }
  EXPECT_EQ(cache.size(), size_t{n} * (n + 1) / 2);
}

TEST(DistanceCacheTest, SparseTouchMemoryFollowsTouchedTiles) {
  // One cell against 20,000 others: a dense 20,001^2 matrix of doubles would
  // take 3.2 GB; here every touched tile holds only 64 entries and stays a
  // list, so the memo costs a few dozen bytes per pair.
  CellCatalog catalog(nullptr);
  FillCatalog(&catalog, 20000);
  CellDistance distance(nullptr);
  DistanceCache cache(&distance);
  for (uint32_t id = 1; id <= 20000; ++id) {
    cache(catalog.NullCell(), catalog.Get(id));
  }
  EXPECT_EQ(cache.size(), 20000u);
  EXPECT_LT(cache.memory_bytes(), 64 * cache.size()) << cache.memory_bytes();
}

}  // namespace
}  // namespace tegra
