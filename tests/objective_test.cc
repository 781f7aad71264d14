// Tests for the SP objective: the anchor-distance decomposition
// (Equation 7), normalization helpers, table materialization, and the
// 2-approximation guarantee of Theorem 2 verified against brute-force
// optimal SP on small instances.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "corpus/column_index.h"
#include "core/anchor_search.h"
#include "core/objective.h"
#include "core/slgr.h"

namespace tegra {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ListContext SmallContext(const ColumnIndex* index) {
  return ListContext({{"new", "york", "42"}, {"toronto", "7"}, {"boston"}},
                     index);
}

void PrepareAll(ListContext* ctx, int m) {
  for (size_t j = 0; j < ctx->num_lines(); ++j) {
    ctx->EnsureWidth(j, ctx->line_length(j));
  }
  (void)m;
}

TEST(RecordDistanceTest, SumsColumnDistances) {
  CellDistance distance(nullptr);
  DistanceCache cache(&distance);
  ListContext ctx = SmallContext(nullptr);
  PrepareAll(&ctx, 2);
  auto a = ctx.CellsFor(0, {0, 2, 3});
  auto b = ctx.CellsFor(1, {0, 1, 2});
  const double expected = cache(*a[0], *b[0]) + cache(*a[1], *b[1]);
  EXPECT_NEAR(RecordDistance(a, b, &cache), expected, 1e-12);
}

TEST(SumOfPairsTest, MemoMemoryFollowsScatteredPairs) {
  // Exact SP pairs one cell of every line with one cell of every other line,
  // so each pair lands in its own region of the id x id memo. 300 lines of
  // 12 distinct tokens register 23,400 cells; memory must follow the ~270k
  // pairs scored (a hashed memo costs ~60 B a pair), not the tiles they hit.
  constexpr size_t kLines = 300;
  std::vector<std::vector<std::string>> lines(kLines);
  for (size_t i = 0; i < kLines; ++i) {
    for (int t = 0; t < 12; ++t) {
      lines[i].push_back("w" + std::to_string(i) + "t" + std::to_string(t));
    }
  }
  ListContext ctx(std::move(lines), nullptr);
  PrepareAll(&ctx, 6);
  const std::vector<Bounds> table(kLines, Bounds{0, 2, 4, 6, 8, 10, 12});
  CellDistance distance(nullptr);
  DistanceCache cache(&distance);
  SumOfPairsDistance(ctx, table, &cache);
  EXPECT_EQ(cache.size(), kLines * (kLines - 1) / 2 * 6);
  EXPECT_LT(cache.memory_bytes(), 96 * cache.size()) << cache.memory_bytes();
}

TEST(SumOfPairsTest, EquationSevenDecomposition) {
  // SP(T) = 1/2 * sum_i AD(t_i, T): validated on a concrete segmentation.
  CellDistance distance(nullptr);
  DistanceCache cache(&distance);
  ListContext ctx = SmallContext(nullptr);
  PrepareAll(&ctx, 2);
  const std::vector<Bounds> table = {{0, 2, 3}, {0, 1, 2}, {0, 1, 1}};
  const double sp = SumOfPairsDistance(ctx, table, &cache);

  std::vector<std::vector<const CellInfo*>> records;
  for (size_t i = 0; i < 3; ++i) records.push_back(ctx.CellsFor(i, table[i]));
  double ad_sum = 0;
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      ad_sum += RecordDistance(records[i], records[j], &cache);
    }
  }
  EXPECT_NEAR(sp, ad_sum / 2.0, 1e-9);
}

TEST(SumOfPairsTest, SupervisedWeightsApplied) {
  CellDistance distance(nullptr);
  DistanceCache cache(&distance);
  ListContext plain = SmallContext(nullptr);
  ListContext weighted = SmallContext(nullptr);
  PrepareAll(&plain, 2);
  PrepareAll(&weighted, 2);
  const std::vector<Bounds> table = {{0, 2, 3}, {0, 1, 2}, {0, 1, 1}};
  weighted.SetFixedBounds(1, table[1]);
  EXPECT_GT(SumOfPairsDistance(weighted, table, &cache),
            SumOfPairsDistance(plain, table, &cache));
}

TEST(ObjectiveNormalizationTest, PerColumnAndPerPair) {
  EXPECT_DOUBLE_EQ(PerColumnObjective(12.0, 4), 3.0);
  // 4 rows -> 6 pairs; 12 / (6 * 2 columns) = 1.
  EXPECT_DOUBLE_EQ(PerPairObjective(12.0, 4, 2), 1.0);
  EXPECT_DOUBLE_EQ(PerPairObjective(12.0, 1, 2), 0.0);  // No pairs.
}

TEST(MaterializeTableTest, BuildsCellsFromBounds) {
  ListContext ctx = SmallContext(nullptr);
  PrepareAll(&ctx, 2);
  Table t = MaterializeTable(ctx, {{0, 2, 3}, {0, 1, 2}, {0, 1, 1}});
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.NumCols(), 2u);
  EXPECT_EQ(t.Cell(0, 0), "new york");
  EXPECT_EQ(t.Cell(0, 1), "42");
  EXPECT_EQ(t.Cell(2, 1), "");
}

// ---- Theorem 2: the 2-approximation property -----------------------------------

/// Brute-force global optimum of SP over all table segmentations.
double BruteForceOptimalSp(ListContext* ctx, int m, DistanceCache* cache) {
  std::vector<std::vector<Bounds>> per_line;
  for (size_t j = 0; j < ctx->num_lines(); ++j) {
    per_line.push_back(EnumerateBounds(ctx->line_length(j), m, 0));
  }
  double best = kInf;
  std::vector<Bounds> current(ctx->num_lines());
  // Odometer over the cross product (kept tiny by the test inputs).
  std::vector<size_t> idx(ctx->num_lines(), 0);
  while (true) {
    for (size_t j = 0; j < ctx->num_lines(); ++j) {
      current[j] = per_line[j][idx[j]];
    }
    best = std::min(best, SumOfPairsDistance(*ctx, current, cache));
    size_t j = 0;
    while (j < idx.size() && ++idx[j] == per_line[j].size()) {
      idx[j] = 0;
      ++j;
    }
    if (j == idx.size()) break;
  }
  return best;
}

class TwoApproximationTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoApproximationTest, AnchorInducedTableWithinTwiceOptimal) {
  Rng rng(GetParam() * 104729 + 7);
  CellDistance distance(nullptr);
  static const char* kAlphabet[] = {"a", "bb", "7", "x", "1999"};
  for (int iter = 0; iter < 4; ++iter) {
    std::vector<std::vector<std::string>> lines;
    for (int j = 0; j < 3; ++j) {
      const uint32_t n = static_cast<uint32_t>(rng.UniformInt(1, 4));
      std::vector<std::string> toks;
      for (uint32_t t = 0; t < n; ++t) {
        toks.push_back(kAlphabet[rng.Uniform(std::size(kAlphabet))]);
      }
      lines.push_back(std::move(toks));
    }
    ListContext ctx(std::move(lines), nullptr);
    const int m = 2;
    for (size_t j = 0; j < ctx.num_lines(); ++j) {
      ctx.EnsureWidth(j, ctx.line_length(j));
    }
    DistanceCache cache(&distance);

    // TEGRA's choice: best anchor over all lines (Algorithm 1 outer loop).
    double best_ad = kInf;
    std::vector<Bounds> chosen;
    for (size_t anchor = 0; anchor < ctx.num_lines(); ++anchor) {
      const auto result =
          MinimizeAnchorDistanceExhaustive(ctx, anchor, m, &cache, 0);
      if (result.anchor_distance < best_ad) {
        best_ad = result.anchor_distance;
        chosen = InduceTable(ctx, anchor, result.anchor_bounds, &cache, 0);
      }
    }
    const double tegra_sp = SumOfPairsDistance(ctx, chosen, &cache);
    const double optimal_sp = BruteForceOptimalSp(&ctx, m, &cache);
    ASSERT_LE(tegra_sp, 2.0 * optimal_sp + 1e-9)
        << "2-approximation violated (Theorem 2)";
    ASSERT_GE(tegra_sp, optimal_sp - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoApproximationTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace tegra
