// Golden exactness test: pins the outputs and deterministic work counters of
// Extract, ExtractWithColumns and ExtractWithExamples on fixed benchmark
// lists against a fixed in-process background corpus.
//
// Each case records the chosen column count, an FNV-1a digest of the
// per-line bounds, the exact bit pattern of SP, the A* nodes expanded, and
// the number of distinct cell pairs a public-function replay of the final
// pass evaluates (DistanceCache::size()). Layout changes to the alignment
// kernel or its memo must leave every value unchanged; a change that alters
// the search or the objective shows up here as a mismatch.
//
// On a mismatch the test prints the full table of observed rows in the
// initializer syntax of kGolden below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/anchor_search.h"
#include "core/list_context.h"
#include "core/objective.h"
#include "core/segmentation.h"
#include "core/tegra.h"
#include "corpus/column_index.h"
#include "corpus/corpus_stats.h"
#include "eval/benchmark_data.h"
#include "eval/experiment.h"
#include "synth/corpus_gen.h"

namespace tegra {
namespace {

constexpr size_t kListsPerDataset = 6;

struct GoldenRow {
  int num_columns;
  uint64_t bounds_digest;
  uint64_t sp_bits;
  uint64_t nodes_expanded;
  uint64_t replay_pairs;

  bool operator==(const GoldenRow&) const = default;
};

// Rows in order: for each dataset (Web, Wiki, Enterprise), for each of its
// first kListsPerDataset lists: Extract, ExtractWithColumns(true m),
// ExtractWithExamples(2 example rows).
const std::vector<GoldenRow> kGolden = {
    {5, 0x149867ebe3b829bULL, 0x4071b3ab3ddba7b0ULL, 246, 127166},
    {5, 0x149867ebe3b829bULL, 0x4071b3ab3ddba7b0ULL, 90, 127166},
    {5, 0x149867ebe3b829bULL, 0x408836d5d1cc0e5bULL, 82, 103356},
    {7, 0x1c76c19f7dd8f1a7ULL, 0x4038c63216522c4fULL, 314, 39655},
    {9, 0xc17f87b618b7cd24ULL, 0x404033ce6270d483ULL, 53, 39655},
    {9, 0x8c31c4712a69089aULL, 0x4050c3612f061cacULL, 30, 15360},
    {5, 0x36674d675b7d1d30ULL, 0x407196384cd9550eULL, 518, 106769},
    {5, 0x36674d675b7d1d30ULL, 0x407196384cd9550eULL, 90, 106769},
    {5, 0x74e97162870dece1ULL, 0x4086f23a90cd2c49ULL, 83, 85745},
    {5, 0x77c7b496f2e47dc5ULL, 0x404c0a11a804c808ULL, 238, 24780},
    {4, 0x524214f1d00796d5ULL, 0x404687410b2c26adULL, 42, 24780},
    {4, 0x4b6447bfc002e2e2ULL, 0x405b06815924d545ULL, 26, 15167},
    {3, 0x2824d789083ca057ULL, 0x40614838df75c571ULL, 90, 6712},
    {3, 0x2824d789083ca057ULL, 0x40614838df75c571ULL, 51, 6712},
    {3, 0x2824d789083ca057ULL, 0x4077787de4abeaa8ULL, 47, 6037},
    {8, 0xb3aa93bdd2fcfc5bULL, 0x4065136760c364e8ULL, 961, 279798},
    {8, 0xb3aa93bdd2fcfc5bULL, 0x4065136760c364e8ULL, 364, 279798},
    {8, 0xb3aa93bdd2fcfc5bULL, 0x407a6c0e787beaf5ULL, 105, 191743},
    {6, 0xcbef66bbbef0201eULL, 0x406345ae7159d5f7ULL, 229, 64541},
    {7, 0x427be98ca368d625ULL, 0x4066ed074f1d0d21ULL, 91, 64541},
    {7, 0x427be98ca368d625ULL, 0x407e411251d2d3cfULL, 79, 48305},
    {2, 0xa211681fb6c67340ULL, 0x403d2b6e26d7ae3fULL, 230, 3115},
    {2, 0xa211681fb6c67340ULL, 0x403d2b6e26d7ae3fULL, 18, 3115},
    {2, 0xa211681fb6c67340ULL, 0x4051bf28ac94a91dULL, 16, 2293},
    {4, 0x4c3cbcc3e53c2337ULL, 0x406467501f0cd86cULL, 567, 55313},
    {4, 0x4c3cbcc3e53c2337ULL, 0x406467501f0cd86cULL, 68, 55313},
    {4, 0x4c3cbcc3e53c2337ULL, 0x407ac43b1e79b200ULL, 54, 48048},
    {2, 0xd9c4b87b383d8d14ULL, 0x405ec0f64d83dcc4ULL, 93, 1841},
    {2, 0xd9c4b87b383d8d14ULL, 0x405ec0f64d83dcc4ULL, 36, 1841},
    {2, 0xb93115e65250cc57ULL, 0x4079035e262aa2dcULL, 34, 1610},
    {7, 0x6bbd306b1b0fb842ULL, 0x404bf0af79cc2aa8ULL, 351, 67743},
    {7, 0x6bbd306b1b0fb842ULL, 0x404bf0af79cc2aa8ULL, 49, 67743},
    {7, 0x6bbd306b1b0fb842ULL, 0x40602b62f34a7c02ULL, 41, 36584},
    {4, 0x741e2cf84849ba42ULL, 0x405a448f75e12784ULL, 140, 20309},
    {4, 0x741e2cf84849ba42ULL, 0x405a448f75e12784ULL, 52, 20309},
    {4, 0x741e2cf84849ba42ULL, 0x40711b4edc7f6aaeULL, 46, 15930},
    {6, 0x6206230c835d72e5ULL, 0x408626389efbbde8ULL, 1454, 972609},
    {7, 0x512842aeba06b75ULL, 0x408a37056bc88ab2ULL, 713, 972609},
    {7, 0xb7dbb5fe6b22203dULL, 0x40a2a4984e2417a6ULL, 215, 815263},
    {3, 0xf467562cefa4c457ULL, 0x4057dcfc9992db64ULL, 63, 3871},
    {3, 0xf467562cefa4c457ULL, 0x4057dcfc9992db64ULL, 45, 3871},
    {3, 0xf467562cefa4c457ULL, 0x406fcc1321b097acULL, 41, 3364},
    {8, 0xc37118a2fddc45d8ULL, 0x408a1fcc911016afULL, 389, 352280},
    {7, 0xee39119276048d3fULL, 0x4087b521e6656bfdULL, 177, 352280},
    {7, 0x3e72112d4e26cc7eULL, 0x40a07f54216a9ba1ULL, 176, 302385},
    {5, 0x4874cf0d36917306ULL, 0x4074e5106c0f03a1ULL, 1466, 158074},
    {5, 0x4874cf0d36917306ULL, 0x4074e5106c0f03a1ULL, 123, 158074},
    {5, 0x4874cf0d36917306ULL, 0x408c29948decc963ULL, 88, 129531},
    {4, 0xa9d516d691b19971ULL, 0x4070de19ccaa3a8dULL, 245, 43687},
    {4, 0xa9d516d691b19971ULL, 0x4070de19ccaa3a8dULL, 76, 43687},
    {4, 0xa9d516d691b19971ULL, 0x4086fec7aa1e8fabULL, 70, 36869},
    {2, 0x5de17d7712fe0f07ULL, 0x405fb77f4c6e1a08ULL, 87, 1997},
    {2, 0x5de17d7712fe0f07ULL, 0x405fb77f4c6e1a08ULL, 39, 1997},
    {2, 0x5de17d7712fe0f07ULL, 0x4076275e95a17bf6ULL, 37, 1548},
};

uint64_t BoundsDigest(const std::vector<Bounds>& bounds) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const Bounds& line : bounds) {
    mix(static_cast<uint32_t>(line.size()));
    for (uint32_t b : line) mix(b);
  }
  return h;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

class ExtractGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new ColumnIndex(synth::BuildBackgroundIndex(
        synth::CorpusProfile::kWeb, /*num_tables=*/800, /*seed=*/515));
    stats_ = new CorpusStats(index_);
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete index_;
  }

  /// Replays the extractor's final pass at the result's column count (every
  /// anchor, A*, induce, SP) from the public core functions with one fresh
  /// DistanceCache, checks it reproduces the result, and returns the
  /// cache's distinct-pair count.
  static uint64_t ReplayPairs(const TegraOptions& options,
                              const eval::EvalInstance& list,
                              const std::vector<SegmentationExample>* examples,
                              const ExtractionResult& result) {
    Tokenizer tokenizer(options.tokenizer);
    std::vector<std::vector<std::string>> tokens;
    for (const std::string& line : list.lines) {
      tokens.push_back(tokenizer.Tokenize(line));
    }
    ListContext ctx(std::move(tokens), &stats_->index());
    if (examples != nullptr) {
      for (const SegmentationExample& ex : *examples) {
        Result<Bounds> bounds =
            CellsToBounds(ctx.tokens(ex.line_index), ex.cells, tokenizer);
        EXPECT_TRUE(bounds.ok());
        if (!bounds.ok()) return 0;
        ctx.SetFixedBounds(ex.line_index, std::move(bounds).value());
      }
    }
    const int m = result.num_columns;
    const uint32_t cap = static_cast<uint32_t>(options.max_cell_tokens);
    for (size_t j = 0; j < ctx.num_lines(); ++j) {
      ctx.EnsureWidth(j, ctx.EffectiveWidth(j, m, cap));
    }
    CellDistance distance(stats_, options.distance);
    DistanceCache cache(&distance);
    double best = std::numeric_limits<double>::infinity();
    size_t best_anchor = 0;
    Bounds best_bounds;
    for (size_t anchor = 0; anchor < ctx.num_lines(); ++anchor) {
      AnchorSearchResult r = MinimizeAnchorDistanceAStar(
          ctx, anchor, m, &cache, cap, options.slgr_width_cap,
          options.max_anchor_nodes);
      if (r.anchor_distance < best) {
        best = r.anchor_distance;
        best_anchor = anchor;
        best_bounds = std::move(r.anchor_bounds);
      }
    }
    const std::vector<Bounds> bounds = InduceTable(
        ctx, best_anchor, best_bounds, &cache, cap, options.slgr_width_cap);
    const double sp =
        SumOfPairsDistance(ctx, bounds, &cache, options.max_sp_pairs);
    EXPECT_EQ(bounds, result.bounds);
    EXPECT_EQ(Bits(sp), Bits(result.sp));
    return cache.size();
  }

  static ColumnIndex* index_;
  static CorpusStats* stats_;
};

ColumnIndex* ExtractGoldenTest::index_ = nullptr;
CorpusStats* ExtractGoldenTest::stats_ = nullptr;

TEST_F(ExtractGoldenTest, OutputsAndWorkCountersMatchRecordedValues) {
  std::vector<GoldenRow> observed;
  std::vector<std::string> labels;
  for (eval::DatasetId id : {eval::DatasetId::kWeb, eval::DatasetId::kWiki,
                             eval::DatasetId::kEnterprise}) {
    const std::vector<eval::EvalInstance> lists =
        eval::BuildDataset(id, kListsPerDataset, /*seed=*/0);
    ASSERT_EQ(lists.size(), kListsPerDataset);
    for (const eval::EvalInstance& list : lists) {
      TegraOptions options;
      options.tokenizer = list.tokenizer;
      TegraExtractor tegra(stats_, options);
      const std::vector<SegmentationExample> examples =
          eval::PickExamples(list, /*k=*/2, /*seed=*/7);
      for (int mode = 0; mode < 3; ++mode) {
        Result<ExtractionResult> result =
            mode == 0   ? tegra.Extract(list.lines)
            : mode == 1 ? tegra.ExtractWithColumns(
                              list.lines,
                              static_cast<int>(list.truth.NumCols()))
                        : tegra.ExtractWithExamples(list.lines, examples);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        observed.push_back(
            {result->num_columns, BoundsDigest(result->bounds),
             Bits(result->sp), result->nodes_expanded,
             ReplayPairs(options, list, mode == 2 ? &examples : nullptr,
                         *result)});
        labels.push_back(std::string(eval::DatasetName(id)) + " list " +
                         std::to_string(list.index) + " mode " +
                         std::to_string(mode));
      }
    }
  }

  if (kGolden != observed) {
    std::ostringstream table;
    for (const GoldenRow& r : observed) {
      table << "    {" << r.num_columns << ", 0x" << std::hex
            << r.bounds_digest << "ULL, 0x" << r.sp_bits << "ULL, "
            << std::dec << r.nodes_expanded << ", " << r.replay_pairs
            << "},\n";
    }
    ADD_FAILURE() << "observed rows:\n" << table.str();
  }
  ASSERT_EQ(kGolden.size(), observed.size());
  for (size_t i = 0; i < observed.size(); ++i) {
    EXPECT_EQ(kGolden[i].num_columns, observed[i].num_columns) << labels[i];
    EXPECT_EQ(kGolden[i].bounds_digest, observed[i].bounds_digest)
        << labels[i];
    EXPECT_EQ(kGolden[i].sp_bits, observed[i].sp_bits) << labels[i];
    EXPECT_EQ(kGolden[i].nodes_expanded, observed[i].nodes_expanded)
        << labels[i];
    EXPECT_EQ(kGolden[i].replay_pairs, observed[i].replay_pairs) << labels[i];
  }
}

}  // namespace
}  // namespace tegra
