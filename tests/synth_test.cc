// Tests for the synthetic-data substrate: vocabularies, domains, table
// generation, benchmark construction, the raw-crawl simulator and the
// knowledge base.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/string_util.h"
#include "synth/corpus_gen.h"
#include "synth/knowledge_base.h"
#include "synth/list_gen.h"
#include "synth/vocab.h"
#include "text/tokenizer.h"
#include "text/value_type.h"
#include "corpus/column_index.h"

namespace tegra::synth {
namespace {

// ---- vocabularies ------------------------------------------------------------

TEST(VocabTest, SizesAndUniqueness) {
  struct Entry {
    const char* name;
    const std::vector<std::string>& values;
    size_t min_size;
  };
  const Entry entries[] = {
      {"WorldCities", WorldCities(), 150},
      {"UsCities", UsCities(), 90},
      {"Countries", Countries(), 140},
      {"UsStates", UsStates(), 50},
      {"FirstNames", FirstNames(), 90},
      {"LastNames", LastNames(), 90},
      {"Companies", Companies(), 60},
      {"Universities", Universities(), 45},
      {"SportsTeams", SportsTeams(), 50},
      {"Movies", Movies(), 60},
      {"Months", Months(), 12},
      {"Weekdays", Weekdays(), 7},
      {"Elements", Elements(), 50},
  };
  for (const Entry& e : entries) {
    EXPECT_GE(e.values.size(), e.min_size) << e.name;
    std::set<std::string> unique(e.values.begin(), e.values.end());
    EXPECT_EQ(unique.size(), e.values.size())
        << e.name << " contains duplicates";
  }
}

TEST(VocabTest, MultiTokenEntitiesPresent) {
  // Multi-token names are the segmentation difficulty the corpus must carry.
  int multi = 0;
  for (const auto& city : WorldCities()) {
    if (city.find(' ') != std::string::npos) ++multi;
  }
  EXPECT_GE(multi, 15);
}

TEST(VocabTest, EnterpriseVocabulariesAreDeterministic) {
  const auto& a = EnterpriseCustomers();
  const auto& b = EnterpriseCustomers();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 100u);
  // The proprietary vocabulary must be disjoint from public web content.
  std::set<std::string> web(WorldCities().begin(), WorldCities().end());
  for (const auto& name : a) EXPECT_EQ(web.count(name), 0u) << name;
}

TEST(VocabTest, CountryAbbreviationsPresent) {
  const auto& countries = Countries();
  EXPECT_NE(std::find(countries.begin(), countries.end(), "USA"),
            countries.end());
  EXPECT_NE(std::find(countries.begin(), countries.end(), "UK"),
            countries.end());
}

// ---- domains --------------------------------------------------------------

TEST(DomainTest, CategoricalSamplesComeFromVocabulary) {
  const Domain& domain = GetDomain(DomainKind::kCountry);
  Rng rng(1);
  std::set<std::string> vocab(Countries().begin(), Countries().end());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(vocab.count(domain.Sample(&rng)), 1u);
  }
}

TEST(DomainTest, ZipfHeadDominates) {
  const Domain& domain = GetDomain(DomainKind::kWorldCity);
  Rng rng(2);
  size_t head_hits = 0;
  std::set<std::string> head(WorldCities().begin(),
                             WorldCities().begin() + 20);
  for (int i = 0; i < 1000; ++i) {
    head_hits += head.count(domain.Sample(&rng));
  }
  // 20 of ~170 values should absorb well over a third of samples under Zipf.
  EXPECT_GT(head_hits, 350u);
}

TEST(DomainTest, GeneratedValuesMatchTheirTypes) {
  Rng rng(3);
  struct Case {
    DomainKind kind;
    ValueType expected;
  };
  const Case cases[] = {
      {DomainKind::kSmallInt, ValueType::kInteger},
      {DomainKind::kLargeInt, ValueType::kInteger},
      {DomainKind::kDecimal, ValueType::kDecimal},
      {DomainKind::kPercent, ValueType::kPercent},
      {DomainKind::kMoney, ValueType::kCurrency},
      {DomainKind::kYear, ValueType::kYear},
      {DomainKind::kDateYmd, ValueType::kDate},
      {DomainKind::kDateMonDay, ValueType::kDate},
      {DomainKind::kTime, ValueType::kTime},
      {DomainKind::kEmail, ValueType::kEmail},
      {DomainKind::kPhone, ValueType::kPhone},
      {DomainKind::kIdCode, ValueType::kIdCode},
  };
  for (const Case& c : cases) {
    for (int i = 0; i < 50; ++i) {
      const std::string v = GetDomain(c.kind).Sample(&rng);
      EXPECT_EQ(DetectValueType(v), c.expected)
          << DomainKindName(c.kind) << " produced '" << v << "'";
    }
  }
}

TEST(DomainTest, RankColumnIsSequential) {
  Rng rng(4);
  const auto column = GetDomain(DomainKind::kRank).GenerateColumn(&rng, 5);
  EXPECT_EQ(column, (std::vector<std::string>{"1", "2", "3", "4", "5"}));
}

TEST(DomainTest, PersonNamesAreTwoOrThreeTokens) {
  Rng rng(5);
  Tokenizer tok;
  bool saw_three = false;
  for (int i = 0; i < 200; ++i) {
    const std::string name = GetDomain(DomainKind::kPersonName).Sample(&rng);
    const size_t tokens = tok.CountTokens(name);
    EXPECT_GE(tokens, 2u) << name;
    EXPECT_LE(tokens, 3u) << name;
    saw_three = saw_three || tokens == 3;
  }
  EXPECT_TRUE(saw_three) << "middle names should occur";
}

TEST(DomainTest, StreetAddressShape) {
  Rng rng(6);
  Tokenizer tok;
  for (int i = 0; i < 50; ++i) {
    const std::string addr =
        GetDomain(DomainKind::kStreetAddress).Sample(&rng);
    EXPECT_EQ(tok.CountTokens(addr), 3u) << addr;
    EXPECT_TRUE(IsNumericType(DetectValueType(tok.Tokenize(addr)[0])));
  }
}

TEST(DomainTest, NumericClassification) {
  EXPECT_TRUE(IsNumericDomain(DomainKind::kMoney));
  EXPECT_TRUE(IsNumericDomain(DomainKind::kRank));
  EXPECT_FALSE(IsNumericDomain(DomainKind::kPhrase));
  EXPECT_FALSE(IsNumericDomain(DomainKind::kEmail));
}

// ---- table generation --------------------------------------------------------

TEST(CorpusSpecTest, ParsesValidSpecsAndRejectsMalformedOnes) {
  struct Case {
    const char* spec;
    bool ok;
    CorpusProfile profile;
    size_t tables;
    uint64_t seed;
  };
  const Case cases[] = {
      {"web:300:7", true, CorpusProfile::kWeb, 300, 7},
      {"enterprise:0:0", true, CorpusProfile::kEnterprise, 0, 0},
      {"wiki", true, CorpusProfile::kWiki, 5000, 1},  // defaults
      {"web:12", true, CorpusProfile::kWeb, 12, 1},
      {"foo:100", false, {}, 0, 0},  // unknown profile
      {"Web:100", false, {}, 0, 0},
      {"", false, {}, 0, 0},
      {"web:abc", false, {}, 0, 0},  // non-numeric count
      {"web:", false, {}, 0, 0},
      {"web:-5", false, {}, 0, 0},
      {"web:12x", false, {}, 0, 0},
      {"web:10:seed", false, {}, 0, 0},
      {"web:10:1:extra", false, {}, 0, 0},
  };
  for (const Case& c : cases) {
    const auto parsed = ParseCorpusSpec(c.spec);
    ASSERT_EQ(parsed.ok(), c.ok) << c.spec;
    if (!c.ok) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << c.spec;
      continue;
    }
    EXPECT_EQ(parsed->profile, c.profile) << c.spec;
    EXPECT_EQ(parsed->tables, c.tables) << c.spec;
    EXPECT_EQ(parsed->seed, c.seed) << c.spec;
  }
}

TEST(TableGeneratorTest, DeterministicGivenSeed) {
  TableGenerator a(CorpusProfile::kWeb, 99);
  TableGenerator b(CorpusProfile::kWeb, 99);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.Generate(), b.Generate());
  }
}

TEST(TableGeneratorTest, DifferentSeedsDiffer) {
  TableGenerator a(CorpusProfile::kWeb, 1);
  TableGenerator b(CorpusProfile::kWeb, 2);
  EXPECT_NE(a.Generate(), b.Generate());
}

TEST(TableGeneratorTest, ShapeWithinProfileBounds) {
  TableGenerator gen(CorpusProfile::kWiki, 7);
  const TableGenOptions opts = DefaultTableGenOptions(CorpusProfile::kWiki);
  for (int i = 0; i < 50; ++i) {
    Table t = gen.Generate();
    EXPECT_GE(static_cast<int>(t.NumRows()), opts.min_rows);
    EXPECT_LE(static_cast<int>(t.NumRows()), opts.max_rows);
    EXPECT_GE(static_cast<int>(t.NumCols()), opts.min_cols);
    EXPECT_LE(static_cast<int>(t.NumCols()), opts.max_cols);
  }
}

TEST(TableGeneratorTest, NumericFractionTracksProfile) {
  TableGenerator gen(CorpusProfile::kEnterprise, 11);
  double numeric = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) numeric += gen.Generate().NumericCellFraction();
  numeric /= n;
  // Target is 57%; dates/ids/emails are non-numeric, allow a wide band.
  EXPECT_GT(numeric, 0.40);
  EXPECT_LT(numeric, 0.75);
}

TEST(TableGeneratorTest, NoFullyNullRows) {
  TableGenerator gen(CorpusProfile::kWeb, 13);
  for (int i = 0; i < 100; ++i) {
    Table t = gen.Generate();
    for (size_t r = 0; r < t.NumRows(); ++r) {
      bool all_null = true;
      for (size_t c = 0; c < t.NumCols(); ++c) {
        all_null = all_null && t.Cell(r, c).empty();
      }
      EXPECT_FALSE(all_null);
    }
  }
}

TEST(TableGeneratorTest, GenerateWithShapeHonorsRequest) {
  TableGenerator gen(CorpusProfile::kWeb, 17);
  Table t = gen.GenerateWithShape(
      {DomainKind::kCountry, DomainKind::kSmallInt}, 7);
  EXPECT_EQ(t.NumRows(), 7u);
  EXPECT_EQ(t.NumCols(), 2u);
  EXPECT_EQ(t.name(), "country|small_int");
}

TEST(BuildIndexTest, BackgroundIndexIsFinalizedAndPopulated) {
  ColumnIndex index = BuildBackgroundIndex(CorpusProfile::kWeb, 100, 3);
  EXPECT_TRUE(index.finalized());
  EXPECT_GT(index.TotalColumns(), 200u);
  EXPECT_GT(index.NumValues(), 500u);
}

TEST(BuildIndexTest, CombinedCoversBothProfiles) {
  ColumnIndex combined = BuildCombinedIndex(150, 3, 150, 4);
  // Public web content and proprietary enterprise content both present.
  EXPECT_NE(combined.Lookup("london"), kInvalidValueId);
  bool found_enterprise = false;
  for (const auto& customer : EnterpriseCustomers()) {
    if (combined.Lookup(customer) != kInvalidValueId) {
      found_enterprise = true;
      break;
    }
  }
  EXPECT_TRUE(found_enterprise);
}

TEST(BuildIndexTest, WebCorpusLacksEnterpriseNames) {
  ColumnIndex web = BuildBackgroundIndex(CorpusProfile::kWeb, 200, 3);
  for (const auto& customer : EnterpriseCustomers()) {
    EXPECT_EQ(web.Lookup(customer), kInvalidValueId) << customer;
  }
}

// ---- benchmark construction -----------------------------------------------

TEST(ListGenTest, LinesMatchGroundTruthJoin) {
  auto instances = MakeBenchmark(CorpusProfile::kWeb, 20, 5);
  ASSERT_EQ(instances.size(), 20u);
  for (const auto& inst : instances) {
    ASSERT_EQ(inst.lines.size(), inst.ground_truth.NumRows());
    for (size_t r = 0; r < inst.lines.size(); ++r) {
      EXPECT_EQ(inst.lines[r], Join(inst.ground_truth.Row(r), " "));
    }
  }
}

TEST(ListGenTest, BenchmarkSeedsAreDisjointStreams) {
  auto a = MakeBenchmark(CorpusProfile::kWeb, 3, 5);
  auto b = MakeBenchmark(CorpusProfile::kWeb, 3, 6);
  EXPECT_NE(a[0].lines, b[0].lines);
}

// ---- raw crawl ---------------------------------------------------------------

TEST(RawCrawlTest, MixRoughlyMatchesOptions) {
  const auto crawl = GenerateRawCrawl(2000, 9);
  size_t counts[4] = {0, 0, 0, 0};
  for (const auto& list : crawl) ++counts[static_cast<int>(list.kind)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / 2000.0, 0.06, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 2000.0, 0.60, 0.05);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 2000.0, 0.20, 0.05);
}

TEST(RawCrawlTest, FilterDropsNavigationAndProse) {
  const auto crawl = GenerateRawCrawl(2000, 10);
  size_t kept_relational = 0;
  size_t kept_other = 0;
  size_t total_relational = 0;
  for (const auto& list : crawl) {
    const bool kept = PassesCrawlFilter(list);
    if (list.kind == RawListKind::kRelational) {
      ++total_relational;
      kept_relational += kept;
    } else {
      kept_other += kept;
    }
  }
  // The filter keeps nearly all relational lists and rejects most junk.
  EXPECT_GT(kept_relational * 10, total_relational * 9);
  EXPECT_LT(kept_other, crawl.size() / 2);
}

TEST(RawCrawlTest, FilterBounds) {
  RawList tiny{{"a b"}, RawListKind::kDegenerate};
  EXPECT_FALSE(PassesCrawlFilter(tiny));
  RawList ok{{"a b", "c d", "e f", "g h", "i j"}, RawListKind::kRelational};
  EXPECT_TRUE(PassesCrawlFilter(ok));
  RawList long_line = ok;
  long_line.lines[2] = std::string(400, 'x');
  for (int i = 0; i < 40; ++i) long_line.lines[2] += " tok";
  EXPECT_FALSE(PassesCrawlFilter(long_line));
}

// ---- knowledge base -----------------------------------------------------------

TEST(KnowledgeBaseTest, LookupIsNormalized) {
  KnowledgeBase kb;
  kb.AddEntity("New York City", "city");
  EXPECT_TRUE(kb.Contains("new  york  CITY"));
  EXPECT_EQ(kb.TypeOf("NEW YORK CITY").value(), "city");
  EXPECT_FALSE(kb.Contains("new york"));
  EXPECT_FALSE(kb.TypeOf("boston").has_value());
}

TEST(KnowledgeBaseTest, GeneralKbCoversPopularHeadOnly) {
  KnowledgeBase kb = KnowledgeBase::BuildGeneral();
  EXPECT_GT(kb.size(), 100u);
  // The head of the city vocabulary is covered; the tail is not.
  EXPECT_TRUE(kb.Contains(WorldCities().front()));
  EXPECT_FALSE(kb.Contains(WorldCities().back()));
  // No proprietary enterprise coverage.
  EXPECT_FALSE(kb.Contains(EnterpriseCustomers().front()));
}

TEST(KnowledgeBaseTest, CoverageOptionScalesSize) {
  KnowledgeBaseOptions narrow;
  narrow.entity_coverage = 0.1;
  KnowledgeBaseOptions wide;
  wide.entity_coverage = 0.9;
  EXPECT_LT(KnowledgeBase::BuildGeneral(narrow).size(),
            KnowledgeBase::BuildGeneral(wide).size());
}

}  // namespace
}  // namespace tegra::synth
