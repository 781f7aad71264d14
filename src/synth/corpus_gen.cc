#include "synth/corpus_gen.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <string>
#include "common/string_util.h"
#include "corpus/column_index.h"

namespace tegra::synth {

namespace {

using PoolEntry = std::pair<DomainKind, double>;

/// Builds a cumulative-weight lookup table from (domain, weight) pairs.
std::vector<std::pair<double, DomainKind>> BuildCumulative(
    const std::vector<PoolEntry>& entries) {
  std::vector<std::pair<double, DomainKind>> out;
  out.reserve(entries.size());
  double acc = 0;
  for (const auto& [kind, weight] : entries) {
    acc += weight;
    out.emplace_back(acc, kind);
  }
  // Normalize to [0, 1].
  for (auto& [w, kind] : out) w /= acc;
  return out;
}

std::vector<PoolEntry> TextPoolFor(CorpusProfile profile) {
  switch (profile) {
    case CorpusProfile::kWeb:
      return {
          {DomainKind::kWorldCity, 3.0},  {DomainKind::kUsCity, 2.5},
          {DomainKind::kCountry, 2.5},    {DomainKind::kUsState, 2.0},
          {DomainKind::kPersonName, 3.0}, {DomainKind::kCompany, 1.5},
          {DomainKind::kUniversity, 1.5}, {DomainKind::kSportsTeam, 2.0},
          {DomainKind::kMovie, 2.0},      {DomainKind::kAirport, 1.2},
          {DomainKind::kMonth, 0.6},      {DomainKind::kWeekday, 0.3},
          {DomainKind::kColor, 0.5},      {DomainKind::kElement, 0.4},
          {DomainKind::kLanguage, 0.5},   {DomainKind::kAnimal, 0.5},
          {DomainKind::kOccupation, 0.6}, {DomainKind::kGenre, 0.5},
          {DomainKind::kProduct, 1.8},    {DomainKind::kDateMonDay, 1.0},
          {DomainKind::kDateYmd, 0.7},    {DomainKind::kTime, 0.5},
          {DomainKind::kEmail, 0.5},      {DomainKind::kPhone, 0.5},
          {DomainKind::kIdCode, 0.7},     {DomainKind::kStreetAddress, 2.0},
          {DomainKind::kPhrase, 3.5},     {DomainKind::kFirstName, 1.0},
      };
    case CorpusProfile::kWiki:
      // Wikipedia content: same public-web domains, but cleaner — no
      // emails/phones/SKUs, heavier on encyclopedic domains.
      return {
          {DomainKind::kWorldCity, 3.0},  {DomainKind::kUsCity, 2.5},
          {DomainKind::kCountry, 2.5},    {DomainKind::kUsState, 2.0},
          {DomainKind::kPersonName, 3.0}, {DomainKind::kCompany, 1.2},
          {DomainKind::kUniversity, 2.0}, {DomainKind::kSportsTeam, 2.5},
          {DomainKind::kMovie, 2.5},      {DomainKind::kAirport, 1.5},
          {DomainKind::kMonth, 0.6},      {DomainKind::kWeekday, 0.3},
          {DomainKind::kColor, 0.4},      {DomainKind::kElement, 0.6},
          {DomainKind::kLanguage, 0.6},   {DomainKind::kAnimal, 0.5},
          {DomainKind::kOccupation, 0.6}, {DomainKind::kGenre, 0.6},
          {DomainKind::kDateMonDay, 1.0}, {DomainKind::kDateYmd, 0.7},
          {DomainKind::kPhrase, 3.5},     {DomainKind::kStreetAddress, 0.5},
          {DomainKind::kFirstName, 1.0},
      };
    case CorpusProfile::kEnterprise:
      return {
          {DomainKind::kEnterpriseCustomer, 3.0},
          {DomainKind::kEnterpriseProject, 2.0},
          {DomainKind::kEnterpriseEmployee, 2.5},
          {DomainKind::kDepartment, 2.0},
          {DomainKind::kStatus, 2.0},
          {DomainKind::kProduct, 1.5},
          {DomainKind::kCountry, 1.0},
          {DomainKind::kUsCity, 0.7},
          {DomainKind::kPersonName, 0.5},
          {DomainKind::kEmail, 1.2},
          {DomainKind::kIdCode, 2.0},
          {DomainKind::kDateYmd, 1.2},
          {DomainKind::kQuarter, 1.0},
          {DomainKind::kCostCenter, 1.0},
          {DomainKind::kPhrase, 2.0},
          {DomainKind::kStreetAddress, 1.5},
          {DomainKind::kFirstName, 0.5},
      };
  }
  return {};
}

std::vector<PoolEntry> NumericPoolFor(CorpusProfile profile) {
  switch (profile) {
    case CorpusProfile::kWeb:
    case CorpusProfile::kWiki:
      return {
          {DomainKind::kRank, 2.0},    {DomainKind::kSmallInt, 2.0},
          {DomainKind::kLargeInt, 2.5}, {DomainKind::kDecimal, 2.0},
          {DomainKind::kPercent, 1.0}, {DomainKind::kMoney, 1.5},
          {DomainKind::kYear, 2.0},
      };
    case CorpusProfile::kEnterprise:
      return {
          {DomainKind::kMoney, 3.0},   {DomainKind::kSmallInt, 2.0},
          {DomainKind::kLargeInt, 2.0}, {DomainKind::kDecimal, 2.5},
          {DomainKind::kPercent, 1.5}, {DomainKind::kYear, 1.0},
          {DomainKind::kRank, 1.0},
      };
  }
  return {};
}

}  // namespace

const char* CorpusProfileName(CorpusProfile profile) {
  switch (profile) {
    case CorpusProfile::kWeb:
      return "Web";
    case CorpusProfile::kWiki:
      return "Wiki";
    case CorpusProfile::kEnterprise:
      return "Enterprise";
  }
  return "unknown";
}

Result<CorpusSpec> ParseCorpusSpec(const std::string& spec) {
  const std::vector<std::string> parts = SplitExact(spec, ":");
  const Status bad = Status::InvalidArgument("bad corpus spec: " + spec);
  CorpusSpec out;
  if (parts[0] == "web") {
    out.profile = CorpusProfile::kWeb;
  } else if (parts[0] == "wiki") {
    out.profile = CorpusProfile::kWiki;
  } else if (parts[0] == "enterprise") {
    out.profile = CorpusProfile::kEnterprise;
  } else {
    return Status::InvalidArgument("unknown profile in corpus spec: " + spec);
  }
  if (parts.size() > 3) return bad;
  // Table count, then seed: each a whole non-negative decimal integer.
  uint64_t fields[2] = {out.tables, out.seed};
  for (size_t i = 1; i < parts.size(); ++i) {
    const std::string& text = parts[i];
    const char* end = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), end, fields[i - 1]);
    if (parsed.ec != std::errc() || parsed.ptr != end) return bad;
  }
  out.tables = static_cast<size_t>(fields[0]);
  out.seed = fields[1];
  return out;
}

TableGenOptions DefaultTableGenOptions(CorpusProfile profile) {
  TableGenOptions opts;
  switch (profile) {
    case CorpusProfile::kWeb:
      // Table 1: avg 14.2 rows, 6.2 cols, 43.1% numeric cells.
      opts.min_rows = 5;
      opts.max_rows = 24;
      opts.min_cols = 3;
      opts.max_cols = 10;
      opts.numeric_fraction = 0.43;
      break;
    case CorpusProfile::kWiki:
      // Table 1: avg 11.8 rows, 5.0 cols, 42.1% numeric cells.
      opts.min_rows = 5;
      opts.max_rows = 19;
      opts.min_cols = 2;
      opts.max_cols = 8;
      opts.numeric_fraction = 0.42;
      break;
    case CorpusProfile::kEnterprise:
      // Table 1: avg 15.0 rows, 4.5 cols, 56.8% numeric cells.
      opts.min_rows = 5;
      opts.max_rows = 25;
      opts.min_cols = 2;
      opts.max_cols = 7;
      opts.numeric_fraction = 0.57;
      break;
  }
  return opts;
}

TableGenerator::TableGenerator(CorpusProfile profile, uint64_t seed)
    : TableGenerator(profile, DefaultTableGenOptions(profile), seed) {}

TableGenerator::TableGenerator(CorpusProfile profile, TableGenOptions options,
                               uint64_t seed)
    : profile_(profile),
      options_(options),
      rng_(seed),
      text_pool_(BuildCumulative(TextPoolFor(profile))),
      numeric_pool_(BuildCumulative(NumericPoolFor(profile))) {}

DomainKind TableGenerator::SampleDomain(bool numeric) {
  const auto& pool = numeric ? numeric_pool_ : text_pool_;
  const double u = rng_.NextDouble();
  auto it = std::lower_bound(
      pool.begin(), pool.end(), u,
      [](const std::pair<double, DomainKind>& e, double v) {
        return e.first < v;
      });
  if (it == pool.end()) --it;
  return it->second;
}

std::vector<DomainKind> TableGenerator::SampleSchema() {
  const int num_cols = static_cast<int>(
      rng_.UniformInt(options_.min_cols, options_.max_cols));
  std::vector<DomainKind> schema;
  schema.reserve(num_cols);
  bool has_rank = false;
  for (int c = 0; c < num_cols; ++c) {
    DomainKind kind = SampleDomain(rng_.Chance(options_.numeric_fraction));
    if (kind == DomainKind::kRank) {
      if (has_rank) kind = DomainKind::kSmallInt;  // At most one rank column.
      has_rank = true;
    }
    schema.push_back(kind);
  }
  // Rank columns lead the table, as in numbered lists (Figure 1).
  auto rank_it = std::find(schema.begin(), schema.end(), DomainKind::kRank);
  if (rank_it != schema.end()) {
    std::rotate(schema.begin(), rank_it, rank_it + 1);
  }
  return schema;
}

Table TableGenerator::GenerateWithShape(const std::vector<DomainKind>& schema,
                                        size_t num_rows) {
  assert(!schema.empty());
  // Generate column-wise so rank sequences stay consecutive, then decide
  // nullability per column.
  std::vector<std::vector<std::string>> columns;
  columns.reserve(schema.size());
  std::string name;
  for (size_t c = 0; c < schema.size(); ++c) {
    const Domain& domain = GetDomain(schema[c]);
    columns.push_back(domain.GenerateColumn(&rng_, num_rows));
    if (c > 0) name += "|";
    name += DomainKindName(schema[c]);

    const bool nullable = c > 0 && schema[c] != DomainKind::kRank &&
                          rng_.Chance(options_.nullable_column_probability);
    if (nullable) {
      for (auto& cell : columns.back()) {
        if (rng_.Chance(options_.null_cell_probability)) cell.clear();
      }
    }
  }

  Table table(schema.size());
  table.set_name(name);
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<std::string> row;
    row.reserve(schema.size());
    bool all_null = true;
    for (size_t c = 0; c < schema.size(); ++c) {
      all_null = all_null && columns[c][r].empty();
      row.push_back(std::move(columns[c][r]));
    }
    if (all_null) {
      // Never emit a fully-null row: the flattened line would be empty.
      row[0] = GetDomain(schema[0]).Sample(&rng_);
    }
    table.AddRow(std::move(row));
  }
  return table;
}

Table TableGenerator::Generate() {
  const auto schema = SampleSchema();
  const size_t num_rows = static_cast<size_t>(
      rng_.UniformInt(options_.min_rows, options_.max_rows));
  return GenerateWithShape(schema, num_rows);
}

std::vector<Table> TableGenerator::GenerateMany(size_t n) {
  std::vector<Table> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(Generate());
  return out;
}

ColumnIndex BuildIndexFromTables(const std::vector<Table>& tables) {
  ColumnIndex index;
  for (const Table& t : tables) index.AddTable(t);
  index.Finalize();
  return index;
}

ColumnIndex BuildBackgroundIndex(CorpusProfile profile, size_t num_tables,
                                 uint64_t seed) {
  TableGenerator gen(profile, seed);
  ColumnIndex index;
  for (size_t i = 0; i < num_tables; ++i) {
    index.AddTable(gen.Generate());
  }
  index.Finalize();
  return index;
}

ColumnIndex BuildCombinedIndex(size_t web_tables, uint64_t web_seed,
                               size_t enterprise_tables,
                               uint64_t enterprise_seed) {
  ColumnIndex index;
  TableGenerator web(CorpusProfile::kWeb, web_seed);
  for (size_t i = 0; i < web_tables; ++i) index.AddTable(web.Generate());
  TableGenerator ent(CorpusProfile::kEnterprise, enterprise_seed);
  for (size_t i = 0; i < enterprise_tables; ++i) {
    index.AddTable(ent.Generate());
  }
  index.Finalize();
  return index;
}

}  // namespace tegra::synth
