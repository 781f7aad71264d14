// Synthetic table generation: schemas over semantic domains, with per-profile
// shape statistics matched to the paper's Table 1 (average rows, columns and
// numeric-cell fraction of the Web, Wiki and Enterprise datasets).

#ifndef TEGRA_SYNTH_CORPUS_GEN_H_
#define TEGRA_SYNTH_CORPUS_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "corpus/column_index.h"
#include "corpus/table.h"
#include "synth/domain.h"

namespace tegra::synth {

/// \brief Which corpus the generated tables emulate (§5.1.2).
enum class CorpusProfile {
  kWeb,         ///< Web-All: diverse public-web relational content.
  kWiki,        ///< Wikipedia subset: same domains, cleaner content.
  kEnterprise,  ///< Intranet spreadsheets: proprietary names, more numerics.
};

const char* CorpusProfileName(CorpusProfile profile);

/// \brief A synthetic corpus recipe: `tables` generated tables of `profile`
/// from `seed`.
struct CorpusSpec {
  CorpusProfile profile = CorpusProfile::kWeb;
  size_t tables = 5000;
  uint64_t seed = 1;
};

/// \brief Parses the `profile[:tables[:seed]]` corpus spec every tool takes,
/// with profile in {web, wiki, enterprise}; omitted fields keep the
/// CorpusSpec defaults. An unknown profile, or a table count or seed that is
/// not a non-negative integer, is InvalidArgument.
Result<CorpusSpec> ParseCorpusSpec(const std::string& spec);

/// \brief Shape parameters for table generation.
struct TableGenOptions {
  int min_rows = 5;
  int max_rows = 24;
  int min_cols = 3;
  int max_cols = 10;
  /// Probability that a schema slot draws from the numeric domain pool.
  double numeric_fraction = 0.43;
  /// Probability that a column is nullable; nullable columns drop ~8% of
  /// their cells (the paper's running example has a null in l2).
  double nullable_column_probability = 0.2;
  double null_cell_probability = 0.08;
};

/// \brief Default shape options reproducing Table 1 per profile.
TableGenOptions DefaultTableGenOptions(CorpusProfile profile);

/// \brief Generates random tables over weighted domain pools.
///
/// Deterministic given (profile, options, seed). Separate seeds produce
/// disjoint table sets over a shared value universe — exactly the benchmark /
/// background-corpus split of §5.1.4.
class TableGenerator {
 public:
  TableGenerator(CorpusProfile profile, uint64_t seed);
  TableGenerator(CorpusProfile profile, TableGenOptions options,
                 uint64_t seed);

  /// Samples a schema: one domain per column.
  std::vector<DomainKind> SampleSchema();

  /// Generates one table (rows x schema), with the domain list recorded in
  /// Table::name() as "domain1|domain2|...".
  Table Generate();

  /// Generates a table over a fixed schema and row count (used by the
  /// efficiency sweeps of Figure 9).
  Table GenerateWithShape(const std::vector<DomainKind>& schema,
                          size_t num_rows);

  /// Generates `n` tables.
  std::vector<Table> GenerateMany(size_t n);

  CorpusProfile profile() const { return profile_; }
  const TableGenOptions& options() const { return options_; }

 private:
  DomainKind SampleDomain(bool numeric);

  CorpusProfile profile_;
  TableGenOptions options_;
  Rng rng_;
  // Cumulative-weight tables for the two domain pools.
  std::vector<std::pair<double, DomainKind>> text_pool_;
  std::vector<std::pair<double, DomainKind>> numeric_pool_;
};

/// \brief Ingests every column of every table into a finalized index.
ColumnIndex BuildIndexFromTables(const std::vector<Table>& tables);

/// \brief Generates `num_tables` tables with the given profile/seed and
/// builds the finalized background index (the Background-Web /
/// Background-Enterprise corpora of §5.1.4).
ColumnIndex BuildBackgroundIndex(CorpusProfile profile, size_t num_tables,
                                 uint64_t seed);

/// \brief Builds a combined index over two generated corpora
/// (Background-Combined in Table 6).
ColumnIndex BuildCombinedIndex(size_t web_tables, uint64_t web_seed,
                               size_t enterprise_tables,
                               uint64_t enterprise_seed);

}  // namespace tegra::synth

#endif  // TEGRA_SYNTH_CORPUS_GEN_H_
