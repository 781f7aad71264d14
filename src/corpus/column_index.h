// The value -> columns inverted index over a web-table corpus.
//
// Semantic distance (§2.3.1) needs two statistics: |C(s)|, the number of
// corpus columns containing value s, and |C(s1) ∩ C(s2)|, the number of
// columns containing both. We build a classic inverted index: every column of
// every ingested table gets a global column id; every distinct (normalized)
// cell value gets an interned value id with a sorted postings list of column
// ids. Intersections use galloping search so that a popular value
// ("USA", 100k postings) intersects a rare one in O(rare * log popular).
//
// ColumnIndex is the heap-materialized *build-side* implementation of the
// CorpusView interface. It has no on-disk form of its own: every corpus file
// is a TGRAIDX2 snapshot written from it (src/store/) and served by mmap.

#ifndef TEGRA_CORPUS_COLUMN_INDEX_H_
#define TEGRA_CORPUS_COLUMN_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "corpus/corpus_view.h"
#include "corpus/table.h"

namespace tegra {

/// \brief Inverted index from cell values to the corpus columns containing
/// them.
///
/// Construction: call AddColumn once per corpus column, then Finalize().
/// Lookup methods require a finalized index. The index is immutable (and
/// thus freely shareable across threads) after Finalize().
class ColumnIndex : public CorpusView {
 public:
  ColumnIndex() = default;

  /// Ingests one corpus column. Values are normalized and de-duplicated
  /// within the column (a value occurring twice in a column counts once).
  /// Returns the global id assigned to this column.
  uint32_t AddColumn(const std::vector<std::string>& values);

  /// Ingests every column of `table`.
  void AddTable(const Table& table);

  /// Sorts and compacts all postings. Must be called once after ingestion
  /// and before any lookup.
  void Finalize();

  bool finalized() const { return finalized_; }

  /// Total number of corpus columns ingested (the N of §2.3.1).
  uint64_t TotalColumns() const override { return next_column_id_; }

  /// Number of distinct values in the index.
  size_t NumValues() const override { return postings_.size(); }

  /// Looks up the interned id for a (raw, unnormalized) value, or
  /// kInvalidValueId if the value never occurs in the corpus.
  ValueId Lookup(std::string_view value) const override;

  /// |C(s)| for an interned value id.
  uint32_t ColumnCount(ValueId id) const override {
    return static_cast<uint32_t>(postings_[id].size());
  }

  /// |C(s1) ∩ C(s2)| via galloping intersection of sorted postings.
  uint32_t CoOccurrenceCount(ValueId a, ValueId b) const override;

  /// The normalized string for an interned id (for diagnostics and the
  /// snapshot writer).
  std::string ValueString(ValueId id) const override { return values_[id]; }

  const char* FormatName() const override { return "heap-v1"; }
  size_t HeapBytes() const override { return MemoryUsageBytes(); }
  size_t MappedBytes() const override { return 0; }

  /// Read access to a postings list (used by the TGRAIDX2 snapshot
  /// writer).
  const std::vector<uint32_t>& Postings(ValueId id) const {
    return postings_[id];
  }

  /// Approximate heap usage in bytes (diagnostics).
  size_t MemoryUsageBytes() const;

 private:
  ValueId InternValue(std::string normalized);

  bool finalized_ = false;
  uint32_t next_column_id_ = 0;
  std::unordered_map<std::string, ValueId> value_ids_;
  std::vector<std::string> values_;                 // id -> normalized string
  std::vector<std::vector<uint32_t>> postings_;     // id -> sorted column ids
};

}  // namespace tegra

#endif  // TEGRA_CORPUS_COLUMN_INDEX_H_
