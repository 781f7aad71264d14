// CorpusView — the read interface of a background web-table corpus.
//
// TEGRA's semantic-distance substrate (§2.3.1) consumes the corpus through
// exactly two statistics, |C(s)| and |C(s1) ∩ C(s2)|, plus value interning.
// This interface captures that contract so the engine is agnostic to the
// corpus *representation*:
//
//   * ColumnIndex       — the mutable, heap-materialized build-side index
//                         (src/corpus/column_index.h).
//   * store::MmapCorpus — an immutable TGRAIDX2 snapshot mapped read-only
//                         from disk; opens in milliseconds regardless of
//                         corpus size and shares pages across processes
//                         (src/store/mmap_corpus.h).
//
// Everything downstream — CorpusStats, CellCatalog, ListContext, baselines,
// the serving layer — takes a `const CorpusView*`. Implementations must be
// immutable and safe for concurrent reads once published.

#ifndef TEGRA_CORPUS_CORPUS_VIEW_H_
#define TEGRA_CORPUS_CORPUS_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace tegra {

/// Interned id of a distinct cell value. kInvalidValueId means "not in the
/// corpus at all". Ids are representation-local: the same value may carry a
/// different id in a heap index and in a snapshot built from it (snapshots
/// assign ids in sorted order); all statistics are id-assignment invariant.
using ValueId = uint32_t;
inline constexpr ValueId kInvalidValueId = 0xffffffff;

/// \brief Normalizes a cell value for corpus matching: trim + lowercase +
/// whitespace collapse. "New  York " and "new york" index identically.
std::string NormalizeValue(std::string_view s);

/// \brief Abstract read-only view of a value -> columns inverted index.
class CorpusView {
 public:
  virtual ~CorpusView() = default;

  /// Total number of corpus columns (the N of §2.3.1).
  virtual uint64_t TotalColumns() const = 0;

  /// Number of distinct values in the corpus.
  virtual size_t NumValues() const = 0;

  /// Interned id for a (raw, unnormalized) value, or kInvalidValueId when
  /// the value never occurs in the corpus.
  virtual ValueId Lookup(std::string_view value) const = 0;

  /// |C(s)|: number of columns containing value `id`. O(1).
  virtual uint32_t ColumnCount(ValueId id) const = 0;

  /// |C(s1) ∩ C(s2)| via galloping intersection of the two postings lists.
  virtual uint32_t CoOccurrenceCount(ValueId a, ValueId b) const = 0;

  /// |C(s1) ∪ C(s2)| (for the Jaccard alternative of Appendix H).
  virtual uint32_t UnionCount(ValueId a, ValueId b) const {
    return ColumnCount(a) + ColumnCount(b) - CoOccurrenceCount(a, b);
  }

  /// The normalized string for an interned id (diagnostics, snapshot writes).
  virtual std::string ValueString(ValueId id) const = 0;

  /// Invokes `fn` once per distinct value with its id and normalized string,
  /// in an unspecified order. Diagnostics / digest path, not a hot path.
  /// The default assumes ids are dense in [0, NumValues()); representations
  /// with a sparse id space (a sharded corpus with overlay aliases) must
  /// override.
  virtual void ForEachValue(
      const std::function<void(ValueId, const std::string&)>& fn) const {
    const size_t n = NumValues();
    for (size_t id = 0; id < n; ++id) {
      fn(static_cast<ValueId>(id), ValueString(static_cast<ValueId>(id)));
    }
  }

  /// Short identifier of the representation ("heap-v1" for the in-memory
  /// ColumnIndex, which has no file format of its own; "mmap-v2";
  /// "sharded-v2").
  virtual const char* FormatName() const = 0;

  /// Approximate bytes resident on the process heap for this view.
  virtual size_t HeapBytes() const = 0;

  /// Bytes served from a read-only file mapping (0 for heap views).
  virtual size_t MappedBytes() const = 0;
};

}  // namespace tegra

#endif  // TEGRA_CORPUS_CORPUS_VIEW_H_
