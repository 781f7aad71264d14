// Co-occurrence statistics over a background CorpusView: PMI, NPMI (§2.3.1)
// and the Jaccard alternative (Appendix H), plus a thread-safe memo cache.
// This is the sole interface through which semantic distance consumes the
// background corpus. The view may be a heap ColumnIndex or an mmap-backed
// TGRAIDX2 snapshot (src/store/mmap_corpus.h); results are bit-identical.

#ifndef TEGRA_CORPUS_CORPUS_STATS_H_
#define TEGRA_CORPUS_CORPUS_STATS_H_

#include <cstdint>
#include <string_view>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "corpus/corpus_view.h"

namespace tegra {

/// \brief Which co-occurrence measure drives semantic distance.
enum class SemanticMeasure {
  kNpmi,     ///< d_sem = 0.75 - 0.25 * NPMI  (paper default, §2.3.1)
  kJaccard,  ///< d_sem = 1 - |C1 ∩ C2| / |C1 ∪ C2|  (Appendix H)
  kAngular,  ///< d_sem = arccos(cosine) / (pi/2) over column sets — the
             ///< metric version of cosine similarity (§2.3.1 Discussion).
};

/// \brief Memoization limits for CorpusStats. The memo used to be an
/// unbounded map — an OOM hazard for a long-lived serving process — and is
/// now a sharded LRU whose capacity is configured here.
struct CorpusStatsOptions {
  /// Entry budget of the co-occurrence memo (pairs). ~1M entries is ~50MB
  /// upper bound of bookkeeping and covers the working set of even large
  /// extraction batches; 0 disables memoization entirely.
  size_t co_cache_capacity = 1 << 20;
  /// Optional metrics sink (not owned; must outlive the CorpusStats). When
  /// set, every co-occurrence lookup increments `corpus.co_lookups_total`
  /// and memo hits increment `corpus.co_lookup_hits_total` — the work-volume
  /// counters behind the per-phase efficiency analysis (§5.7). Relaxed
  /// atomic increments; negligible cost next to a postings intersection.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Probability / information measures over a background corpus.
///
/// All lookups are const and safe to call from multiple threads; pairwise
/// postings intersections — the single hottest operation in segmentation —
/// are memoized in a bounded sharded LRU (see CorpusStatsOptions).
class CorpusStats {
 public:
  /// \param index an immutable corpus view (a finalized ColumnIndex or an
  /// opened MmapCorpus). Not owned; must outlive this.
  explicit CorpusStats(const CorpusView* index,
                       CorpusStatsOptions options = {});

  const CorpusView& index() const { return *index_; }

  /// p(s) = |C(s)| / N. Returns 0 for values absent from the corpus.
  double Probability(ValueId id) const;

  /// p(s1, s2) = |C(s1) ∩ C(s2)| / N.
  double JointProbability(ValueId a, ValueId b) const;

  /// Pointwise mutual information log( p(a,b) / (p(a) p(b)) ).
  /// Returns -infinity when the pair never co-occurs.
  double Pmi(ValueId a, ValueId b) const;

  /// Normalized PMI in [-1, 1]: PMI / (-log p(a,b)); -1 when the pair never
  /// co-occurs, +1 when the two values always appear together.
  double Npmi(ValueId a, ValueId b) const;

  /// Semantic distance per the selected measure. For kNpmi this is
  /// 0.75 - 0.25*NPMI, bounded in [0.5, 1] (the transformation that makes
  /// the triangle inequality hold, §2.3.1). Unknown values => 1.0.
  double SemanticDistance(ValueId a, ValueId b,
                          SemanticMeasure measure = SemanticMeasure::kNpmi) const;

  /// String-keyed convenience overload (performs index lookups).
  double SemanticDistance(std::string_view a, std::string_view b,
                          SemanticMeasure measure = SemanticMeasure::kNpmi) const;

  /// |C(s)| for a raw value; 0 if absent. Used by the ListExtract baseline's
  /// field-quality score (table-corpus support).
  uint32_t ColumnFrequency(std::string_view value) const;

  /// Number of memoized pairs currently resident (<= configured capacity).
  size_t CacheSize() const;

  /// Hit/miss/eviction counters and occupancy of the co-occurrence memo, for
  /// surfacing through a metrics registry.
  LruCacheStats CoCacheStats() const;

  const CorpusStatsOptions& options() const { return options_; }

 private:
  /// Memoized |C(a) ∩ C(b)|. The key is canonically ordered (min, max) so
  /// (a,b) and (b,a) share one entry.
  uint32_t CachedCoOccurrence(ValueId a, ValueId b) const;

  const CorpusView* index_;
  CorpusStatsOptions options_;
  /// Key = (min(a,b) << 32) | max(a,b).
  mutable ShardedLruCache<uint64_t, uint32_t> co_cache_;
  /// Resolved once from options_.metrics (null when no sink configured).
  Counter* co_lookups_ = nullptr;
  Counter* co_lookup_hits_ = nullptr;
};

}  // namespace tegra

#endif  // TEGRA_CORPUS_CORPUS_STATS_H_
