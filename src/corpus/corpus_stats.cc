#include "corpus/corpus_stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

namespace tegra {

/// Lock shards of the co-occurrence memo, which every extraction thread
/// probes on its hot path.
constexpr size_t kCoCacheShards = 16;

CorpusStats::CorpusStats(const CorpusView* index, CorpusStatsOptions options)
    : index_(index),
      options_(options),
      co_cache_(options.co_cache_capacity, kCoCacheShards) {
  assert(index_ != nullptr);
  if (options_.metrics != nullptr) {
    co_lookups_ = options_.metrics->GetCounter("corpus.co_lookups_total");
    co_lookup_hits_ =
        options_.metrics->GetCounter("corpus.co_lookup_hits_total");
  }
}

double CorpusStats::Probability(ValueId id) const {
  if (id == kInvalidValueId || index_->TotalColumns() == 0) return 0.0;
  return static_cast<double>(index_->ColumnCount(id)) /
         static_cast<double>(index_->TotalColumns());
}

uint32_t CorpusStats::CachedCoOccurrence(ValueId a, ValueId b) const {
  // Canonical ordering: (a,b) and (b,a) share one memo entry.
  if (a > b) std::swap(a, b);
  const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
  if (co_lookups_ != nullptr) co_lookups_->Increment();
  bool computed = false;
  const uint32_t count = co_cache_.GetOrCompute(key, [&] {
    computed = true;
    return index_->CoOccurrenceCount(a, b);
  });
  if (co_lookup_hits_ != nullptr && !computed) co_lookup_hits_->Increment();
  return count;
}

double CorpusStats::JointProbability(ValueId a, ValueId b) const {
  if (a == kInvalidValueId || b == kInvalidValueId ||
      index_->TotalColumns() == 0) {
    return 0.0;
  }
  if (a == b) return Probability(a);
  return static_cast<double>(CachedCoOccurrence(a, b)) /
         static_cast<double>(index_->TotalColumns());
}

double CorpusStats::Pmi(ValueId a, ValueId b) const {
  const double pa = Probability(a);
  const double pb = Probability(b);
  const double pab = JointProbability(a, b);
  if (pa == 0.0 || pb == 0.0 || pab == 0.0) {
    return -std::numeric_limits<double>::infinity();
  }
  return std::log(pab / (pa * pb));
}

double CorpusStats::Npmi(ValueId a, ValueId b) const {
  const double pab = JointProbability(a, b);
  if (pab == 0.0) return -1.0;
  const double denom = -std::log(pab);
  if (denom <= 0.0) {
    // p(a,b) == 1: the pair co-occurs in every column.
    return 1.0;
  }
  const double npmi = Pmi(a, b) / denom;
  // Clamp against floating point drift.
  return std::clamp(npmi, -1.0, 1.0);
}

double CorpusStats::SemanticDistance(ValueId a, ValueId b,
                                     SemanticMeasure measure) const {
  if (a == kInvalidValueId || b == kInvalidValueId) return 1.0;
  switch (measure) {
    case SemanticMeasure::kNpmi:
      return 0.75 - 0.25 * Npmi(a, b);
    case SemanticMeasure::kJaccard: {
      if (a == b) return 0.0;
      const uint32_t inter = CachedCoOccurrence(a, b);
      const uint32_t uni =
          index_->ColumnCount(a) + index_->ColumnCount(b) - inter;
      if (uni == 0) return 1.0;
      return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
    }
    case SemanticMeasure::kAngular: {
      // Cosine over the binary column-incidence vectors, mapped to [0, 1]
      // by the (metric) angle: d = 2 * arccos(cos) / pi.
      if (a == b) return 0.0;
      const double na = index_->ColumnCount(a);
      const double nb = index_->ColumnCount(b);
      if (na == 0 || nb == 0) return 1.0;
      const double inter = CachedCoOccurrence(a, b);
      const double cosine =
          std::clamp(inter / std::sqrt(na * nb), 0.0, 1.0);
      return std::acos(cosine) / (std::numbers::pi / 2.0);
    }
  }
  return 1.0;
}

double CorpusStats::SemanticDistance(std::string_view a, std::string_view b,
                                     SemanticMeasure measure) const {
  return SemanticDistance(index_->Lookup(a), index_->Lookup(b), measure);
}

uint32_t CorpusStats::ColumnFrequency(std::string_view value) const {
  ValueId id = index_->Lookup(value);
  return id == kInvalidValueId ? 0 : index_->ColumnCount(id);
}

size_t CorpusStats::CacheSize() const { return co_cache_.Size(); }

LruCacheStats CorpusStats::CoCacheStats() const { return co_cache_.Stats(); }

}  // namespace tegra
