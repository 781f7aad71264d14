#include "distance/distance.h"

#include <algorithm>
#include <cassert>

namespace tegra {

CellDistance::CellDistance(const CorpusStats* stats, DistanceOptions options)
    : stats_(stats), options_(options) {}

namespace {

/// d_len: normalized token-count difference (Appendix I). The null cell has
/// zero tokens, so d_len(null, s) = 1 for any non-empty s.
double TokenLengthDistance(const CellInfo& a, const CellInfo& b) {
  const uint32_t la = a.token_count;
  const uint32_t lb = b.token_count;
  const uint32_t mx = std::max(la, lb);
  if (mx == 0) return 0.0;
  return static_cast<double>(la > lb ? la - lb : lb - la) /
         static_cast<double>(mx);
}

/// d_type: 0 when the detected types agree, 1 otherwise.
double TypeDistance(const CellInfo& a, const CellInfo& b) {
  return a.type == b.type ? 0.0 : 1.0;
}

}  // namespace

double CellDistance::SyntacticDistance(const CellInfo& a,
                                       const CellInfo& b) const {
  const double d_len = TokenLengthDistance(a, b);
  const double d_char = CharClassDistance(a.profile, b.profile);
  const double d_type = TypeDistance(a, b);
  return (d_len + d_char + d_type) / 3.0;
}

double CellDistance::SemanticDistance(const CellInfo& a,
                                      const CellInfo& b) const {
  // Nulls carry no semantics: maximal semantic distance, even to another
  // null (this keeps all-null columns from being free; DESIGN.md §3).
  if (a.is_null() || b.is_null()) return 1.0;

  const bool both_known = stats_ != nullptr &&
                          a.corpus_id != kInvalidValueId &&
                          b.corpus_id != kInvalidValueId;
  if (both_known &&
      (a.corpus_id == b.corpus_id ||
       stats_->JointProbability(a.corpus_id, b.corpus_id) > 0)) {
    // Direct value-level co-occurrence evidence (§2.3.1).
    return stats_->SemanticDistance(a.corpus_id, b.corpus_id,
                                    options_.measure);
  }

  // Identical strings are maximally coherent even when the corpus has never
  // seen them (a repeated proprietary code).
  if (a.local_id == b.local_id || a.text == b.text) return 0.5;

  // Values sharing a specific detected type (integer, money, date, SKU, ...)
  // are treated as domain-coherent: in the paper's 100M-table corpus the
  // numeral space is dense enough for co-occurrence signal, which a
  // synthetic corpus cannot replicate value-by-value. Without this, every
  // unique number pairs at distance 1 and the per-column objective prefers
  // merging numeric columns (DESIGN.md §3).
  if (options_.type_coherence && a.type == b.type &&
      a.type != ValueType::kText && a.type != ValueType::kEmpty) {
    return 0.55;
  }

  // Both strings are real table cells somewhere in the corpus, they just
  // never share a column. |C(s)| > 0 is itself weak coherence evidence —
  // the "single value" signal of Appendix J — and stands in for the pair
  // density a 100M-table corpus would provide for compositional values
  // ("Mary Cook" / "Michael Garcia"). Concatenations of multiple cells are
  // almost never corpus values, so this does not cheapen merged columns.
  if (options_.known_value_prior && both_known) return 0.85;

  return 1.0;
}

double CellDistance::Distance(const CellInfo& a, const CellInfo& b) const {
  // Two nulls provide no coherence evidence at all; pricing them at the
  // maximal distance keeps the per-column objective SP/m from degenerating
  // toward tables padded with empty columns (DESIGN.md §3). Syntactically
  // "" == "" would be free, so this is applied to the combined distance.
  if (a.is_null() && b.is_null()) return options_.null_null_distance;
  return options_.alpha * SyntacticDistance(a, b) +
         (1.0 - options_.alpha) * SemanticDistance(a, b);
}

DistanceCache::Tile& DistanceCache::TileOf(uint32_t x, uint32_t y) {
  const size_t ty = x >> kTileBits;
  const size_t tx = y >> kTileBits;
  if (ty >= rows_.size()) rows_.resize(ty + 1);
  std::vector<Tile>& row = rows_[ty];
  if (tx >= row.size()) row.resize(tx + 1);
  return row[tx];
}

void DistanceCache::Store(Tile* tile, uint32_t offset, double d) {
  if (tile->dense.empty()) {
    if (tile->sparse.size() < kSparseMax) {
      tile->sparse.push_back({static_cast<uint16_t>(offset), d});
      return;
    }
    MakeDense(tile);
  }
  tile->dense[offset] = d;
}

void DistanceCache::MakeDense(Tile* tile) {
  tile->dense.assign(static_cast<size_t>(kTile) * kTile, -1.0);
  for (const Entry& e : tile->sparse) tile->dense[e.offset] = e.distance;
  std::vector<Entry>().swap(tile->sparse);
}

double DistanceCache::Miss(const CellInfo& a, const CellInfo& b) {
  const uint32_t x = a.local_id;
  const uint32_t y = b.local_id;
  Tile& tile = TileOf(x, y);
  // A dense tile was already probed inline; only a list can still hold d.
  for (const Entry& e : tile.sparse) {
    if (e.offset == Offset(x, y)) {
      const double d = e.distance;
      if (++tile.list_hits == kTile * kTile) MakeDense(&tile);
      return d;
    }
  }
  const double d = distance_->Distance(a, b);
  assert(d >= 0 && "a negative distance would read as not computed");
  Store(&tile, Offset(x, y), d);
  // TileOf may grow the grid, so `tile` is not used past this point.
  if (x != y) Store(&TileOf(y, x), Offset(y, x), d);
  ++size_;
  return d;
}

size_t DistanceCache::memory_bytes() const {
  size_t bytes = rows_.capacity() * sizeof(std::vector<Tile>);
  for (const std::vector<Tile>& row : rows_) {
    bytes += row.capacity() * sizeof(Tile);
    for (const Tile& tile : row) {
      bytes += tile.dense.capacity() * sizeof(double) +
               tile.sparse.capacity() * sizeof(Entry);
    }
  }
  return bytes;
}

}  // namespace tegra
