// The cell-pair distance function of §2.3:
//
//   d(s1, s2) = alpha * d_syn(s1, s2) + (1 - alpha) * d_sem(s1, s2)
//
// d_syn averages token-length, character-class and type differences
// (Appendix I); d_sem transforms corpus NPMI into [0.5, 1] (§2.3.1). The
// combination satisfies non-negativity, symmetry and the triangle inequality,
// which the TEGRA 2-approximation (Theorem 2) relies on; these properties are
// property-tested in tests/distance_test.cc.

#ifndef TEGRA_DISTANCE_DISTANCE_H_
#define TEGRA_DISTANCE_DISTANCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "corpus/corpus_stats.h"
#include "distance/cell.h"

namespace tegra {

/// \brief Knobs of the distance function.
struct DistanceOptions {
  /// Weight of the syntactic component; (1 - alpha) weighs the semantic one.
  /// The paper's default and empirically best setting is 0.5 (Fig 8(b)).
  double alpha = 0.5;
  /// Which corpus measure drives semantic distance (NPMI by default,
  /// Jaccard per Appendix H as the alternative).
  SemanticMeasure measure = SemanticMeasure::kNpmi;

  // --- Ablation knobs (DESIGN.md §3; exercised by bench_ablations) -------

  /// Treat same-specific-type values (two integers, two dates, ...) as
  /// semantically domain-coherent (d_sem = 0.55) even without corpus
  /// co-occurrence. Substitute for numeral-space density at web scale.
  bool type_coherence = true;
  /// Give corpus-known value pairs without co-occurrence a 0.85 prior
  /// instead of the maximal 1.0 (the Appendix J single-value signal).
  bool known_value_prior = true;
  /// Combined distance of a null-null pair. 1.0 keeps all-null columns from
  /// being free in the per-column objective.
  double null_null_distance = 1.0;
};

/// \brief Computes cell-pair distances over interned cells.
///
/// Stateless apart from configuration; safe for concurrent use. Use
/// DistanceCache for memoization inside one extraction.
class CellDistance {
 public:
  /// \param stats background-corpus statistics; may be null, in which case
  /// semantic distance is identically 1 except for equal strings (pure
  /// syntactic operation, the alpha = 1 end of Fig 8(b)).
  CellDistance(const CorpusStats* stats, DistanceOptions options = {});

  /// Full distance d(a, b). Handles null cells per Appendix I:
  /// d_sem(null, s) = 1, d_syn(null, s) = d_syn("", s); and
  /// d(null, null) = alpha * 0 + (1 - alpha) * 1 so padding whole columns
  /// with nulls is never free (see DESIGN.md §3).
  double Distance(const CellInfo& a, const CellInfo& b) const;

  /// The syntactic component (average of d_len, d_char, d_type).
  double SyntacticDistance(const CellInfo& a, const CellInfo& b) const;

  /// The semantic component in [0.5, 1] (or exactly 1 for unknown values).
  double SemanticDistance(const CellInfo& a, const CellInfo& b) const;

  const DistanceOptions& options() const { return options_; }
  const CorpusStats* stats() const { return stats_; }

 private:
  const CorpusStats* stats_;  // Not owned; may be null.
  DistanceOptions options_;
};

/// \brief Memoizes CellDistance over catalog-local id pairs.
///
/// One extraction evaluates the same cell pairs many times across DP
/// matrices, the A* heuristic and the objective. Catalog-local ids are dense
/// (0 is the null cell, the rest follow registration order), so the memo is
/// an id x id matrix cut into kTile x kTile tiles, addressed by a grid of
/// tile handles that grows with the largest id seen. A miss computes the
/// distance once, in the caller's argument order, and stores it at both
/// (a, b) and (b, a).
///
/// A tile starts as a list of at most kSparseMax (offset, distance) entries,
/// searched linearly on a miss. It turns dense, kTile x kTile doubles
/// (32 KiB) with a negative "not computed" sentinel where a repeat lookup in
/// either order is a few array loads, when an entry would overflow the list
/// or once the list has answered kTile * kTile lookups (the work of filling
/// a dense tile). The heuristic and DP passes compare whole lines with whole
/// lines, so their tiles turn dense within a few cells; the sum-of-pairs
/// objective and the sampled qos passes scatter a handful of pairs over each
/// tile, and those tiles stay lists. Dense tiles thus cost at most
/// 2 * 32 KiB / kSparseMax (512 B) per evaluated pair or 8 B per lookup a
/// list answered, list tiles 2 entries (32 B) per pair, and the grid a
/// 56-byte handle per cell up to the largest tile column each touched tile
/// row reaches: memory follows the pairs an extraction evaluates, not the
/// square of the catalog size.
///
/// Requires CellDistance::Distance >= 0, which holds for alpha in [0, 1] and
/// a non-negative null_null_distance. Copyable (a copy is an independent
/// memo). Not thread-safe: parallel anchor tasks each own a cache.
class DistanceCache {
 public:
  static constexpr uint32_t kTileBits = 6;
  static constexpr uint32_t kTile = 1u << kTileBits;
  /// Entries a tile holds as a list before it turns dense.
  static constexpr size_t kSparseMax = 128;

  explicit DistanceCache(const CellDistance* distance)
      : distance_(distance) {}

  double operator()(const CellInfo& a, const CellInfo& b) {
    const uint32_t x = a.local_id;
    const uint32_t y = b.local_id;
    if ((x >> kTileBits) < rows_.size()) {
      const std::vector<Tile>& row = rows_[x >> kTileBits];
      if ((y >> kTileBits) < row.size()) {
        const std::vector<double>& dense = row[y >> kTileBits].dense;
        if (!dense.empty()) {
          const double d = dense[Offset(x, y)];
          if (d >= 0) return d;
        }
      }
    }
    return Miss(a, b);
  }

  /// Number of distinct unordered cell pairs evaluated so far.
  size_t size() const { return size_; }
  /// Bytes held by the tiles and the tile grid.
  size_t memory_bytes() const;
  const CellDistance& base() const { return *distance_; }

 private:
  struct Entry {
    uint16_t offset;  // Offset(x, y) within the tile.
    double distance;
  };
  struct Tile {
    // kTile * kTile distances, row-major, once dense; empty before.
    std::vector<double> dense;
    // The tile's entries while it is a list; empty once dense.
    std::vector<Entry> sparse;
    // Lookups the list has answered.
    uint32_t list_hits = 0;
  };

  static uint32_t Offset(uint32_t x, uint32_t y) {
    return ((x & (kTile - 1)) << kTileBits) | (y & (kTile - 1));
  }
  /// The tile of (x, y), growing the grid to reach it.
  Tile& TileOf(uint32_t x, uint32_t y);
  /// Records d at `offset`, turning the tile dense when its list is full.
  static void Store(Tile* tile, uint32_t offset, double d);
  /// Moves a list tile's entries into a dense tile.
  static void MakeDense(Tile* tile);
  /// Slow path: searches a list tile, else computes d(a, b) and stores it
  /// at (a, b) and (b, a).
  double Miss(const CellInfo& a, const CellInfo& b);

  const CellDistance* distance_;  // Not owned.
  // rows_[x / kTile][y / kTile] holds the tile of ids (x, y).
  std::vector<std::vector<Tile>> rows_;
  size_t size_ = 0;
};

}  // namespace tegra

#endif  // TEGRA_DISTANCE_DISTANCE_H_
