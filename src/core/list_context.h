// Per-extraction working state: tokenized lines, interned candidate cells,
// per-line pair weights (supervised variant) and fixed example segmentations.
//
// All segmentation algorithms (SLGR, the A* anchor search, TEGRA-naive, the
// SP objective) run against one ListContext. Candidate substrings are
// registered up-front via EnsureWidth so the context is read-only while
// anchor tasks run in parallel.

#ifndef TEGRA_CORE_LIST_CONTEXT_H_
#define TEGRA_CORE_LIST_CONTEXT_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/segmentation.h"
#include "distance/cell.h"

namespace tegra {

/// \brief Tokenized input list plus interned candidate cells.
class ListContext {
 public:
  /// \param token_lines tokenized input lines (one vector of tokens each).
  /// \param index background corpus view for semantic features; may be null.
  ListContext(std::vector<std::vector<std::string>> token_lines,
              const CorpusView* index);

  size_t num_lines() const { return lines_.size(); }
  uint32_t line_length(size_t line) const {
    return static_cast<uint32_t>(lines_[line].size());
  }
  const std::vector<std::string>& tokens(size_t line) const {
    return lines_[line];
  }
  /// Longest line, which bounds the unsupervised column sweep.
  uint32_t max_line_length() const { return max_line_length_; }

  /// \brief Registers all substrings of `line` with width <= `width` in the
  /// catalog. Not thread-safe; call before parallel phases.
  void EnsureWidth(size_t line, uint32_t width);

  /// \brief The candidate column width cap for `line` when segmenting into
  /// `m` columns: max(base_cap, ceil(|l| / m)), so a valid segmentation
  /// always exists; 0 base_cap means unbounded.
  uint32_t EffectiveWidth(size_t line, int m, uint32_t base_cap) const;

  /// \brief Interned cell for tokens [start, start+len) of `line`.
  /// Requires a prior EnsureWidth(line, >= len); len >= 1.
  const CellInfo& Cell(size_t line, uint32_t start, uint32_t len) const {
    assert(len >= 1);
    assert(start + len <= line_length(line));
    assert(len <= registered_width_[line] &&
           "EnsureWidth not called with sufficient width");
    return catalog_.Get(
        cell_ids_[line][size_t{start} * registered_width_[line] + len - 1]);
  }

  /// The null cell.
  const CellInfo& NullCell() const { return catalog_.NullCell(); }

  /// \brief Cells of a full segmentation of `line`.
  std::vector<const CellInfo*> CellsFor(size_t line,
                                        const Bounds& bounds) const;

  /// \brief Registers an out-of-line cell value (user example cells may
  /// differ from any substring when examples are given directly as records).
  const CellInfo& RegisterExternalCell(const std::string& text,
                                       uint32_t token_count);

  // --- Supervised variant (§4) -------------------------------------------

  /// Pins `line` to a fixed (user-provided) segmentation.
  void SetFixedBounds(size_t line, Bounds bounds);
  const std::optional<Bounds>& fixed_bounds(size_t line) const {
    return fixed_bounds_[line];
  }
  bool has_examples() const { return num_examples_ > 0; }
  size_t num_examples() const { return num_examples_; }

  /// Pair weight w_ij of §4: n/k if either endpoint is an example, else 1.
  double PairWeight(size_t i, size_t j) const;
  /// Weight of line `j`'s contribution to the anchor distance of `anchor`.
  double LineWeight(size_t anchor, size_t j) const {
    return PairWeight(anchor, j);
  }

  CellCatalog& catalog() { return catalog_; }
  const CellCatalog& catalog() const { return catalog_; }

 private:
  std::vector<std::vector<std::string>> lines_;
  uint32_t max_line_length_ = 0;
  CellCatalog catalog_;
  // Per line: the registered width W and the catalog ids of its substrings,
  // flat with stride W: the substring [start, start + len) is at
  // cell_ids_[line][start * W + len - 1] for len <= min(W, |line| - start).
  // EnsureWidth re-lays a line out when it widens.
  std::vector<uint32_t> registered_width_;
  std::vector<std::vector<uint32_t>> cell_ids_;
  std::vector<std::optional<Bounds>> fixed_bounds_;
  size_t num_examples_ = 0;
};

}  // namespace tegra

#endif  // TEGRA_CORE_LIST_CONTEXT_H_
