// TEGRA — Table Extraction by Global Record Alignment (the public API).
//
// Implements the full algorithm suite of the paper:
//  * table segmentation given a column count (Definition 2) via per-anchor
//    A* search (Algorithm 2) or exhaustive TEGRA-naive (Algorithm 1),
//  * unsupervised segmentation (Definition 3) by sweeping the column count
//    and minimizing the per-column SP objective,
//  * the supervised variant (§4) with user example rows and pair weights,
//  * optional multi-threaded anchor evaluation ("TEGRA+n", Figure 9).
//
// Typical use:
//   CorpusStats stats(&index);
//   TegraExtractor tegra(&stats);
//   auto result = tegra.Extract(lines);           // unsupervised
//   if (result.ok()) std::cout << result->table.ToString();

#ifndef TEGRA_CORE_TEGRA_H_
#define TEGRA_CORE_TEGRA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/list_context.h"
#include "core/objective.h"
#include "corpus/corpus_stats.h"
#include "distance/distance.h"
#include "text/tokenizer.h"

namespace tegra {

/// \brief Configuration of a TegraExtractor.
struct TegraOptions {
  /// Distance function knobs (alpha, semantic measure).
  DistanceOptions distance;

  /// Upper bound on the unsupervised column sweep. The paper notes >95% of
  /// web tables have fewer than 10 columns.
  int max_columns = 10;

  /// Candidate column width cap in tokens (0 = unbounded). Applied uniformly
  /// to anchors, alignment DPs and the heuristic; automatically relaxed per
  /// line so that a valid m-column segmentation always exists. The paper
  /// discards extremely long lines (Appendix I); this is the in-algorithm
  /// analog.
  int max_cell_tokens = 8;

  /// True: A* anchor search (TEGRA). False: exhaustive anchor enumeration
  /// (the TEGRA-naive+ configuration of Figure 9 — SLGR DP but no pruning).
  bool use_astar = true;

  /// Worker threads for per-anchor work; 1 = sequential.
  int num_threads = 1;

  /// During the unsupervised column sweep, evaluate at most this many anchor
  /// lines per candidate m (0 = all anchors, the paper's exhaustive outer
  /// loop). The final run at the chosen m always honors
  /// `final_anchor_sample`. Sampled anchors are those with the most typical
  /// token counts.
  int sweep_anchor_sample = 3;

  /// Anchor lines evaluated in the final (or fixed-m) run; 0 = all (paper).
  int final_anchor_sample = 0;

  /// Quality-telemetry threshold: an extraction whose per-pair SP objective
  /// (ExtractionResult::per_pair_objective, the Fig 8(a) quality proxy —
  /// lower is better) exceeds this is counted in
  /// `extract.low_confidence_total`. Negative disables the counter.
  double low_confidence_threshold = 0.5;

  /// Per-anchor search budget in expanded nodes (A*) or scored candidate
  /// segmentations (exhaustive); 0 = unbounded (the paper's setting). With a
  /// budget the anchor search turns anytime: it returns the best complete
  /// segmentation found within the budget. Driven by the qos degradation
  /// ladder under overload.
  size_t max_anchor_nodes = 0;

  /// Tighter width cap (in tokens) for the *non-anchor* lines' SLGR
  /// alignment DP rows; 0 = use max_cell_tokens. Shrinks every per-line DP
  /// without changing the anchor's candidate space; feasibility is preserved
  /// (EffectiveWidth never caps below ceil(|l|/m)). A qos ladder knob.
  uint32_t slgr_width_cap = 0;

  /// Budget for SP objective evaluation: score at most this many record
  /// pairs (deterministic stride sample, rescaled); 0 = exact. A qos ladder
  /// knob bounding the O(n^2) table-scoring cost.
  size_t max_sp_pairs = 0;

  /// Tokenization of raw input lines.
  TokenizerOptions tokenizer;
};

/// \brief A user-provided example segmentation for the supervised variant:
/// the cells of line `line_index`, in order. Cell token sequences must
/// concatenate to exactly the line's tokens (empty cells are allowed).
struct SegmentationExample {
  size_t line_index = 0;
  std::vector<std::string> cells;
};

/// \brief Output of one extraction.
struct ExtractionResult {
  Table table;                     ///< The segmented table.
  std::vector<Bounds> bounds;      ///< Per-line boundary vectors.
  int num_columns = 0;
  double sp = 0;                   ///< SP_m(T) (weighted if supervised).
  double per_column_objective = 0; ///< SP / m (Definition 3).
  double per_pair_objective = 0;   ///< SP / (pairs * m) (Fig 8(a) score).
  double anchor_distance = 0;      ///< AD of the winning anchor.
  size_t anchor_line = 0;          ///< Index of the winning anchor line.
  size_t nodes_expanded = 0;       ///< Total search effort.
  double seconds = 0;              ///< Wall-clock extraction time.
};

/// \brief The extraction engine. Immutable and safe to share across threads
/// (each call builds its own working state).
class TegraExtractor {
 public:
  /// \param stats background-corpus statistics; may be null for a purely
  /// syntactic extractor.
  explicit TegraExtractor(const CorpusStats* stats,
                          TegraOptions options = {});

  /// Unsupervised extraction (Definition 3): chooses the column count that
  /// minimizes SP_m(T)/m.
  Result<ExtractionResult> Extract(
      const std::vector<std::string>& lines) const;

  /// Extraction with a known column count (Definition 2).
  Result<ExtractionResult> ExtractWithColumns(
      const std::vector<std::string>& lines, int num_columns) const;

  /// Supervised extraction (§4): example rows are pinned and weighted by
  /// w_ij = n/k; the column count is taken from the examples.
  Result<ExtractionResult> ExtractWithExamples(
      const std::vector<std::string>& lines,
      const std::vector<SegmentationExample>& examples) const;

  /// Token-level entry point used by all of the above. `num_columns` 0 means
  /// unsupervised sweep; `examples` may be null.
  Result<ExtractionResult> ExtractTokens(
      std::vector<std::vector<std::string>> token_lines, int num_columns,
      const std::vector<SegmentationExample>* examples) const;

  const TegraOptions& options() const { return options_; }

  /// The background statistics this extractor was built with (may be null).
  const CorpusStats* stats() const { return stats_; }

 private:
  struct RunOutcome {
    double anchor_distance = 0;
    size_t anchor_line = 0;
    size_t nodes_expanded = 0;
    size_t anchors_evaluated = 0;  ///< Candidate anchors actually searched.
    /// Distinct cell pairs evaluated in per-task caches (parallel anchors);
    /// the shared cache counts its own.
    size_t task_distance_pairs = 0;
    std::vector<Bounds> bounds;
    double sp = 0;
  };

  /// Runs anchor minimization for a fixed m over `anchor_sample` anchors.
  RunOutcome RunGivenColumns(ListContext* ctx, int m, int anchor_sample,
                             DistanceCache* shared_cache) const;

  /// Picks which lines to use as anchors (most-typical token counts first).
  std::vector<size_t> SelectAnchors(const ListContext& ctx,
                                    int anchor_sample) const;

  const CorpusStats* stats_;  // Not owned; may be null.
  TegraOptions options_;
  CellDistance distance_;
};

}  // namespace tegra

#endif  // TEGRA_CORE_TEGRA_H_
