// Quickstart: extract a multi-column table from an unsegmented list.
//
// This walks the paper's running example (Figures 2-4): three lines about
// cities that should segment into a 3-column table (city | region |
// country), including a null cell for Toronto's missing region. The
// background corpus is synthesized on the fly; a real deployment would open
// a prebuilt snapshot with store::OpenCorpus.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/tegra.h"
#include "corpus/corpus_stats.h"
#include "synth/corpus_gen.h"

int main() {
  using namespace tegra;

  // 1. A background web-table corpus provides the co-occurrence statistics
  //    behind semantic distance. Here: 5,000 synthetic tables (~30k columns).
  std::printf("building background corpus...\n");
  ColumnIndex index = synth::BuildBackgroundIndex(
      synth::CorpusProfile::kWeb, /*num_tables=*/5000, /*seed=*/1);
  CorpusStats stats(&index);
  std::printf("corpus: %llu columns, %zu distinct values\n\n",
              static_cast<unsigned long long>(index.TotalColumns()),
              index.NumValues());

  // 2. The unsegmented input list (rows are separated, columns are not).
  // The paper's three running-example rows (Figure 2) plus a few more —
  // real lists are rarely 3 rows, and the global alignment signal grows
  // with every row.
  const std::vector<std::string> lines = {
      "Los Angeles California United States",
      "Toronto Canada",
      "New York City New York USA",
      "Chicago Illinois United States",
      "Houston Texas United States",
      "Boston Massachusetts United States",
      "Seattle Washington USA",
  };
  std::printf("input list:\n");
  for (const auto& line : lines) std::printf("  %s\n", line.c_str());

  // 3. Extract. Unsupervised: TEGRA picks the column count that minimizes
  //    the per-column sum-of-pairs distance.
  TegraExtractor tegra(&stats);
  Result<ExtractionResult> result = tegra.Extract(lines);
  if (!result.ok()) {
    std::fprintf(stderr, "extraction failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nextracted %d-column table (SP=%.2f, %.0f ms):\n",
              result->num_columns, result->sp, result->seconds * 1e3);
  std::printf("%s", result->table.ToString().c_str());

  // 4. The same extractor accepts a known column count or user examples:
  auto with_columns = tegra.ExtractWithColumns(lines, 3);
  std::printf("\nwith column count given: %d columns, anchor line %zu\n",
              with_columns->num_columns, with_columns->anchor_line);
  return 0;
}
