// corpus_inspector — examine a background corpus index: size statistics,
// postings distribution, the most frequent values, and interactive-style
// pairwise queries (PMI / NPMI / semantic distance between two values).
//
// `--corpus` opens a TGRAIDX2 snapshot or a sharded directory and prints
// the file report — section (or shard) table with sizes and checksum
// status — before the corpus statistics. The report is shared with
// `tegra_corpusctl stats`.
//
// Examples:
//   ./corpus_inspector --corpus /tmp/tegra_cache/bweb_20000.idx2
//   ./corpus_inspector --build web:5000:1 --top 20
//   ./corpus_inspector --build web:5000:1 --pair "toronto" "los angeles"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "corpus/column_index.h"
#include "corpus/corpus_stats.h"
#include "corpus/corpus_view.h"
#include "store/corpus_loader.h"
#include "synth/corpus_gen.h"

namespace {

void PrintUsage() {
  std::fputs(R"(usage: corpus_inspector [options]
  --corpus PATH        open a corpus file (TGRAIDX2 snapshot or sharded dir)
  --build SPEC         build synthetic corpus (profile:tables:seed)
  --top N              show the N most frequent values (default 15)
  --pair "A" "B"       show co-occurrence statistics for a value pair
  --histogram          show the postings-length histogram
)",
             stderr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_path;
  std::string build_spec = "web:5000:1";
  int top = 15;
  bool histogram = false;
  std::vector<std::pair<std::string, std::string>> pairs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corpus" && i + 1 < argc) {
      corpus_path = argv[++i];
    } else if (arg == "--build" && i + 1 < argc) {
      build_spec = argv[++i];
    } else if (arg == "--top" && i + 1 < argc) {
      top = std::atoi(argv[++i]);
    } else if (arg == "--histogram") {
      histogram = true;
    } else if (arg == "--pair" && i + 2 < argc) {
      pairs.emplace_back(argv[i + 1], argv[i + 2]);
      i += 2;
    } else {
      PrintUsage();
      return 2;
    }
  }

  // Resolve the corpus: either a file (any supported format) or a synthetic
  // build. Everything below operates on the abstract CorpusView, so the heap
  // index and the mmap snapshot are inspected identically.
  std::shared_ptr<const tegra::CorpusView> view;
  if (!corpus_path.empty()) {
    auto loaded = tegra::store::OpenCorpus(corpus_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    view = loaded->view;

    // File-level report: format, section table, checksum status.
    auto info = tegra::store::DescribeCorpusFile(corpus_path,
                                                 /*check_crc=*/true);
    if (info.ok()) {
      std::fputs(tegra::store::FormatCorpusFileInfo(info.value()).c_str(),
                 stdout);
      std::printf("\n");
    }
  } else {
    const auto parts = tegra::SplitExact(build_spec, ":");
    tegra::synth::CorpusProfile profile =
        parts[0] == "enterprise" ? tegra::synth::CorpusProfile::kEnterprise
        : parts[0] == "wiki"     ? tegra::synth::CorpusProfile::kWiki
                                 : tegra::synth::CorpusProfile::kWeb;
    const size_t tables = parts.size() > 1 ? std::atoll(parts[1].c_str()) : 5000;
    const uint64_t seed = parts.size() > 2 ? std::atoll(parts[2].c_str()) : 1;
    view = std::make_shared<tegra::ColumnIndex>(
        tegra::synth::BuildBackgroundIndex(profile, tables, seed));
  }
  const tegra::CorpusView& index = *view;
  tegra::CorpusStats stats(&index);

  std::printf("corpus summary\n");
  std::printf("  format:           %s\n", index.FormatName());
  std::printf("  columns:          %llu\n",
              static_cast<unsigned long long>(index.TotalColumns()));
  std::printf("  distinct values:  %zu\n", index.NumValues());
  std::printf("  heap (approx):    %.1f MiB\n",
              static_cast<double>(index.HeapBytes()) / (1 << 20));
  std::printf("  mapped:           %.1f MiB\n",
              static_cast<double>(index.MappedBytes()) / (1 << 20));

  // Top values by column frequency.
  std::vector<tegra::ValueId> ids(index.NumValues());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  std::partial_sort(ids.begin(),
                    ids.begin() + std::min<size_t>(top, ids.size()),
                    ids.end(), [&](tegra::ValueId a, tegra::ValueId b) {
                      return index.ColumnCount(a) > index.ColumnCount(b);
                    });
  std::printf("\ntop %d values by |C(s)|\n", top);
  for (int i = 0; i < top && i < static_cast<int>(ids.size()); ++i) {
    std::printf("  %6u  %s\n", index.ColumnCount(ids[i]),
                index.ValueString(ids[i]).c_str());
  }

  if (histogram) {
    size_t buckets[8] = {0};  // 1, 2-3, 4-7, ..., 128+
    for (tegra::ValueId id = 0; id < index.NumValues(); ++id) {
      const uint32_t n = index.ColumnCount(id);
      int b = 0;
      while ((1u << (b + 1)) <= n && b < 7) ++b;
      ++buckets[b];
    }
    std::printf("\npostings length histogram\n");
    const char* labels[8] = {"1",     "2-3",   "4-7",    "8-15",
                             "16-31", "32-63", "64-127", "128+"};
    for (int b = 0; b < 8; ++b) {
      std::printf("  %-7s %zu\n", labels[b], buckets[b]);
    }
  }

  for (const auto& [a, b] : pairs) {
    const tegra::ValueId ia = index.Lookup(a);
    const tegra::ValueId ib = index.Lookup(b);
    std::printf("\npair: \"%s\" vs \"%s\"\n", a.c_str(), b.c_str());
    if (ia == tegra::kInvalidValueId || ib == tegra::kInvalidValueId) {
      std::printf("  (at least one value is not in the corpus)\n");
      continue;
    }
    std::printf("  |C(a)| = %u, |C(b)| = %u, |C(a) ∩ C(b)| = %u\n",
                index.ColumnCount(ia), index.ColumnCount(ib),
                index.CoOccurrenceCount(ia, ib));
    std::printf("  PMI   = %.4f\n", stats.Pmi(ia, ib));
    std::printf("  NPMI  = %.4f\n", stats.Npmi(ia, ib));
    std::printf("  d_sem = %.4f (npmi)  %.4f (jaccard)  %.4f (angular)\n",
                stats.SemanticDistance(ia, ib),
                stats.SemanticDistance(ia, ib,
                                       tegra::SemanticMeasure::kJaccard),
                stats.SemanticDistance(ia, ib,
                                       tegra::SemanticMeasure::kAngular));
  }
  return 0;
}
