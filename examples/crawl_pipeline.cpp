// An end-to-end offline pipeline in the style the paper deploys (§5.7): take
// a raw crawl of HTML lists, pre-filter junk (navigation chrome, prose,
// fragments), segment the survivors with TEGRA, keep tables whose objective
// score indicates good relational content, and persist the background corpus
// as a TGRAIDX2 snapshot for reuse.

#include <cstdio>
#include <memory>

#include "core/tegra.h"
#include "corpus/corpus_stats.h"
#include "store/corpus_loader.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"

int main() {
  using namespace tegra;

  // Build (or map) the background corpus. Persisting it as a snapshot means
  // subsequent pipeline runs start in milliseconds.
  const std::string cache_path = "/tmp/tegra_example_corpus.idx2";
  const std::unique_ptr<const CorpusView> index =
      store::OpenOrBuildSnapshot(cache_path, [] {
        return synth::BuildBackgroundIndex(synth::CorpusProfile::kWeb,
                                           /*num_tables=*/5000, /*seed=*/1);
      });
  CorpusStats stats(index.get());
  std::printf("background corpus ready: %llu columns (cached at %s)\n",
              static_cast<unsigned long long>(index->TotalColumns()),
              cache_path.c_str());

  // Simulated crawl of 2,000 <ul> lists.
  const auto crawl = synth::GenerateRawCrawl(2000, /*seed=*/99);

  size_t filtered = 0;
  size_t extracted = 0;
  TegraExtractor tegra(&stats);
  Table sample_table;
  for (const auto& raw : crawl) {
    if (!synth::PassesCrawlFilter(raw)) continue;
    ++filtered;
    auto result = tegra.Extract(raw.lines);
    if (!result.ok()) continue;
    // Keep only convincingly relational output: at least two columns and a
    // good per-pair objective score (Figure 8(a) calibration).
    if (result->num_columns >= 2 && result->per_pair_objective <= 0.45) {
      ++extracted;
      if (sample_table.NumRows() == 0) sample_table = result->table;
    }
  }

  std::printf("crawl: %zu lists -> %zu past filters -> %zu good tables\n",
              crawl.size(), filtered, extracted);
  if (sample_table.NumRows() > 0) {
    std::printf("\nfirst extracted table:\n%s",
                sample_table.ToString().c_str());
  }
  return 0;
}
