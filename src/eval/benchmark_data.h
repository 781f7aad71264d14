// Benchmark datasets (§5.1.3) and shared background corpora (§5.1.4).
//
// Datasets Web / Wiki / Enterprise are constructed exactly as in the paper:
// tables are sampled (from the matching generator profile), rows are
// flattened into unsegmented lines, and the original tables serve as ground
// truth. Benchmark seeds are disjoint from background-corpus seeds, so test
// tables are held out of the co-occurrence statistics. The Lists dataset is
// the 20 hand-labelled lists of lists_data.h.
//
// Background corpora are expensive to build, so they are constructed once,
// cached on disk as TGRAIDX2 snapshots (store::OpenOrBuildSnapshot) and
// memoized per process.

#ifndef TEGRA_EVAL_BENCHMARK_DATA_H_
#define TEGRA_EVAL_BENCHMARK_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus_view.h"
#include "corpus/corpus_stats.h"
#include "corpus/table.h"
#include "synth/knowledge_base.h"
#include "text/tokenizer.h"

namespace tegra::eval {

/// \brief The four benchmark sets of §5.1.3.
enum class DatasetId { kWeb, kWiki, kEnterprise, kLists };

const char* DatasetName(DatasetId id);

/// \brief One benchmark case.
struct EvalInstance {
  size_t index = 0;  ///< Position within the dataset (used for seeding).
  std::vector<std::string> lines;
  Table truth;
  TokenizerOptions tokenizer;  ///< Per-list delimiters (Lists dataset).
};

/// \brief Builds a dataset. `count` is ignored for kLists (always 20).
std::vector<EvalInstance> BuildDataset(DatasetId id, size_t count,
                                       uint64_t seed = 0);

/// \brief Default number of tables per generated dataset; the paper uses
/// 10,000, we default to a CI-friendly 60 (about +/-5%% noise on F).
/// Override with the TEGRA_BENCH_TABLES environment variable.
size_t BenchTablesPerDataset();

/// \brief Background corpus sizes (tables). Overridable with
/// TEGRA_WEB_CORPUS_TABLES / TEGRA_ENT_CORPUS_TABLES.
size_t WebCorpusTables();
size_t EnterpriseCorpusTables();

/// \brief The three background corpora of Table 6.
enum class BackgroundId { kWeb, kEnterprise, kCombined };

const char* BackgroundName(BackgroundId id);

/// \brief Process-wide background corpus: the mmap'd `*.idx2` snapshot in
/// the cache directory (TEGRA_CACHE_DIR or /tmp/tegra_cache), built and
/// published there on first use.
const CorpusView& BackgroundIndex(BackgroundId id);

/// \brief Co-occurrence statistics over a background index (memoized).
const CorpusStats& BackgroundStats(BackgroundId id);

/// \brief The general-purpose synthetic KB for the Judie baseline.
const synth::KnowledgeBase& GeneralKb();

}  // namespace tegra::eval

#endif  // TEGRA_EVAL_BENCHMARK_DATA_H_
