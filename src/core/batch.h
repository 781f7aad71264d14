// Batch extraction over many lists — the offline deployment mode of the
// paper ("our main targeted application is to extract tables from Web lists
// offline ... we scale out the extraction process", §5.6). One BatchExtractor
// fans lists out over a thread pool; each worker runs an independent
// extraction, so throughput scales with cores while every individual result
// is identical to a sequential run.

#ifndef TEGRA_CORE_BATCH_H_
#define TEGRA_CORE_BATCH_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/tegra.h"

namespace tegra {

class MetricsRegistry;  // common/metrics.h

/// \brief Options for batch extraction.
struct BatchOptions {
  /// Worker threads across lists (within-list extraction stays sequential;
  /// cross-list parallelism dominates at corpus scale).
  int num_threads = 4;
  /// Skip lists with fewer rows than this (crawl hygiene, §5.7).
  size_t min_rows = 2;
  /// When positive, only keep extractions whose per-pair objective is at
  /// most this (the Figure 8(a) quality proxy); others are reported as
  /// filtered.
  double max_per_pair_objective = 0;
  /// Optional metrics sink (not owned; must outlive the ExtractAll call).
  /// When set, the batch reports `batch.lists_total`, per-disposition
  /// counters and a `batch.extract_seconds` latency histogram into it.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Outcome of one list in a batch.
struct BatchItem {
  size_t list_index = 0;
  /// OK with a table, or the extraction failure, or kFiltered.
  enum class Disposition { kExtracted, kFiltered, kFailed } disposition =
      Disposition::kFailed;
  ExtractionResult result;  ///< Valid when disposition == kExtracted.
  Status status;            ///< Failure details when kFailed.
};

/// \brief Extracts tables from many lists concurrently.
class BatchExtractor {
 public:
  /// \param extractor the configured single-list engine (not owned; it is
  /// immutable and shared by all workers).
  BatchExtractor(const TegraExtractor* extractor, BatchOptions options = {});

  /// Processes every list; the output is index-aligned with the input.
  /// `progress`, when given, is invoked after each completed list with the
  /// number done so far (from worker threads; must be thread-safe).
  std::vector<BatchItem> ExtractAll(
      const std::vector<std::vector<std::string>>& lists,
      const std::function<void(size_t done, size_t total)>& progress =
          nullptr) const;

  /// Convenience: number of items with the given disposition.
  static size_t Count(const std::vector<BatchItem>& items,
                      BatchItem::Disposition disposition);

 private:
  const TegraExtractor* extractor_;  // Not owned.
  BatchOptions options_;
};

}  // namespace tegra

#endif  // TEGRA_CORE_BATCH_H_
