#include "core/batch.h"

#include <atomic>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "trace/trace.h"

namespace tegra {

BatchExtractor::BatchExtractor(const TegraExtractor* extractor,
                               BatchOptions options)
    : extractor_(extractor), options_(options) {}

std::vector<BatchItem> BatchExtractor::ExtractAll(
    const std::vector<std::vector<std::string>>& lists,
    const std::function<void(size_t done, size_t total)>& progress) const {
  std::vector<BatchItem> items(lists.size());
  std::atomic<size_t> done{0};

  // Resolve instrument handles once, outside the per-list hot loop.
  Counter* lists_total = nullptr;
  Counter* extracted_count = nullptr;
  Counter* filtered_count = nullptr;
  Counter* failed_count = nullptr;
  Histogram* extract_seconds = nullptr;
  if (options_.metrics != nullptr) {
    lists_total = options_.metrics->GetCounter("batch.lists_total");
    extracted_count = options_.metrics->GetCounter("batch.extracted_total");
    filtered_count = options_.metrics->GetCounter("batch.filtered_total");
    failed_count = options_.metrics->GetCounter("batch.failed_total");
    extract_seconds = options_.metrics->GetHistogram("batch.extract_seconds");
  }

  // Batch work fans out over a pool; capture the caller's trace context so
  // every per-list span tree hangs off the same batch-level trace.
  trace::TraceContext* trace_parent = trace::CurrentContext();

  auto process = [&](size_t i) {
    trace::ScopedContext scoped(trace_parent);
    TEGRA_TRACE_SPAN("batch_item", "batch", "batch.item_seconds");
    Stopwatch watch;
    BatchItem& item = items[i];
    item.list_index = i;
    if (lists[i].size() < options_.min_rows) {
      item.disposition = BatchItem::Disposition::kFiltered;
    } else {
      Result<ExtractionResult> result = extractor_->Extract(lists[i]);
      if (!result.ok()) {
        item.disposition = BatchItem::Disposition::kFailed;
        item.status = result.status();
      } else if (options_.max_per_pair_objective > 0 &&
                 result->per_pair_objective >
                     options_.max_per_pair_objective) {
        item.disposition = BatchItem::Disposition::kFiltered;
        item.result = std::move(result).value();
      } else {
        item.disposition = BatchItem::Disposition::kExtracted;
        item.result = std::move(result).value();
      }
    }
    if (lists_total != nullptr) {
      lists_total->Increment();
      switch (item.disposition) {
        case BatchItem::Disposition::kExtracted:
          extracted_count->Increment();
          break;
        case BatchItem::Disposition::kFiltered:
          filtered_count->Increment();
          break;
        case BatchItem::Disposition::kFailed:
          failed_count->Increment();
          break;
      }
      extract_seconds->Observe(watch.ElapsedSeconds());
    }
    const size_t completed = done.fetch_add(1) + 1;
    if (progress) progress(completed, lists.size());
  };

  if (options_.num_threads > 1 && lists.size() > 1) {
    ThreadPool pool(static_cast<size_t>(options_.num_threads));
    pool.ParallelFor(lists.size(), process);
  } else {
    for (size_t i = 0; i < lists.size(); ++i) process(i);
  }
  return items;
}

size_t BatchExtractor::Count(const std::vector<BatchItem>& items,
                             BatchItem::Disposition disposition) {
  size_t count = 0;
  for (const BatchItem& item : items) {
    count += (item.disposition == disposition);
  }
  return count;
}

}  // namespace tegra
