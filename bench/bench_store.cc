// bench_store — the heap-vs-mmap corpus representation benchmark behind
// docs/STORAGE.md: the in-memory build-side ColumnIndex against the
// MmapCorpus serving its TGRAIDX2 snapshot.
//
//   * publish cost      EncodeSnapshot + atomic write
//   * open latency      MmapCorpus::Open (header + section-table validation
//                       only)
//   * memory            process RSS delta of the build vs the open, plus the
//                       views' own HeapBytes / MappedBytes accounting
//   * query throughput  Lookup, and CoOccurrenceCount timed separately for
//                       hub ∩ hub, hub ∩ rare and rare ∩ rare pairs (a hub
//                       has |C(s)| >= ceil(N / 128), the snapshot's bitmap
//                       tier), over identical pair workloads, with a
//                       cross-checked hit total so the two representations
//                       provably answered the same queries. The snapshot's
//                       first pass, which builds the hub bitmaps it
//                       touches, is reported on its own line.
//
// Usage: bench_store [tables ...]   (default scales: 5000 28000)
//
// The 28k-table scale is the acceptance gate: MmapCorpus::Open must come in
// under 50 ms (it is usually under 1 ms — no payload is read at open).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "corpus/column_index.h"
#include "corpus/corpus_view.h"
#include "store/mmap_corpus.h"
#include "store/snapshot_writer.h"
#include "synth/corpus_gen.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Current resident set size in KiB (VmRSS from /proc/self/status), or 0.
size_t RssKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = static_cast<size_t>(std::atoll(line + 6));
      break;
    }
  }
  std::fclose(f);
  return kib;
}

/// The pair classes the snapshot's intersection kernel distinguishes.
enum PairClass { kHubHub, kHubRare, kRareRare, kNumClasses };
const char* const kClassNames[kNumClasses] = {"hub & hub", "hub & rare",
                                              "rare & rare"};

using PairList = std::vector<std::pair<tegra::ValueId, tegra::ValueId>>;

struct PairWorkload {
  PairList pairs[kNumClasses];
};

/// Same logical workload for both views: hub values (long, block-compressed
/// postings) and rare ones paired within and across the two groups,
/// translated per-view through the value strings so relabeled snapshot ids
/// do not change the queries.
PairWorkload BuildWorkload(const tegra::CorpusView& view,
                           const std::vector<std::string>& hubs,
                           const std::vector<std::string>& rare) {
  PairWorkload out;
  std::vector<tegra::ValueId> hub_ids, rare_ids;
  for (const auto& value : hubs) hub_ids.push_back(view.Lookup(value));
  for (const auto& value : rare) rare_ids.push_back(view.Lookup(value));
  for (size_t i = 0; i < hub_ids.size(); ++i) {
    for (size_t j = i + 1; j < hub_ids.size(); ++j) {
      out.pairs[kHubHub].emplace_back(hub_ids[i], hub_ids[j]);
    }
    for (size_t j = i % 3; j < rare_ids.size(); j += 3) {
      out.pairs[kHubRare].emplace_back(hub_ids[i], rare_ids[j]);
    }
  }
  for (size_t i = 0; i < rare_ids.size(); ++i) {
    for (size_t j = i + 1; j < rare_ids.size(); j += 2) {
      out.pairs[kRareRare].emplace_back(rare_ids[i], rare_ids[j]);
    }
  }
  return out;
}

struct QueryResult {
  double first_pass_ms = 0;  ///< One pass over every class, cold.
  double co_ms[kNumClasses] = {};
  double lookup_ms = 0;
  uint64_t hit_total = 0;  ///< Cross-representation checksum.
};

uint64_t CountPairs(const tegra::CorpusView& view, const PairList& pairs) {
  uint64_t hits = 0;
  for (const auto& [a, b] : pairs) hits += view.CoOccurrenceCount(a, b);
  return hits;
}

QueryResult RunQueries(const tegra::CorpusView& view,
                       const PairWorkload& workload,
                       const std::vector<std::string>& lookup_values,
                       int rounds) {
  QueryResult result;
  Clock::time_point start = Clock::now();
  uint64_t cold_hits = 0;
  for (const PairList& pairs : workload.pairs) {
    cold_hits += CountPairs(view, pairs);
  }
  result.first_pass_ms = MsSince(start);

  for (int c = 0; c < kNumClasses; ++c) {
    start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      result.hit_total += CountPairs(view, workload.pairs[c]);
    }
    result.co_ms[c] = MsSince(start);
  }
  if (cold_hits * rounds != result.hit_total) {
    std::fprintf(stderr, "FATAL: %s answered differently across passes\n",
                 view.FormatName());
    std::abort();
  }

  start = Clock::now();
  uint64_t found = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& value : lookup_values) {
      found += view.Lookup(value) != tegra::kInvalidValueId ? 1 : 0;
    }
  }
  result.lookup_ms = MsSince(start);
  result.hit_total += found;
  return result;
}

void BenchScale(size_t tables) {
  std::printf("=== %zu tables ===\n", tables);
  const std::string path =
      "/tmp/bench_store_" + std::to_string(tables) + ".idx2";

  // The heap index's RSS is what the build leaves resident; the snapshot's
  // is what the open maps in (only the header + section table are read).
  const size_t rss_before_build = RssKib();
  Clock::time_point start = Clock::now();
  const tegra::ColumnIndex heap = tegra::synth::BuildBackgroundIndex(
      tegra::synth::CorpusProfile::kWeb, tables, /*seed=*/1);
  std::printf("build            %8.1f ms  (%llu columns, %zu values)\n",
              MsSince(start),
              static_cast<unsigned long long>(heap.TotalColumns()),
              heap.NumValues());
  const size_t rss_after_build = RssKib();

  start = Clock::now();
  if (!tegra::store::WriteSnapshot(heap, path).ok()) std::abort();
  const double save_ms = MsSince(start);

  const size_t rss_before_open = RssKib();
  start = Clock::now();
  auto mapped = tegra::store::MmapCorpus::Open(path);
  const double open_ms = MsSince(start);
  if (!mapped.ok()) std::abort();
  const size_t rss_after_open = RssKib();

  std::printf("publish          %8.1f ms\n", save_ms);
  std::printf("open             %8.3f ms\n", open_ms);
  std::printf("RSS delta        heap build %6zu KiB  mmap open %6zu KiB\n",
              rss_after_build - rss_before_build,
              rss_after_open - rss_before_open);
  std::printf("view accounting  heap %6.1f MiB   mmap heap %zu B"
              " + mapped %.1f MiB\n",
              static_cast<double>(heap.HeapBytes()) / (1 << 20),
              (*mapped)->HeapBytes(),
              static_cast<double>((*mapped)->MappedBytes()) / (1 << 20));

  // Query throughput over an identical pair workload: the 24 most frequent
  // values that are hubs by the snapshot's rule, and 40 random non-hubs.
  const uint64_t hub_threshold = (heap.TotalColumns() + 127) / 128;
  std::vector<tegra::ValueId> by_count(heap.NumValues());
  for (size_t i = 0; i < by_count.size(); ++i) {
    by_count[i] = static_cast<tegra::ValueId>(i);
  }
  std::sort(by_count.begin(), by_count.end(),
            [&](tegra::ValueId a, tegra::ValueId b) {
              return heap.ColumnCount(a) > heap.ColumnCount(b);
            });
  std::vector<std::string> hubs;
  for (size_t i = 0; i < std::min<size_t>(24, by_count.size()) &&
                     heap.ColumnCount(by_count[i]) >= hub_threshold;
       ++i) {
    hubs.push_back(heap.ValueString(by_count[i]));
  }
  std::mt19937 rng(7);
  std::uniform_int_distribution<size_t> pick(0, heap.NumValues() - 1);
  std::vector<std::string> rare_values;
  while (rare_values.size() < 40) {
    const auto id = static_cast<tegra::ValueId>(pick(rng));
    if (heap.ColumnCount(id) < hub_threshold) {
      rare_values.push_back(heap.ValueString(id));
    }
  }

  const PairWorkload heap_work = BuildWorkload(heap, hubs, rare_values);
  const PairWorkload mmap_work = BuildWorkload(**mapped, hubs, rare_values);
  const int rounds = 200;
  const QueryResult heap_result =
      RunQueries(heap, heap_work, rare_values, rounds);
  const QueryResult mmap_result =
      RunQueries(**mapped, mmap_work, rare_values, rounds);
  if (heap_result.hit_total != mmap_result.hit_total) {
    std::fprintf(stderr,
                 "FATAL: representations disagree (heap=%llu mmap=%llu)\n",
                 static_cast<unsigned long long>(heap_result.hit_total),
                 static_cast<unsigned long long>(mmap_result.hit_total));
    std::abort();
  }
  std::printf("hub threshold    %llu postings (%zu hubs sampled)\n",
              static_cast<unsigned long long>(hub_threshold), hubs.size());
  std::printf("first pass       heap %8.2f ms   mmap %8.2f ms"
              "   (mmap builds the sampled hub bitmaps)\n",
              heap_result.first_pass_ms, mmap_result.first_pass_ms);
  for (int c = 0; c < kNumClasses; ++c) {
    const double ops =
        static_cast<double>(heap_work.pairs[c].size()) * rounds;
    std::printf("%-16s heap %8.3f Mops/s   mmap %8.3f Mops/s"
                "   (%zu pairs)\n",
                kClassNames[c], ops / heap_result.co_ms[c] / 1e3,
                ops / mmap_result.co_ms[c] / 1e3, heap_work.pairs[c].size());
  }
  std::printf("hit checksum     %llu\n",
              static_cast<unsigned long long>(heap_result.hit_total));
  const double lookups = static_cast<double>(rare_values.size()) * rounds;
  std::printf("lookups          heap %7.2f Mops/s   mmap %7.2f Mops/s\n",
              lookups / heap_result.lookup_ms / 1e3,
              lookups / mmap_result.lookup_ms / 1e3);
  std::printf("view accounting  mmap heap after queries %zu B\n",
              (*mapped)->HeapBytes());

  if (tables >= 28000) {
    std::printf("acceptance       mmap open %.3f ms %s 50 ms budget\n",
                open_ms, open_ms < 50.0 ? "<" : ">=");
    if (open_ms >= 50.0) std::abort();
  }
  std::printf("\n");
  mapped.value().reset();
  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> scales;
  for (int i = 1; i < argc; ++i) {
    scales.push_back(static_cast<size_t>(std::atoll(argv[i])));
  }
  if (scales.empty()) scales = {5000, 28000};
  for (const size_t tables : scales) BenchScale(tables);
  return 0;
}
