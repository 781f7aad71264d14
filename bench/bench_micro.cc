// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: tokenization, type detection, postings intersection, NPMI,
// cell distance, the SLGR dynamic program, the A* free-distance heuristic and
// the A* anchor search (vs the exhaustive TEGRA-naive oracle).

#include <benchmark/benchmark.h>

#include "core/anchor_search.h"
#include "core/free_distance.h"
#include "core/list_context.h"
#include "core/slgr.h"
#include "corpus/column_index.h"
#include "corpus/corpus_stats.h"
#include "distance/distance.h"
#include "eval/benchmark_data.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"
#include "text/tokenizer.h"
#include "text/value_type.h"

namespace tegra {
namespace {

const ColumnIndex& SmallIndex() {
  static const ColumnIndex* kIndex = [] {
    auto* index = new ColumnIndex(synth::BuildBackgroundIndex(
        synth::CorpusProfile::kWeb, /*num_tables=*/2000, /*seed=*/42));
    return index;
  }();
  return *kIndex;
}

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  const std::string line =
      "12. New York City, New York: 8,336,817 people (2019 census)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(line));
  }
}
BENCHMARK(BM_Tokenize);

void BM_DetectValueType(benchmark::State& state) {
  const std::string values[] = {"645,966", "2010-05-31", "Jan 12",
                                "mary.cook@example.com", "New York City",
                                "SKU-926434"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DetectValueType(values[i++ % 6]));
  }
}
BENCHMARK(BM_DetectValueType);

void BM_PostingsIntersection(benchmark::State& state) {
  const ColumnIndex& index = SmallIndex();
  // Pick two popular values.
  const ValueId a = index.Lookup("london");
  const ValueId b = index.Lookup("paris");
  if (a == kInvalidValueId || b == kInvalidValueId) {
    state.SkipWithError("expected vocabulary values missing from corpus");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.CoOccurrenceCount(a, b));
  }
}
BENCHMARK(BM_PostingsIntersection);

void BM_NpmiUncached(benchmark::State& state) {
  const ColumnIndex& index = SmallIndex();
  const ValueId a = index.Lookup("london");
  const ValueId b = index.Lookup("tokyo");
  for (auto _ : state) {
    CorpusStats stats(&index);  // Fresh cache every iteration.
    benchmark::DoNotOptimize(stats.Npmi(a, b));
  }
}
BENCHMARK(BM_NpmiUncached);

void BM_CellDistanceCached(benchmark::State& state) {
  const ColumnIndex& index = SmallIndex();
  CorpusStats stats(&index);
  CellDistance distance(&stats);
  CellCatalog catalog(&index);
  const CellInfo& a = catalog.Register("New York City", 3);
  const CellInfo& b = catalog.Register("Toronto", 1);
  DistanceCache cache(&distance);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache(a, b));
  }
}
BENCHMARK(BM_CellDistanceCached);

/// Shared fixture: a list of `rows` lines with `cols` columns.
ListContext MakeContext(int cols, int rows, const ColumnIndex* index) {
  synth::TableGenOptions opts =
      synth::DefaultTableGenOptions(synth::CorpusProfile::kWeb);
  opts.min_cols = cols;
  opts.max_cols = cols;
  opts.min_rows = rows;
  opts.max_rows = rows;
  synth::TableGenerator gen(synth::CorpusProfile::kWeb, opts, 7);
  auto instance = synth::MakeBenchmarkInstance(gen.Generate());
  Tokenizer tokenizer;
  std::vector<std::vector<std::string>> token_lines;
  for (const auto& line : instance.lines) {
    token_lines.push_back(tokenizer.Tokenize(line));
  }
  return ListContext(std::move(token_lines), index);
}

void BM_SlgrDp(benchmark::State& state) {
  const ColumnIndex& index = SmallIndex();
  CorpusStats stats(&index);
  CellDistance distance(&stats);
  const int m = static_cast<int>(state.range(0));
  ListContext ctx = MakeContext(m, 10, &index);
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    ctx.EnsureWidth(j, ctx.EffectiveWidth(j, m, 8));
  }
  DistanceCache cache(&distance);
  // Anchor: an even split of line 0.
  Bounds anchor(m + 1);
  for (int k = 0; k <= m; ++k) {
    anchor[k] = static_cast<uint32_t>(k * ctx.line_length(0) / m);
  }
  auto anchor_cells = ctx.CellsFor(0, anchor);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SegmentLineGivenRecord(
        ctx, 1, anchor_cells, &cache, ctx.EffectiveWidth(1, m, 8)));
  }
}
BENCHMARK(BM_SlgrDp)->Arg(3)->Arg(6)->Arg(9);

void BM_AnchorSearchAStar(benchmark::State& state) {
  const ColumnIndex& index = SmallIndex();
  CorpusStats stats(&index);
  CellDistance distance(&stats);
  const int m = static_cast<int>(state.range(0));
  ListContext ctx = MakeContext(m, 10, &index);
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    ctx.EnsureWidth(j, ctx.EffectiveWidth(j, m, 8));
  }
  for (auto _ : state) {
    DistanceCache cache(&distance);
    benchmark::DoNotOptimize(
        MinimizeAnchorDistanceAStar(ctx, 0, m, &cache, 8));
  }
}
BENCHMARK(BM_AnchorSearchAStar)->Arg(3)->Arg(5);

/// The free-distance heuristic (Algorithm 4) for anchor 0 of a 20-line,
/// 6-column list with a cold distance memo: every candidate cell of the
/// anchor against every candidate cell of every other line, the access
/// pattern that dominates A* extraction.
void BM_AnchorHeuristic(benchmark::State& state) {
  const ColumnIndex& index = SmallIndex();
  CorpusStats stats(&index);
  CellDistance distance(&stats);
  constexpr int m = 6;
  ListContext ctx = MakeContext(m, 20, &index);
  std::vector<uint32_t> widths(ctx.num_lines());
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    widths[j] = ctx.EffectiveWidth(j, m, 8);
    ctx.EnsureWidth(j, widths[j]);
  }
  for (auto _ : state) {
    DistanceCache cache(&distance);
    const AnchorHeuristic heuristic(ctx, 0, m, widths[0], widths, &cache);
    benchmark::DoNotOptimize(heuristic.Get(0, 0));
  }
}
BENCHMARK(BM_AnchorHeuristic);

void BM_AnchorSearchExhaustive(benchmark::State& state) {
  const ColumnIndex& index = SmallIndex();
  CorpusStats stats(&index);
  CellDistance distance(&stats);
  const int m = static_cast<int>(state.range(0));
  ListContext ctx = MakeContext(m, 10, &index);
  for (size_t j = 0; j < ctx.num_lines(); ++j) {
    ctx.EnsureWidth(j, ctx.EffectiveWidth(j, m, 8));
  }
  for (auto _ : state) {
    DistanceCache cache(&distance);
    benchmark::DoNotOptimize(
        MinimizeAnchorDistanceExhaustive(ctx, 0, m, &cache, 8));
  }
}
BENCHMARK(BM_AnchorSearchExhaustive)->Arg(3)->Arg(5);

}  // namespace
}  // namespace tegra

BENCHMARK_MAIN();
