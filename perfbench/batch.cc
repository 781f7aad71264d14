// batch_unsup and batch_given_m: one caller in a closed loop running the
// library in-process (num_threads = 1) over benchmark lists in a seeded
// order, against a background corpus opened as a TGRAIDX2 snapshot.
//
// Timed run (--trace 0): in each of kBatchPasses passes the same fixed lists,
// sized so the run lasts about --seconds on a 4-core machine, are extracted
// back to back in a pass-specific order; every table is validated and
// scored.
//
// Traced run (--trace 1): in the last pass, a fixed number of lists is
// extracted twice, each time with a fresh co-occurrence memo. Phase A is
// plain and timed. Phase B wraps the corpus in a counting CorpusView,
// records benchmark-owned spans around calls into each layer, and replays
// the final pass at the chosen column count from the public core functions;
// the replay must reproduce the library's bounds and SP exactly.
// trace.overhead_ratio is phase B's library time over phase A's on the same
// lists.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>

#include "common.h"
#include "common/stopwatch.h"
#include "core/anchor_search.h"
#include "core/free_distance.h"
#include "core/list_context.h"
#include "core/objective.h"
#include "core/tegra.h"
#include "corpus/corpus_stats.h"
#include "corpus/corpus_view.h"
#include "eval/mapping_metric.h"
#include "store/mmap_corpus.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using tegra::eval::EvalInstance;

/// Lists extracted (and validated) before the first pass is timed, to page
/// in code and the snapshot; never timed, and distinct from the timed lists.
constexpr size_t kWarmupLists = 3;

/// Measurement passes per run (see kSetups in common.h).
constexpr int kBatchPasses = 5;

/// Timed lists per pass per second of --seconds: a fifth of the measured
/// list rate on a 4-core machine, so the passes of a run last about
/// --seconds together. Indexed by given_m.
constexpr double kListsPerSecond[2] = {/*unsup=*/1.25, /*given_m=*/2.4};

/// Traced lists per second of --seconds; only the last pass is traced, and
/// each traced list costs about 3x a timed one (phase A, phase B with the
/// sweep split, and the replay).
constexpr double kTracedListsPerSecond[2] = {/*unsup=*/1, /*given_m=*/2};

size_t ListCount(const Args& args, bool given_m) {
  const double per_second = args.trace ? kTracedListsPerSecond[given_m]
                                       : kListsPerSecond[given_m];
  return std::max<size_t>(
      1, static_cast<size_t>(std::ceil(args.seconds * per_second)));
}

/// \brief CorpusView decorator counting and timing what reaches the store:
/// value lookups and postings intersections (memo misses).
class CountingCorpus final : public tegra::CorpusView {
 public:
  explicit CountingCorpus(const tegra::CorpusView* base) : base_(base) {}

  uint64_t TotalColumns() const override { return base_->TotalColumns(); }
  size_t NumValues() const override { return base_->NumValues(); }
  tegra::ValueId Lookup(std::string_view value) const override {
    const auto t0 = std::chrono::steady_clock::now();
    const tegra::ValueId id = base_->Lookup(value);
    Count(&lookups_, &lookup_ns_, t0);
    return id;
  }
  uint32_t ColumnCount(tegra::ValueId id) const override {
    return base_->ColumnCount(id);
  }
  uint32_t CoOccurrenceCount(tegra::ValueId a,
                             tegra::ValueId b) const override {
    const auto t0 = std::chrono::steady_clock::now();
    const uint32_t n = base_->CoOccurrenceCount(a, b);
    Count(&co_lookups_, &co_lookup_ns_, t0);
    return n;
  }
  uint32_t UnionCount(tegra::ValueId a, tegra::ValueId b) const override {
    const auto t0 = std::chrono::steady_clock::now();
    const uint32_t n = base_->UnionCount(a, b);
    Count(&co_lookups_, &co_lookup_ns_, t0);
    return n;
  }
  std::string ValueString(tegra::ValueId id) const override {
    return base_->ValueString(id);
  }
  void ForEachValue(const std::function<void(tegra::ValueId,
                                             const std::string&)>& fn)
      const override {
    base_->ForEachValue(fn);
  }
  const char* FormatName() const override { return base_->FormatName(); }
  size_t HeapBytes() const override { return base_->HeapBytes(); }
  size_t MappedBytes() const override { return base_->MappedBytes(); }

  uint64_t lookups() const { return lookups_.load(); }
  uint64_t co_lookups() const { return co_lookups_.load(); }
  double lookup_s() const { return lookup_ns_.load() * 1e-9; }
  double co_lookup_s() const { return co_lookup_ns_.load() * 1e-9; }

 private:
  static void Count(std::atomic<uint64_t>* calls, std::atomic<uint64_t>* ns,
                    std::chrono::steady_clock::time_point t0) {
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    calls->fetch_add(1, std::memory_order_relaxed);
    ns->fetch_add(static_cast<uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          elapsed)
                          .count()),
                  std::memory_order_relaxed);
  }

  const tegra::CorpusView* base_;  // Not owned.
  mutable std::atomic<uint64_t> lookups_{0};
  mutable std::atomic<uint64_t> co_lookups_{0};
  mutable std::atomic<uint64_t> lookup_ns_{0};
  mutable std::atomic<uint64_t> co_lookup_ns_{0};
};

/// \brief Times one call into a layer: records a span in the benchmark's
/// tracer and adds the elapsed seconds to an accumulator (if any).
class LayerTimer {
 public:
  LayerTimer(tegra::trace::Tracer* tracer, const char* name, double* acc)
      : span_(tracer, name, "perfbench"), acc_(acc) {}
  ~LayerTimer() { Stop(); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

  /// Ends the span; returns the elapsed seconds (idempotent).
  double Stop() {
    if (!stopped_) {
      elapsed_ = watch_.ElapsedSeconds();
      span_.End();
      if (acc_ != nullptr) *acc_ += elapsed_;
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  tegra::trace::Span span_;
  double* acc_;
  tegra::Stopwatch watch_;
  double elapsed_ = 0;
  bool stopped_ = false;
};

/// Per-layer sums over the traced lists.
struct LayerTotals {
  double tokenize_s = 0;
  double list_context_s = 0;
  double sweep_s = 0;
  double heuristic_s = 0;
  double astar_s = 0;
  double induce_s = 0;
  double sp_s = 0;
  double nodes_expanded = 0;
  double anchors = 0;
  double distance_evals = 0;
};

struct ReplayOutcome {
  std::vector<tegra::Bounds> bounds;
  double sp = 0;
  size_t nodes_expanded = 0;
};

/// Replays TegraExtractor's final pass at `m` (all anchors, A*, induce, SP)
/// from the public core functions with a benchmark-owned DistanceCache.
ReplayOutcome ReplayFinalPass(tegra::ListContext* ctx, int m,
                              const tegra::TegraOptions& options,
                              const tegra::CellDistance& distance,
                              tegra::trace::Tracer* tracer,
                              LayerTotals* totals) {
  const uint32_t cap = static_cast<uint32_t>(options.max_cell_tokens);
  tegra::DistanceCache cache(&distance);
  std::vector<uint32_t> line_widths(ctx->num_lines());
  {
    LayerTimer timer(tracer, "candidate_cells", &totals->list_context_s);
    for (size_t j = 0; j < ctx->num_lines(); ++j) {
      line_widths[j] = ctx->EffectiveWidth(j, m, cap);
      ctx->EnsureWidth(j, line_widths[j]);
    }
  }
  ReplayOutcome out;
  double best = std::numeric_limits<double>::infinity();
  size_t best_anchor = 0;
  tegra::Bounds best_bounds;
  for (size_t anchor = 0; anchor < ctx->num_lines(); ++anchor) {
    // The search builds its own heuristic first, against the memo as it
    // stands; time a replica of that build on a copy of the same memo.
    tegra::DistanceCache heuristic_cache = cache;
    LayerTimer heuristic_timer(tracer, "heuristic", &totals->heuristic_s);
    [[maybe_unused]] const tegra::AnchorHeuristic heuristic(
        *ctx, anchor, m, ctx->EffectiveWidth(anchor, m, cap), line_widths,
        &heuristic_cache);
    const double heuristic_s = heuristic_timer.Stop();

    LayerTimer astar_timer(tracer, "astar", nullptr);
    tegra::AnchorSearchResult result = tegra::MinimizeAnchorDistanceAStar(
        *ctx, anchor, m, &cache, cap, options.slgr_width_cap,
        options.max_anchor_nodes);
    totals->astar_s += astar_timer.Stop() - heuristic_s;
    out.nodes_expanded += result.nodes_expanded;
    if (result.anchor_distance < best) {
      best = result.anchor_distance;
      best_anchor = anchor;
      best_bounds = std::move(result.anchor_bounds);
    }
  }
  totals->anchors += static_cast<double>(ctx->num_lines());
  {
    LayerTimer timer(tracer, "induce", &totals->induce_s);
    out.bounds = tegra::InduceTable(*ctx, best_anchor, best_bounds, &cache,
                                    cap, options.slgr_width_cap);
  }
  {
    LayerTimer timer(tracer, "sp", &totals->sp_s);
    out.sp = tegra::SumOfPairsDistance(*ctx, out.bounds, &cache,
                                       options.max_sp_pairs);
  }
  totals->nodes_expanded += static_cast<double>(out.nodes_expanded);
  totals->distance_evals += static_cast<double>(cache.size());
  return out;
}

tegra::Result<tegra::ExtractionResult> ExtractOne(
    const tegra::TegraExtractor& tegra, const EvalInstance& list,
    bool given_m) {
  return given_m ? tegra.ExtractWithColumns(
                       list.lines, static_cast<int>(list.truth.NumCols()))
                 : tegra.Extract(list.lines);
}

/// Validates and scores one extraction; returns the F-measure, or nullopt
/// when the extraction failed or its table is not a valid segmentation.
std::optional<double> CheckAndScore(
    const tegra::Tokenizer& tokenizer, const EvalInstance& list,
    const tegra::Result<tegra::ExtractionResult>& result, bool corrupt) {
  if (!result.ok()) {
    std::fprintf(stderr, "extraction failed: %s\n",
                 result.status().ToString().c_str());
    return std::nullopt;
  }
  std::vector<std::vector<std::string>> rows = result->table.rows();
  if (corrupt) CorruptRows(&rows);
  if (!ValidSegmentation(tokenizer, list.lines, rows,
                         static_cast<size_t>(result->num_columns))) {
    std::fprintf(stderr, "invalid table for list %zu\n", list.index);
    return std::nullopt;
  }
  return tegra::eval::ScoreTable(list.truth, tegra::Table(rows)).f1;
}

struct BatchInputs {
  std::unique_ptr<tegra::store::MmapCorpus> corpus;
  std::vector<EvalInstance> lists;
};

/// One set-up: corpus snapshot built in a child process (unless `reuse`),
/// opened, and the pass's lists generated.
tegra::Status SetUp(const Args& args, bool given_m, int pass, bool reuse,
                    BatchInputs* in, SetupTimes* times) {
  const CorpusSpec& spec = given_m ? kEnterpriseCorpus : kWebCorpus;
  const std::string path = args.out_dir + "/" + spec.file_name;
  const tegra::eval::DatasetId dataset = given_m
                                             ? tegra::eval::DatasetId::kEnterprise
                                             : tegra::eval::DatasetId::kWiki;
  tegra::Stopwatch total;
  if (!reuse) TEGRA_RETURN_NOT_OK(BuildSnapshot(spec, path, times));
  tegra::Stopwatch watch;
  auto opened = tegra::store::MmapCorpus::Open(path);
  if (!opened.ok()) return opened.status();
  in->corpus = std::move(opened).value();
  times->snapshot_open_s = watch.ElapsedSeconds();
  watch.Restart();
  in->lists = MakeLists(dataset, kWarmupLists, ListCount(args, given_m),
                        args.seed * kBatchPasses + static_cast<uint64_t>(pass));
  times->dataset_s = watch.ElapsedSeconds();
  times->total_s = total.ElapsedSeconds();
  return tegra::Status::OK();
}

void TimedRun(const Args& args, bool given_m, const BatchInputs& in,
              bool warm_up, Report* report) {
  const tegra::CorpusStats stats(in.corpus.get());
  const tegra::TegraExtractor tegra(&stats);
  const tegra::Tokenizer tokenizer(tegra.options().tokenizer);
  std::vector<double> f1;
  size_t next = 0;
  auto run_one = [&](bool timed) {
    const EvalInstance& list = in.lists[next++];
    tegra::Stopwatch watch;
    const auto result = ExtractOne(tegra, list, given_m);
    const double ms = watch.ElapsedMillis();
    const bool corrupt = args.inject_invalid && timed && f1.empty();
    const std::optional<double> score =
        CheckAndScore(tokenizer, list, result, corrupt);
    ++report->attempted;
    if (!score) ++report->failed;
    if (timed) {
      report->latencies_ms.emplace_back(list.index, ms);
      f1.push_back(score.value_or(0));
    }
  };
  while (next < kWarmupLists) {
    if (warm_up) {
      run_one(false);
    } else {
      ++next;
    }
  }
  tegra::Stopwatch run;
  while (next < in.lists.size()) run_one(true);
  const double elapsed = run.ElapsedSeconds();
  report->Add("lists_per_s", static_cast<double>(f1.size()) / elapsed, "1/s");
  report->Add("quality_f1", Mean(f1), "ratio");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
  report->notes.push_back(
      {"timed_lists_per_pass", static_cast<double>(f1.size()), "count"});
}

void TracedRun(const Args& args, bool given_m, const BatchInputs& in,
               Report* report) {
  const size_t count = in.lists.size() - kWarmupLists;
  const tegra::TegraOptions options;
  const tegra::Tokenizer tokenizer(options.tokenizer);

  // Phase A: plain library calls, fresh memo.
  std::vector<double> plain_s(count);
  {
    const tegra::CorpusStats stats(in.corpus.get());
    const tegra::TegraExtractor tegra(&stats, options);
    for (size_t i = 0; i < kWarmupLists; ++i) {
      (void)ExtractOne(tegra, in.lists[i], given_m);
    }
    for (size_t i = 0; i < count; ++i) {
      tegra::Stopwatch watch;
      (void)ExtractOne(tegra, in.lists[kWarmupLists + i], given_m);
      plain_s[i] = watch.ElapsedSeconds();
    }
  }

  // Phase B: counted corpus, spans, sweep split and final-pass replay. The
  // counted library call has its own memo, so it sees every list once. The
  // fixed-m call shares its memo with the replay: it has just looked up every
  // pair the final pass needs, so the heuristic replica and the search meet
  // the same warm memo, and store time stays in corpus.*.
  const CountingCorpus counted(in.corpus.get());
  const tegra::CorpusStats traced_stats(&counted);
  const tegra::TegraExtractor traced(&traced_stats, options);
  const tegra::CorpusStats given_stats(in.corpus.get());
  const tegra::TegraExtractor given(&given_stats, options);
  const tegra::CellDistance replay_distance(&given_stats, options.distance);
  tegra::trace::Tracer tracer(1 << 17);
  tracer.SetEnabled(true);
  for (size_t i = 0; i < kWarmupLists; ++i) {
    (void)ExtractOne(traced, in.lists[i], given_m);
  }
  const uint64_t warm_lookups = counted.lookups();
  const uint64_t warm_co_lookups = counted.co_lookups();
  const double warm_lookup_s = counted.lookup_s();
  const double warm_co_lookup_s = counted.co_lookup_s();
  const tegra::LruCacheStats warm_memo = traced_stats.CoCacheStats();

  LayerTotals totals;
  double traced_s = 0;
  for (size_t i = 0; i < count; ++i) {
    const EvalInstance& list = in.lists[kWarmupLists + i];
    tegra::trace::Span list_span(&tracer, "list", "perfbench");
    std::vector<std::vector<std::string>> token_lines;
    {
      LayerTimer timer(&tracer, "tokenize", &totals.tokenize_s);
      for (const std::string& line : list.lines) {
        token_lines.push_back(tokenizer.Tokenize(line));
      }
    }
    std::optional<tegra::ListContext> ctx;
    {
      LayerTimer timer(&tracer, "list_context", &totals.list_context_s);
      ctx.emplace(std::move(token_lines), in.corpus.get());
    }
    LayerTimer extract_timer(&tracer, given_m ? "extract_with_columns"
                                              : "extract",
                             &traced_s);
    const auto result = ExtractOne(traced, list, given_m);
    const double extract_s = extract_timer.Stop();
    ++report->attempted;
    if (!CheckAndScore(tokenizer, list, result, false)) {
      ++report->failed;
      continue;
    }
    {
      LayerTimer timer(&tracer, "extract_with_columns", nullptr);
      const auto at_m = given.ExtractWithColumns(list.lines,
                                                 result->num_columns);
      if (!given_m) totals.sweep_s += extract_s - timer.Stop();
      if (!at_m.ok() || at_m->bounds != result->bounds) {
        std::fprintf(stderr, "list %zu: fixed-m pass disagrees\n", list.index);
        ++report->failed;
        continue;
      }
    }
    LayerTimer replay_timer(&tracer, "replay", nullptr);
    const ReplayOutcome replay =
        ReplayFinalPass(&*ctx, result->num_columns, options, replay_distance,
                        &tracer, &totals);
    replay_timer.Stop();
    if (replay.bounds != result->bounds || replay.sp != result->sp ||
        (given_m && replay.nodes_expanded != result->nodes_expanded)) {
      std::fprintf(stderr, "list %zu: replay disagrees with the library\n",
                   list.index);
      ++report->failed;
    }
  }

  double plain_total = 0;
  for (double s : plain_s) plain_total += s;
  const tegra::LruCacheStats memo = traced_stats.CoCacheStats();
  const double memo_hits = static_cast<double>(memo.hits - warm_memo.hits);
  const double memo_total = memo_hits + static_cast<double>(
                                            memo.misses - warm_memo.misses);
  report->Add("corpus.lookups",
              static_cast<double>(counted.lookups() - warm_lookups), "count");
  report->Add("corpus.lookup_s", counted.lookup_s() - warm_lookup_s, "s");
  report->Add("corpus.co_lookups",
              static_cast<double>(counted.co_lookups() - warm_co_lookups),
              "count");
  report->Add("corpus.co_lookup_s", counted.co_lookup_s() - warm_co_lookup_s,
              "s");
  report->Add("corpus.memo_hit_ratio",
              memo_total > 0 ? memo_hits / memo_total : 0, "ratio");
  report->Add("text.tokenize_s", totals.tokenize_s, "s");
  report->Add("core.list_context_s", totals.list_context_s, "s");
  report->Add("core.sweep_s", totals.sweep_s, "s");
  report->Add("core.heuristic_s", totals.heuristic_s, "s");
  report->Add("core.astar_s", totals.astar_s, "s");
  report->Add("core.induce_s", totals.induce_s, "s");
  report->Add("core.sp_s", totals.sp_s, "s");
  report->Add("core.nodes_expanded", totals.nodes_expanded, "count");
  report->Add("core.anchors", totals.anchors, "count");
  report->Add("distance.evals", totals.distance_evals, "count");
  report->Add("trace.lists", static_cast<double>(count), "count");
  report->Add("trace.extract_s", traced_s, "s");
  report->Add("trace.overhead_ratio",
              plain_total > 0 ? traced_s / plain_total : 0, "ratio");

  const std::string trace_path = args.out_dir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".trace.json";
  const tegra::Status written =
      tegra::trace::WriteChromeTrace(trace_path, tracer.RingSnapshot());
  if (!written.ok()) {
    std::fprintf(stderr, "chrome trace: %s\n", written.ToString().c_str());
    report->correct = false;
  } else {
    std::fprintf(stderr, "chrome trace: %s (%llu spans, %llu dropped)\n",
                 trace_path.c_str(),
                 static_cast<unsigned long long>(tracer.spans_recorded()),
                 static_cast<unsigned long long>(tracer.dropped()));
  }
}

}  // namespace

Report RunBatch(const Args& args, bool given_m) {
  Report report;
  std::vector<SetupTimes> setups;
  std::vector<Report> passes;
  // A traced run traces the last set-up pass and makes no further passes.
  const int num_passes = args.trace ? kSetups : kBatchPasses;
  for (int pass = 0; pass < num_passes; ++pass) {
    BatchInputs in;
    SetupTimes times;
    const bool reuse = pass >= kSetups;
    const tegra::Status set_up =
        SetUp(args, given_m, pass, reuse, &in, &times);
    if (!set_up.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", set_up.ToString().c_str());
      report.correct = false;
      return report;
    }
    if (!reuse) setups.push_back(times);
    passes.emplace_back();
    if (!args.trace) {
      TimedRun(args, given_m, in, /*warm_up=*/pass == 0, &passes.back());
    } else if (pass == num_passes - 1) {
      TracedRun(args, given_m, in, &passes.back());
    }
  }
  AddSetupMetrics(setups, args.trace, &report);
  MergePasses(passes, &report);
  return report;
}

}  // namespace perfbench
