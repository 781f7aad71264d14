#include "core/tegra.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/anchor_search.h"
#include "trace/trace.h"

namespace tegra {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Tokenizes every raw line under an "extract/tokenize" span.
std::vector<std::vector<std::string>> TokenizeLines(
    const TokenizerOptions& options, const std::vector<std::string>& lines) {
  TEGRA_TRACE_SPAN("tokenize", "extract", "extract.phase.tokenize");
  Tokenizer tokenizer(options);
  std::vector<std::vector<std::string>> token_lines;
  token_lines.reserve(lines.size());
  for (const auto& line : lines) {
    token_lines.push_back(tokenizer.Tokenize(line));
  }
  return token_lines;
}

}  // namespace

TegraExtractor::TegraExtractor(const CorpusStats* stats, TegraOptions options)
    : stats_(stats),
      options_(std::move(options)),
      distance_(stats, options_.distance) {}

std::vector<size_t> TegraExtractor::SelectAnchors(const ListContext& ctx,
                                                  int anchor_sample) const {
  std::vector<size_t> anchors(ctx.num_lines());
  std::iota(anchors.begin(), anchors.end(), 0);
  if (anchor_sample <= 0 ||
      anchors.size() <= static_cast<size_t>(anchor_sample)) {
    return anchors;
  }
  // Prefer anchors whose token count is most typical (closest to the
  // median): they align well with the bulk of the list.
  std::vector<uint32_t> lengths;
  lengths.reserve(ctx.num_lines());
  for (size_t i = 0; i < ctx.num_lines(); ++i) {
    lengths.push_back(ctx.line_length(i));
  }
  std::vector<uint32_t> sorted = lengths;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const int64_t median = sorted[sorted.size() / 2];
  std::stable_sort(anchors.begin(), anchors.end(), [&](size_t a, size_t b) {
    const int64_t da = std::abs(static_cast<int64_t>(lengths[a]) - median);
    const int64_t db = std::abs(static_cast<int64_t>(lengths[b]) - median);
    return da < db;
  });
  anchors.resize(anchor_sample);
  std::sort(anchors.begin(), anchors.end());
  return anchors;
}

TegraExtractor::RunOutcome TegraExtractor::RunGivenColumns(
    ListContext* ctx, int m, int anchor_sample,
    DistanceCache* shared_cache) const {
  const uint32_t base_cap = static_cast<uint32_t>(options_.max_cell_tokens);
  {
    // Materialize candidate cells for every line up front so the context is
    // read-only during (possibly parallel) anchor evaluation.
    TEGRA_TRACE_SPAN("candidate_cells", "extract",
                     "extract.phase.segmentation");
    for (size_t j = 0; j < ctx->num_lines(); ++j) {
      ctx->EnsureWidth(j, ctx->EffectiveWidth(j, m, base_cap));
    }
  }

  const std::vector<size_t> anchors = SelectAnchors(*ctx, anchor_sample);
  std::vector<AnchorSearchResult> results(anchors.size());
  // Distinct pairs each parallel task's own cache evaluated.
  std::vector<size_t> task_pairs(anchors.size(), 0);

  auto run_anchor = [&](size_t idx, DistanceCache* cache) {
    const size_t anchor = anchors[idx];
    results[idx] =
        options_.use_astar
            ? MinimizeAnchorDistanceAStar(*ctx, anchor, m, cache, base_cap,
                                          options_.slgr_width_cap,
                                          options_.max_anchor_nodes)
            : MinimizeAnchorDistanceExhaustive(*ctx, anchor, m, cache,
                                               base_cap,
                                               options_.slgr_width_cap,
                                               options_.max_anchor_nodes);
  };

  {
    TEGRA_TRACE_SPAN("anchor_search", "extract",
                     "extract.phase.anchor_search");
    if (options_.num_threads > 1 && anchors.size() > 1) {
      // Worker threads have their own (empty) thread-local span stacks, so
      // capture the current request context once and re-install it inside
      // each task: anchor spans then land in the right trace tree.
      trace::TraceContext* parent = trace::CurrentContext();
      ThreadPool pool(static_cast<size_t>(options_.num_threads));
      pool.ParallelFor(anchors.size(), [&, parent](size_t idx) {
        trace::ScopedContext scoped(parent);
        TEGRA_TRACE_SPAN("anchor", "extract", nullptr);
        // Each task owns a memo cache; corpus-level co-occurrence results
        // are shared (and locked) inside CorpusStats.
        DistanceCache local_cache(&distance_);
        run_anchor(idx, &local_cache);
        task_pairs[idx] = local_cache.size();
      });
    } else {
      for (size_t idx = 0; idx < anchors.size(); ++idx) {
        run_anchor(idx, shared_cache);
      }
    }
  }

  RunOutcome outcome;
  outcome.anchor_distance = kInf;
  outcome.anchors_evaluated = anchors.size();
  for (size_t idx = 0; idx < anchors.size(); ++idx) {
    outcome.nodes_expanded += results[idx].nodes_expanded;
    outcome.task_distance_pairs += task_pairs[idx];
    if (results[idx].anchor_distance < outcome.anchor_distance) {
      outcome.anchor_distance = results[idx].anchor_distance;
      outcome.anchor_line = anchors[idx];
    }
  }
  const AnchorSearchResult& best =
      results[std::find(anchors.begin(), anchors.end(), outcome.anchor_line) -
              anchors.begin()];
  {
    // Inducing the table replays the SLGR alignment DP against every
    // non-anchor line; SP evaluation re-walks the aligned pairs.
    TEGRA_TRACE_SPAN("slgr_dp", "extract", "extract.phase.slgr_dp");
    outcome.bounds = InduceTable(*ctx, outcome.anchor_line, best.anchor_bounds,
                                 shared_cache, base_cap,
                                 options_.slgr_width_cap);
    outcome.sp = SumOfPairsDistance(*ctx, outcome.bounds, shared_cache,
                                    options_.max_sp_pairs);
  }
  return outcome;
}

Result<ExtractionResult> TegraExtractor::ExtractTokens(
    std::vector<std::vector<std::string>> token_lines, int num_columns,
    const std::vector<SegmentationExample>* examples) const {
  if (token_lines.empty()) {
    return Status::InvalidArgument("input list has no lines");
  }
  if (num_columns < 0) {
    return Status::InvalidArgument("num_columns must be non-negative");
  }
  // The distance memo marks "not computed" with a negative value, so every
  // distance must be >= 0 (and not NaN).
  if (!(options_.distance.alpha >= 0 && options_.distance.alpha <= 1)) {
    return Status::InvalidArgument("distance alpha must be in [0, 1]");
  }
  if (!(options_.distance.null_null_distance >= 0)) {
    return Status::InvalidArgument("null_null_distance must be >= 0");
  }

  Stopwatch watch;
  TEGRA_TRACE_SPAN("extract", "extract", "extract.phase.total");
  trace::Span list_context_span(&trace::Tracer::Global(), "list_context",
                                "extract", "extract.phase.list_context");
  const CorpusView* index = stats_ ? &stats_->index() : nullptr;
  ListContext ctx(std::move(token_lines), index);
  list_context_span.End();

  // Pin user examples; they also determine the column count.
  if (examples != nullptr && !examples->empty()) {
    Tokenizer tokenizer(options_.tokenizer);
    int example_cols = static_cast<int>((*examples)[0].cells.size());
    for (const SegmentationExample& ex : *examples) {
      if (ex.line_index >= ctx.num_lines()) {
        return Status::OutOfRange("example line index out of range");
      }
      if (static_cast<int>(ex.cells.size()) != example_cols) {
        return Status::InvalidArgument(
            "examples disagree on the column count");
      }
      Result<Bounds> bounds =
          CellsToBounds(ctx.tokens(ex.line_index), ex.cells, tokenizer);
      if (!bounds.ok()) return bounds.status();
      ctx.SetFixedBounds(ex.line_index, std::move(bounds).value());
    }
    if (num_columns != 0 && num_columns != example_cols) {
      return Status::InvalidArgument(
          "num_columns conflicts with example column count");
    }
    num_columns = example_cols;
  }

  DistanceCache cache(&distance_);
  ExtractionResult out;
  size_t anchors_evaluated = 0;
  size_t task_distance_pairs = 0;

  if (num_columns > 0) {
    RunOutcome run = RunGivenColumns(&ctx, num_columns,
                                     options_.final_anchor_sample, &cache);
    anchors_evaluated += run.anchors_evaluated;
    task_distance_pairs += run.task_distance_pairs;
    out.num_columns = num_columns;
    out.bounds = std::move(run.bounds);
    out.sp = run.sp;
    out.anchor_distance = run.anchor_distance;
    out.anchor_line = run.anchor_line;
    out.nodes_expanded = run.nodes_expanded;
  } else {
    // Unsupervised sweep (Definition 3): minimize SP_m(T) / m over m.
    const int max_m = std::max(
        1, std::min(options_.max_columns,
                    static_cast<int>(ctx.max_line_length())));
    double best_score = kInf;
    int best_m = 1;
    RunOutcome best_run;
    for (int m = 1; m <= max_m; ++m) {
      RunOutcome run =
          RunGivenColumns(&ctx, m, options_.sweep_anchor_sample, &cache);
      out.nodes_expanded += run.nodes_expanded;
      anchors_evaluated += run.anchors_evaluated;
      task_distance_pairs += run.task_distance_pairs;
      const double score = PerColumnObjective(run.sp, m);
      if (score < best_score) {
        best_score = score;
        best_m = m;
        best_run = std::move(run);
      }
    }
    // Final pass with the full anchor set (unless the sweep was already
    // exhaustive).
    if (options_.sweep_anchor_sample != options_.final_anchor_sample) {
      best_run = RunGivenColumns(&ctx, best_m, options_.final_anchor_sample,
                                 &cache);
      out.nodes_expanded += best_run.nodes_expanded;
      anchors_evaluated += best_run.anchors_evaluated;
      task_distance_pairs += best_run.task_distance_pairs;
    }
    out.num_columns = best_m;
    out.bounds = std::move(best_run.bounds);
    out.sp = best_run.sp;
    out.anchor_distance = best_run.anchor_distance;
    out.anchor_line = best_run.anchor_line;
  }

  {
    TEGRA_TRACE_SPAN("materialize", "extract", "extract.phase.materialize");
    out.table = MaterializeTable(ctx, out.bounds);
  }
  out.per_column_objective = PerColumnObjective(out.sp, out.num_columns);
  out.per_pair_objective =
      PerPairObjective(out.sp, ctx.num_lines(), out.num_columns);
  out.seconds = watch.ElapsedSeconds();

  // Work-volume counters (§5.7 efficiency analysis): how much search and
  // distance evaluation this extraction cost, independent of wall clock.
  if (trace::kCompiledIn) {
    trace::Tracer& tracer = trace::Tracer::Global();
    if (tracer.enabled() && tracer.metrics() != nullptr) {
      MetricsRegistry* metrics = tracer.metrics();
      metrics->GetCounter("extract.requests_total")->Increment();
      metrics->GetCounter("extract.nodes_expanded_total")
          ->Increment(out.nodes_expanded);
      metrics->GetCounter("extract.distance_calls_total")
          ->Increment(cache.size() + task_distance_pairs);
      metrics->GetCounter("extract.anchors_total")
          ->Increment(anchors_evaluated);
    }
  }

  // Extraction-quality telemetry. The per-pair SP objective is the paper's
  // own online quality proxy (Fig 8(a): it correlates with accuracy without
  // ground truth), so a resident service can watch *algorithm* health — a
  // drifting sp_score distribution or a climbing low-confidence rate flags a
  // corpus/workload mismatch long before offline evaluation would. Recorded
  // independently of span tracing: quality visibility must not require the
  // tracer to be compiled in or enabled.
  {
    MetricsRegistry* metrics = trace::Tracer::Global().metrics();
    // per_pair_objective is a normalized record distance in ~[0,1]; 24
    // linear buckets of 0.05 cover [0,1.2] with uniform resolution.
    metrics
        ->GetHistogram("extract.sp_score",
                       Histogram::LinearBounds(0.05, 0.05, 24))
        ->Observe(out.per_pair_objective);
    if (options_.low_confidence_threshold >= 0 &&
        out.per_pair_objective > options_.low_confidence_threshold) {
      metrics->GetCounter("extract.low_confidence_total")->Increment();
    }
  }
  return out;
}

Result<ExtractionResult> TegraExtractor::Extract(
    const std::vector<std::string>& lines) const {
  return ExtractTokens(TokenizeLines(options_.tokenizer, lines), 0, nullptr);
}

Result<ExtractionResult> TegraExtractor::ExtractWithColumns(
    const std::vector<std::string>& lines, int num_columns) const {
  if (num_columns < 1) {
    return Status::InvalidArgument("num_columns must be >= 1");
  }
  return ExtractTokens(TokenizeLines(options_.tokenizer, lines), num_columns,
                       nullptr);
}

Result<ExtractionResult> TegraExtractor::ExtractWithExamples(
    const std::vector<std::string>& lines,
    const std::vector<SegmentationExample>& examples) const {
  return ExtractTokens(TokenizeLines(options_.tokenizer, lines), 0, &examples);
}

}  // namespace tegra
