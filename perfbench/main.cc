// tegra_perfbench — the TEGRA benchmark harness.
//
//   tegra_perfbench --workload batch_unsup|batch_given_m|serve_mixed
//                   --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints one "name value unit" line per metric, then, as the last line of
// standard output, the JSON result
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when any output fails validation, 2 on bad usage.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The result line carries exactly these, in this order (BENCHMARK.json lists
// the same names). latency_p50_ms and latency_p90_ms are printed above it but
// left out, because of how they behave on serve_mixed:
// - p50 is a cache hit's sub-millisecond round trip. It moved 2x with the
//   host's load between back-to-back sets of runs of the same build (0.08
//   vs 0.17 ms).
// - p90 sits on the boundary between hits and misses, since exactly 1
//   request in 10 misses.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"lists_per_s", "1/s"},
    {"latency_p99_ms", "ms"}, {"quality_f1", "ratio"},
    {"peak_rss_mb", "MiB"},
};

// Metrics a workload does not measure (service.* on the batch workloads,
// core.* and corpus.* on serve_mixed) are printed as 0.
constexpr MetricDef kPerLayer[] = {
    {"corpus.lookups", "count"},
    {"corpus.lookup_s", "s"},
    {"corpus.co_lookups", "count"},
    {"corpus.co_lookup_s", "s"},
    {"corpus.memo_hit_ratio", "ratio"},
    {"text.tokenize_s", "s"},
    {"core.list_context_s", "s"},
    {"core.sweep_s", "s"},
    {"core.heuristic_s", "s"},
    {"core.astar_s", "s"},
    {"core.induce_s", "s"},
    {"core.sp_s", "s"},
    {"core.nodes_expanded", "count"},
    {"core.anchors", "count"},
    {"distance.evals", "count"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_p95", "ms"},
    {"service.extract_ms_p50", "ms"},
    {"service.extract_ms_p95", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"net.overhead_ms_p50", "ms"},
    {"net.overhead_ms_p95", "ms"},
    {"net.connects", "count"},
    {"setup.corpus_build_s", "s"},
    {"setup.snapshot_write_s", "s"},
    {"setup.snapshot_open_s", "s"},
    {"setup.dataset_s", "s"},
    {"setup.daemon_start_s", "s"},
    {"trace.lists", "count"},
    {"trace.extract_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: tegra_perfbench --workload "
               "batch_unsup|batch_given_m|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

/// Puts the measured metrics in canonical order; measured metrics outside
/// the canonical list move to the notes. A missing end-to-end metric is a
/// harness bug; a missing per-layer one is reported as 0.
bool Canonicalize(bool trace, Report* report) {
  std::vector<Metric> ordered;
  std::vector<bool> used(report->metrics.size(), false);
  auto take = [&](const MetricDef& def, bool required) {
    for (size_t i = 0; i < report->metrics.size(); ++i) {
      if (report->metrics[i].name == def.name) {
        ordered.push_back({def.name, report->metrics[i].value, def.unit});
        used[i] = true;
        return true;
      }
    }
    ordered.push_back({def.name, 0, def.unit});
    return !required;
  };
  bool ok = true;
  if (trace) {
    for (const MetricDef& def : kPerLayer) ok = take(def, false) && ok;
  } else {
    for (const MetricDef& def : kEndToEnd) ok = take(def, true) && ok;
  }
  for (size_t i = 0; i < report->metrics.size(); ++i) {
    if (!used[i]) report->notes.push_back(report->metrics[i]);
  }
  report->metrics = std::move(ordered);
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  if (argc > 1 && std::strcmp(argv[1], "--build-corpus") == 0) {
    return perfbench::BuildCorpusMain(argc, argv);
  }
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-invalid") {
      args.inject_invalid = true;
      continue;
    }
    if (i + 1 >= argc) return perfbench::Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (args.seconds <= 0) return perfbench::Usage();
  ::mkdir(args.out_dir.c_str(), 0755);

  perfbench::Report report;
  if (args.workload == "batch_unsup") {
    report = perfbench::RunBatch(args, /*given_m=*/false);
  } else if (args.workload == "batch_given_m") {
    report = perfbench::RunBatch(args, /*given_m=*/true);
  } else if (args.workload == "serve_mixed") {
    report = perfbench::RunServe(args);
  } else {
    return perfbench::Usage();
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "no list was attempted\n");
    return 1;
  }
  if (!perfbench::Canonicalize(args.trace, &report)) {
    std::fprintf(stderr, "a workload did not report every metric\n");
    report.correct = false;
  }
  report.correct = report.correct && report.failed == 0;
  report.notes.push_back(
      {"failed_share",
       static_cast<double>(report.failed) /
           static_cast<double>(report.attempted),
       "ratio"});
  perfbench::PrintReport(report);
  return report.correct ? 0 : 1;
}
