// Shared pieces of the TEGRA benchmark harness: command-line arguments, the
// result report, quantiles, peak RSS, output validation, seeded lists
// and the timed set-up (corpus snapshot build, open, dataset generation).

#ifndef TEGRA_PERFBENCH_COMMON_H_
#define TEGRA_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "eval/benchmark_data.h"
#include "synth/corpus_gen.h"
#include "text/tokenizer.h"

namespace perfbench {

/// \brief Parsed command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Where corpus snapshots, daemon logs and Chrome traces are written.
  std::string out_dir = ".bench_out";
  /// Self-test only: corrupt one produced table so validation must fail.
  bool inject_invalid = false;
};

/// \brief One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What a workload run hands back to main(): the correctness verdict
/// and the metrics of the selected mode (end-to-end or per-layer).
struct Report {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed with the metrics but not part of the result line (figures
  /// for people reading the run, such as failed_share).
  std::vector<Metric> notes;
  /// Per-item latencies (key, ms). An item measured in several passes
  /// (a batch list) counts once, at its median; MergePasses derives
  /// latency_p50_ms, latency_p90_ms and latency_p99_ms from them.
  std::vector<std::pair<uint64_t, double>> latencies_ms;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Prints one "name value unit" line per metric, then the JSON result line.
void PrintReport(const Report& report);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Harrell-Davis quantile estimate: a beta-weighted mean of all order
/// statistics. Far steadier than Quantile() in the sparse tail of a few
/// dozen heavy-tailed latencies, where interpolating between two neighbours
/// jumps with either one. 0 for an empty sample.
double HarrellDavisQuantile(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB; 0 when
/// /proc is unreadable.
double PeakRssMb(pid_t pid = 0);

/// \brief True when `rows` is a valid segmentation of `lines`: one row per
/// line, `num_columns` cells per row, and each row's cells re-tokenize to
/// the line's tokens in order.
bool ValidSegmentation(const tegra::Tokenizer& tokenizer,
                       const std::vector<std::string>& lines,
                       const std::vector<std::vector<std::string>>& rows,
                       size_t num_columns);

/// Appends a token to the first cell: the table stops being a segmentation
/// of its line (self-test of the validation path).
void CorruptRows(std::vector<std::vector<std::string>>* rows);

/// \brief A background corpus: generator profile, size and seed. The sizes
/// and seeds are the eval defaults (B-Web, B-Enterprise of §5.1.4).
struct CorpusSpec {
  tegra::synth::CorpusProfile profile;
  size_t tables;
  uint64_t seed;
  const char* file_name;
};
extern const CorpusSpec kWebCorpus;
extern const CorpusSpec kEnterpriseCorpus;

/// \brief The lists of a run: `warmup` untimed lists followed by `count`
/// timed ones, all distinct, so no list repeats inside a run.
///
/// The lists are the eval dataset at seed 0 (the paper benchmark set the
/// quality tables report); the warm-up lists are its first entries and the
/// timed ones the next `count`, in an order drawn from `seed`. The content
/// is fixed on purpose: per-list extraction time spans three orders of
/// magnitude, so drawing the lists themselves from the seed spread
/// lists_per_s by 17% and the p50 latency by 22% between seeds at this run
/// length, even with shapes matched — wider than any useful bound.
std::vector<tegra::eval::EvalInstance> MakeLists(tegra::eval::DatasetId id,
                                                 size_t warmup, size_t count,
                                                 uint64_t seed);

/// \brief Timings of one set-up pass.
struct SetupTimes {
  double corpus_build_s = 0;
  double snapshot_write_s = 0;
  double snapshot_open_s = 0;
  double dataset_s = 0;
  double daemon_start_s = 0;
  double total_s = 0;  ///< Wall time of the whole pass.
};

/// \brief Set-ups per run. A run makes several measurement passes (the
/// workload fixes how many); the first kSetups set up from scratch (corpus
/// snapshot build and open, lists, daemon) and later ones reuse the last
/// snapshot, with fresh memos, a fresh daemon and their own list order. A
/// run reports setup_s as the median over the set-ups and every other
/// figure as the median over the passes, which keeps a slow stretch of a
/// shared machine from moving the result.
inline constexpr int kSetups = 3;

/// \brief Builds `spec` into a TGRAIDX2 snapshot at `path` in a child
/// process (a re-exec of this binary), so the index build's memory never
/// counts toward the harness's peak RSS. Fills the build and write times
/// the child measured.
tegra::Status BuildSnapshot(const CorpusSpec& spec, const std::string& path,
                            SetupTimes* times);

/// Child-process entry of BuildSnapshot:
///   tegra_perfbench --build-corpus PROFILE TABLES SEED PATH
int BuildCorpusMain(int argc, char** argv);

/// Adds the median of every set-up field over `passes` as setup_s (trace
/// off) or setup.* (trace on).
void AddSetupMetrics(const std::vector<SetupTimes>& passes, bool trace,
                     Report* report);

/// Folds per-pass reports into `report`: counts add up, notes come from the
/// last pass, each metric is the median over the passes reporting it, and
/// the latency percentiles come from the per-item median latencies.
void MergePasses(const std::vector<Report>& passes, Report* report);

/// \brief The workloads. `batch_unsup` (given_m false) and `batch_given_m`
/// (given_m true) run the library in-process; `serve_mixed` drives a
/// tegra_serve child over loopback HTTP.
Report RunBatch(const Args& args, bool given_m);
Report RunServe(const Args& args);

}  // namespace perfbench

#endif  // TEGRA_PERFBENCH_COMMON_H_
