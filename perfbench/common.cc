#include "common.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <set>

#include "common/stopwatch.h"
#include "store/snapshot_writer.h"

namespace perfbench {

using tegra::Status;

const CorpusSpec kWebCorpus = {tegra::synth::CorpusProfile::kWeb, 20000, 101,
                               "bweb.tgra"};
const CorpusSpec kEnterpriseCorpus = {tegra::synth::CorpusProfile::kEnterprise,
                                      8000, 202, "bent.tgra"};

void PrintReport(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::printf("%-26s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : report.notes) {
    std::printf("%-26s %14.6f %s (not in the result line)\n", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto clamp = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / clamp(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 500; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 / clamp(1 + aa * d);
    c = clamp(1 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 / clamp(1 + aa * d);
    c = clamp(1 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double RegularizedBeta(double x, double a, double b) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

}  // namespace

double HarrellDavisQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1);
  const double b = (1 - q) * (n + 1);
  double estimate = 0;
  double below = 0;  // I_{(i-1)/n}(a, b)
  for (size_t i = 0; i < values.size(); ++i) {
    const double upto =
        RegularizedBeta(static_cast<double>(i + 1) / n, a, b);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

bool ValidSegmentation(const tegra::Tokenizer& tokenizer,
                       const std::vector<std::string>& lines,
                       const std::vector<std::vector<std::string>>& rows,
                       size_t num_columns) {
  if (rows.size() != lines.size() || num_columns == 0) return false;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (rows[i].size() != num_columns) return false;
    std::vector<std::string> joined;
    for (const std::string& cell : rows[i]) {
      for (std::string& token : tokenizer.Tokenize(cell)) {
        joined.push_back(std::move(token));
      }
    }
    if (joined != tokenizer.Tokenize(lines[i])) return false;
  }
  return true;
}

void CorruptRows(std::vector<std::vector<std::string>>* rows) {
  if (rows->empty() || (*rows)[0].empty()) return;
  (*rows)[0][0] += " perfbench-injected";
}

std::vector<tegra::eval::EvalInstance> MakeLists(tegra::eval::DatasetId id,
                                                 size_t warmup, size_t count,
                                                 uint64_t seed) {
  std::vector<tegra::eval::EvalInstance> lists;
  std::set<std::vector<std::string>> seen;
  // Generate a little more than needed so duplicates can be skipped.
  for (tegra::eval::EvalInstance& list : tegra::eval::BuildDataset(
           id, warmup + count + count / 8 + 8, /*seed=*/0)) {
    if (lists.size() == warmup + count) break;
    if (seen.insert(list.lines).second) lists.push_back(std::move(list));
  }
  // Fisher-Yates over the timed part with the raw generator output, so the
  // order is the same on every standard library.
  std::mt19937_64 rng(seed);
  for (size_t i = lists.size(); i > warmup + 1; --i) {
    const size_t j = warmup + static_cast<size_t>(rng() % (i - warmup));
    std::swap(lists[i - 1], lists[j]);
  }
  return lists;
}

Status BuildSnapshot(const CorpusSpec& spec, const std::string& path,
                     SetupTimes* times) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return Status::IOError("pipe failed");
  const std::string profile =
      tegra::synth::CorpusProfileName(spec.profile);
  const std::string tables = std::to_string(spec.tables);
  const std::string seed = std::to_string(spec.seed);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const char* argv[] = {"tegra_perfbench", "--build-corpus", profile.c_str(),
                          tables.c_str(),    seed.c_str(),     path.c_str(),
                          nullptr};
    ::execv("/proc/self/exe", const_cast<char**>(argv));
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  std::string output;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(out_pipe[0], buf, sizeof(buf))) > 0) {
    output.append(buf, static_cast<size_t>(n));
  }
  ::close(out_pipe[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("corpus build child failed: " + output);
  }
  if (std::sscanf(output.c_str(), "%lf %lf", &times->corpus_build_s,
                  &times->snapshot_write_s) != 2) {
    return Status::Internal("corpus build child printed: " + output);
  }
  return Status::OK();
}

int BuildCorpusMain(int argc, char** argv) {
  if (argc != 6) return 2;
  const std::string profile = argv[2];
  tegra::synth::CorpusProfile p = tegra::synth::CorpusProfile::kWeb;
  if (profile == tegra::synth::CorpusProfileName(
                     tegra::synth::CorpusProfile::kEnterprise)) {
    p = tegra::synth::CorpusProfile::kEnterprise;
  } else if (profile != tegra::synth::CorpusProfileName(p)) {
    return 2;
  }
  tegra::Stopwatch watch;
  const tegra::ColumnIndex index = tegra::synth::BuildBackgroundIndex(
      p, std::strtoull(argv[3], nullptr, 10),
      std::strtoull(argv[4], nullptr, 10));
  const double build_s = watch.ElapsedSeconds();
  watch.Restart();
  const Status written = tegra::store::WriteSnapshot(index, argv[5]);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("%.9f %.9f\n", build_s, watch.ElapsedSeconds());
  return 0;
}

void AddSetupMetrics(const std::vector<SetupTimes>& passes, bool trace,
                     Report* report) {
  auto median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : passes) v.push_back(t.*field);
    return Quantile(v, 0.5);
  };
  if (!trace) {
    report->Add("setup_s", median(&SetupTimes::total_s), "s");
    return;
  }
  report->Add("setup.corpus_build_s", median(&SetupTimes::corpus_build_s),
              "s");
  report->Add("setup.snapshot_write_s",
              median(&SetupTimes::snapshot_write_s), "s");
  report->Add("setup.snapshot_open_s", median(&SetupTimes::snapshot_open_s),
              "s");
  report->Add("setup.dataset_s", median(&SetupTimes::dataset_s), "s");
  report->Add("setup.daemon_start_s", median(&SetupTimes::daemon_start_s),
              "s");
}

void MergePasses(const std::vector<Report>& passes, Report* report) {
  std::map<uint64_t, std::vector<double>> by_item;
  std::vector<std::string> names;
  for (const Report& pass : passes) {
    for (const auto& [key, ms] : pass.latencies_ms) by_item[key].push_back(ms);
    report->correct = report->correct && pass.correct;
    report->attempted += pass.attempted;
    report->failed += pass.failed;
    if (!pass.notes.empty()) report->notes = pass.notes;
    for (const Metric& m : pass.metrics) {
      if (std::find(names.begin(), names.end(), m.name) == names.end()) {
        names.push_back(m.name);
      }
    }
  }
  for (const std::string& name : names) {
    std::vector<double> values;
    std::string unit;
    for (const Report& pass : passes) {
      for (const Metric& m : pass.metrics) {
        if (m.name != name) continue;
        values.push_back(m.value);
        unit = m.unit;
      }
    }
    report->Add(name, Quantile(values, 0.5), unit);
  }
  if (by_item.empty()) return;
  std::vector<double> latencies;
  for (const auto& [key, samples] : by_item) {
    latencies.push_back(Quantile(samples, 0.5));
  }
  report->Add("latency_p50_ms", HarrellDavisQuantile(latencies, 0.50), "ms");
  report->Add("latency_p90_ms", HarrellDavisQuantile(latencies, 0.90), "ms");
  report->Add("latency_p99_ms", HarrellDavisQuantile(latencies, 0.99), "ms");
}

}  // namespace perfbench
