// tegra_eval — run any algorithm on any benchmark dataset from the command
// line and print P/R/F (plus optional per-instance details). Handy for
// iterating on configurations without editing bench binaries.
//
// Examples:
//   ./tegra_eval --dataset web --algo tegra --tables 50
//   ./tegra_eval --dataset enterprise --algo listextract --background web
//   ./tegra_eval --dataset lists --algo judie --verbose
//   ./tegra_eval --dataset wiki --algo tegra --examples 2 --alpha 0.25

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "eval/experiment.h"

namespace {

void PrintUsage() {
  std::fputs(R"(usage: tegra_eval [options]
  --dataset NAME    web | wiki | enterprise | lists      (default web)
  --algo NAME       tegra | listextract | judie          (default tegra)
  --background B    web | enterprise | combined          (default: matched)
  --tables N        tables for generated datasets        (default env/120)
  --examples K      supervised with K ground-truth rows (0 = #cols given)
  --alpha X         distance alpha for tegra/listextract
  --threads N       tegra worker threads
  --verbose         per-instance scores
)",
             stderr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tegra;
  using namespace tegra::eval;

  std::string dataset = "web";
  std::string algo = "tegra";
  std::string background = "";
  size_t tables = BenchTablesPerDataset();
  int examples = -1;  // -1 = unsupervised.
  double alpha = 0.5;
  int threads = 1;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--algo") {
      algo = next();
    } else if (arg == "--background") {
      background = next();
    } else if (arg == "--tables") {
      tables = std::atoll(next());
    } else if (arg == "--examples") {
      examples = std::atoi(next());
    } else if (arg == "--alpha") {
      alpha = std::atof(next());
      if (!(alpha >= 0 && alpha <= 1)) {
        std::fprintf(stderr, "--alpha must be in [0,1]\n");
        return 2;
      }
    } else if (arg == "--threads") {
      threads = std::atoi(next());
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      PrintUsage();
      return 2;
    }
  }

  DatasetId id;
  if (dataset == "web") {
    id = DatasetId::kWeb;
  } else if (dataset == "wiki") {
    id = DatasetId::kWiki;
  } else if (dataset == "enterprise") {
    id = DatasetId::kEnterprise;
  } else if (dataset == "lists") {
    id = DatasetId::kLists;
  } else {
    PrintUsage();
    return 2;
  }

  BackgroundId bg = id == DatasetId::kEnterprise ? BackgroundId::kEnterprise
                                                 : BackgroundId::kWeb;
  if (background == "web") bg = BackgroundId::kWeb;
  if (background == "enterprise") bg = BackgroundId::kEnterprise;
  if (background == "combined") bg = BackgroundId::kCombined;

  std::fprintf(stderr, "dataset=%s algo=%s background=%s tables=%zu\n",
               DatasetName(id), algo.c_str(), BackgroundName(bg), tables);

  const auto instances = BuildDataset(id, tables);
  const CorpusStats& stats = BackgroundStats(bg);

  SegmentFn fn;
  if (algo == "tegra") {
    TegraOptions opts;
    opts.distance.alpha = alpha;
    opts.num_threads = threads;
    fn = examples < 0 ? TegraFn(&stats, opts)
                      : TegraSupervisedFn(&stats, examples, opts);
  } else if (algo == "listextract") {
    ListExtractOptions opts;
    opts.distance.alpha = alpha;
    fn = examples < 0 ? ListExtractFn(&stats, opts)
                      : ListExtractSupervisedFn(&stats, examples, opts);
  } else if (algo == "judie") {
    fn = examples < 0 ? JudieFn(&GeneralKb())
                      : JudieSupervisedFn(&GeneralKb(), examples);
  } else {
    PrintUsage();
    return 2;
  }

  const AlgoEvaluation result = EvaluateAlgorithm(instances, fn);
  if (verbose) {
    for (size_t i = 0; i < result.scores.size(); ++i) {
      std::printf("instance %3zu  P=%.3f R=%.3f F=%.3f  (%.3fs)\n", i,
                  result.scores[i].precision, result.scores[i].recall,
                  result.scores[i].f1, result.seconds[i]);
    }
  }
  std::printf("P=%.4f R=%.4f F=%.4f  failures=%zu  avg=%.3fs/table\n",
              result.mean.precision, result.mean.recall, result.mean.f1,
              result.failures, result.mean_seconds);
  return 0;
}
