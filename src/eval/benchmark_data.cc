#include "eval/benchmark_data.h"

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <mutex>

#include "common/string_util.h"
#include "eval/lists_data.h"
#include "store/corpus_loader.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"

namespace tegra::eval {

namespace {

// Seed layout: background corpora and benchmark sets never share a stream.
constexpr uint64_t kWebBackgroundSeed = 101;
constexpr uint64_t kEnterpriseBackgroundSeed = 202;
constexpr uint64_t kWebBenchSeed = 1001;
constexpr uint64_t kWikiBenchSeed = 2002;
constexpr uint64_t kEnterpriseBenchSeed = 3003;

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

std::string CacheDir() {
  const char* dir = std::getenv("TEGRA_CACHE_DIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir
                                                      : "/tmp/tegra_cache";
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return path;
}

}  // namespace

const char* DatasetName(DatasetId id) {
  switch (id) {
    case DatasetId::kWeb:
      return "Web";
    case DatasetId::kWiki:
      return "Wiki";
    case DatasetId::kEnterprise:
      return "Enterprise";
    case DatasetId::kLists:
      return "Lists";
  }
  return "unknown";
}

const char* BackgroundName(BackgroundId id) {
  switch (id) {
    case BackgroundId::kWeb:
      return "B-Web";
    case BackgroundId::kEnterprise:
      return "B-Enterprise";
    case BackgroundId::kCombined:
      return "B-Combined";
  }
  return "unknown";
}

size_t BenchTablesPerDataset() {
  return EnvSize("TEGRA_BENCH_TABLES", 60);
}

size_t WebCorpusTables() {
  return EnvSize("TEGRA_WEB_CORPUS_TABLES", 20000);
}

size_t EnterpriseCorpusTables() {
  return EnvSize("TEGRA_ENT_CORPUS_TABLES", 8000);
}

std::vector<EvalInstance> BuildDataset(DatasetId id, size_t count,
                                       uint64_t seed) {
  std::vector<EvalInstance> out;
  if (id == DatasetId::kLists) {
    for (const ManualList& list : ManualLists()) {
      EvalInstance inst;
      inst.index = out.size();
      inst.lines = list.lines;
      inst.truth = list.TruthTable();
      inst.tokenizer = list.tokenizer_options();
      out.push_back(std::move(inst));
    }
    return out;
  }

  synth::CorpusProfile profile = synth::CorpusProfile::kWeb;
  uint64_t base_seed = kWebBenchSeed;
  switch (id) {
    case DatasetId::kWeb:
      profile = synth::CorpusProfile::kWeb;
      base_seed = kWebBenchSeed;
      break;
    case DatasetId::kWiki:
      profile = synth::CorpusProfile::kWiki;
      base_seed = kWikiBenchSeed;
      break;
    case DatasetId::kEnterprise:
      profile = synth::CorpusProfile::kEnterprise;
      base_seed = kEnterpriseBenchSeed;
      break;
    case DatasetId::kLists:
      break;  // Handled above.
  }
  auto instances =
      synth::MakeBenchmark(profile, count, base_seed ^ (seed * 0x9e37));
  out.reserve(instances.size());
  for (auto& raw : instances) {
    EvalInstance inst;
    inst.index = out.size();
    inst.lines = std::move(raw.lines);
    inst.truth = std::move(raw.ground_truth);
    out.push_back(std::move(inst));
  }
  return out;
}

const CorpusView& BackgroundIndex(BackgroundId id) {
  static std::mutex mu;
  static const CorpusView* indexes[3] = {nullptr, nullptr, nullptr};
  const int slot = static_cast<int>(id);
  std::lock_guard<std::mutex> lock(mu);
  if (indexes[slot] != nullptr) return *indexes[slot];

  const size_t web_n = WebCorpusTables();
  const size_t ent_n = EnterpriseCorpusTables();
  std::string path;
  std::function<ColumnIndex()> builder;
  switch (id) {
    case BackgroundId::kWeb:
      path = CacheDir() + "/bweb_" + std::to_string(web_n) + ".idx2";
      builder = [web_n] {
        return synth::BuildBackgroundIndex(synth::CorpusProfile::kWeb, web_n,
                                           kWebBackgroundSeed);
      };
      break;
    case BackgroundId::kEnterprise:
      path = CacheDir() + "/bent_" + std::to_string(ent_n) + ".idx2";
      builder = [ent_n] {
        return synth::BuildBackgroundIndex(synth::CorpusProfile::kEnterprise,
                                           ent_n, kEnterpriseBackgroundSeed);
      };
      break;
    case BackgroundId::kCombined:
      path = CacheDir() + "/bcomb_" + std::to_string(web_n) + "_" +
             std::to_string(ent_n) + ".idx2";
      builder = [web_n, ent_n] {
        return synth::BuildCombinedIndex(web_n, kWebBackgroundSeed, ent_n,
                                         kEnterpriseBackgroundSeed);
      };
      break;
  }
  indexes[slot] = store::OpenOrBuildSnapshot(path, builder).release();
  return *indexes[slot];
}

const CorpusStats& BackgroundStats(BackgroundId id) {
  static std::mutex mu;
  static CorpusStats* stats[3] = {nullptr, nullptr, nullptr};
  const CorpusView& index = BackgroundIndex(id);
  const int slot = static_cast<int>(id);
  std::lock_guard<std::mutex> lock(mu);
  if (stats[slot] == nullptr) stats[slot] = new CorpusStats(&index);
  return *stats[slot];
}

const synth::KnowledgeBase& GeneralKb() {
  static const synth::KnowledgeBase kKb = synth::KnowledgeBase::BuildGeneral();
  return kKb;
}

}  // namespace tegra::eval
