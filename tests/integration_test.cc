// Integration tests: full pipeline (corpus -> index -> extraction ->
// scoring) on small generated datasets, TEGRA configuration axes
// (threading, anchor sampling, A* vs naive, Jaccard), and extraction over a
// mapped TGRAIDX2 snapshot of the corpus.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/tegra.h"
#include "eval/experiment.h"
#include "store/mmap_corpus.h"
#include "store/snapshot_writer.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"

namespace tegra {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new ColumnIndex(synth::BuildBackgroundIndex(
        synth::CorpusProfile::kWeb, /*num_tables=*/1500, /*seed=*/101));
    stats_ = new CorpusStats(index_);
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete index_;
    stats_ = nullptr;
    index_ = nullptr;
  }

  static std::vector<eval::EvalInstance> Instances(size_t n) {
    auto raw = synth::MakeBenchmark(synth::CorpusProfile::kWeb, n, 1001);
    std::vector<eval::EvalInstance> out;
    for (auto& r : raw) {
      eval::EvalInstance inst;
      inst.index = out.size();
      inst.lines = std::move(r.lines);
      inst.truth = std::move(r.ground_truth);
      out.push_back(std::move(inst));
    }
    return out;
  }

  static ColumnIndex* index_;
  static CorpusStats* stats_;
};

ColumnIndex* PipelineTest::index_ = nullptr;
CorpusStats* PipelineTest::stats_ = nullptr;

TEST_F(PipelineTest, UnsupervisedQualityAboveThreshold) {
  const auto instances = Instances(8);
  const auto eval =
      eval::EvaluateAlgorithm(instances, eval::TegraFn(stats_));
  EXPECT_EQ(eval.failures, 0u);
  EXPECT_GT(eval.mean.f1, 0.75) << "end-to-end quality regressed";
}

TEST_F(PipelineTest, ColumnCountGivenBeatsOrMatchesUnsupervised) {
  const auto instances = Instances(8);
  const auto unsup =
      eval::EvaluateAlgorithm(instances, eval::TegraFn(stats_));
  const auto given =
      eval::EvaluateAlgorithm(instances, eval::TegraSupervisedFn(stats_, 0));
  EXPECT_GE(given.mean.f1, unsup.mean.f1 - 0.02);
}

TEST_F(PipelineTest, SupervisionImprovesQuality) {
  const auto instances = Instances(8);
  const auto unsup =
      eval::EvaluateAlgorithm(instances, eval::TegraFn(stats_));
  const auto sup =
      eval::EvaluateAlgorithm(instances, eval::TegraSupervisedFn(stats_, 2));
  EXPECT_GE(sup.mean.f1, unsup.mean.f1 - 0.02);
  EXPECT_GT(sup.mean.f1, 0.85);
}

TEST_F(PipelineTest, ParallelMatchesSequential) {
  const auto instances = Instances(4);
  TegraOptions sequential;
  TegraOptions parallel;
  parallel.num_threads = 4;
  for (const auto& inst : instances) {
    TegraExtractor seq(stats_, sequential);
    TegraExtractor par(stats_, parallel);
    auto a = seq.Extract(inst.lines);
    auto b = par.Extract(inst.lines);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->num_columns, b->num_columns);
    EXPECT_NEAR(a->anchor_distance, b->anchor_distance, 1e-9);
    EXPECT_EQ(a->table.rows(), b->table.rows());
  }
}

TEST_F(PipelineTest, AStarMatchesNaiveEndToEnd) {
  // Small shapes so exhaustive enumeration stays cheap.
  synth::TableGenOptions shape =
      synth::DefaultTableGenOptions(synth::CorpusProfile::kWeb);
  shape.min_rows = 4;
  shape.max_rows = 4;
  shape.min_cols = 3;
  shape.max_cols = 3;
  synth::TableGenerator gen(synth::CorpusProfile::kWeb, shape, 555);
  for (int i = 0; i < 4; ++i) {
    const auto instance = synth::MakeBenchmarkInstance(gen.Generate());
    TegraOptions astar_opts;
    astar_opts.final_anchor_sample = 0;
    TegraOptions naive_opts = astar_opts;
    naive_opts.use_astar = false;
    TegraExtractor astar(stats_, astar_opts);
    TegraExtractor naive(stats_, naive_opts);
    auto a = astar.ExtractWithColumns(instance.lines, 3);
    auto b = naive.ExtractWithColumns(instance.lines, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->anchor_distance, b->anchor_distance, 1e-9);
    EXPECT_LE(a->nodes_expanded, b->nodes_expanded);
  }
}

TEST_F(PipelineTest, AnchorSamplingTradesQualityForSpeed) {
  const auto instances = Instances(6);
  TegraOptions sampled;
  sampled.final_anchor_sample = 1;
  const auto full = eval::EvaluateAlgorithm(
      instances, eval::TegraFn(stats_));
  const auto fast = eval::EvaluateAlgorithm(
      instances, eval::TegraFn(stats_, sampled));
  // Sampling one anchor must still produce valid, decent tables.
  EXPECT_EQ(fast.failures, 0u);
  EXPECT_GT(fast.mean.f1, 0.5);
  EXPECT_GE(full.mean.f1 + 1e-9, 0.0);
}

TEST_F(PipelineTest, JaccardMeasureWorksEndToEnd) {
  const auto instances = Instances(6);
  TegraOptions jaccard;
  jaccard.distance.measure = SemanticMeasure::kJaccard;
  const auto eval =
      eval::EvaluateAlgorithm(instances, eval::TegraFn(stats_, jaccard));
  EXPECT_EQ(eval.failures, 0u);
  EXPECT_GT(eval.mean.f1, 0.6) << "Appendix H: Jaccard is decent";
}

TEST_F(PipelineTest, SerializedCorpusGivesIdenticalResults) {
  // The background corpora of the paper benches are served from snapshots
  // like this one; extraction over the mapped view must match the heap
  // index exactly (rows and bit-identical SP), with and without m given.
  const std::string path =
      (std::filesystem::temp_directory_path() / "tegra_integ.idx2").string();
  ASSERT_TRUE(store::WriteSnapshot(*index_, path).ok());
  auto mapped = store::MmapCorpus::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  CorpusStats mapped_stats(mapped.value().get());

  const auto instances = Instances(3);
  for (const auto& inst : instances) {
    TegraExtractor original(stats_);
    TegraExtractor reloaded(&mapped_stats);
    auto a = original.Extract(inst.lines);
    auto b = reloaded.Extract(inst.lines);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->table.rows(), b->table.rows());
    EXPECT_EQ(a->sp, b->sp);

    const int m = static_cast<int>(inst.truth.NumCols());
    auto given_a = original.ExtractWithColumns(inst.lines, m);
    auto given_b = reloaded.ExtractWithColumns(inst.lines, m);
    ASSERT_TRUE(given_a.ok());
    ASSERT_TRUE(given_b.ok());
    EXPECT_EQ(given_a->table.rows(), given_b->table.rows());
    EXPECT_EQ(given_a->sp, given_b->sp);
  }
  mapped.value().reset();
  std::filesystem::remove(path);
}

TEST_F(PipelineTest, ExtractionIsDeterministic) {
  const auto instances = Instances(3);
  for (const auto& inst : instances) {
    TegraExtractor tegra(stats_);
    auto a = tegra.Extract(inst.lines);
    auto b = tegra.Extract(inst.lines);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->table.rows(), b->table.rows());
  }
}

TEST_F(PipelineTest, AllThreeAlgorithmsProduceRectangularTables) {
  const auto instances = Instances(4);
  const synth::KnowledgeBase kb = synth::KnowledgeBase::BuildGeneral();
  const eval::SegmentFn fns[] = {
      eval::TegraFn(stats_),
      eval::ListExtractFn(stats_),
      eval::JudieFn(&kb),
  };
  for (const auto& fn : fns) {
    for (const auto& inst : instances) {
      Result<Table> table = fn(inst);
      ASSERT_TRUE(table.ok());
      EXPECT_EQ(table->NumRows(), inst.lines.size());
      EXPECT_GE(table->NumCols(), 1u);
    }
  }
}

}  // namespace
}  // namespace tegra
