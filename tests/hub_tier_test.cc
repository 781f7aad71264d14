// Hub tier under |C(s1) ∩ C(s2)| (store::MmapCorpus::IntersectOperand):
//
//  * Agreement: over seeded random value pairs — hub ∩ hub, hub ∩ rare,
//    rare ∩ rare, a == b and out-of-range ids — CoOccurrenceCount equals
//    the galloping IntersectPostings on the raw lists and
//    ColumnIndex::CoOccurrenceCount, on a monolithic snapshot, a 3-shard
//    ShardedCorpus and a 3-shard corpus with two overlays.
//  * Concurrency: eight threads first-touch the same cold hubs at once;
//    every count equals the serial answer and each hub keeps exactly one
//    bitmap (the TSan target of this suite, label `store`).
//  * Heap accounting: HeapBytes() is unchanged by Open and by rare lookups,
//    grows by ceil(N / 64) * 8 bytes per touched hub, and stays within 16
//    bytes per hub posting.
//
// The corpora are small (a few thousand columns), so ceil(N / 128) is a
// few dozen postings and many values are real hubs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "corpus/column_index.h"
#include "shard/shard_builder.h"
#include "store/manifest.h"
#include "store/mmap_corpus.h"
#include "store/posting_cursor.h"
#include "store/sharded_corpus.h"
#include "store/snapshot_writer.h"
#include "synth/corpus_gen.h"

namespace tegra {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "hub_tier_test_" + std::to_string(::getpid()) +
         "_" + name;
}

std::vector<Table> MakeTables(size_t n, uint64_t seed) {
  synth::TableGenerator gen(synth::CorpusProfile::kWeb, seed);
  return gen.GenerateMany(n);
}

ColumnIndex Index(const std::vector<std::vector<Table>>& batches) {
  ColumnIndex index;
  for (const auto& batch : batches) {
    for (const Table& t : batch) index.AddTable(t);
  }
  index.Finalize();
  return index;
}

/// The hub rule: |C(s)| >= ceil(N / 128).
uint32_t HubThreshold(const CorpusView& view) {
  return static_cast<uint32_t>((view.TotalColumns() + 127) / 128);
}

std::unique_ptr<MmapCorpus> OpenSnapshot(const std::string& path) {
  auto opened = MmapCorpus::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

std::shared_ptr<const ShardedCorpus> OpenSharded(const std::string& dir) {
  auto opened = ShardedCorpus::Open(ManifestPathFor(dir));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? opened.value() : nullptr;
}

std::string BuildShards(const std::string& tag,
                        const std::vector<Table>& base,
                        const std::vector<std::vector<Table>>& overlays) {
  const std::string dir = TempPath(tag);
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  shardbuild::ShardBuildOptions options;
  options.num_shards = 3;
  shardbuild::ShardBuilder builder(dir, options);
  for (const Table& t : base) builder.AddTable(t);
  EXPECT_TRUE(builder.Finish().ok());
  for (const auto& delta : overlays) {
    EXPECT_TRUE(shardbuild::AppendOverlay(dir, Index({delta})).ok());
  }
  return dir;
}

/// Seeded value pairs of one snapshot, by class.
struct PairSample {
  std::vector<ValueId> hubs;
  std::vector<ValueId> rare;
  std::vector<std::pair<ValueId, ValueId>> pairs;
};

PairSample SamplePairs(const MmapCorpus& corpus, uint64_t seed, int per_class) {
  PairSample out;
  const uint32_t threshold = HubThreshold(corpus);
  for (ValueId id = 0; id < corpus.NumValues(); ++id) {
    (corpus.ColumnCount(id) >= threshold ? out.hubs : out.rare).push_back(id);
  }
  if (out.hubs.size() < 2 || out.rare.empty()) return out;
  std::mt19937_64 rng(seed);
  const auto pick = [&](const std::vector<ValueId>& from) {
    return from[std::uniform_int_distribution<size_t>(0, from.size() - 1)(
        rng)];
  };
  for (int i = 0; i < per_class; ++i) {
    out.pairs.emplace_back(pick(out.hubs), pick(out.hubs));
    out.pairs.emplace_back(pick(out.hubs), pick(out.rare));
    out.pairs.emplace_back(pick(out.rare), pick(out.hubs));
    out.pairs.emplace_back(pick(out.rare), pick(out.rare));
    const ValueId same = i % 2 == 0 ? pick(out.hubs) : pick(out.rare);
    out.pairs.emplace_back(same, same);
  }
  return out;
}

/// |C(a) ∩ C(b)| in `heap` for two values named by `view` ids.
uint32_t HeapCount(const ColumnIndex& heap, const CorpusView& view, ValueId a,
                   ValueId b) {
  const ValueId ha = heap.Lookup(view.ValueString(a));
  const ValueId hb = heap.Lookup(view.ValueString(b));
  EXPECT_NE(ha, kInvalidValueId);
  EXPECT_NE(hb, kInvalidValueId);
  return heap.CoOccurrenceCount(ha, hb);
}

class HubTierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new std::vector<Table>(MakeTables(300, 11));
    deltas_ = new std::vector<std::vector<Table>>{MakeTables(40, 12),
                                                  MakeTables(40, 13)};
    heap_ = new ColumnIndex(Index({*base_}));
    path_ = new std::string(TempPath("mono.idx2"));
    ASSERT_TRUE(WriteSnapshot(*heap_, *path_).ok());
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete heap_;
    delete deltas_;
    delete base_;
  }

  static std::vector<Table>* base_;
  static std::vector<std::vector<Table>>* deltas_;
  static ColumnIndex* heap_;
  static std::string* path_;
};

std::vector<Table>* HubTierTest::base_ = nullptr;
std::vector<std::vector<Table>>* HubTierTest::deltas_ = nullptr;
ColumnIndex* HubTierTest::heap_ = nullptr;
std::string* HubTierTest::path_ = nullptr;

TEST_F(HubTierTest, MonolithicSnapshotAgreesWithRawListsAndHeapIndex) {
  const auto corpus = OpenSnapshot(*path_);
  ASSERT_NE(corpus, nullptr);
  const PairSample sample = SamplePairs(*corpus, 1, 200);
  ASSERT_GE(sample.hubs.size(), 20u) << "corpus makes too few hubs";
  ASSERT_FALSE(sample.pairs.empty());

  const uint32_t threshold = HubThreshold(*corpus);
  for (const auto& [a, b] : sample.pairs) {
    // The operand carries a bitmap exactly when the value is a hub.
    EXPECT_EQ(corpus->IntersectOperand(a).bits != nullptr,
              corpus->ColumnCount(a) >= threshold);
    const uint32_t raw =
        IntersectPostings(corpus->Postings(a), corpus->Postings(b));
    const uint32_t tiered = IntersectPostings(corpus->IntersectOperand(a),
                                              corpus->IntersectOperand(b));
    EXPECT_EQ(tiered, raw) << a << " " << b;
    EXPECT_EQ(corpus->CoOccurrenceCount(a, b), raw) << a << " " << b;
    EXPECT_EQ(raw, HeapCount(*heap_, *corpus, a, b)) << a << " " << b;
  }
  const ValueId end = static_cast<ValueId>(corpus->NumValues());
  for (const ValueId id : {sample.hubs[0], sample.rare[0]}) {
    EXPECT_EQ(corpus->CoOccurrenceCount(id, end), 0u);
    EXPECT_EQ(corpus->CoOccurrenceCount(end + 5, id), 0u);
  }
  EXPECT_EQ(corpus->IntersectOperand(end).count, 0u);
  EXPECT_EQ(corpus->IntersectOperand(end).bits, nullptr);
}

/// Every part's hub path against its raw lists, within each part and across
/// base shards (which share one column space); then the whole sharded view
/// against the heap index of the same tables.
void CheckSharded(const ShardedCorpus& sharded, const ColumnIndex& heap,
                  uint64_t seed) {
  std::mt19937_64 rng(seed);
  size_t hub_pairs = 0;
  for (size_t p = 0; p < sharded.num_parts(); ++p) {
    const MmapCorpus& part = sharded.part(p);
    const PairSample sample = SamplePairs(part, seed + p, 60);
    for (const auto& [a, b] : sample.pairs) {
      EXPECT_EQ(IntersectPostings(part.IntersectOperand(a),
                                  part.IntersectOperand(b)),
                IntersectPostings(part.Postings(a), part.Postings(b)))
          << "part " << p << ": " << a << " " << b;
      hub_pairs += part.IntersectOperand(a).bits != nullptr &&
                   part.IntersectOperand(b).bits != nullptr;
    }
  }
  EXPECT_GT(hub_pairs, 0u);
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    const uint32_t t = (s + 1) % sharded.num_shards();
    const PairSample left = SamplePairs(sharded.part(s), seed + 10 + s, 1);
    const PairSample right = SamplePairs(sharded.part(t), seed + 20 + s, 1);
    for (const std::vector<ValueId>* lv : {&left.hubs, &left.rare}) {
      for (const std::vector<ValueId>* rv : {&right.hubs, &right.rare}) {
        for (size_t i = 0; i < std::min<size_t>(lv->size(), 25); ++i) {
          const ValueId a = (*lv)[i];
          const ValueId b = (*rv)[(i * 7) % rv->size()];
          EXPECT_EQ(
              IntersectPostings(sharded.part(s).IntersectOperand(a),
                                sharded.part(t).IntersectOperand(b)),
              IntersectPostings(sharded.part(s).Postings(a),
                                sharded.part(t).Postings(b)))
              << "shards " << s << "/" << t << ": " << a << " " << b;
        }
      }
    }
  }
  // Whole view vs the heap index, over values chosen by heap frequency so
  // hubs of every part are hit.
  std::vector<ValueId> by_count(heap.NumValues());
  for (size_t i = 0; i < by_count.size(); ++i) {
    by_count[i] = static_cast<ValueId>(i);
  }
  std::sort(by_count.begin(), by_count.end(), [&](ValueId a, ValueId b) {
    return heap.ColumnCount(a) > heap.ColumnCount(b);
  });
  std::vector<ValueId> values(by_count.begin(), by_count.begin() + 40);
  std::uniform_int_distribution<size_t> pick(0, by_count.size() - 1);
  for (int i = 0; i < 60; ++i) values.push_back(by_count[pick(rng)]);
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = i; j < values.size(); j += 3) {
      const std::string va = heap.ValueString(values[i]);
      const std::string vb = heap.ValueString(values[j]);
      const ValueId a = sharded.Lookup(va);
      const ValueId b = sharded.Lookup(vb);
      ASSERT_NE(a, kInvalidValueId) << va;
      ASSERT_NE(b, kInvalidValueId) << vb;
      EXPECT_EQ(sharded.CoOccurrenceCount(a, b),
                heap.CoOccurrenceCount(values[i], values[j]))
          << va << " / " << vb;
    }
  }
  const ValueId end = static_cast<ValueId>(sharded.NumValues() + 64);
  EXPECT_EQ(sharded.CoOccurrenceCount(0, end), 0u);
  EXPECT_EQ(sharded.CoOccurrenceCount(end, 0), 0u);
}

TEST_F(HubTierTest, ThreeShardCorpusAgreesWithRawListsAndHeapIndex) {
  const std::string dir = BuildShards("shards", *base_, {});
  const auto sharded = OpenSharded(dir);
  ASSERT_NE(sharded, nullptr);
  ASSERT_EQ(sharded->num_parts(), 3u);
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(sharded->part(p).TotalColumns(), heap_->TotalColumns());
  }
  CheckSharded(*sharded, *heap_, 2);
}

TEST_F(HubTierTest, ShardedCorpusWithTwoOverlaysAgreesWithHeapIndex) {
  const std::string dir = BuildShards("overlays", *base_, *deltas_);
  const auto sharded = OpenSharded(dir);
  ASSERT_NE(sharded, nullptr);
  ASSERT_EQ(sharded->num_overlays(), 2u);
  const ColumnIndex all = Index({*base_, (*deltas_)[0], (*deltas_)[1]});
  CheckSharded(*sharded, all, 3);
}

TEST_F(HubTierTest, ConcurrentFirstTouchBuildsEachHubOnce) {
  const auto serial = OpenSnapshot(*path_);
  const auto cold = OpenSnapshot(*path_);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(cold, nullptr);
  const PairSample sample = SamplePairs(*serial, 4, 1);
  ASSERT_GE(sample.hubs.size(), 8u);
  // Every hub against its neighbour and against a rare value: each thread
  // walks the same pairs from a different starting point, so first touches
  // of one hub collide.
  std::vector<std::pair<ValueId, ValueId>> pairs;
  for (size_t i = 0; i < sample.hubs.size(); ++i) {
    pairs.emplace_back(sample.hubs[i],
                       sample.hubs[(i + 1) % sample.hubs.size()]);
    pairs.emplace_back(sample.rare[i % sample.rare.size()], sample.hubs[i]);
  }
  std::vector<uint32_t> expected;
  for (const auto& [a, b] : pairs) {
    expected.push_back(serial->CoOccurrenceCount(a, b));
  }

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (size_t k = 0; k < pairs.size(); ++k) {
        const size_t i = (k + static_cast<size_t>(t) % 2) % pairs.size();
        if (cold->CoOccurrenceCount(pairs[i].first, pairs[i].second) !=
            expected[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // Same hubs touched, so the same directory and bitmap bytes: a lost race
  // that kept a second bitmap would show here (and leak under ASan).
  EXPECT_EQ(cold->HeapBytes(), serial->HeapBytes());
}

TEST_F(HubTierTest, HeapBytesCountsTouchedHubBitmaps) {
  const auto corpus = OpenSnapshot(*path_);
  ASSERT_NE(corpus, nullptr);
  const PairSample sample = SamplePairs(*corpus, 5, 1);
  ASSERT_GE(sample.hubs.size(), 3u);
  ASSERT_GE(sample.rare.size(), 2u);
  const size_t bitmap_bytes = (corpus->TotalColumns() + 63) / 64 * 8;

  const size_t opened = corpus->HeapBytes();
  for (size_t i = 0; i + 1 < std::min<size_t>(sample.rare.size(), 200); ++i) {
    corpus->CoOccurrenceCount(sample.rare[i], sample.rare[i + 1]);
  }
  EXPECT_EQ(corpus->HeapBytes(), opened) << "rare lookups built something";

  // The first hub also builds the hub directory (12 bytes per hub).
  corpus->CoOccurrenceCount(sample.hubs[0], sample.rare[0]);
  const size_t first = corpus->HeapBytes();
  EXPECT_GE(first - opened, bitmap_bytes + 12 * sample.hubs.size());
  EXPECT_LE(first - opened, bitmap_bytes + 16 * sample.hubs.size() + 256);

  uint64_t hub_postings = corpus->ColumnCount(sample.hubs[0]);
  size_t before = first;
  for (size_t i = 1; i < sample.hubs.size(); ++i) {
    corpus->CoOccurrenceCount(sample.hubs[i], sample.hubs[i - 1]);
    EXPECT_EQ(corpus->HeapBytes() - before, bitmap_bytes) << i;
    before = corpus->HeapBytes();
    hub_postings += corpus->ColumnCount(sample.hubs[i]);
    EXPECT_LE(bitmap_bytes, 16u * corpus->ColumnCount(sample.hubs[i]));
  }
  // Touching built hubs again costs nothing.
  corpus->CoOccurrenceCount(sample.hubs[0], sample.hubs[1]);
  EXPECT_EQ(corpus->HeapBytes(), before);
  EXPECT_LE(before - opened, 16 * hub_postings);
}

}  // namespace
}  // namespace store
}  // namespace tegra
