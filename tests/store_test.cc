// tegra::store test suite.
//
//  * Round-trip equivalence: every statistic TEGRA consumes (|C(s)|,
//    co-occurrence, union, PMI/NPMI/Jaccard/angular distances) is
//    bit-identical between a heap ColumnIndex and the TGRAIDX2 snapshot
//    built from it, under the snapshot's relabeled (sorted) value ids.
//  * Corruption matrix: every truncation point and a sweep of single-bit
//    flips must surface as Status::Corruption from Open() or Verify() —
//    never UB, never a crash, never silently wrong data. Posting headers
//    that lie (block counts, skip offsets) are decoded in bounds, both as
//    raw bytes and inside a resealed snapshot that passes Open().
//  * Retired formats: a file with the old heap-cache magic is Corruption to
//    every opener.
//  * Snapshot cache (OpenOrBuildSnapshot): builds once, then serves the
//    verified snapshot; corrupt, stale-format and unwritable caches fall
//    back to a rebuild.
//  * Durability: publication is atomic — no `.tmp` debris, old content
//    survives a failed write.
//  * CorpusManager: generation bumping, failed-reload semantics, and
//    concurrent readers racing a hot swap (the TSan target of the suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/varint.h"
#include "corpus/column_index.h"
#include "corpus/corpus_stats.h"
#include "corpus/corpus_view.h"
#include "store/corpus_loader.h"
#include "store/corpus_manager.h"
#include "store/crc32c.h"
#include "store/format.h"
#include "store/mmap_corpus.h"
#include "store/posting_cursor.h"
#include "store/snapshot_writer.h"
#include "synth/corpus_gen.h"

namespace tegra {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "store_test_" + std::to_string(::getpid()) +
         "_" + name;
}

ColumnIndex BuildCorpus(size_t tables = 400, uint64_t seed = 3) {
  return synth::BuildBackgroundIndex(synth::CorpusProfile::kWeb, tables, seed);
}

/// Writes raw bytes (non-atomically; tests that need torn files use this).
void WriteRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

/// A cache in the retired v1 heap format: magic, then varint total columns
/// (1), value count (1), and per value its string ("a") and delta postings
/// (one, at column 0).
std::string RetiredV1Cache() {
  std::string bytes = "TGRAIDX1";
  bytes += "\x01\x01\x01" "a" "\x01";
  bytes.push_back('\0');
  return bytes;
}

class StoreRoundTripTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    heap_ = new ColumnIndex(BuildCorpus());
    path_ = new std::string(TempPath("roundtrip.idx2"));
    const Status written = WriteSnapshot(*heap_, *path_);
    ASSERT_TRUE(written.ok()) << written.ToString();
    auto opened = MmapCorpus::Open(*path_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    mmap_ = opened.value().release();
  }

  static void TearDownTestSuite() {
    delete mmap_;
    mmap_ = nullptr;
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
    delete heap_;
    heap_ = nullptr;
  }

  static ColumnIndex* heap_;
  static MmapCorpus* mmap_;
  static std::string* path_;
};

ColumnIndex* StoreRoundTripTest::heap_ = nullptr;
MmapCorpus* StoreRoundTripTest::mmap_ = nullptr;
std::string* StoreRoundTripTest::path_ = nullptr;

TEST_F(StoreRoundTripTest, CardinalitiesMatch) {
  EXPECT_EQ(mmap_->TotalColumns(), heap_->TotalColumns());
  EXPECT_EQ(mmap_->NumValues(), heap_->NumValues());
  EXPECT_STREQ(mmap_->FormatName(), "mmap-v2");
  EXPECT_GT(mmap_->MappedBytes(), 0u);
  // Zero-copy: the resident heap cost of the view is the object itself, not
  // any materialized postings or dictionary.
  EXPECT_EQ(mmap_->HeapBytes(), sizeof(MmapCorpus));
}

TEST_F(StoreRoundTripTest, EveryValueRoundTripsThroughLookup) {
  // heap id -> string -> mmap id -> string must close the loop, and the
  // O(1) ColumnCount must agree for every single value.
  for (ValueId heap_id = 0; heap_id < heap_->NumValues(); ++heap_id) {
    const std::string value = heap_->ValueString(heap_id);
    const ValueId mmap_id = mmap_->Lookup(value);
    ASSERT_NE(mmap_id, kInvalidValueId) << "lost value: " << value;
    EXPECT_EQ(mmap_->ValueString(mmap_id), value);
    EXPECT_EQ(mmap_->ColumnCount(mmap_id), heap_->ColumnCount(heap_id))
        << value;
  }
  EXPECT_EQ(mmap_->Lookup("value that is definitely not in the corpus"),
            kInvalidValueId);
  // Lookup normalizes exactly like the heap index does.
  const std::string value = heap_->ValueString(0);
  EXPECT_EQ(mmap_->Lookup("  " + value + "  "), mmap_->Lookup(value));
}

TEST_F(StoreRoundTripTest, StatisticsBitIdenticalAcrossRepresentations) {
  // Pair the most popular values (postings > 128 exercise the skip-block
  // path) with each other and with a spread of rare values. All derived
  // statistics must be bit-identical doubles, since they are computed from
  // identical integer counts by identical code.
  std::vector<ValueId> heap_ids(heap_->NumValues());
  for (size_t i = 0; i < heap_ids.size(); ++i) {
    heap_ids[i] = static_cast<ValueId>(i);
  }
  std::sort(heap_ids.begin(), heap_ids.end(), [&](ValueId a, ValueId b) {
    return heap_->ColumnCount(a) > heap_->ColumnCount(b);
  });
  ASSERT_GT(heap_->ColumnCount(heap_ids[0]), kPostingBlockSize)
      << "corpus too small to exercise block-compressed postings";

  std::vector<ValueId> sample(heap_ids.begin(),
                              heap_ids.begin() + std::min<size_t>(
                                                     40, heap_ids.size()));
  std::mt19937 rng(42);
  std::uniform_int_distribution<size_t> pick(0, heap_ids.size() - 1);
  for (int i = 0; i < 40; ++i) sample.push_back(heap_ids[pick(rng)]);

  CorpusStats heap_stats(heap_);
  CorpusStats mmap_stats(mmap_);
  for (size_t i = 0; i < sample.size(); ++i) {
    for (size_t j = i + 1; j < sample.size(); j += 7) {
      const ValueId ha = sample[i];
      const ValueId hb = sample[j];
      const ValueId ma = mmap_->Lookup(heap_->ValueString(ha));
      const ValueId mb = mmap_->Lookup(heap_->ValueString(hb));
      ASSERT_NE(ma, kInvalidValueId);
      ASSERT_NE(mb, kInvalidValueId);
      EXPECT_EQ(mmap_->CoOccurrenceCount(ma, mb),
                heap_->CoOccurrenceCount(ha, hb));
      EXPECT_EQ(mmap_->UnionCount(ma, mb), heap_->UnionCount(ha, hb));
      // Bit-identical, not approximately equal.
      EXPECT_EQ(mmap_stats.Pmi(ma, mb), heap_stats.Pmi(ha, hb));
      EXPECT_EQ(mmap_stats.Npmi(ma, mb), heap_stats.Npmi(ha, hb));
      EXPECT_EQ(mmap_stats.SemanticDistance(ma, mb),
                heap_stats.SemanticDistance(ha, hb));
      EXPECT_EQ(
          mmap_stats.SemanticDistance(ma, mb, SemanticMeasure::kJaccard),
          heap_stats.SemanticDistance(ha, hb, SemanticMeasure::kJaccard));
      EXPECT_EQ(
          mmap_stats.SemanticDistance(ma, mb, SemanticMeasure::kAngular),
          heap_stats.SemanticDistance(ha, hb, SemanticMeasure::kAngular));
    }
  }
}

TEST_F(StoreRoundTripTest, VerifyAcceptsIntactSnapshot) {
  EXPECT_TRUE(mmap_->Verify().ok());
  EXPECT_TRUE(VerifyCorpusFile(*path_).ok());
}

TEST_F(StoreRoundTripTest, DescribeReportsAllSectionsChecksummed) {
  auto info = DescribeCorpusFile(*path_, /*check_crc=*/true);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format, "TGRAIDX2");
  EXPECT_TRUE(info->header_crc_ok);
  EXPECT_EQ(info->total_columns, heap_->TotalColumns());
  EXPECT_EQ(info->num_values, heap_->NumValues());
  ASSERT_EQ(info->sections.size(), kSectionCount);
  uint64_t described_bytes = 0;
  for (const SectionSummary& section : info->sections) {
    EXPECT_TRUE(section.crc_checked) << section.name;
    EXPECT_TRUE(section.crc_ok) << section.name;
    described_bytes = std::max(described_bytes,
                               section.offset + section.length);
  }
  EXPECT_LE(described_bytes, info->file_bytes);
  const std::string report = FormatCorpusFileInfo(info.value());
  EXPECT_NE(report.find("TGRAIDX2"), std::string::npos);
  EXPECT_NE(report.find("posting_blob"), std::string::npos);
}

TEST_F(StoreRoundTripTest, OpenCorpusAutodetectsBothFormats) {
  auto v2 = OpenCorpus(*path_);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2->format, "mmap-v2");
  EXPECT_EQ(v2->view->NumValues(), heap_->NumValues());

  const std::string junk_path = TempPath("autodetect.junk");
  WriteRaw(junk_path, "NOTANIDX file of some other kind entirely");
  auto junk = OpenCorpus(junk_path);
  EXPECT_FALSE(junk.ok());
  EXPECT_EQ(junk.status().code(), StatusCode::kCorruption);

  // The retired heap-cache format is no longer read by any opener.
  const std::string v1_path = TempPath("autodetect.idx");
  WriteRaw(v1_path, RetiredV1Cache());
  auto v1 = OpenCorpus(v1_path);
  EXPECT_FALSE(v1.ok());
  EXPECT_EQ(v1.status().code(), StatusCode::kCorruption)
      << v1.status().ToString();
  EXPECT_EQ(DescribeCorpusFile(v1_path, /*check_crc=*/true).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(VerifyCorpusFile(v1_path).code(), StatusCode::kCorruption);

  std::remove(v1_path.c_str());
  std::remove(junk_path.c_str());
}

// ---- Corruption matrix -----------------------------------------------------

class StoreCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ColumnIndex heap = BuildCorpus(200, 5);
    auto encoded = EncodeSnapshot(heap);
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    bytes_ = new std::string(std::move(encoded.value()));
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }

  /// True when the mutated bytes are rejected with Corruption by Open() or,
  /// failing that, by Verify(). Any other outcome (acceptance, crash, a
  /// different status code) fails the calling test.
  static bool RejectedAsCorruption(const std::string& mutated,
                                   const std::string& tag) {
    const std::string path = TempPath("corrupt_" + tag);
    WriteRaw(path, mutated);
    auto opened = MmapCorpus::Open(path);
    Status status = Status::OK();
    if (!opened.ok()) {
      status = opened.status();
    } else {
      status = opened.value()->Verify();
      opened.value().reset();  // Unmap before unlink.
    }
    std::remove(path.c_str());
    if (status.ok()) {
      ADD_FAILURE() << tag << ": corruption went undetected";
      return false;
    }
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << tag << ": " << status.ToString();
    return status.code() == StatusCode::kCorruption;
  }

  static std::string* bytes_;
};

std::string* StoreCorruptionTest::bytes_ = nullptr;

TEST_F(StoreCorruptionTest, EveryTruncationPointIsRejected) {
  // A sweep of prefixes: inside the header, inside the section table, at
  // section boundaries, and a stride through the payloads. file_bytes in
  // the header pins the exact length, so every strict prefix must fail.
  std::vector<size_t> cuts = {0, 1, 7, 8, 12, 63, 64, 96,
                              kHeaderBytes + kSectionCount * kSectionEntryBytes,
                              bytes_->size() - 1};
  for (size_t cut = 128; cut < bytes_->size(); cut += bytes_->size() / 41) {
    cuts.push_back(cut);
  }
  for (const size_t cut : cuts) {
    ASSERT_LE(cut, bytes_->size());
    RejectedAsCorruption(bytes_->substr(0, cut),
                         "truncate_" + std::to_string(cut));
  }
}

TEST_F(StoreCorruptionTest, AppendedGarbageIsRejected) {
  RejectedAsCorruption(*bytes_ + std::string(17, '\xee'), "appended");
}

TEST_F(StoreCorruptionTest, SingleBitFlipsAreRejectedEverywhere) {
  // Deterministic sweep of single-bit flips across the whole file: header,
  // section table, and a sample of every payload region. Each must trip a
  // structural check at Open() or a checksum / deep-decode check in
  // Verify().
  std::mt19937 rng(2026);
  std::uniform_int_distribution<size_t> pick_byte(0, bytes_->size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  std::vector<std::pair<size_t, int>> flips;
  // Every byte of the header + section table is load-bearing; sample it
  // densely, then spray the payloads.
  const size_t table_end = kHeaderBytes + kSectionCount * kSectionEntryBytes;
  for (size_t offset = 0; offset < table_end; offset += 9) {
    flips.emplace_back(offset, static_cast<int>(offset) % 8);
  }
  for (int i = 0; i < 160; ++i) flips.emplace_back(pick_byte(rng),
                                                   pick_bit(rng));
  for (const auto& [offset, bit] : flips) {
    std::string mutated = *bytes_;
    mutated[offset] = static_cast<char>(
        static_cast<unsigned char>(mutated[offset]) ^ (1u << bit));
    RejectedAsCorruption(mutated, "bitflip_" + std::to_string(offset) + "_" +
                                      std::to_string(bit));
  }
}

TEST_F(StoreCorruptionTest, VerifyCorpusFileFlagsBitFlip) {
  // The satellite CI check in miniature: publish, corrupt one payload byte,
  // and the *file-level* verifier must report Corruption.
  const std::string path = TempPath("ci_flip.idx2");
  WriteRaw(path, *bytes_);
  ASSERT_TRUE(VerifyCorpusFile(path).ok());
  std::string mutated = *bytes_;
  mutated[mutated.size() - 5] ^= 0x10;  // Deep inside posting_blob.
  WriteRaw(path, mutated);
  const Status status = VerifyCorpusFile(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  std::remove(path.c_str());
}

// ---- Posting cursor on untrusted bytes -------------------------------------

void OverwriteU32(std::string* bytes, size_t offset, uint32_t v) {
  std::string le;
  PutFixed32(&le, v);
  bytes->replace(offset, 4, le);
}

/// Recomputes every section CRC and the header CRC after a deliberate edit,
/// so the edited snapshot passes Open() and only the decoder can object.
void Reseal(std::string* bytes) {
  const size_t table = kHeaderBytes;
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const size_t entry = table + i * kSectionEntryBytes;
    const uint64_t off = ReadU64LE(bytes->data() + entry + 8);
    const uint64_t len = ReadU64LE(bytes->data() + entry + 16);
    OverwriteU32(bytes, entry + 24, MaskCrc(Crc32c(bytes->data() + off, len)));
  }
  uint32_t crc = Crc32cExtend(0, bytes->data(), kHeaderBytes - 4);
  crc = Crc32cExtend(crc, bytes->data() + table,
                     kSectionCount * kSectionEntryBytes);
  OverwriteU32(bytes, kHeaderBytes - 4, MaskCrc(crc));
}

/// The block encoding of format.h for `ids` (more than one block's worth).
std::string EncodeBlocked(const std::vector<uint32_t>& ids) {
  std::string skip, streams;
  uint32_t blocks = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i % kPostingBlockSize == 0) {
      PutFixed32(&skip, ids[i]);
      PutFixed32(&skip, static_cast<uint32_t>(streams.size()));
      ++blocks;
    } else {
      PutVarint(&streams, ids[i] - ids[i - 1]);
    }
  }
  std::string out;
  PutFixed32(&out, blocks);
  return out + skip + streams;
}

TEST(PostingCursorTest, InconsistentHeadersEndTheListInBounds) {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 200; ++i) ids.push_back(2 * i);
  const uint32_t count = static_cast<uint32_t>(ids.size());
  const std::string good = EncodeBlocked(ids);
  ASSERT_EQ(DecodePostingList({good, count}), ids);
  std::string other;  // Plain encoding of {1, 2, 256, 397, 398, 500}.
  uint32_t prev = 0;
  for (const uint32_t id : {1u, 2u, 256u, 397u, 398u, 500u}) {
    PutVarint(&other, id - prev);
    prev = id;
  }
  ASSERT_EQ(IntersectPostings({good, count}, {other, 6}), 3u);

  // Two blocks, skip entries at [4, 20), streams after. Each variant lies
  // about the layout; the cursor must decode at most the true prefix.
  std::string five_blocks = good;  // The 200-entry list claiming 5 blocks.
  OverwriteU32(&five_blocks, 0, 5);
  std::string fake_skips;
  for (uint32_t b = 2; b < 5; ++b) {
    PutFixed32(&fake_skips, 1000 * b);
    PutFixed32(&fake_skips, 0);
  }
  five_blocks.insert(20, fake_skips);
  std::string one_block = good;
  OverwriteU32(&one_block, 0, 1);
  std::string huge_blocks = good;
  OverwriteU32(&huge_blocks, 0, 0xffffffffu);
  std::string far_offset = good;
  OverwriteU32(&far_offset, 4 + 8 + 4, 0x7fffffffu);
  std::string decreasing = good;
  OverwriteU32(&decreasing, 4 + 4, 100);
  OverwriteU32(&decreasing, 4 + 8 + 4, 50);
  const std::string short_table = good.substr(0, 4 + 8);
  const std::string too_short = good.substr(0, 3);

  struct Case {
    const char* name;
    std::string bytes;
    size_t max_decoded;
  };
  const Case cases[] = {
      {"five_blocks", five_blocks, 0},  {"one_block", one_block, 0},
      {"huge_blocks", huge_blocks, 0},  {"far_offset", far_offset, 0},
      {"decreasing", decreasing, 0},    {"short_table", short_table, 0},
      {"too_short", too_short, 0},
  };
  for (const Case& c : cases) {
    const PostingListRef ref{c.bytes, count};
    const std::vector<uint32_t> decoded = DecodePostingList(ref);
    EXPECT_LE(decoded.size(), c.max_decoded) << c.name;
    EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(), ids.begin()))
        << c.name;
    for (const uint32_t target : {0u, 255u, 256u, 300u, 399u, 5000u}) {
      PostingCursor cur(ref);
      cur.SeekGE(target);
      if (!cur.exhausted()) {
        EXPECT_GE(cur.value(), target) << c.name;
      }
    }
    EXPECT_LE(IntersectPostings(ref, {good, count}), c.max_decoded) << c.name;
    EXPECT_LE(IntersectPostings({good, count}, ref), c.max_decoded) << c.name;
  }
}

TEST(PostingCursorTest, LyingHeadersInAResealedSnapshotFailVerify) {
  // Take the longest (block-encoded, hub) posting list, make its header
  // lie, and reseal the file: Open() accepts it, every query stays in
  // bounds (ASan / UBSan builds prove it), and Verify() calls it Corruption.
  auto encoded = EncodeSnapshot(BuildCorpus());
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  const std::string& intact = encoded.value();
  const auto section = [&](uint32_t kind) {
    return ReadU64LE(intact.data() + kHeaderBytes +
                     (kind - 1) * kSectionEntryBytes + 8);
  };
  const uint64_t num_values = ReadU64LE(intact.data() + 24);
  ValueId longest = 0;
  uint32_t longest_count = 0;
  for (uint64_t id = 0; id < num_values; ++id) {
    const uint32_t count =
        ReadU32LE(intact.data() + section(kPostingCounts) + id * 4);
    if (count > longest_count) {
      longest = static_cast<ValueId>(id);
      longest_count = count;
    }
  }
  ASSERT_GT(longest_count, kPostingBlockSize);
  const size_t list = section(kPostingBlob) +
                      ReadU64LE(intact.data() + section(kPostingOffsets) +
                                uint64_t{longest} * 8);
  const uint32_t blocks = ReadU32LE(intact.data() + list);
  const size_t skip = list + 4;

  struct Lie {
    const char* name;
    size_t offset;
    uint32_t value;
  };
  const Lie lies[] = {
      {"extra_blocks", list, blocks + 3},
      {"huge_block_count", list, 0xffffffffu},
      {"first_offset_past_stream", skip + 4, 0x7ffffff0u},
      {"second_offset_past_stream", skip + 8 + 4, 0x7ffffff0u},
      {"offsets_decrease", skip + 4, 0xffffu},
  };
  std::string resealed = intact;
  Reseal(&resealed);
  ASSERT_EQ(resealed, intact) << "Reseal must be the identity on a good file";
  for (const Lie& lie : lies) {
    std::string mutated = intact;
    OverwriteU32(&mutated, lie.offset, lie.value);
    Reseal(&mutated);
    const std::string path = TempPath(std::string("lie_") + lie.name);
    WriteRaw(path, mutated);
    auto opened = MmapCorpus::Open(path);
    ASSERT_TRUE(opened.ok()) << lie.name << ": " << opened.status().ToString();
    const MmapCorpus& corpus = *opened.value();
    EXPECT_LT(DecodePostingList(corpus.Postings(longest)).size(),
              longest_count)
        << lie.name;
    // Hub and galloping paths both walk the lying list.
    for (ValueId other = 0; other < corpus.NumValues(); other += 7) {
      EXPECT_LE(corpus.CoOccurrenceCount(longest, other),
                corpus.ColumnCount(other))
          << lie.name;
      EXPECT_LE(IntersectPostings(corpus.Postings(longest),
                                  corpus.Postings(other)),
                corpus.ColumnCount(other))
          << lie.name;
    }
    const Status verified = corpus.Verify();
    EXPECT_EQ(verified.code(), StatusCode::kCorruption)
        << lie.name << ": " << verified.ToString();
    opened.value().reset();
    std::remove(path.c_str());
  }
}

// ---- Durability ------------------------------------------------------------

TEST(StoreDurabilityTest, PublicationLeavesNoTempDebris) {
  const ColumnIndex heap = BuildCorpus(100, 2);
  const std::string path = TempPath("durable.idx2");
  ASSERT_TRUE(WriteSnapshot(heap, path).ok());
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok())
      << path << ".tmp left behind";
  EXPECT_TRUE(FileSize(path).ok());
  // Overwrite-in-place republishes atomically over existing content.
  ASSERT_TRUE(WriteSnapshot(heap, path).ok());
  EXPECT_TRUE(VerifyCorpusFile(path).ok());
  std::remove(path.c_str());
}

TEST(StoreDurabilityTest, FailedWriteKeepsOldContentIntact) {
  const ColumnIndex heap = BuildCorpus(100, 2);
  const std::string path = TempPath("keepold.idx2");
  ASSERT_TRUE(WriteSnapshot(heap, path).ok());
  const auto before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());
  // Writing into a nonexistent directory must fail without touching `path`.
  EXPECT_FALSE(WriteSnapshot(heap, "/nonexistent-dir/x.idx2").ok());
  const auto after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  std::remove(path.c_str());
}

// ---- Snapshot cache --------------------------------------------------------

class SnapshotCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("cache_" +
                     std::string(::testing::UnitTest::GetInstance()
                                     ->current_test_info()
                                     ->name()) +
                     ".idx2");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<const CorpusView> OpenOrBuild(const std::string& path) {
    return OpenOrBuildSnapshot(path, [this] {
      ++builds_;
      return BuildCorpus(120, 9);
    });
  }

  /// The served corpus answers every statistic like a fresh build.
  static void ExpectBuiltCorpus(const CorpusView& view) {
    EXPECT_EQ(ComputeCorpusDigest(view).digest,
              ComputeCorpusDigest(BuildCorpus(120, 9)).digest);
  }

  std::string path_;
  int builds_ = 0;
};

TEST_F(SnapshotCacheTest, BuilderRunsOnceThenCacheServes) {
  const auto first = OpenOrBuild(path_);
  EXPECT_EQ(builds_, 1);
  EXPECT_STREQ(first->FormatName(), "mmap-v2");
  ExpectBuiltCorpus(*first);

  const auto second = OpenOrBuild(path_);
  EXPECT_EQ(builds_, 1) << "second call must hit the disk cache";
  EXPECT_STREQ(second->FormatName(), "mmap-v2");
  EXPECT_EQ(second->NumValues(), first->NumValues());
}

TEST_F(SnapshotCacheTest, FlippedPayloadByteIsRebuiltNotTrusted) {
  OpenOrBuild(path_);  // Publishes; the view unmaps here.
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[mutated.size() - 5] ^= 0x10;  // Deep inside posting_blob.
  WriteRaw(path_, mutated);
  // Structurally the file still opens; only the full check catches it.
  ASSERT_TRUE(MmapCorpus::Open(path_).ok());

  const auto reopened = OpenOrBuild(path_);
  EXPECT_EQ(builds_, 2);
  ExpectBuiltCorpus(*reopened);
  EXPECT_TRUE(VerifyCorpusFile(path_).ok()) << "cache was not republished";
}

TEST_F(SnapshotCacheTest, StaleV1CacheIsRebuilt) {
  WriteRaw(path_, RetiredV1Cache());
  const auto opened = OpenOrBuild(path_);
  EXPECT_EQ(builds_, 1);
  EXPECT_STREQ(opened->FormatName(), "mmap-v2");
  ExpectBuiltCorpus(*opened);
  EXPECT_TRUE(VerifyCorpusFile(path_).ok());
}

TEST_F(SnapshotCacheTest, UnwritableDirectoryStillServes) {
  // A regular file as the parent directory: unwritable even for root.
  const std::string not_a_dir = TempPath("cache_parent_is_a_file");
  WriteRaw(not_a_dir, "x");
  const auto opened = OpenOrBuild(not_a_dir + "/cache.idx2");
  EXPECT_EQ(builds_, 1);
  EXPECT_STREQ(opened->FormatName(), "heap-v1");
  ExpectBuiltCorpus(*opened);
  std::remove(not_a_dir.c_str());
}

// ---- Edge cases ------------------------------------------------------------

TEST(StoreEdgeCaseTest, EmptyCorpusRoundTrips) {
  ColumnIndex empty;
  empty.Finalize();
  const std::string path = TempPath("empty.idx2");
  ASSERT_TRUE(WriteSnapshot(empty, path).ok());
  auto opened = MmapCorpus::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->NumValues(), 0u);
  EXPECT_EQ((*opened)->TotalColumns(), 0u);
  EXPECT_EQ((*opened)->Lookup("anything"), kInvalidValueId);
  EXPECT_TRUE((*opened)->Verify().ok());
  opened.value().reset();
  std::remove(path.c_str());
}

TEST(StoreEdgeCaseTest, UnfinalizedIndexIsRefused) {
  ColumnIndex unfinalized;
  unfinalized.AddColumn({"a", "b"});
  auto encoded = EncodeSnapshot(unfinalized);
  EXPECT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreEdgeCaseTest, SortedEncodingMatchesIndexEncoding) {
  // The shard builder's path: values already in snapshot order must encode
  // to exactly the bytes of the heap index holding the same postings.
  ColumnIndex index;
  index.AddColumn({"toronto", "boston"});
  index.AddColumn({"toronto", "42"});
  index.Finalize();
  auto from_index = EncodeSnapshot(index);
  auto sorted = EncodeSortedSnapshot(2, {"42", "boston", "toronto"},
                                     {{1}, {0}, {0, 1}});
  ASSERT_TRUE(from_index.ok() && sorted.ok());
  EXPECT_EQ(*sorted, *from_index);

  // Out-of-order, duplicate or unpaired values are refused, not encoded
  // into a snapshot whose hash and dictionary disagree.
  EXPECT_EQ(EncodeSortedSnapshot(2, {"b", "a"}, {{0}, {1}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EncodeSortedSnapshot(2, {"a", "a"}, {{0}, {1}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EncodeSortedSnapshot(2, {"a"}, {{0}, {1}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoreEdgeCaseTest, Crc32cKnownVectorsAndMasking) {
  // RFC 3720 test vector: 32 zero bytes.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // Incremental == one-shot.
  const std::string data = "tegra snapshot bytes";
  uint32_t incremental = Crc32cExtend(0, data.data(), 7);
  incremental = Crc32cExtend(incremental, data.data() + 7, data.size() - 7);
  EXPECT_EQ(incremental, Crc32c(data.data(), data.size()));
  // Masking round-trips and actually changes the value.
  const uint32_t crc = Crc32c(data.data(), data.size());
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  EXPECT_NE(MaskCrc(crc), crc);
}

// ---- CorpusManager ---------------------------------------------------------

TEST(CorpusManagerTest, GenerationBumpsAndFailedReloadKeepsServing) {
  const ColumnIndex heap = BuildCorpus(120, 4);
  const std::string path = TempPath("manager.idx2");
  ASSERT_TRUE(WriteSnapshot(heap, path).ok());

  MetricsRegistry registry;
  CorpusManagerOptions options;
  options.metrics = &registry;
  CorpusManager manager(path, options);
  EXPECT_EQ(manager.Generation(), 0u);
  EXPECT_EQ(manager.Current(), nullptr);
  EXPECT_EQ(manager.CurrentFormat(), "none");

  uint64_t swap_generation = 0;
  manager.SetOnSwap([&](std::shared_ptr<const CorpusView> view,
                        uint64_t generation) {
    ASSERT_NE(view, nullptr);
    swap_generation = generation;
  });

  ASSERT_TRUE(manager.Reload().ok());
  EXPECT_EQ(manager.Generation(), 1u);
  EXPECT_EQ(swap_generation, 1u);
  EXPECT_EQ(manager.CurrentFormat(), "mmap-v2");
  const auto generation1 = manager.Current();
  ASSERT_NE(generation1, nullptr);

  ASSERT_TRUE(manager.Reload().ok());
  EXPECT_EQ(manager.Generation(), 2u);
  EXPECT_EQ(manager.ReloadCount(), 2u);
  // The old pin stays valid after the swap.
  EXPECT_EQ(generation1->NumValues(), manager.Current()->NumValues());

  // Corrupt the file: reload fails, generation and view are unchanged.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("TGRAIDX2garbage", f);
    std::fclose(f);
  }
  const auto generation2 = manager.Current();
  const Status failed = manager.Reload();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(manager.Generation(), 2u);
  EXPECT_EQ(manager.Current(), generation2);
  EXPECT_EQ(manager.ReloadErrorCount(), 1u);
  EXPECT_FALSE(manager.LastError().empty());

  const auto snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("store.reload_total"), 2u);
  EXPECT_EQ(snap.counters.at("store.reload_errors_total"), 1u);
  EXPECT_EQ(snap.gauges.at("corpus.generation"), 2.0);

  std::remove(path.c_str());
}

TEST(CorpusManagerTest, ReloadWithoutPathIsInvalidArgument) {
  const auto heap = std::make_shared<ColumnIndex>(BuildCorpus(60, 1));
  CorpusManager manager(heap, /*path=*/"");
  EXPECT_EQ(manager.Generation(), 1u);
  EXPECT_EQ(manager.CurrentFormat(), "heap-v1");
  const Status status = manager.Reload();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Generation(), 1u);
}

TEST(CorpusManagerTest, ConcurrentReadersRaceHotSwaps) {
  // The TSan target: readers continuously acquire the current generation
  // and hammer lookups/intersections while the main thread republishes and
  // swaps. Every reader pin must stay fully usable for its whole scope.
  const ColumnIndex corpus_a = BuildCorpus(150, 21);
  const ColumnIndex corpus_b = BuildCorpus(170, 22);
  const std::string path = TempPath("swapstress.idx2");
  ASSERT_TRUE(WriteSnapshot(corpus_a, path).ok());

  CorpusManager manager(path);
  ASSERT_TRUE(manager.Reload().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&manager, &stop, &reads] {
      std::mt19937 rng(reads.fetch_add(1) + 99);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const CorpusView> view = manager.Current();
        ASSERT_NE(view, nullptr);
        const size_t n = view->NumValues();
        ASSERT_GT(n, 0u);
        std::uniform_int_distribution<ValueId> pick(
            0, static_cast<ValueId>(n - 1));
        for (int i = 0; i < 64; ++i) {
          const ValueId a = pick(rng);
          const ValueId b = pick(rng);
          const uint32_t ca = view->ColumnCount(a);
          const uint32_t cb = view->ColumnCount(b);
          const uint32_t both = view->CoOccurrenceCount(a, b);
          ASSERT_LE(both, std::min(ca, cb));
          ASSERT_EQ(view->Lookup(view->ValueString(a)), a);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Alternate publications while the readers run.
  for (int swap = 0; swap < 10; ++swap) {
    ASSERT_TRUE(
        WriteSnapshot(swap % 2 == 0 ? corpus_b : corpus_a, path).ok());
    ASSERT_TRUE(manager.Reload().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(manager.Generation(), 11u);
  EXPECT_GT(reads.load(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace store
}  // namespace tegra
