// Zero-copy CorpusView over an mmap'd TGRAIDX2 snapshot.
//
// Open() maps the file read-only and performs *structural* validation only
// (magic, version, header CRC over the 64-byte header + section table,
// section bounds / alignment / ordering, offset-array monotonicity) so a
// multi-GB corpus opens in milliseconds; payload checksums are verified
// on demand by Verify() — `tegra_corpusctl verify` runs it, the serving
// open path does not.
//
// All lookups operate directly on the mapped bytes:
//   Lookup            O(1): open-address hash probe + front-coded decode of
//                     one dictionary block to confirm the candidate.
//   ColumnCount       O(1): the posting_counts array.
//   CoOccurrenceCount IntersectPostings over IntersectOperand(a) and
//                     IntersectOperand(b): AND + popcount when both values
//                     are hubs, one bit test per id when one is, otherwise
//                     a galloping intersection that seeks via the per-list
//                     skip tables and decodes only the touched 128-entry
//                     blocks into stack buffers.
//
// Hub tier. A value is a hub when |C(s)| >= ceil(N / 128), N =
// TotalColumns(), so its bitmap over [0, N) costs at most 16 bytes per
// posting (4x its decoded list). A hub's bitmap is built the first time
// one of its intersections is asked for, published into the hub's slot
// with one compare-and-swap (a racing builder frees its copy), and shared
// by every reader until the mapping is destroyed. The slots sit in a hub
// directory (12 bytes per hub) built the same way on the first hub touch,
// so Open() reads no posting data and HeapBytes() grows only with the hubs
// queried. Counts are exact: a bitmap holds the same ids as its list.
//
// The snapshot is read-only after Open and safe for concurrent readers.

#ifndef TEGRA_STORE_MMAP_CORPUS_H_
#define TEGRA_STORE_MMAP_CORPUS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "corpus/corpus_view.h"
#include "store/format.h"
#include "store/posting_cursor.h"

namespace tegra {
namespace store {

class MmapCorpus : public CorpusView {
 public:
  /// \brief Maps the snapshot at `path`. Structural validation only; a
  /// malformed file yields Status::Corruption, never UB.
  static Result<std::unique_ptr<MmapCorpus>> Open(const std::string& path);

  ~MmapCorpus() override;
  MmapCorpus(const MmapCorpus&) = delete;
  MmapCorpus& operator=(const MmapCorpus&) = delete;

  // CorpusView -------------------------------------------------------------
  uint64_t TotalColumns() const override { return header_.total_columns; }
  size_t NumValues() const override {
    return static_cast<size_t>(header_.num_values);
  }
  ValueId Lookup(std::string_view value) const override;
  uint32_t ColumnCount(ValueId id) const override;
  uint32_t CoOccurrenceCount(ValueId a, ValueId b) const override;
  std::string ValueString(ValueId id) const override;
  const char* FormatName() const override { return "mmap-v2"; }
  /// The object plus the hub directory and the hub bitmaps built so far.
  size_t HeapBytes() const override;
  size_t MappedBytes() const override { return map_size_; }

  // Snapshot-specific ------------------------------------------------------

  /// \brief Full integrity check: recomputes every section CRC32C and
  /// deep-decodes the dictionary and all posting lists. Returns Corruption
  /// on the first mismatch. O(file size); not run by Open().
  Status Verify() const;

  const std::string& path() const { return path_; }
  const SnapshotHeader& header() const { return header_; }
  const SectionEntry& section(uint32_t kind) const;

  /// \brief Borrowed raw encoding + count of one posting list, without a
  /// hub bitmap (compaction decodes lists through this). Returns an empty
  /// ref for out-of-range ids.
  PostingListRef Postings(ValueId id) const;

  /// \brief Postings(id) plus, when the value is a hub, its shared bitmap
  /// (built on the first call): the operand IntersectPostings wants. Lets
  /// a ShardedCorpus intersect lists across shard files (column ids are
  /// absolute, so cross-file intersection is well-defined) without
  /// materializing them.
  PostingListRef IntersectOperand(ValueId id) const;

 private:
  struct HubTier;

  MmapCorpus() = default;

  /// The hub directory, built and published on first use.
  const HubTier& Hubs() const;
  /// The bitmap of hub `ref` (value `id`), built and published on first use;
  /// null when the list is too short in bytes to hold `ref.count` postings.
  const uint64_t* HubBits(ValueId id, const PostingListRef& ref) const;

  /// Raw bytes of one posting list: posting_blob[off[id], off[id+1]).
  std::string_view PostingBytes(ValueId id) const;
  /// Decodes the normalized string for rank `id` out of the dictionary.
  bool DecodeValue(ValueId id, std::string* out) const;

  std::string path_;
  const char* data_ = nullptr;  ///< Mapping base.
  size_t map_size_ = 0;
  SnapshotHeader header_;
  SectionEntry sections_[kSectionCount];
  // Resolved section payload pointers (into the mapping).
  const char* dict_offsets_ = nullptr;
  const char* dict_blob_ = nullptr;
  uint64_t dict_blob_len_ = 0;
  const char* hash_slots_ = nullptr;
  uint64_t hash_slot_count_ = 0;
  const char* post_offsets_ = nullptr;
  const char* post_counts_ = nullptr;
  const char* post_blob_ = nullptr;
  uint64_t post_blob_len_ = 0;

  uint32_t hub_threshold_ = 0;  ///< ceil(N / 128); UINT32_MAX when N == 0.
  uint32_t hub_words_ = 0;      ///< ceil(N / 64) words per hub bitmap.
  mutable std::atomic<HubTier*> hubs_{nullptr};
  mutable std::atomic<uint32_t> hub_bitmaps_built_{0};
};

}  // namespace store
}  // namespace tegra

#endif  // TEGRA_STORE_MMAP_CORPUS_H_
