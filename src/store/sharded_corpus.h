// ShardedCorpus — a CorpusView over a MANIFEST.tgrs directory: N hash-
// partitioned TGRAIDX2 shards plus zero or more delta overlays, queried as
// one corpus and *bit-identical* to the same tables built as a single
// monolithic snapshot (proven by shard_test.cc).
//
// Id space and routing
//   Base shards partition values by Fnv1a64(normalized) % num_shards, so
//   Lookup probes exactly one shard's hash table; overlays (small snapshots
//   of appended tables) are probed in append order afterwards. A value's
//   *canonical* id is its slot in the first part that contains it (base
//   shard, else earliest overlay): canonical = part_value_base[p] + local.
//   The same value may also exist in later overlays; those occurrences are
//   recorded in a heap-side bridge map built at open time by scanning only
//   the overlays — O(delta), never O(corpus).
//
// Statistics decompose exactly because column-id spaces are disjoint:
//   base shards share global columns [0, total_base_columns) while overlay
//   k owns [base + sum of earlier overlay columns, ...). |C(s)| sums the
//   per-part counts; |C(a) ∩ C(b)| is the cross-shard-file intersection of
//   the two base lists (column ids are absolute, so lists — and the hub
//   bitmaps of values dense enough to have one — from different shard files
//   intersect directly) plus one within-overlay intersection per overlay
//   containing both values. Every one goes through IntersectPostings on
//   the parts' IntersectOperand refs.
//
// O(delta) reload
//   Open() takes the previous generation's view; any shard/overlay whose
//   manifest identity (name, file_bytes, header_crc) is unchanged reuses
//   the already-validated live mapping instead of re-mmapping — a reload
//   that only appends an overlay maps and validates just that overlay.
//   CorpusManager's generation pinning is preserved: reused parts are
//   shared_ptr-held by both generations.

#ifndef TEGRA_STORE_SHARDED_CORPUS_H_
#define TEGRA_STORE_SHARDED_CORPUS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "corpus/corpus_view.h"
#include "store/manifest.h"
#include "store/mmap_corpus.h"

namespace tegra {
namespace store {

class ShardedCorpus : public CorpusView {
 public:
  /// \brief Opens the sharded corpus described by the manifest at
  /// `manifest_path`. `previous` (the outgoing generation's view, may be
  /// null or non-sharded) donates still-valid mappings for unchanged parts.
  static Result<std::shared_ptr<const ShardedCorpus>> Open(
      const std::string& manifest_path,
      const std::shared_ptr<const CorpusView>& previous = nullptr);

  // CorpusView -------------------------------------------------------------
  uint64_t TotalColumns() const override { return total_columns_; }
  size_t NumValues() const override { return num_distinct_values_; }
  ValueId Lookup(std::string_view value) const override;
  uint32_t ColumnCount(ValueId id) const override;
  uint32_t CoOccurrenceCount(ValueId a, ValueId b) const override;
  std::string ValueString(ValueId id) const override;
  void ForEachValue(const std::function<void(ValueId, const std::string&)>&
                        fn) const override;
  const char* FormatName() const override { return "sharded-v2"; }
  size_t HeapBytes() const override;
  size_t MappedBytes() const override;

  // Sharded-specific -------------------------------------------------------

  /// \brief Exhaustive integrity check: every part's Verify(), manifest
  /// consistency (counts, identity) and shard routing (every base value
  /// hashes to its own shard). O(total file size).
  Status Verify() const;

  const ShardManifest& manifest() const { return manifest_; }
  const std::string& path() const { return manifest_path_; }
  uint32_t num_shards() const { return manifest_.num_shards; }
  uint32_t num_overlays() const {
    return static_cast<uint32_t>(manifest_.num_overlays());
  }
  /// Parts whose mapping was reused from the previous generation at Open.
  uint32_t reused_parts() const { return reused_parts_; }
  /// The underlying snapshot of one part (shards first, then overlays).
  const MmapCorpus& part(size_t index) const { return *parts_[index].corpus; }
  size_t num_parts() const { return parts_.size(); }

 private:
  struct Part {
    std::shared_ptr<const MmapCorpus> corpus;
    uint32_t value_base = 0;   ///< Canonical-id offset of this part.
    uint64_t column_base = 0;  ///< Global column-id offset (0 for shards).
    bool is_overlay = false;
  };

  /// Where one value lives: its canonical part plus any later overlays.
  struct Presence {
    int base_part = -1;  ///< Shard index, or -1 when absent from the base.
    uint32_t base_local = 0;
    /// (part index, local id) for every overlay containing the value.
    std::vector<std::pair<uint32_t, uint32_t>> overlays;
  };

  ShardedCorpus() = default;

  /// Builds the overlay bridge by scanning overlay dictionaries — O(delta).
  Status BuildBridge();

  int PartOf(ValueId id) const;  ///< -1 when out of range.
  Presence Resolve(ValueId id) const;

  std::string manifest_path_;
  ShardManifest manifest_;
  std::vector<Part> parts_;  ///< Shards [0, num_shards), then overlays.
  uint64_t total_columns_ = 0;
  uint32_t total_ids_ = 0;            ///< Sum of part num_values.
  size_t num_distinct_values_ = 0;    ///< total_ids_ minus overlay aliases.
  uint32_t reused_parts_ = 0;

  /// canonical id -> occurrences in *later* overlay parts. Only values that
  /// appear in more than one part have an entry; sized by the overlap
  /// between overlays and the rest of the corpus, not by the corpus.
  std::unordered_map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>>
      bridge_;
  /// Per overlay part: locals that alias an earlier part's value (skipped
  /// when enumerating; their canonical id lives elsewhere).
  std::vector<std::unordered_set<uint32_t>> overlay_alias_locals_;
};

}  // namespace store
}  // namespace tegra

#endif  // TEGRA_STORE_SHARDED_CORPUS_H_
