// Shared decoder for TGRAIDX2 posting-list encodings (see format.h for the
// on-disk layout). Extracted from mmap_corpus.cc so that cross-file
// consumers — ShardedCorpus intersecting a value's postings across two
// shard snapshots, and the compaction path re-materializing lists — share
// one implementation with MmapCorpus::CoOccurrenceCount instead of
// re-deriving the block/skip-table arithmetic.
//
// PostingCursor decodes 128-entry blocks into a caller-owned stack buffer on
// demand and supports sequential advance plus galloping SeekGE via the skip
// table. It never heap-allocates, and it trusts nothing in the encoding: a
// block count that disagrees with the list's count, a skip table that
// overruns the list, or skip byte offsets that leave the stream end the list
// early instead of reading or writing out of bounds (Verify() then reports
// the short list as Corruption).
//
// IntersectPostings is the one |A ∩ B| kernel. When both refs carry a hub
// bitmap (MmapCorpus::IntersectOperand) it is AND + popcount over the
// bitmap words; when one does, the other list is decoded once and each id
// tests one bit; otherwise the rarer list drives a galloping search of the
// denser one. Because column ids are absolute in the encoding, the two
// lists may come from *different* snapshot files as long as they share a
// column-id space.

#ifndef TEGRA_STORE_POSTING_CURSOR_H_
#define TEGRA_STORE_POSTING_CURSOR_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/varint.h"
#include "store/format.h"

namespace tegra {
namespace store {

/// \brief A borrowed view of one encoded posting list: the raw bytes
/// (posting_blob[off[id], off[id+1])) plus the entry count from
/// posting_counts. Valid only while the backing mapping lives.
struct PostingListRef {
  std::string_view bytes;
  uint32_t count = 0;
  /// Hub tier: the same set as a bitmap over column ids
  /// [0, 64 * bit_words), or null. Owned by the snapshot that returned the
  /// ref and valid as long as its mapping.
  const uint64_t* bits = nullptr;
  uint32_t bit_words = 0;
};

/// A cursor over one encoded posting list that decodes 128-entry blocks into
/// a caller-owned stack buffer on demand. Supports sequential advance and
/// galloping SeekGE via the skip table. Never heap-allocates.
class PostingCursor {
 public:
  /// `bytes` is the raw encoding, `count` the number of postings.
  PostingCursor(std::string_view bytes, uint32_t count) : count_(count) {
    if (count_ == 0) {
      exhausted_ = true;
      return;
    }
    if (count_ <= kPostingBlockSize) {
      num_blocks_ = 1;
      skip_ = nullptr;
      streams_ = bytes.data();
      streams_len_ = bytes.size();
    } else {
      // u32 num_blocks, skip entries, then streams. The block count must be
      // exactly ceil(count / B) and the skip table must fit in the list;
      // anything else is an inconsistent header and reads as no postings.
      const uint64_t blocks =
          (uint64_t{count_} + kPostingBlockSize - 1) / kPostingBlockSize;
      if (bytes.size() < 4 || ReadU32LE(bytes.data()) != blocks ||
          (bytes.size() - 4) / 8 < blocks) {
        exhausted_ = true;
        return;
      }
      num_blocks_ = static_cast<uint32_t>(blocks);
      skip_ = bytes.data() + 4;
      streams_ = skip_ + blocks * 8;
      streams_len_ = bytes.size() - 4 - blocks * 8;
    }
    LoadBlock(0);
  }

  explicit PostingCursor(const PostingListRef& ref)
      : PostingCursor(ref.bytes, ref.count) {}

  bool exhausted() const { return exhausted_; }
  uint32_t value() const { return buf_[pos_]; }

  /// Advances one posting; sets exhausted() at the end.
  void Next() {
    if (++pos_ < block_len_) return;
    if (block_ + 1 < num_blocks_) {
      LoadBlock(block_ + 1);
    } else {
      exhausted_ = true;
    }
  }

  /// Advances to the first posting >= target (galloping over skip entries,
  /// then binary search within the decoded block). Never moves backwards.
  void SeekGE(uint32_t target) {
    if (exhausted_ || buf_[pos_] >= target) return;
    // Beyond the current block? Binary-search the skip table for the last
    // block whose first_docid <= target.
    if (buf_[block_len_ - 1] < target) {
      uint32_t lo = block_ + 1, hi = num_blocks_;  // [lo, hi)
      if (lo >= num_blocks_) {
        exhausted_ = true;
        return;
      }
      while (lo + 1 < hi) {
        const uint32_t mid = lo + (hi - lo) / 2;
        if (BlockFirstId(mid) <= target) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      LoadBlock(lo);
    }
    // Binary search within the decoded block. With consistent skip ids the
    // target lies in this block or starts the next one; skip ids that lie
    // only cost further blocks, each loaded once, never a backwards move.
    while (!exhausted_) {
      const uint32_t* begin = buf_ + pos_;
      const uint32_t* end = buf_ + block_len_;
      const uint32_t* it = std::lower_bound(begin, end, target);
      if (it != end) {
        pos_ = static_cast<uint32_t>(it - buf_);
        return;
      }
      if (block_ + 1 < num_blocks_) {
        LoadBlock(block_ + 1);
      } else {
        exhausted_ = true;
      }
    }
  }

 private:
  uint32_t BlockFirstId(uint32_t b) const {
    if (skip_ == nullptr) return buf_[0];
    return ReadU32LE(skip_ + static_cast<size_t>(b) * 8);
  }

  void LoadBlock(uint32_t b) {
    block_ = b;
    pos_ = 0;
    const size_t lo = static_cast<size_t>(b) * kPostingBlockSize;
    const size_t hi =
        std::min<size_t>(count_, lo + kPostingBlockSize);
    block_len_ = static_cast<uint32_t>(hi - lo);
    const uint8_t* p;
    const uint8_t* end;
    uint32_t prev;
    uint32_t first_decoded;
    if (skip_ == nullptr) {
      p = reinterpret_cast<const uint8_t*>(streams_);
      end = p + streams_len_;
      prev = 0;
      first_decoded = 0;  // All block_len_ entries come from the stream.
    } else {
      const uint64_t byte_off =
          ReadU32LE(skip_ + static_cast<size_t>(b) * 8 + 4);
      const uint64_t byte_end =
          (b + 1 < num_blocks_)
              ? ReadU32LE(skip_ + static_cast<size_t>(b + 1) * 8 + 4)
              : streams_len_;
      if (byte_off > byte_end || byte_end > streams_len_) {
        // Skip offsets outside the stream: the list ends here.
        block_len_ = 0;
        exhausted_ = true;
        return;
      }
      p = reinterpret_cast<const uint8_t*>(streams_) + byte_off;
      end = reinterpret_cast<const uint8_t*>(streams_) + byte_end;
      buf_[0] = BlockFirstId(b);
      prev = buf_[0];
      first_decoded = 1;  // Entry 0 lives in the skip table.
    }
    for (uint32_t i = first_decoded; i < block_len_; ++i) {
      uint64_t delta = 0;
      p = GetVarint(p, end, &delta);
      if (p == nullptr) {
        // Structurally validated at open + CRC-guarded; treat a short block
        // as an empty suffix rather than reading out of bounds.
        block_len_ = i;
        break;
      }
      prev += static_cast<uint32_t>(delta);
      buf_[i] = prev;
    }
    if (block_len_ == 0) exhausted_ = true;
  }

  uint32_t count_;
  uint32_t num_blocks_ = 0;
  const char* skip_ = nullptr;     ///< Skip entries, 8 bytes each; null when
                                   ///< the list is a single implicit block.
  const char* streams_ = nullptr;  ///< Concatenated block varint streams.
  size_t streams_len_ = 0;

  uint32_t buf_[kPostingBlockSize];  ///< Decoded current block (stack-sized).
  uint32_t block_ = 0;
  uint32_t block_len_ = 0;
  uint32_t pos_ = 0;
  bool exhausted_ = false;
};

/// \brief Popcount of a[i] & b[i] summed over `words` words: |A ∩ B| for
/// two hub bitmaps. Out of line so it can use the CPU's popcount
/// instruction where there is one (posting_cursor.cc).
uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t words);

/// \brief |A ∩ B|, exact. Hub ∩ hub is AND + popcount over the shorter
/// bitmap; hub ∩ rare decodes the list without a bitmap once and tests one
/// bit per id; rare ∩ rare is a galloping intersection where the rarer list
/// drives and the denser one is sought via its skip table. The lists may
/// live in different snapshot files provided their column ids share one id
/// space.
inline uint32_t IntersectPostings(PostingListRef a, PostingListRef b) {
  if (a.count == 0 || b.count == 0) return 0;
  if (a.bits != nullptr && b.bits != nullptr) {
    return static_cast<uint32_t>(
        AndPopcount(a.bits, b.bits, std::min(a.bit_words, b.bit_words)));
  }
  if (b.bits != nullptr) std::swap(a, b);
  if (a.bits != nullptr) {
    const uint64_t limit = uint64_t{a.bit_words} * 64;
    uint32_t hits = 0;
    for (PostingCursor cur(b); !cur.exhausted(); cur.Next()) {
      const uint32_t id = cur.value();
      if (id < limit) hits += (a.bits[id >> 6] >> (id & 63)) & 1;
    }
    return hits;
  }
  if (a.count > b.count) std::swap(a, b);
  PostingCursor rare(a);
  PostingCursor dense(b);
  uint32_t hits = 0;
  while (!rare.exhausted() && !dense.exhausted()) {
    const uint32_t target = rare.value();
    dense.SeekGE(target);
    if (dense.exhausted()) break;
    if (dense.value() == target) {
      ++hits;
      dense.Next();
    }
    rare.Next();
  }
  return hits;
}

/// \brief Fully materializes one posting list (compaction / verification —
/// not a hot path).
inline std::vector<uint32_t> DecodePostingList(const PostingListRef& ref) {
  std::vector<uint32_t> out;
  out.reserve(ref.count);
  for (PostingCursor cur(ref); !cur.exhausted(); cur.Next()) {
    out.push_back(cur.value());
  }
  return out;
}

}  // namespace store
}  // namespace tegra

#endif  // TEGRA_STORE_POSTING_CURSOR_H_
