// TGRAIDX2 on-disk layout: the immutable, versioned, mmap-friendly corpus
// snapshot format. See docs/STORAGE.md for the full design narrative.
//
//   +--------------------------+ 0
//   | header (64 bytes)        |  magic, version, counts, block sizes,
//   |                          |  section_count, file_bytes, header CRC
//   +--------------------------+ 64
//   | section table            |  kSectionCount x 32-byte entries
//   +--------------------------+ (8-aligned)
//   | section payloads ...     |  each 8-aligned, each with its own CRC32C
//   +--------------------------+
//
// Sections (in file order):
//   kDictOffsets     u32 per dictionary block: byte offset into kDictBlob.
//   kDictBlob        front-coded string blocks of kDictBlockSize values.
//   kHash            u64 slot_count (power of two), then slot_count u64
//                    slots of (fingerprint << 32) | (value_id + 1); 0 empty.
//   kPostingOffsets  u64 x (num_values + 1): byte offsets into kPostingBlob.
//   kPostingCounts   u32 per value: |C(s)| — O(1) ColumnCount without
//                    touching postings bytes.
//   kPostingBlob     per-value posting encodings (see below).
//
// Posting encoding for value v, in kPostingBlob[off[v], off[v+1}):
//   count <= kPostingBlockSize:
//     plain delta varints; prev starts at 0 (first delta IS the first id).
//   count  > kPostingBlockSize:
//     u32 num_blocks, then num_blocks x {u32 first_docid, u32 byte_offset}
//     skip entries (byte_offset relative to the end of the skip table),
//     then the block streams. Block j holds entries [j*B, min((j+1)*B, n));
//     its first docid lives ONLY in the skip entry, the stream encodes the
//     remaining entries as deltas from their predecessor. A galloping
//     intersection therefore seeks by binary search over skip entries and
//     decodes at most the touched blocks into a stack buffer.
//
// Values are interned in lexicographic order of their normalized strings, so
// the dictionary front-codes well and ids are deterministic for a given
// corpus regardless of ingestion order. All integers are little-endian.

#ifndef TEGRA_STORE_FORMAT_H_
#define TEGRA_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tegra {
namespace store {

inline constexpr char kMagicV2[8] = {'T', 'G', 'R', 'A', 'I', 'D', 'X', '2'};
inline constexpr uint32_t kFormatVersion = 2;

/// Fixed sizes; readers validate these before trusting any offset.
inline constexpr size_t kHeaderBytes = 64;
inline constexpr size_t kSectionEntryBytes = 32;

/// Values per front-coded dictionary block.
inline constexpr uint32_t kDictBlockSize = 16;
/// Postings per skip block. Also the size of the stack decode buffer.
inline constexpr uint32_t kPostingBlockSize = 128;

/// Section identifiers. File order and table order coincide.
enum SectionKind : uint32_t {
  kDictOffsets = 1,
  kDictBlob = 2,
  kHash = 3,
  kPostingOffsets = 4,
  kPostingCounts = 5,
  kPostingBlob = 6,
};
inline constexpr uint32_t kSectionCount = 6;

inline const char* SectionName(uint32_t kind) {
  switch (kind) {
    case kDictOffsets: return "dict_offsets";
    case kDictBlob: return "dict_blob";
    case kHash: return "hash";
    case kPostingOffsets: return "posting_offsets";
    case kPostingCounts: return "posting_counts";
    case kPostingBlob: return "posting_blob";
    default: return "unknown";
  }
}

/// Decoded header fields (the on-disk encoding is hand-packed; this struct
/// is never memcpy'd to disk, so padding is irrelevant).
struct SnapshotHeader {
  uint32_t version = kFormatVersion;
  uint32_t section_count = kSectionCount;
  uint64_t total_columns = 0;
  uint64_t num_values = 0;
  uint32_t dict_block_size = kDictBlockSize;
  uint32_t posting_block_size = kPostingBlockSize;
  uint64_t file_bytes = 0;
  uint32_t header_crc = 0;  ///< Masked CRC32C of header[0:60) + section table.
};

/// One decoded section-table entry.
struct SectionEntry {
  uint32_t kind = 0;
  uint64_t offset = 0;  ///< Absolute file offset; 8-aligned.
  uint64_t length = 0;  ///< Payload bytes.
  uint32_t crc = 0;     ///< Masked CRC32C of the payload.
};

/// Unaligned little-endian loads — snapshot bytes are only guaranteed
/// 8-aligned at section starts, so interior reads go through memcpy (which
/// compiles to a single mov on every target we care about).
inline uint32_t ReadU32LE(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t ReadU64LE(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace store
}  // namespace tegra

#endif  // TEGRA_STORE_FORMAT_H_
