#include "store/snapshot_writer.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/varint.h"
#include "store/crc32c.h"
#include "store/format.h"

namespace tegra {
namespace store {

namespace {

void PadTo8(std::string* buf) {
  while (buf->size() % 8 != 0) buf->push_back('\0');
}

/// Length of the longest common prefix of a and b.
size_t SharedPrefix(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Builds the front-coded dictionary sections. `values` must be sorted.
void BuildDictionary(const std::vector<std::string>& values,
                     std::string* offsets_out, std::string* blob_out) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i % kDictBlockSize == 0) {
      PutFixed32(offsets_out, static_cast<uint32_t>(blob_out->size()));
      // Block-leading entry: full string.
      PutVarint(blob_out, values[i].size());
      blob_out->append(values[i]);
    } else {
      const size_t shared = SharedPrefix(values[i - 1], values[i]);
      PutVarint(blob_out, shared);
      PutVarint(blob_out, values[i].size() - shared);
      blob_out->append(values[i], shared, values[i].size() - shared);
    }
  }
}

/// Builds the open-address hash section: u64 slot_count then slots.
void BuildHash(const std::vector<std::string>& values, std::string* out) {
  uint64_t slot_count = 8;
  while (slot_count < 2 * std::max<uint64_t>(1, values.size())) {
    slot_count <<= 1;
  }
  std::vector<uint64_t> slots(slot_count, 0);
  const uint64_t mask = slot_count - 1;
  for (size_t id = 0; id < values.size(); ++id) {
    const uint64_t h = Fnv1a64(values[id]);
    const uint64_t fp = h >> 32;
    uint64_t idx = h & mask;
    while (slots[idx] != 0) idx = (idx + 1) & mask;
    slots[idx] = (fp << 32) | (static_cast<uint64_t>(id) + 1);
  }
  PutFixed64(out, slot_count);
  for (uint64_t s : slots) PutFixed64(out, s);
}

/// Encodes one posting list (sorted, strictly increasing column ids).
void EncodePostings(const std::vector<uint32_t>& plist, std::string* out) {
  const size_t n = plist.size();
  if (n <= kPostingBlockSize) {
    uint32_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      PutVarint(out, plist[i] - prev);
      prev = plist[i];
    }
    return;
  }
  const uint32_t num_blocks =
      static_cast<uint32_t>((n + kPostingBlockSize - 1) / kPostingBlockSize);
  // Encode all block streams first so the skip table can carry byte offsets.
  std::vector<std::string> streams(num_blocks);
  std::vector<uint32_t> first_ids(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    const size_t lo = static_cast<size_t>(b) * kPostingBlockSize;
    const size_t hi = std::min(n, lo + kPostingBlockSize);
    first_ids[b] = plist[lo];
    uint32_t prev = plist[lo];
    for (size_t i = lo + 1; i < hi; ++i) {
      PutVarint(&streams[b], plist[i] - prev);
      prev = plist[i];
    }
  }
  PutFixed32(out, num_blocks);
  uint32_t byte_off = 0;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    PutFixed32(out, first_ids[b]);
    PutFixed32(out, byte_off);
    byte_off += static_cast<uint32_t>(streams[b].size());
  }
  for (uint32_t b = 0; b < num_blocks; ++b) out->append(streams[b]);
}

/// Encodes a corpus whose values are already in snapshot order (strictly
/// increasing); `postings(rank)` is the sorted column-id list of
/// `sorted[rank]`.
template <typename PostingsAt>
std::string EncodeInOrder(uint64_t total_columns,
                          const std::vector<std::string>& sorted,
                          const PostingsAt& postings) {
  const size_t num_values = sorted.size();

  // Section payloads.
  std::string dict_offsets, dict_blob, hash, post_offsets, post_counts,
      post_blob;
  BuildDictionary(sorted, &dict_offsets, &dict_blob);
  BuildHash(sorted, &hash);
  for (size_t rank = 0; rank < num_values; ++rank) {
    const std::vector<uint32_t>& plist = postings(rank);
    PutFixed64(&post_offsets, post_blob.size());
    PutFixed32(&post_counts, static_cast<uint32_t>(plist.size()));
    EncodePostings(plist, &post_blob);
  }
  PutFixed64(&post_offsets, post_blob.size());  // Sentinel end offset.

  // Assemble: header placeholder, section table placeholder, payloads.
  struct Payload {
    uint32_t kind;
    const std::string* bytes;
  };
  const Payload payloads[kSectionCount] = {
      {kDictOffsets, &dict_offsets}, {kDictBlob, &dict_blob},
      {kHash, &hash},                {kPostingOffsets, &post_offsets},
      {kPostingCounts, &post_counts}, {kPostingBlob, &post_blob},
  };

  std::string file(kHeaderBytes, '\0');
  const size_t table_pos = file.size();
  file.resize(table_pos + kSectionCount * kSectionEntryBytes, '\0');
  PadTo8(&file);

  SectionEntry entries[kSectionCount];
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    PadTo8(&file);
    entries[i].kind = payloads[i].kind;
    entries[i].offset = file.size();
    entries[i].length = payloads[i].bytes->size();
    entries[i].crc = MaskCrc(Crc32c(*payloads[i].bytes));
    file.append(*payloads[i].bytes);
  }
  PadTo8(&file);

  // Section table.
  std::string table;
  table.reserve(kSectionCount * kSectionEntryBytes);
  for (const SectionEntry& e : entries) {
    PutFixed32(&table, e.kind);
    PutFixed32(&table, 0);  // reserved
    PutFixed64(&table, e.offset);
    PutFixed64(&table, e.length);
    PutFixed32(&table, e.crc);
    PutFixed32(&table, 0);  // reserved
  }
  file.replace(table_pos, table.size(), table);

  // Header. Bytes [0, 60) are covered by the CRC together with the table.
  std::string header;
  header.reserve(kHeaderBytes);
  header.append(kMagicV2, sizeof(kMagicV2));
  PutFixed32(&header, kFormatVersion);
  PutFixed32(&header, kSectionCount);
  PutFixed64(&header, total_columns);
  PutFixed64(&header, static_cast<uint64_t>(num_values));
  PutFixed32(&header, kDictBlockSize);
  PutFixed32(&header, kPostingBlockSize);
  PutFixed64(&header, file.size());
  while (header.size() < kHeaderBytes - 4) header.push_back('\0');
  uint32_t crc = Crc32cExtend(0, header.data(), header.size());
  crc = Crc32cExtend(crc, table.data(), table.size());
  PutFixed32(&header, MaskCrc(crc));
  file.replace(0, kHeaderBytes, header);

  return file;
}

}  // namespace

Result<std::string> EncodeSnapshot(const ColumnIndex& index) {
  if (!index.finalized()) {
    return Status::InvalidArgument(
        "snapshot source index must be finalized");
  }
  const size_t num_values = index.NumValues();

  // Re-intern in lexicographic order: order[rank] = heap id.
  std::vector<uint32_t> order(num_values);
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::string> strings(num_values);
  for (size_t id = 0; id < num_values; ++id) {
    strings[id] = index.ValueString(static_cast<ValueId>(id));
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return strings[a] < strings[b];
  });
  std::vector<std::string> sorted(num_values);
  for (size_t rank = 0; rank < num_values; ++rank) {
    sorted[rank] = strings[order[rank]];
  }
  auto postings = [&](size_t rank) -> const std::vector<uint32_t>& {
    return index.Postings(order[rank]);
  };
  return EncodeInOrder(index.TotalColumns(), sorted, postings);
}

Result<std::string> EncodeSortedSnapshot(
    uint64_t total_columns, const std::vector<std::string>& values,
    const std::vector<std::vector<uint32_t>>& postings) {
  if (values.size() != postings.size()) {
    return Status::InvalidArgument("snapshot values/postings size mismatch");
  }
  for (size_t i = 1; i < values.size(); ++i) {
    if (!(values[i - 1] < values[i])) {
      return Status::InvalidArgument(
          "snapshot values must be strictly increasing");
    }
  }
  auto postings_at = [&](size_t rank) -> const std::vector<uint32_t>& {
    return postings[rank];
  };
  return EncodeInOrder(total_columns, values, postings_at);
}

Status WriteSnapshot(const ColumnIndex& index, const std::string& path) {
  Result<std::string> encoded = EncodeSnapshot(index);
  if (!encoded.ok()) return encoded.status();
  return AtomicWriteFile(path, encoded.value());
}

}  // namespace store
}  // namespace tegra
