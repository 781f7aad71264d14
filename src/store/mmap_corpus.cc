#include "store/mmap_corpus.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/hash.h"
#include "common/varint.h"
#include "store/crc32c.h"
#include "store/posting_cursor.h"

namespace tegra {
namespace store {

namespace {

Status Corrupt(const std::string& path, const char* what) {
  return Status::Corruption(std::string(what) + " in: " + path);
}

/// A value is a hub when |C(s)| >= ceil(N / kHubDivisor): its N-bit bitmap
/// then costs at most 16 bytes per posting.
constexpr uint64_t kHubDivisor = 128;

}  // namespace

/// Hub directory: every hub's id, ascending, and one bitmap slot per hub
/// (null until that hub's first intersection).
struct MmapCorpus::HubTier {
  std::vector<uint32_t> ids;
  std::unique_ptr<std::atomic<uint64_t*>[]> bits;

  ~HubTier() {
    for (size_t i = 0; i < ids.size(); ++i) delete[] bits[i].load();
  }
};

Result<std::unique_ptr<MmapCorpus>> MmapCorpus::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open snapshot: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fstat failed: " + path + ": " +
                           std::strerror(err));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes + kSectionCount * kSectionEntryBytes) {
    ::close(fd);
    return Corrupt(path, "snapshot smaller than header + section table");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (map == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path + ": " +
                           std::strerror(errno));
  }

  std::unique_ptr<MmapCorpus> corpus(new MmapCorpus());
  corpus->path_ = path;
  corpus->data_ = static_cast<const char*>(map);
  corpus->map_size_ = size;
  const char* d = corpus->data_;

  // ---- Header ----
  if (std::memcmp(d, kMagicV2, sizeof(kMagicV2)) != 0) {
    return Corrupt(path, "bad magic");
  }
  SnapshotHeader& h = corpus->header_;
  h.version = ReadU32LE(d + 8);
  h.section_count = ReadU32LE(d + 12);
  h.total_columns = ReadU64LE(d + 16);
  h.num_values = ReadU64LE(d + 24);
  h.dict_block_size = ReadU32LE(d + 32);
  h.posting_block_size = ReadU32LE(d + 36);
  h.file_bytes = ReadU64LE(d + 40);
  h.header_crc = ReadU32LE(d + kHeaderBytes - 4);
  if (h.version != kFormatVersion) {
    return Corrupt(path, "unsupported snapshot version");
  }
  if (h.section_count != kSectionCount) {
    return Corrupt(path, "unexpected section count");
  }
  if (h.file_bytes != size) {
    return Corrupt(path, "file size mismatch (truncated or padded snapshot)");
  }
  if (h.dict_block_size != kDictBlockSize ||
      h.posting_block_size != kPostingBlockSize) {
    return Corrupt(path, "unsupported block geometry");
  }
  if (h.total_columns > 0xffffffffULL || h.num_values > 0xffffffffULL) {
    return Corrupt(path, "implausible corpus cardinality");
  }
  corpus->hub_threshold_ =
      h.total_columns == 0
          ? UINT32_MAX
          : static_cast<uint32_t>((h.total_columns + kHubDivisor - 1) /
                                  kHubDivisor);
  corpus->hub_words_ = static_cast<uint32_t>((h.total_columns + 63) / 64);

  // Header CRC covers header[0:60) + the section table: any flipped bit in
  // either is caught before offsets are trusted.
  const char* table = d + kHeaderBytes;
  const size_t table_len = kSectionCount * kSectionEntryBytes;
  uint32_t crc = Crc32cExtend(0, d, kHeaderBytes - 4);
  crc = Crc32cExtend(crc, table, table_len);
  if (MaskCrc(crc) != h.header_crc) {
    return Corrupt(path, "header checksum mismatch");
  }

  // ---- Section table ----
  uint64_t min_offset = kHeaderBytes + table_len;
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const char* e = table + i * kSectionEntryBytes;
    SectionEntry& s = corpus->sections_[i];
    s.kind = ReadU32LE(e);
    s.offset = ReadU64LE(e + 8);
    s.length = ReadU64LE(e + 16);
    s.crc = ReadU32LE(e + 24);
    if (s.kind != i + 1) return Corrupt(path, "section kinds out of order");
    if (s.offset % 8 != 0) return Corrupt(path, "misaligned section");
    if (s.offset < min_offset || s.offset > size ||
        s.length > size - s.offset) {
      return Corrupt(path, "section out of bounds");
    }
    min_offset = s.offset + s.length;
  }

  // ---- Structural validation of each section ----
  const uint64_t nv = h.num_values;
  const uint64_t num_dict_blocks = (nv + kDictBlockSize - 1) / kDictBlockSize;
  const SectionEntry& s_doff = corpus->sections_[kDictOffsets - 1];
  const SectionEntry& s_dblob = corpus->sections_[kDictBlob - 1];
  const SectionEntry& s_hash = corpus->sections_[kHash - 1];
  const SectionEntry& s_poff = corpus->sections_[kPostingOffsets - 1];
  const SectionEntry& s_pcnt = corpus->sections_[kPostingCounts - 1];
  const SectionEntry& s_pblob = corpus->sections_[kPostingBlob - 1];

  if (s_doff.length != num_dict_blocks * 4) {
    return Corrupt(path, "dict_offsets length mismatch");
  }
  if (s_poff.length != (nv + 1) * 8) {
    return Corrupt(path, "posting_offsets length mismatch");
  }
  if (s_pcnt.length != nv * 4) {
    return Corrupt(path, "posting_counts length mismatch");
  }
  if (s_hash.length < 8) return Corrupt(path, "hash section too small");
  const uint64_t slot_count = ReadU64LE(d + s_hash.offset);
  if (slot_count == 0 || (slot_count & (slot_count - 1)) != 0 ||
      s_hash.length != 8 + slot_count * 8) {
    return Corrupt(path, "hash slot table malformed");
  }

  corpus->dict_offsets_ = d + s_doff.offset;
  corpus->dict_blob_ = d + s_dblob.offset;
  corpus->dict_blob_len_ = s_dblob.length;
  corpus->hash_slots_ = d + s_hash.offset + 8;
  corpus->hash_slot_count_ = slot_count;
  corpus->post_offsets_ = d + s_poff.offset;
  corpus->post_counts_ = d + s_pcnt.offset;
  corpus->post_blob_ = d + s_pblob.offset;
  corpus->post_blob_len_ = s_pblob.length;

  // Offset arrays must be monotone and end exactly at their blob lengths.
  // Linear scans over a few MB of u64s — microseconds, not milliseconds.
  uint64_t prev = 0;
  for (uint64_t i = 0; i <= nv; ++i) {
    const uint64_t off = ReadU64LE(corpus->post_offsets_ + i * 8);
    if (off < prev || off > s_pblob.length) {
      return Corrupt(path, "posting offsets not monotone");
    }
    prev = off;
  }
  if (prev != s_pblob.length) {
    return Corrupt(path, "posting blob length mismatch");
  }
  prev = 0;
  for (uint64_t b = 0; b < num_dict_blocks; ++b) {
    const uint64_t off = ReadU32LE(corpus->dict_offsets_ + b * 4);
    if (off < prev || off >= std::max<uint64_t>(1, s_dblob.length)) {
      return Corrupt(path, "dict offsets not monotone");
    }
    prev = off;
  }

  return corpus;
}

MmapCorpus::~MmapCorpus() {
  delete hubs_.load();
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), map_size_);
  }
}

const SectionEntry& MmapCorpus::section(uint32_t kind) const {
  return sections_[kind - 1];
}

std::string_view MmapCorpus::PostingBytes(ValueId id) const {
  const uint64_t lo = ReadU64LE(post_offsets_ + static_cast<uint64_t>(id) * 8);
  const uint64_t hi =
      ReadU64LE(post_offsets_ + (static_cast<uint64_t>(id) + 1) * 8);
  return std::string_view(post_blob_ + lo, hi - lo);
}

bool MmapCorpus::DecodeValue(ValueId id, std::string* out) const {
  if (id >= header_.num_values) return false;
  const uint64_t block = id / kDictBlockSize;
  const uint32_t within = id % kDictBlockSize;
  const uint64_t start = ReadU32LE(dict_offsets_ + block * 4);
  const uint8_t* p =
      reinterpret_cast<const uint8_t*>(dict_blob_) + start;
  const uint8_t* end =
      reinterpret_cast<const uint8_t*>(dict_blob_) + dict_blob_len_;
  // Block-leading entry: full string.
  uint64_t len = 0;
  p = GetVarint(p, end, &len);
  if (p == nullptr || len > static_cast<uint64_t>(end - p)) return false;
  out->assign(reinterpret_cast<const char*>(p), len);
  p += len;
  // Apply front-coded deltas up to the requested entry.
  for (uint32_t i = 1; i <= within; ++i) {
    uint64_t shared = 0, suffix = 0;
    p = GetVarint(p, end, &shared);
    if (p == nullptr) return false;
    p = GetVarint(p, end, &suffix);
    if (p == nullptr || shared > out->size() ||
        suffix > static_cast<uint64_t>(end - p)) {
      return false;
    }
    out->resize(shared);
    out->append(reinterpret_cast<const char*>(p), suffix);
    p += suffix;
  }
  return true;
}

ValueId MmapCorpus::Lookup(std::string_view value) const {
  if (header_.num_values == 0) return kInvalidValueId;
  const std::string norm = NormalizeValue(value);
  const uint64_t h = Fnv1a64(norm);
  const uint64_t fp = h >> 32;
  const uint64_t mask = hash_slot_count_ - 1;
  std::string candidate;
  uint64_t idx = h & mask;
  // Probe count is bounded by the table size so a corrupted (full) slot
  // table cannot spin forever; the writer keeps the table at most half full.
  for (uint64_t probes = 0; probes < hash_slot_count_;
       ++probes, idx = (idx + 1) & mask) {
    const uint64_t slot = ReadU64LE(hash_slots_ + idx * 8);
    if (slot == 0) return kInvalidValueId;  // Empty slot ends the probe run.
    if ((slot >> 32) != fp) continue;
    const ValueId id = static_cast<ValueId>((slot & 0xffffffffULL) - 1);
    // 32-bit fingerprints collide; confirm against the dictionary.
    if (DecodeValue(id, &candidate) && candidate == norm) return id;
  }
  return kInvalidValueId;
}

uint32_t MmapCorpus::ColumnCount(ValueId id) const {
  if (id >= header_.num_values) return 0;
  return ReadU32LE(post_counts_ + static_cast<uint64_t>(id) * 4);
}

uint32_t MmapCorpus::CoOccurrenceCount(ValueId a, ValueId b) const {
  if (a >= header_.num_values || b >= header_.num_values) return 0;
  if (a == b) return ColumnCount(a);
  return IntersectPostings(IntersectOperand(a), IntersectOperand(b));
}

PostingListRef MmapCorpus::Postings(ValueId id) const {
  if (id >= header_.num_values) return PostingListRef{};
  return PostingListRef{PostingBytes(id), ColumnCount(id)};
}

PostingListRef MmapCorpus::IntersectOperand(ValueId id) const {
  PostingListRef ref = Postings(id);
  if (ref.count >= hub_threshold_) {
    ref.bits = HubBits(id, ref);
    if (ref.bits != nullptr) ref.bit_words = hub_words_;
  }
  return ref;
}

const MmapCorpus::HubTier& MmapCorpus::Hubs() const {
  if (const HubTier* tier = hubs_.load(std::memory_order_acquire)) {
    return *tier;
  }
  const auto is_hub = [this](uint64_t id) {
    return ColumnCount(static_cast<ValueId>(id)) >= hub_threshold_;
  };
  size_t hubs = 0;
  for (uint64_t id = 0; id < header_.num_values; ++id) hubs += is_hub(id);
  auto fresh = std::make_unique<HubTier>();
  fresh->ids.reserve(hubs);
  for (uint64_t id = 0; id < header_.num_values; ++id) {
    if (is_hub(id)) fresh->ids.push_back(static_cast<uint32_t>(id));
  }
  fresh->bits.reset(new std::atomic<uint64_t*>[fresh->ids.size()]());
  HubTier* expected = nullptr;
  if (hubs_.compare_exchange_strong(expected, fresh.get(),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *expected;  // Another reader published first; ours is freed.
}

const uint64_t* MmapCorpus::HubBits(ValueId id,
                                    const PostingListRef& ref) const {
  // Every posting takes at least one byte of its encoding, so a list whose
  // count outruns its bytes is corrupt. Refusing it bounds the tier by the
  // file size; the galloping path then reads the list as far as it goes.
  if (ref.bytes.size() < ref.count) return nullptr;
  const HubTier& tier = Hubs();
  const auto slot = std::lower_bound(tier.ids.begin(), tier.ids.end(), id);
  if (slot == tier.ids.end() || *slot != id) return nullptr;
  std::atomic<uint64_t*>& cell = tier.bits[slot - tier.ids.begin()];
  if (const uint64_t* built = cell.load(std::memory_order_acquire)) {
    return built;
  }
  std::unique_ptr<uint64_t[]> fresh(new uint64_t[hub_words_]());
  for (PostingCursor cur(ref); !cur.exhausted(); cur.Next()) {
    const uint32_t column = cur.value();
    if (column < header_.total_columns) {
      fresh[column >> 6] |= uint64_t{1} << (column & 63);
    }
  }
  uint64_t* expected = nullptr;
  if (cell.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    hub_bitmaps_built_.fetch_add(1, std::memory_order_relaxed);
    return fresh.release();
  }
  return expected;  // Another reader published first; ours is freed.
}

size_t MmapCorpus::HeapBytes() const {
  size_t bytes = sizeof(*this);
  if (const HubTier* tier = hubs_.load(std::memory_order_acquire)) {
    bytes += sizeof(HubTier) +
             tier->ids.capacity() * sizeof(uint32_t) +
             tier->ids.size() * sizeof(std::atomic<uint64_t*>);
  }
  return bytes + size_t{hub_bitmaps_built_.load(std::memory_order_relaxed)} *
                     hub_words_ * sizeof(uint64_t);
}

std::string MmapCorpus::ValueString(ValueId id) const {
  std::string out;
  if (!DecodeValue(id, &out)) return std::string();
  return out;
}

Status MmapCorpus::Verify() const {
  // 1. Section payload CRCs.
  for (const SectionEntry& s : sections_) {
    const uint32_t crc = Crc32c(data_ + s.offset, s.length);
    if (MaskCrc(crc) != s.crc) {
      return Status::Corruption(std::string("section '") +
                                SectionName(s.kind) +
                                "' checksum mismatch in: " + path_);
    }
  }
  // 1b. Alignment padding (between section payloads and after the last one)
  //     is written as zero bytes and covered by no checksum — require it to
  //     still be zero so *every* byte of the file is integrity-checked.
  uint64_t covered = kHeaderBytes + kSectionCount * kSectionEntryBytes;
  for (const SectionEntry& s : sections_) {
    for (uint64_t i = covered; i < s.offset; ++i) {
      if (data_[i] != '\0') {
        return Corrupt(path_, "nonzero alignment padding");
      }
    }
    covered = s.offset + s.length;
  }
  for (uint64_t i = covered; i < header_.file_bytes; ++i) {
    if (data_[i] != '\0') {
      return Corrupt(path_, "nonzero alignment padding");
    }
  }
  // 2. Deep decode: every dictionary entry materializes and is sorted;
  //    every posting list decodes to exactly `count` strictly increasing
  //    in-range column ids.
  std::string prev_value, value;
  for (uint64_t id = 0; id < header_.num_values; ++id) {
    if (!DecodeValue(static_cast<ValueId>(id), &value)) {
      return Corrupt(path_, "undecodable dictionary entry");
    }
    if (id > 0 && !(prev_value < value)) {
      return Corrupt(path_, "dictionary not strictly sorted");
    }
    prev_value.swap(value);

    const uint32_t count = ColumnCount(static_cast<ValueId>(id));
    PostingCursor cur(PostingBytes(static_cast<ValueId>(id)), count);
    uint64_t seen = 0;
    uint64_t prev_id = 0;
    bool first = true;
    while (!cur.exhausted()) {
      const uint32_t v = cur.value();
      if (!first && v <= prev_id) {
        return Corrupt(path_, "postings not strictly increasing");
      }
      if (v >= header_.total_columns) {
        return Corrupt(path_, "posting column id out of range");
      }
      prev_id = v;
      first = false;
      ++seen;
      cur.Next();
    }
    if (seen != count) {
      return Corrupt(path_, "posting count mismatch");
    }
    // 3. The hash table must route every value back to its own id
    //    (normalization is idempotent on already-normalized strings).
    if (Lookup(prev_value) != static_cast<ValueId>(id)) {
      return Corrupt(path_, "hash table does not resolve value");
    }
  }
  return Status::OK();
}

}  // namespace store
}  // namespace tegra
