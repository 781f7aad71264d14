// Varint encoding plus bounds-checked decoding helpers, used by the TGRAIDX2
// snapshot format, the sharded manifest and the shard builder's spill runs.
//
// Every decode path takes an explicit end pointer and reports truncation or
// over-long encodings via its return value; corrupted input can never run a
// reader off the end of a buffer or into undefined behavior. The pointer
// variants are branch-light enough for the snapshot hot path (posting-block
// decodes inside a galloping intersection).

#ifndef TEGRA_COMMON_VARINT_H_
#define TEGRA_COMMON_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tegra {

/// \brief Appends the LEB128 varint encoding of `v` to `*out`.
inline void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// \brief Decodes one varint from [p, end). Returns the first byte after the
/// encoding, or nullptr on truncation / an encoding longer than 10 bytes.
inline const uint8_t* GetVarint(const uint8_t* p, const uint8_t* end,
                                uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (p < end && shift <= 63) {
    const uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return p;
    }
    shift += 7;
  }
  return nullptr;  // Truncated, or the continuation bits never terminated.
}

/// \brief 32-bit variant: additionally rejects values that do not fit in
/// uint32_t (an out-of-range delta is corruption, not silent wraparound).
inline const uint8_t* GetVarint32(const uint8_t* p, const uint8_t* end,
                                  uint32_t* out) {
  uint64_t wide = 0;
  const uint8_t* next = GetVarint(p, end, &wide);
  if (next == nullptr || wide > 0xffffffffULL) return nullptr;
  *out = static_cast<uint32_t>(wide);
  return next;
}

/// \brief A bounds-checked sequential reader over an immutable byte buffer.
///
/// All Read* methods return false (leaving the cursor untouched on varint
/// overflow, advanced past consumed bytes otherwise) instead of reading out
/// of bounds, so loaders can translate any failure into Status::Corruption.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size)
      : begin_(reinterpret_cast<const uint8_t*>(data)),
        pos_(begin_),
        end_(begin_ + size) {}
  explicit ByteReader(std::string_view data)
      : ByteReader(data.data(), data.size()) {}

  size_t position() const { return static_cast<size_t>(pos_ - begin_); }
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }
  bool exhausted() const { return pos_ == end_; }

  bool ReadVarint(uint64_t* out) {
    const uint8_t* next = GetVarint(pos_, end_, out);
    if (next == nullptr) return false;
    pos_ = next;
    return true;
  }

  /// Reads a varint that must fit in 32 bits and be <= `max`.
  bool ReadBoundedVarint32(uint32_t* out, uint64_t max) {
    uint64_t wide = 0;
    if (!ReadVarint(&wide) || wide > max || wide > 0xffffffffULL) return false;
    *out = static_cast<uint32_t>(wide);
    return true;
  }

  /// Zero-copy view of the next `n` bytes.
  bool ReadBytes(size_t n, std::string_view* out) {
    if (n > remaining()) return false;
    *out = std::string_view(reinterpret_cast<const char*>(pos_), n);
    pos_ += n;
    return true;
  }

  bool Skip(size_t n) {
    if (n > remaining()) return false;
    pos_ += n;
    return true;
  }

  bool ReadFixed32(uint32_t* out) {
    if (remaining() < 4) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(pos_[i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return true;
  }

  bool ReadFixed64(uint64_t* out) {
    if (remaining() < 8) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(pos_[i]) << (8 * i);
    pos_ += 8;
    *out = v;
    return true;
  }

 private:
  const uint8_t* begin_;
  const uint8_t* pos_;
  const uint8_t* end_;
};

/// \brief Appends a little-endian fixed-width u32 to `*out`.
inline void PutFixed32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// \brief Appends a little-endian fixed-width u64 to `*out`.
inline void PutFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

}  // namespace tegra

#endif  // TEGRA_COMMON_VARINT_H_
