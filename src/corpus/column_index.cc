#include "corpus/column_index.h"

#include <algorithm>
#include <cassert>
#include <cctype>

namespace tegra {

std::string NormalizeValue(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool pending_space = false;
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (std::isspace(c)) {
      if (!out.empty()) pending_space = true;
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(static_cast<char>(std::tolower(c)));
  }
  return out;
}

ValueId ColumnIndex::InternValue(std::string normalized) {
  auto [it, inserted] =
      value_ids_.emplace(std::move(normalized), static_cast<ValueId>(0));
  if (inserted) {
    it->second = static_cast<ValueId>(values_.size());
    values_.push_back(it->first);
    postings_.emplace_back();
  }
  return it->second;
}

uint32_t ColumnIndex::AddColumn(const std::vector<std::string>& values) {
  assert(!finalized_);
  const uint32_t col_id = next_column_id_++;
  // De-duplicate within the column: |C(s)| counts columns, not occurrences
  // (column ids are assigned monotonically).
  for (const auto& raw : values) {
    std::string norm = NormalizeValue(raw);
    if (norm.empty()) continue;
    ValueId id = InternValue(std::move(norm));
    auto& plist = postings_[id];
    if (plist.empty() || plist.back() != col_id) {
      plist.push_back(col_id);
    }
  }
  return col_id;
}

void ColumnIndex::AddTable(const Table& table) {
  for (size_t c = 0; c < table.NumCols(); ++c) {
    AddColumn(table.Column(c));
  }
}

void ColumnIndex::Finalize() {
  // Postings are appended in increasing column-id order, so each list is
  // already sorted and unique; shrink to fit to release slack.
  for (auto& plist : postings_) {
    assert(std::is_sorted(plist.begin(), plist.end()));
    plist.shrink_to_fit();
  }
  finalized_ = true;
}

ValueId ColumnIndex::Lookup(std::string_view value) const {
  std::string norm = NormalizeValue(value);
  auto it = value_ids_.find(norm);
  return it == value_ids_.end() ? kInvalidValueId : it->second;
}

namespace {

/// Galloping (exponential) search: first index in [lo, v.size()) with
/// v[idx] >= target.
size_t GallopLowerBound(const std::vector<uint32_t>& v, size_t lo,
                        uint32_t target) {
  size_t hi = lo + 1;
  const size_t n = v.size();
  while (hi < n && v[hi] < target) {
    size_t step = (hi - lo) * 2;
    lo = hi;
    hi = lo + step;
  }
  hi = std::min(hi, n);
  return static_cast<size_t>(
      std::lower_bound(v.begin() + lo, v.begin() + hi, target) - v.begin());
}

}  // namespace

uint32_t ColumnIndex::CoOccurrenceCount(ValueId a, ValueId b) const {
  assert(finalized_);
  const std::vector<uint32_t>* small = &postings_[a];
  const std::vector<uint32_t>* large = &postings_[b];
  if (small->size() > large->size()) std::swap(small, large);
  if (small->empty() || large->empty()) return 0;

  uint32_t count = 0;
  size_t j = 0;
  for (uint32_t col : *small) {
    j = GallopLowerBound(*large, j, col);
    if (j == large->size()) break;
    if ((*large)[j] == col) {
      ++count;
      ++j;
    }
  }
  return count;
}

size_t ColumnIndex::MemoryUsageBytes() const {
  size_t bytes = 0;
  for (const auto& v : values_) bytes += v.capacity() + sizeof(v);
  for (const auto& p : postings_) {
    bytes += p.capacity() * sizeof(uint32_t) + sizeof(p);
  }
  bytes += value_ids_.size() * (sizeof(std::string) + 16);
  return bytes;
}

}  // namespace tegra
