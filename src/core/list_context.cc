#include "core/list_context.h"

#include <cassert>

#include "common/string_util.h"

namespace tegra {

ListContext::ListContext(std::vector<std::vector<std::string>> token_lines,
                         const CorpusView* index)
    : lines_(std::move(token_lines)), catalog_(index) {
  registered_width_.resize(lines_.size(), 0);
  cell_ids_.resize(lines_.size());
  fixed_bounds_.resize(lines_.size());
  for (size_t j = 0; j < lines_.size(); ++j) {
    max_line_length_ = std::max(max_line_length_, line_length(j));
  }
}

void ListContext::EnsureWidth(size_t line, uint32_t width) {
  const uint32_t len = line_length(line);
  width = std::min(width, len);
  if (width <= registered_width_[line]) return;

  const uint32_t old_width = registered_width_[line];
  const std::vector<uint32_t>& old_ids = cell_ids_[line];
  std::vector<uint32_t> ids(size_t{len} * width);
  for (uint32_t start = 0; start < len; ++start) {
    const uint32_t max_w = std::min(width, len - start);
    for (uint32_t w = 1; w <= max_w; ++w) {
      uint32_t& id = ids[size_t{start} * width + w - 1];
      if (w <= old_width) {
        id = old_ids[size_t{start} * old_width + w - 1];
      } else {
        std::string text = JoinRange(lines_[line], start, start + w, " ");
        id = catalog_.Register(std::move(text), w).local_id;
      }
    }
  }
  cell_ids_[line] = std::move(ids);
  registered_width_[line] = width;
}

uint32_t ListContext::EffectiveWidth(size_t line, int m,
                                     uint32_t base_cap) const {
  const uint32_t len = line_length(line);
  if (base_cap == 0) return len;
  assert(m >= 1);
  const uint32_t needed = (len + m - 1) / static_cast<uint32_t>(m);
  return std::min(len, std::max(base_cap, needed));
}

std::vector<const CellInfo*> ListContext::CellsFor(size_t line,
                                                   const Bounds& bounds) const {
  std::vector<const CellInfo*> cells;
  cells.reserve(bounds.size() - 1);
  for (size_t k = 0; k + 1 < bounds.size(); ++k) {
    const uint32_t start = bounds[k];
    const uint32_t len = bounds[k + 1] - bounds[k];
    cells.push_back(len == 0 ? &NullCell() : &Cell(line, start, len));
  }
  return cells;
}

const CellInfo& ListContext::RegisterExternalCell(const std::string& text,
                                                  uint32_t token_count) {
  return catalog_.Register(text, token_count);
}

void ListContext::SetFixedBounds(size_t line, Bounds bounds) {
  assert(line < lines_.size());
  if (!fixed_bounds_[line].has_value()) ++num_examples_;
  // Candidate cells of the fixed segmentation must be materialized.
  uint32_t max_w = 0;
  for (size_t k = 0; k + 1 < bounds.size(); ++k) {
    max_w = std::max(max_w, bounds[k + 1] - bounds[k]);
  }
  EnsureWidth(line, max_w);
  fixed_bounds_[line] = std::move(bounds);
}

double ListContext::PairWeight(size_t i, size_t j) const {
  if (num_examples_ == 0) return 1.0;
  const bool touches_example =
      fixed_bounds_[i].has_value() || fixed_bounds_[j].has_value();
  if (!touches_example) return 1.0;
  return static_cast<double>(num_lines()) /
         static_cast<double>(num_examples_);
}

}  // namespace tegra
