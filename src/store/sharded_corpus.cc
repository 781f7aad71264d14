#include "store/sharded_corpus.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "store/posting_cursor.h"

namespace tegra {
namespace store {

namespace {

Status Corrupt(const std::string& origin, const std::string& what) {
  return Status::Corruption(what + " in sharded corpus: " + origin);
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

Result<std::shared_ptr<const ShardedCorpus>> ShardedCorpus::Open(
    const std::string& manifest_path,
    const std::shared_ptr<const CorpusView>& previous) {
  Result<ShardManifest> manifest = LoadManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();

  // Index the previous generation's live mappings by manifest identity so
  // unchanged parts are adopted instead of re-mapped (O(delta) reload).
  const auto* prev_sharded = dynamic_cast<const ShardedCorpus*>(previous.get());
  std::unordered_map<std::string, std::shared_ptr<const MmapCorpus>> reusable;
  if (prev_sharded != nullptr) {
    for (const Part& p : prev_sharded->parts_) {
      reusable.emplace(BaseName(p.corpus->path()), p.corpus);
    }
  }

  std::shared_ptr<ShardedCorpus> corpus(new ShardedCorpus());
  corpus->manifest_path_ = manifest_path;
  corpus->manifest_ = std::move(manifest.value());
  const ShardManifest& m = corpus->manifest_;
  const std::string dir = ManifestDirectory(manifest_path);

  uint64_t value_base = 0;
  uint64_t column_base = m.total_base_columns;
  corpus->parts_.reserve(m.entries.size());
  for (size_t i = 0; i < m.entries.size(); ++i) {
    const ManifestEntry& e = m.entries[i];
    Part part;
    part.is_overlay = e.kind == ManifestEntry::kOverlay;

    const auto it = reusable.find(e.name);
    if (it != reusable.end() &&
        it->second->header().file_bytes == e.file_bytes &&
        it->second->header().header_crc == e.header_crc) {
      part.corpus = it->second;  // Identity unchanged: adopt the mapping.
      ++corpus->reused_parts_;
    } else {
      Result<std::unique_ptr<MmapCorpus>> opened =
          MmapCorpus::Open(dir + "/" + e.name);
      if (!opened.ok()) return opened.status();
      part.corpus = std::shared_ptr<const MmapCorpus>(std::move(opened.value()));
    }

    // The snapshot must be the one the manifest was built against.
    const SnapshotHeader& h = part.corpus->header();
    if (h.file_bytes != e.file_bytes || h.header_crc != e.header_crc) {
      return Corrupt(manifest_path, "part identity mismatch for " + e.name);
    }
    if (h.num_values != e.num_values) {
      return Corrupt(manifest_path, "value count mismatch for " + e.name);
    }
    if (h.total_columns != e.num_columns) {
      return Corrupt(manifest_path, "column count mismatch for " + e.name);
    }

    part.value_base = static_cast<uint32_t>(value_base);
    value_base += h.num_values;
    if (value_base > 0xfffffffeULL) {
      return Corrupt(manifest_path, "value-id space overflow");
    }
    if (part.is_overlay) {
      part.column_base = column_base;
      column_base += e.num_columns;
    }
    corpus->parts_.push_back(std::move(part));
  }

  corpus->total_ids_ = static_cast<uint32_t>(value_base);
  corpus->total_columns_ = m.TotalColumns();
  Status bridged = corpus->BuildBridge();
  if (!bridged.ok()) return bridged;
  return std::shared_ptr<const ShardedCorpus>(std::move(corpus));
}

Status ShardedCorpus::BuildBridge() {
  const uint32_t num_shards = manifest_.num_shards;
  overlay_alias_locals_.resize(parts_.size() > num_shards
                                   ? parts_.size() - num_shards
                                   : 0);
  size_t aliases = 0;
  for (size_t p = num_shards; p < parts_.size(); ++p) {
    const MmapCorpus& overlay = *parts_[p].corpus;
    const uint32_t nv = static_cast<uint32_t>(overlay.NumValues());
    for (uint32_t local = 0; local < nv; ++local) {
      const std::string value = overlay.ValueString(local);
      if (value.empty()) {
        return Corrupt(manifest_path_, "undecodable overlay value");
      }
      // Earliest containing part wins the canonical id: the home shard
      // first, then overlays older than this one.
      uint32_t canonical = kInvalidValueId;
      const uint32_t shard =
          static_cast<uint32_t>(Fnv1a64(value) % num_shards);
      const ValueId in_shard = parts_[shard].corpus->Lookup(value);
      if (in_shard != kInvalidValueId) {
        canonical = parts_[shard].value_base + in_shard;
      } else {
        for (size_t q = num_shards; q < p; ++q) {
          const ValueId in_overlay = parts_[q].corpus->Lookup(value);
          if (in_overlay != kInvalidValueId) {
            canonical = parts_[q].value_base + in_overlay;
            break;
          }
        }
      }
      if (canonical == kInvalidValueId) continue;  // This part is canonical.
      bridge_[canonical].emplace_back(static_cast<uint32_t>(p), local);
      overlay_alias_locals_[p - num_shards].insert(local);
      ++aliases;
    }
  }
  num_distinct_values_ = total_ids_ - aliases;
  return Status::OK();
}

int ShardedCorpus::PartOf(ValueId id) const {
  if (id >= total_ids_) return -1;
  // A handful of parts: the linear scan beats binary search in practice.
  for (size_t p = parts_.size(); p-- > 0;) {
    if (id >= parts_[p].value_base) return static_cast<int>(p);
  }
  return -1;
}

ShardedCorpus::Presence ShardedCorpus::Resolve(ValueId id) const {
  Presence out;
  const int p = PartOf(id);
  if (p < 0) return out;
  const uint32_t local = id - parts_[p].value_base;
  if (static_cast<uint32_t>(p) < manifest_.num_shards) {
    out.base_part = p;
    out.base_local = local;
  } else {
    out.overlays.emplace_back(static_cast<uint32_t>(p), local);
  }
  // Later occurrences (always overlays; base parts precede every overlay).
  const auto it = bridge_.find(id);
  if (it != bridge_.end()) {
    out.overlays.insert(out.overlays.end(), it->second.begin(),
                        it->second.end());
  }
  return out;
}

ValueId ShardedCorpus::Lookup(std::string_view value) const {
  const std::string norm = NormalizeValue(value);
  if (norm.empty()) return kInvalidValueId;
  const uint32_t shard =
      static_cast<uint32_t>(Fnv1a64(norm) % manifest_.num_shards);
  const ValueId in_shard = parts_[shard].corpus->Lookup(norm);
  if (in_shard != kInvalidValueId) {
    return parts_[shard].value_base + in_shard;
  }
  for (size_t p = manifest_.num_shards; p < parts_.size(); ++p) {
    const ValueId in_overlay = parts_[p].corpus->Lookup(norm);
    if (in_overlay != kInvalidValueId) {
      return parts_[p].value_base + in_overlay;
    }
  }
  return kInvalidValueId;
}

uint32_t ShardedCorpus::ColumnCount(ValueId id) const {
  const Presence where = Resolve(id);
  uint32_t count = 0;
  if (where.base_part >= 0) {
    count += parts_[where.base_part].corpus->ColumnCount(where.base_local);
  }
  for (const auto& [p, local] : where.overlays) {
    count += parts_[p].corpus->ColumnCount(local);
  }
  return count;
}

uint32_t ShardedCorpus::CoOccurrenceCount(ValueId a, ValueId b) const {
  if (a >= total_ids_ || b >= total_ids_) return 0;
  if (a == b) return ColumnCount(a);
  const Presence pa = Resolve(a);
  const Presence pb = Resolve(b);
  uint32_t hits = 0;
  // Base contribution: column ids are global across shard files, so the two
  // lists intersect directly even when a and b route to different shards.
  if (pa.base_part >= 0 && pb.base_part >= 0) {
    hits += IntersectPostings(
        parts_[pa.base_part].corpus->IntersectOperand(pa.base_local),
        parts_[pb.base_part].corpus->IntersectOperand(pb.base_local));
  }
  // Overlay contributions: each overlay owns a disjoint column range, so
  // only within-overlay pairs can intersect. Both lists are sorted by part.
  size_t i = 0, j = 0;
  while (i < pa.overlays.size() && j < pb.overlays.size()) {
    const uint32_t part_a = pa.overlays[i].first;
    const uint32_t part_b = pb.overlays[j].first;
    if (part_a < part_b) {
      ++i;
    } else if (part_b < part_a) {
      ++j;
    } else {
      const MmapCorpus& overlay = *parts_[part_a].corpus;
      hits += IntersectPostings(
          overlay.IntersectOperand(pa.overlays[i].second),
          overlay.IntersectOperand(pb.overlays[j].second));
      ++i;
      ++j;
    }
  }
  return hits;
}

std::string ShardedCorpus::ValueString(ValueId id) const {
  const int p = PartOf(id);
  if (p < 0) return std::string();
  return parts_[p].corpus->ValueString(id - parts_[p].value_base);
}

void ShardedCorpus::ForEachValue(
    const std::function<void(ValueId, const std::string&)>& fn) const {
  for (size_t p = 0; p < parts_.size(); ++p) {
    const MmapCorpus& part = *parts_[p].corpus;
    const std::unordered_set<uint32_t>* aliases =
        p >= manifest_.num_shards
            ? &overlay_alias_locals_[p - manifest_.num_shards]
            : nullptr;
    const uint32_t nv = static_cast<uint32_t>(part.NumValues());
    for (uint32_t local = 0; local < nv; ++local) {
      if (aliases != nullptr && aliases->count(local) != 0) continue;
      fn(parts_[p].value_base + local, part.ValueString(local));
    }
  }
}

size_t ShardedCorpus::HeapBytes() const {
  size_t bytes = sizeof(*this);
  bytes += bridge_.size() *
           (sizeof(uint32_t) + sizeof(std::vector<std::pair<uint32_t, uint32_t>>) +
            2 * sizeof(std::pair<uint32_t, uint32_t>) + 16);
  for (const auto& aliases : overlay_alias_locals_) {
    bytes += aliases.size() * 16;
  }
  for (const Part& p : parts_) bytes += p.corpus->HeapBytes();
  return bytes;
}

size_t ShardedCorpus::MappedBytes() const {
  size_t bytes = 0;
  for (const Part& p : parts_) bytes += p.corpus->MappedBytes();
  return bytes;
}

Status ShardedCorpus::Verify() const {
  for (size_t p = 0; p < parts_.size(); ++p) {
    Status part_ok = parts_[p].corpus->Verify();
    if (!part_ok.ok()) return part_ok;
  }
  // Routing: every base value must live in the shard its hash selects, or
  // Lookup would silently miss it.
  for (uint32_t s = 0; s < manifest_.num_shards; ++s) {
    const MmapCorpus& shard = *parts_[s].corpus;
    const uint32_t nv = static_cast<uint32_t>(shard.NumValues());
    for (uint32_t local = 0; local < nv; ++local) {
      const std::string value = shard.ValueString(local);
      if (Fnv1a64(value) % manifest_.num_shards != s) {
        return Corrupt(manifest_path_,
                       "value routed to the wrong shard: '" + value + "'");
      }
    }
  }
  return Status::OK();
}

}  // namespace store
}  // namespace tegra
