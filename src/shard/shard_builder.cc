#include "shard/shard_builder.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/varint.h"
#include "store/format.h"
#include "store/manifest.h"
#include "store/mmap_corpus.h"
#include "store/posting_cursor.h"
#include "store/sharded_corpus.h"
#include "store/snapshot_writer.h"

namespace tegra {
namespace shardbuild {

namespace {

using store::ManifestEntry;
using store::ShardManifest;

/// Run-file record: varint(value_len), value bytes, varint(count), `count`
/// column-id gaps (first gap is the id itself). Records are sorted by value
/// within a run; a (value, column) pair appears in exactly one run.
void AppendRunRecord(std::string* out, const std::string& value,
                     const std::vector<uint32_t>& postings) {
  PutVarint(out, value.size());
  out->append(value);
  PutVarint(out, postings.size());
  uint32_t prev = 0;
  for (uint32_t col : postings) {
    PutVarint(out, col - prev);
    prev = col;
  }
}

/// Sequential reader over one run file. The byte buffer is owned by the
/// caller and must outlive the cursor.
struct RunCursor {
  explicit RunCursor(const std::string& bytes) : reader(bytes) {}

  ByteReader reader;
  std::string value;
  std::vector<uint32_t> postings;
  bool done = false;
  bool corrupt = false;

  bool Next() {
    if (reader.exhausted()) {
      done = true;
      return false;
    }
    uint64_t len = 0, count = 0;
    std::string_view v;
    if (!reader.ReadVarint(&len) || !reader.ReadBytes(len, &v) ||
        !reader.ReadVarint(&count)) {
      corrupt = true;
      done = true;
      return false;
    }
    value.assign(v);
    postings.clear();
    postings.reserve(count);
    uint32_t col = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t gap = 0;
      if (!reader.ReadVarint(&gap)) {
        corrupt = true;
        done = true;
        return false;
      }
      col += static_cast<uint32_t>(gap);
      postings.push_back(col);
    }
    return true;
  }
};

/// Publishes the encoded snapshot `bytes` at `path` and fills its manifest
/// entry (identity taken from the encoded bytes: total size + the header
/// CRC at offset 60).
Status PublishSnapshot(const Result<std::string>& bytes, uint64_t num_values,
                       uint64_t num_columns, const std::string& path,
                       uint8_t kind, const std::string& name,
                       ManifestEntry* entry) {
  if (!bytes.ok()) return bytes.status();
  entry->kind = kind;
  entry->name = name;
  entry->file_bytes = bytes.value().size();
  entry->header_crc =
      store::ReadU32LE(bytes.value().data() + store::kHeaderBytes - 4);
  entry->num_values = num_values;
  entry->num_columns = num_columns;
  return AtomicWriteFile(path, bytes.value());
}

}  // namespace

ShardBuilder::ShardBuilder(std::string out_dir, ShardBuildOptions options)
    : out_dir_(std::move(out_dir)), options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  buffers_.resize(options_.num_shards);
  run_paths_.resize(options_.num_shards);
}

uint32_t ShardBuilder::AddColumn(const std::vector<std::string>& values) {
  // Spill only between columns: every (value, column) pair then lands in
  // exactly one run, and concatenating a value's postings across runs in
  // spill order keeps them sorted and unique.
  if (buffered_bytes_ >= options_.memory_budget_bytes) SpillAll();

  const uint32_t col_id = next_column_id_++;
  for (const auto& raw : values) {
    std::string norm = NormalizeValue(raw);
    if (norm.empty()) continue;
    const uint32_t shard =
        static_cast<uint32_t>(Fnv1a64(norm) % options_.num_shards);
    auto [it, inserted] =
        buffers_[shard].postings.try_emplace(std::move(norm));
    if (inserted) buffered_bytes_ += it->first.size() + 64;
    auto& plist = it->second;
    if (plist.empty() || plist.back() != col_id) {
      plist.push_back(col_id);
      buffered_bytes_ += sizeof(uint32_t);
    }
  }
  return col_id;
}

void ShardBuilder::AddTable(const Table& table) {
  for (size_t c = 0; c < table.NumCols(); ++c) {
    AddColumn(table.Column(c));
  }
}

void ShardBuilder::SpillAll() {
  if (buffered_bytes_ == 0) return;
  if (deferred_error_.ok()) {
    Status dir_ok = EnsureDirectory(out_dir_);
    if (!dir_ok.ok()) {
      deferred_error_ = dir_ok;
    } else {
      for (uint32_t s = 0; s < options_.num_shards; ++s) {
        Status spilled = SpillShard(s);
        if (!spilled.ok()) {
          deferred_error_ = spilled;
          break;
        }
      }
    }
  }
  for (auto& buffer : buffers_) buffer.postings.clear();
  buffered_bytes_ = 0;
  ++spill_epochs_;
}

Status ShardBuilder::SpillShard(uint32_t shard) {
  auto& buffer = buffers_[shard].postings;
  if (buffer.empty()) return Status::OK();

  std::vector<const std::string*> keys;
  keys.reserve(buffer.size());
  for (const auto& [value, postings] : buffer) keys.push_back(&value);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  std::string encoded;
  for (const std::string* value : keys) {
    AppendRunRecord(&encoded, *value, buffer.at(*value));
  }

  char name[64];
  std::snprintf(name, sizeof(name), ".run-s%05u-e%06u", shard, spill_epochs_);
  const std::string path = out_dir_ + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  out.flush();
  if (!out) return Status::IOError("cannot write run file: " + path);
  run_paths_[shard].push_back(path);
  run_bytes_ += encoded.size();
  return Status::OK();
}

Status ShardBuilder::BuildShard(uint32_t shard, std::string* name,
                                uint64_t* file_bytes, uint32_t* header_crc,
                                uint64_t* num_values) {
  // Load every run of this shard and k-way merge by value. Runs are kept in
  // spill order so equal-value postings concatenate already sorted.
  std::vector<std::string> run_bytes;
  std::vector<RunCursor> cursors;
  run_bytes.reserve(run_paths_[shard].size());
  for (const std::string& path : run_paths_[shard]) {
    Result<std::string> bytes = ReadFileToString(path);
    if (!bytes.ok()) return bytes.status();
    run_bytes.push_back(std::move(bytes.value()));
  }
  cursors.reserve(run_bytes.size());
  for (const std::string& bytes : run_bytes) {
    cursors.emplace_back(bytes);
    cursors.back().Next();
  }

  std::vector<std::string> values;
  std::vector<std::vector<uint32_t>> postings;
  for (;;) {
    // The run count is the number of spill epochs (small); a linear min
    // scan beats heap bookkeeping at this fan-in.
    const std::string* min_value = nullptr;
    for (const RunCursor& c : cursors) {
      if (c.corrupt) {
        return Status::Corruption("corrupt spill run for shard " +
                                  std::to_string(shard));
      }
      if (c.done) continue;
      if (min_value == nullptr || c.value < *min_value) min_value = &c.value;
    }
    if (min_value == nullptr) break;
    values.push_back(*min_value);
    postings.emplace_back();
    auto& merged = postings.back();
    for (RunCursor& c : cursors) {
      if (c.done || c.value != values.back()) continue;
      merged.insert(merged.end(), c.postings.begin(), c.postings.end());
      c.Next();
    }
  }

  ManifestEntry entry;
  *name = store::ShardFileName(shard, options_.num_shards, /*sequence=*/1);
  Status published = PublishSnapshot(
      store::EncodeSortedSnapshot(next_column_id_, values, postings),
      values.size(), next_column_id_, out_dir_ + "/" + *name,
      ManifestEntry::kShard, *name, &entry);
  if (!published.ok()) return published;
  *file_bytes = entry.file_bytes;
  *header_crc = entry.header_crc;
  *num_values = entry.num_values;
  return Status::OK();
}

Result<ShardBuildStats> ShardBuilder::Finish() {
  if (finished_) {
    return Status::InvalidArgument("ShardBuilder::Finish called twice");
  }
  finished_ = true;
  SpillAll();  // Flush the tail through the same path as every other epoch.
  if (!deferred_error_.ok()) return deferred_error_;
  Status dir_ok = EnsureDirectory(out_dir_);  // Empty corpus: no spill ran.
  if (!dir_ok.ok()) return dir_ok;

  const uint32_t n = options_.num_shards;
  std::vector<std::string> names(n);
  std::vector<uint64_t> file_bytes(n), num_values(n);
  std::vector<uint32_t> header_crcs(n);
  std::vector<Status> results(n, Status::OK());
  auto build_one = [&](size_t s) {
    results[s] = BuildShard(static_cast<uint32_t>(s), &names[s],
                            &file_bytes[s], &header_crcs[s], &num_values[s]);
  };
  if (options_.pool != nullptr && n > 1) {
    options_.pool->ParallelFor(n, build_one);
  } else {
    for (uint32_t s = 0; s < n; ++s) build_one(s);
  }
  for (const Status& result : results) {
    if (!result.ok()) return result;
  }

  uint64_t total_runs = 0;
  for (const auto& runs : run_paths_) {
    total_runs += runs.size();
    for (const std::string& path : runs) RemoveFile(path);  // Best effort.
  }

  ShardManifest manifest;
  manifest.num_shards = n;
  manifest.sequence = 1;
  manifest.total_base_columns = next_column_id_;
  ShardBuildStats stats;
  stats.num_shards = n;
  stats.total_columns = next_column_id_;
  stats.spill_epochs = spill_epochs_;
  stats.run_files = total_runs;
  stats.run_bytes = run_bytes_;
  for (uint32_t s = 0; s < n; ++s) {
    ManifestEntry entry;
    entry.kind = ManifestEntry::kShard;
    entry.name = names[s];
    entry.file_bytes = file_bytes[s];
    entry.header_crc = header_crcs[s];
    entry.num_values = num_values[s];
    entry.num_columns = next_column_id_;
    manifest.entries.push_back(std::move(entry));
    stats.total_values += num_values[s];
  }
  Status wrote = store::WriteManifest(
      manifest, out_dir_ + "/" + store::kManifestFileName);
  if (!wrote.ok()) return wrote;
  return stats;
}

Status AppendOverlay(const std::string& dir, const ColumnIndex& delta) {
  if (!delta.finalized()) {
    return Status::InvalidArgument("overlay index must be finalized");
  }
  const std::string manifest_path = store::ManifestPathFor(dir);
  Result<ShardManifest> loaded = store::LoadManifest(manifest_path);
  if (!loaded.ok()) return loaded.status();
  ShardManifest manifest = std::move(loaded.value());
  const std::string base_dir = store::ManifestDirectory(manifest_path);

  const uint32_t overlay_index =
      static_cast<uint32_t>(manifest.num_overlays());
  manifest.sequence += 1;
  const std::string name =
      store::OverlayFileName(overlay_index, manifest.sequence);
  ManifestEntry entry;
  Status published = PublishSnapshot(
      store::EncodeSnapshot(delta), delta.NumValues(), delta.TotalColumns(),
      base_dir + "/" + name, ManifestEntry::kOverlay, name, &entry);
  if (!published.ok()) return published;
  manifest.entries.push_back(std::move(entry));
  return store::WriteManifest(manifest, manifest_path);
}

Status Compact(const std::string& dir, ThreadPool* pool) {
  const std::string manifest_path = store::ManifestPathFor(dir);
  Result<std::shared_ptr<const store::ShardedCorpus>> opened =
      store::ShardedCorpus::Open(manifest_path);
  if (!opened.ok()) return opened.status();
  const store::ShardedCorpus& corpus = *opened.value();
  if (corpus.num_overlays() == 0) return Status::OK();

  const ShardManifest& old_manifest = corpus.manifest();
  const std::string base_dir = store::ManifestDirectory(manifest_path);
  const uint32_t n = old_manifest.num_shards;
  const uint64_t new_sequence = old_manifest.sequence + 1;

  // Each overlay's local column ids are rebased past the base columns and
  // every earlier overlay — the exact id assignment a monolithic rebuild
  // would have produced.
  std::vector<uint64_t> column_base(corpus.num_overlays());
  uint64_t next_base = old_manifest.total_base_columns;
  for (uint32_t k = 0; k < corpus.num_overlays(); ++k) {
    column_base[k] = next_base;
    next_base += old_manifest.entries[n + k].num_columns;
  }
  const uint64_t new_total_columns = next_base;

  std::vector<ManifestEntry> entries(n);
  std::vector<Status> results(n, Status::OK());
  auto compact_one = [&](size_t s) {
    std::map<std::string, std::vector<uint32_t>> merged;
    const store::MmapCorpus& shard = corpus.part(s);
    const uint32_t nv = static_cast<uint32_t>(shard.NumValues());
    for (uint32_t local = 0; local < nv; ++local) {
      merged.emplace(shard.ValueString(local),
                     store::DecodePostingList(shard.Postings(local)));
    }
    for (uint32_t k = 0; k < corpus.num_overlays(); ++k) {
      const store::MmapCorpus& overlay = corpus.part(n + k);
      const uint32_t onv = static_cast<uint32_t>(overlay.NumValues());
      for (uint32_t local = 0; local < onv; ++local) {
        const std::string value = overlay.ValueString(local);
        if (Fnv1a64(value) % n != s) continue;
        auto& plist = merged[value];
        for (uint32_t col :
             store::DecodePostingList(overlay.Postings(local))) {
          plist.push_back(static_cast<uint32_t>(col + column_base[k]));
        }
      }
    }
    std::vector<std::string> values;
    std::vector<std::vector<uint32_t>> postings;
    values.reserve(merged.size());
    postings.reserve(merged.size());
    for (auto& [value, plist] : merged) {
      values.push_back(value);
      postings.push_back(std::move(plist));
    }
    const std::string name =
        store::ShardFileName(static_cast<uint32_t>(s), n, new_sequence);
    results[s] = PublishSnapshot(
        store::EncodeSortedSnapshot(new_total_columns, values, postings),
        values.size(), new_total_columns, base_dir + "/" + name,
        ManifestEntry::kShard, name, &entries[s]);
  };
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, compact_one);
  } else {
    for (uint32_t s = 0; s < n; ++s) compact_one(s);
  }
  for (const Status& result : results) {
    if (!result.ok()) return result;
  }

  ShardManifest manifest;
  manifest.num_shards = n;
  manifest.sequence = new_sequence;
  manifest.total_base_columns = new_total_columns;
  manifest.entries = std::move(entries);
  Status wrote = store::WriteManifest(manifest, manifest_path);
  if (!wrote.ok()) return wrote;

  // The new manifest is durable; prune the replaced files. Live readers of
  // the old generation still hold their mappings (the inode outlives the
  // name), so this is safe under traffic.
  for (const ManifestEntry& old_entry : old_manifest.entries) {
    RemoveFile(base_dir + "/" + old_entry.name);
  }
  return Status::OK();
}

}  // namespace shardbuild
}  // namespace tegra
