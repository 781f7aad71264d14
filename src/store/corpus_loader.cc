#include "store/corpus_loader.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/file_util.h"
#include "corpus/column_index.h"
#include "common/hash.h"
#include "store/crc32c.h"
#include "store/format.h"
#include "store/manifest.h"
#include "store/mmap_corpus.h"
#include "store/sharded_corpus.h"
#include "store/snapshot_writer.h"

namespace tegra {
namespace store {

namespace {

/// Reads just the leading magic. IOError when unreadable, empty string when
/// the file is shorter than 8 bytes (callers turn that into Corruption).
Result<std::string> ReadMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic)) return std::string();
  return std::string(magic, sizeof(magic));
}

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
  } else if (bytes >= 1024ull * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace

Result<LoadedCorpus> OpenCorpus(
    const std::string& path,
    const std::shared_ptr<const CorpusView>& previous) {
  // A directory is a sharded corpus rooted at its manifest.
  const std::string resolved = ManifestPathFor(path);
  Result<std::string> magic = ReadMagic(resolved);
  if (!magic.ok()) return magic.status();

  LoadedCorpus out;
  out.path = resolved;
  if (magic.value() == std::string(kManifestMagic, sizeof(kManifestMagic))) {
    Result<std::shared_ptr<const ShardedCorpus>> sharded =
        ShardedCorpus::Open(resolved, previous);
    if (!sharded.ok()) return sharded.status();
    out.view = sharded.value();
    out.format = out.view->FormatName();
    return out;
  }
  if (magic.value() == std::string(kMagicV2, sizeof(kMagicV2))) {
    Result<std::unique_ptr<MmapCorpus>> v2 = MmapCorpus::Open(path);
    if (!v2.ok()) return v2.status();
    out.view = std::shared_ptr<const CorpusView>(std::move(v2.value()));
    out.format = out.view->FormatName();
    return out;
  }
  return Status::Corruption("not a TGRAIDX2/TGRSMAN1 corpus: " + resolved);
}

Result<CorpusFileInfo> DescribeCorpusFile(const std::string& path,
                                          bool check_crc) {
  const std::string resolved = ManifestPathFor(path);
  Result<std::string> magic = ReadMagic(resolved);
  if (!magic.ok()) return magic.status();
  Result<uint64_t> size = FileSize(resolved);
  if (!size.ok()) return size.status();

  CorpusFileInfo info;
  info.path = resolved;
  info.file_bytes = size.value();

  if (magic.value() == std::string(kManifestMagic, sizeof(kManifestMagic))) {
    info.format = "TGRS-MANIFEST";
    Result<std::shared_ptr<const ShardedCorpus>> sharded =
        ShardedCorpus::Open(resolved);
    if (!sharded.ok()) return sharded.status();
    const ShardedCorpus& c = *sharded.value();
    info.total_columns = c.TotalColumns();
    info.num_values = c.NumValues();
    info.num_shards = c.num_shards();
    info.num_overlays = c.num_overlays();
    info.sequence = c.manifest().sequence;
    for (size_t p = 0; p < c.num_parts(); ++p) {
      const ManifestEntry& e = c.manifest().entries[p];
      ShardPartSummary part;
      part.name = e.name;
      part.overlay = e.kind == ManifestEntry::kOverlay;
      part.file_bytes = e.file_bytes;
      part.num_values = e.num_values;
      part.num_columns = e.num_columns;
      const MmapCorpus& snap = c.part(p);
      for (uint64_t id = 0; id < e.num_values; ++id) {
        part.posting_entries += snap.ColumnCount(static_cast<ValueId>(id));
      }
      info.file_bytes += e.file_bytes;
      info.parts.push_back(std::move(part));
    }
    if (check_crc) {
      Status verified = c.Verify();
      if (!verified.ok()) return verified;
    }
    return info;
  }

  if (magic.value() == std::string(kMagicV2, sizeof(kMagicV2))) {
    info.format = "TGRAIDX2";
    Result<std::unique_ptr<MmapCorpus>> opened = MmapCorpus::Open(path);
    if (!opened.ok()) {
      // Open already failing means the header itself is unusable; surface
      // the Corruption rather than a partial description.
      return opened.status();
    }
    const MmapCorpus& c = *opened.value();
    info.total_columns = c.header().total_columns;
    info.num_values = c.header().num_values;
    info.header_crc_ok = true;  // Open() verified it.
    Result<std::string> bytes =
        check_crc ? ReadFileToString(path) : Result<std::string>(std::string());
    if (!bytes.ok()) return bytes.status();
    for (uint32_t kind = 1; kind <= kSectionCount; ++kind) {
      const SectionEntry& s = c.section(kind);
      SectionSummary sum;
      sum.name = SectionName(s.kind);
      sum.offset = s.offset;
      sum.length = s.length;
      sum.crc = s.crc;
      if (check_crc) {
        sum.crc_checked = true;
        sum.crc_ok =
            MaskCrc(Crc32c(bytes.value().data() + s.offset, s.length)) == s.crc;
      }
      info.sections.push_back(std::move(sum));
    }
    return info;
  }
  return Status::Corruption("not a TGRAIDX2/TGRSMAN1 corpus: " + resolved);
}

std::string FormatCorpusFileInfo(const CorpusFileInfo& info) {
  std::ostringstream out;
  out << "corpus file:    " << info.path << "\n"
      << "format:         " << info.format << "\n"
      << "file size:      " << HumanBytes(info.file_bytes) << " ("
      << info.file_bytes << " bytes)\n"
      << "total columns:  " << info.total_columns << "\n"
      << "distinct values:" << " " << info.num_values << "\n";
  if (info.format == "TGRS-MANIFEST") {
    out << "shards:         " << info.num_shards << "\n"
        << "overlays:       " << info.num_overlays << "\n"
        << "sequence:       " << info.sequence << "\n"
        << "parts:\n";
    for (const ShardPartSummary& p : info.parts) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-34s %-7s values=%-9llu postings=%-10llu %s\n",
                    p.name.c_str(), p.overlay ? "overlay" : "shard",
                    static_cast<unsigned long long>(p.num_values),
                    static_cast<unsigned long long>(p.posting_entries),
                    HumanBytes(p.file_bytes).c_str());
      out << line;
    }
  }
  if (info.format == "TGRAIDX2") {
    out << "header crc:     " << (info.header_crc_ok ? "ok" : "MISMATCH")
        << "\n"
        << "sections:\n";
    for (const SectionSummary& s : info.sections) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-16s offset=%-10llu length=%-10llu crc=0x%08x %s\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.offset),
                    static_cast<unsigned long long>(s.length), s.crc,
                    !s.crc_checked ? "(unchecked)"
                                   : (s.crc_ok ? "ok" : "MISMATCH"));
      out << line;
    }
  }
  return out.str();
}

Status VerifyCorpusFile(const std::string& path) {
  const std::string resolved = ManifestPathFor(path);
  Result<std::string> magic = ReadMagic(resolved);
  if (!magic.ok()) return magic.status();
  if (magic.value() == std::string(kManifestMagic, sizeof(kManifestMagic))) {
    Result<std::shared_ptr<const ShardedCorpus>> sharded =
        ShardedCorpus::Open(resolved);
    if (!sharded.ok()) return sharded.status();
    return sharded.value()->Verify();
  }
  if (magic.value() == std::string(kMagicV2, sizeof(kMagicV2))) {
    Result<std::unique_ptr<MmapCorpus>> opened = MmapCorpus::Open(path);
    if (!opened.ok()) return opened.status();
    return opened.value()->Verify();
  }
  return Status::Corruption("not a TGRAIDX2/TGRSMAN1 corpus: " + resolved);
}

std::unique_ptr<const CorpusView> OpenOrBuildSnapshot(
    const std::string& path, const std::function<ColumnIndex()>& builder) {
  Result<std::unique_ptr<MmapCorpus>> cached = MmapCorpus::Open(path);
  if (cached.ok() && cached.value()->Verify().ok()) {
    return std::move(cached.value());
  }
  ColumnIndex built = builder();
  if (!built.finalized()) built.Finalize();
  if (WriteSnapshot(built, path).ok()) {
    Result<std::unique_ptr<MmapCorpus>> written = MmapCorpus::Open(path);
    if (written.ok()) return std::move(written.value());
  }
  // Best-effort save: an unwritable cache directory serves the build.
  return std::make_unique<ColumnIndex>(std::move(built));
}

CorpusDigest ComputeCorpusDigest(const CorpusView& view) {
  // Collect (value, |C(s)|) in sorted value order so the stream — and thus
  // the digest — is independent of the representation's id assignment and
  // enumeration order.
  std::vector<std::pair<std::string, uint32_t>> stats;
  stats.reserve(view.NumValues());
  view.ForEachValue([&](ValueId id, const std::string& value) {
    stats.emplace_back(value, view.ColumnCount(id));
  });
  std::sort(stats.begin(), stats.end());

  CorpusDigest out;
  out.num_values = stats.size();
  out.total_columns = view.TotalColumns();
  uint64_t h = 0xcbf29ce484222325ULL;
  h = HashCombine(h, out.total_columns);
  h = HashCombine(h, out.num_values);
  for (const auto& [value, count] : stats) {
    h = HashCombine(h, Fnv1a64(value));
    h = HashCombine(h, count);
  }
  // Deterministic co-occurrence sample: strided "probe" values intersected
  // against pseudo-randomly (but reproducibly) chosen partners. Any
  // divergence in posting content — not just counts — shows up here.
  const size_t n = stats.size();
  const size_t samples = std::min<size_t>(n, 256);
  for (size_t i = 0; i < samples; ++i) {
    const size_t ai = i * n / samples;
    const size_t bi = (ai * 2654435761ULL + 7) % n;
    const ValueId a = view.Lookup(stats[ai].first);
    const ValueId b = view.Lookup(stats[bi].first);
    h = HashCombine(h, view.CoOccurrenceCount(a, b));
    h = HashCombine(h, view.UnionCount(a, b));
  }
  out.digest = h;
  return out;
}

}  // namespace store
}  // namespace tegra
