// Format-sniffing corpus opener plus the shared describe / verify helpers
// behind `tegra_corpusctl` and `corpus_inspector` (one implementation, so
// the two tools cannot drift), and the snapshot cache the eval benchmarks
// share their background corpora through.
//
// OpenCorpus reads the 8-byte magic and dispatches:
//   "TGRAIDX2" -> zero-copy MmapCorpus.
//   "TGRSMAN1" -> ShardedCorpus (a directory path resolves to its
//                 MANIFEST.tgrs first).
// Anything else is Corruption.

#ifndef TEGRA_STORE_CORPUS_LOADER_H_
#define TEGRA_STORE_CORPUS_LOADER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "corpus/column_index.h"
#include "corpus/corpus_view.h"

namespace tegra {
namespace store {

/// \brief An opened corpus plus its provenance.
struct LoadedCorpus {
  std::shared_ptr<const CorpusView> view;
  std::string path;
  std::string format;  ///< "heap-v1", "mmap-v2" or "sharded-v2".
};

/// \brief Opens a corpus of any format (magic-sniffed; a directory is
/// opened through its MANIFEST.tgrs). `previous` — the outgoing
/// generation's view on a reload — lets a sharded corpus adopt unchanged
/// shard mappings so reload cost is O(changed parts), not O(corpus).
Result<LoadedCorpus> OpenCorpus(
    const std::string& path,
    const std::shared_ptr<const CorpusView>& previous = nullptr);

/// \brief Per-section summary for v2 snapshots.
struct SectionSummary {
  std::string name;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
  /// Only meaningful when the describe call checked CRCs.
  bool crc_checked = false;
  bool crc_ok = false;
};

/// \brief Per-part summary for sharded corpora (one line per shard/overlay
/// in `tegra_corpusctl stats`).
struct ShardPartSummary {
  std::string name;
  bool overlay = false;
  uint64_t file_bytes = 0;
  uint64_t num_values = 0;
  uint64_t num_columns = 0;
  uint64_t posting_entries = 0;  ///< Sum of |C(s)| over the part's values.
};

/// \brief Format-independent summary of a corpus file.
struct CorpusFileInfo {
  std::string path;
  std::string format;  ///< "TGRAIDX2" or "TGRS-MANIFEST".
  uint64_t file_bytes = 0;
  uint64_t total_columns = 0;
  uint64_t num_values = 0;
  /// Snapshot only: the section table (empty for a manifest).
  std::vector<SectionSummary> sections;
  bool header_crc_ok = true;  ///< Snapshot only.
  /// Sharded only: manifest geometry + per-part counts.
  uint32_t num_shards = 0;
  uint32_t num_overlays = 0;
  uint64_t sequence = 0;
  std::vector<ShardPartSummary> parts;
};

/// \brief Inspects a snapshot or a sharded manifest. `check_crc`
/// additionally recomputes every section checksum (O(file size)).
Result<CorpusFileInfo> DescribeCorpusFile(const std::string& path,
                                          bool check_crc);

/// \brief Renders `info` as the human-readable report shared by
/// `tegra_corpusctl stats` and `corpus_inspector`.
std::string FormatCorpusFileInfo(const CorpusFileInfo& info);

/// \brief Full integrity verification. Snapshot: header + section CRCs and
/// a deep decode of the dictionary, hash table and every posting list.
/// Sharded: the manifest plus every shard and overlay, including
/// shard-routing checks. Returns Corruption on any defect.
Status VerifyCorpusFile(const std::string& path);

/// \brief The snapshot at `path`, opened and fully verified (`Verify()`, so
/// a cache hit is as trusted as a fresh build). On any failure (missing,
/// corrupt, another format) runs `builder`, publishes its result with
/// WriteSnapshot and returns the reopened snapshot. When the write fails
/// (read-only directory) the built index itself is returned.
std::unique_ptr<const CorpusView> OpenOrBuildSnapshot(
    const std::string& path, const std::function<ColumnIndex()>& builder);

/// \brief Deterministic, representation-independent fingerprint of the
/// *statistics* a corpus serves: every (value, |C(s)|) pair (iterated in
/// sorted value order) plus a deterministic sample of CoOccurrenceCount
/// pairs, TotalColumns and NumValues. Two corpora answer every NPMI /
/// Jaccard / co-occurrence query identically iff their digests match —
/// heap vs snapshot vs sharded(+overlays) builds of the same tables all
/// collapse to one digest. Used by CI to diff a sharded build against a
/// monolithic one.
struct CorpusDigest {
  uint64_t digest = 0;
  uint64_t num_values = 0;
  uint64_t total_columns = 0;
};
CorpusDigest ComputeCorpusDigest(const CorpusView& view);

}  // namespace store
}  // namespace tegra

#endif  // TEGRA_STORE_CORPUS_LOADER_H_
