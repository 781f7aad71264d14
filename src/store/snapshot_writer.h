// Serializes a corpus into a TGRAIDX2 snapshot file: a finalized heap
// ColumnIndex, or (for the shard builder's merge output) value/postings
// arrays already in snapshot order.
//
// The writer re-interns values in lexicographic order of their normalized
// strings (ids in the snapshot therefore generally differ from the heap
// index's insertion-order ids — every statistic TEGRA consumes is invariant
// under id relabeling), front-codes the dictionary, builds the open-address
// hash, and block-compresses each posting list. Publication is atomic and
// durable via AtomicWriteFile: a crash mid-write can never leave a torn
// snapshot at the published path.

#ifndef TEGRA_STORE_SNAPSHOT_WRITER_H_
#define TEGRA_STORE_SNAPSHOT_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "corpus/column_index.h"

namespace tegra {
namespace store {

/// \brief Serializes `index` (must be finalized) to TGRAIDX2 bytes.
Result<std::string> EncodeSnapshot(const ColumnIndex& index);

/// \brief Serializes a corpus already in snapshot order: `values` strictly
/// increasing (they become ids 0..n-1), `postings[i]` the sorted column ids
/// of `values[i]`, every id below `total_columns`. Lets a writer that
/// produces sorted output skip building a heap index first.
Result<std::string> EncodeSortedSnapshot(
    uint64_t total_columns, const std::vector<std::string>& values,
    const std::vector<std::vector<uint32_t>>& postings);

/// \brief Encodes and atomically publishes a snapshot at `path`.
Status WriteSnapshot(const ColumnIndex& index, const std::string& path);

}  // namespace store
}  // namespace tegra

#endif  // TEGRA_STORE_SNAPSHOT_WRITER_H_
