// tegra_corpusctl — build, verify and inspect background-corpus files
// (TGRAIDX2 mmap snapshots and TGRSMAN1 sharded corpus directories).
//
//   tegra_corpusctl build SPEC[,SPEC...] OUT
//       Build a synthetic corpus and publish it at OUT as a TGRAIDX2
//       snapshot. Each SPEC is profile:tables:seed (profile in {web, wiki,
//       enterprise}); multiple comma-separated specs are ingested
//       sequentially, which makes a monolithic build comparable against a
//       sharded base + overlays built from the same spec list.
//   tegra_corpusctl build-sharded SPEC[,SPEC...] OUTDIR [--shards N]
//                                 [--budget-mb M]
//       Build the same corpus as a sharded directory (N hash-partitioned
//       TGRAIDX2 shards + MANIFEST.tgrs) via the external-memory
//       ShardBuilder with an M MiB ingest budget.
//   tegra_corpusctl append DIR SPEC
//       Build the SPEC tables as a delta overlay of the sharded directory
//       DIR and bump its manifest — O(delta), shard files untouched.
//   tegra_corpusctl compact DIR
//       Fold all overlays of DIR back into its shards and prune the
//       replaced files.
//   tegra_corpusctl verify PATH
//       Full integrity check (header + per-section CRC32C, deep decode of
//       dictionary / hash / postings for a snapshot; manifest + every part
//       + shard routing for a sharded directory). Exit 0 on success, 1 with
//       the Corruption message otherwise.
//   tegra_corpusctl stats PATH
//       Format, cardinalities, section table (or per-shard/overlay part
//       table) with sizes and checksum status.
//   tegra_corpusctl digest PATH
//       Representation-independent statistics fingerprint. Two corpora
//       answer every NPMI / Jaccard / co-occurrence query identically iff
//       their digests match; CI diffs sharded builds against monolithic
//       ones with this.
//
// All writes are atomic and durable (tmp + fsync + rename + parent-dir
// fsync): a crash cannot leave a torn file at the published path.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "shard/shard_builder.h"
#include "store/corpus_loader.h"
#include "store/snapshot_writer.h"
#include "synth/corpus_gen.h"

namespace {

void PrintUsage() {
  std::fputs(R"(usage: tegra_corpusctl <command> [args]

commands:
  build SPEC[,SPEC...] OUT          build synthetic corpus (profile:tables:seed)
  build-sharded SPEC[,SPEC...] OUTDIR [--shards N] [--budget-mb M]
                                    build a sharded corpus directory
  append DIR SPEC                   add SPEC tables as a delta overlay of DIR
  compact DIR                       fold overlays back into the shards
  verify PATH                       full checksum + deep-decode integrity check
  stats PATH                        summary, section/part sizes, checksum status
  digest PATH                       statistics fingerprint (diffable across
                                    monolithic and sharded builds)
)",
             stderr);
}

using tegra::synth::CorpusSpec;

tegra::Result<std::vector<CorpusSpec>> ParseSpecList(const std::string& list) {
  std::vector<CorpusSpec> specs;
  for (const auto& spec : tegra::SplitExact(list, ",")) {
    auto parsed = tegra::synth::ParseCorpusSpec(spec);
    if (!parsed.ok()) return parsed.status();
    specs.push_back(parsed.value());
  }
  return specs;
}

/// Streams every table of every spec, in spec order, into `add_table`. The
/// same callback order is used for monolithic, sharded and overlay builds,
/// which is what makes their statistics comparable bit-for-bit.
template <typename Fn>
void ForEachSpecTable(const std::vector<CorpusSpec>& specs, Fn&& add_table) {
  for (const CorpusSpec& spec : specs) {
    tegra::synth::TableGenerator gen(spec.profile, spec.seed);
    for (size_t i = 0; i < spec.tables; ++i) add_table(gen.Generate());
  }
}

tegra::Result<tegra::ColumnIndex> BuildSynthetic(const std::string& list) {
  auto specs = ParseSpecList(list);
  if (!specs.ok()) return specs.status();
  tegra::ColumnIndex index;
  ForEachSpecTable(specs.value(),
                   [&](const tegra::Table& t) { index.AddTable(t); });
  index.Finalize();
  return index;
}

int Fail(const tegra::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

int CmdBuild(int argc, char** argv) {
  if (argc != 2) {
    PrintUsage();
    return 2;
  }
  const std::string out = argv[1];
  auto index = BuildSynthetic(argv[0]);
  if (!index.ok()) return Fail(index.status());
  const tegra::Status written = tegra::store::WriteSnapshot(index.value(), out);
  if (!written.ok()) return Fail(written);
  std::printf("built %s (TGRAIDX2, %llu columns, %zu values)\n", out.c_str(),
              static_cast<unsigned long long>(index->TotalColumns()),
              index->NumValues());
  return 0;
}

int CmdBuildSharded(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string spec = argv[0];
  const std::string out_dir = argv[1];
  tegra::shardbuild::ShardBuildOptions options;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      options.num_shards = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--budget-mb") == 0 && i + 1 < argc) {
      options.memory_budget_bytes =
          static_cast<size_t>(std::atoll(argv[++i])) << 20;
    } else {
      PrintUsage();
      return 2;
    }
  }
  auto specs = ParseSpecList(spec);
  if (!specs.ok()) return Fail(specs.status());
  tegra::ThreadPool pool(4);
  options.pool = &pool;
  tegra::shardbuild::ShardBuilder builder(out_dir, options);
  ForEachSpecTable(specs.value(),
                   [&](const tegra::Table& t) { builder.AddTable(t); });
  auto stats = builder.Finish();
  if (!stats.ok()) return Fail(stats.status());
  std::printf(
      "built %s (sharded, %u shards, %llu columns, %llu values, "
      "%u spill epochs, %llu run files)\n",
      out_dir.c_str(), stats->num_shards,
      static_cast<unsigned long long>(stats->total_columns),
      static_cast<unsigned long long>(stats->total_values),
      stats->spill_epochs, static_cast<unsigned long long>(stats->run_files));
  return 0;
}

int CmdAppend(int argc, char** argv) {
  if (argc != 2) {
    PrintUsage();
    return 2;
  }
  const std::string dir = argv[0];
  auto delta = BuildSynthetic(argv[1]);
  if (!delta.ok()) return Fail(delta.status());
  const tegra::Status appended =
      tegra::shardbuild::AppendOverlay(dir, delta.value());
  if (!appended.ok()) return Fail(appended);
  std::printf("appended overlay to %s (%llu columns, %zu values)\n",
              dir.c_str(),
              static_cast<unsigned long long>(delta->TotalColumns()),
              delta->NumValues());
  return 0;
}

int CmdCompact(int argc, char** argv) {
  if (argc != 1) {
    PrintUsage();
    return 2;
  }
  tegra::ThreadPool pool(4);
  const tegra::Status compacted = tegra::shardbuild::Compact(argv[0], &pool);
  if (!compacted.ok()) return Fail(compacted);
  std::printf("compacted %s\n", argv[0]);
  return 0;
}

int CmdVerify(int argc, char** argv) {
  if (argc != 1) {
    PrintUsage();
    return 2;
  }
  const tegra::Status status = tegra::store::VerifyCorpusFile(argv[0]);
  if (!status.ok()) return Fail(status);
  std::printf("%s: ok\n", argv[0]);
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc != 1) {
    PrintUsage();
    return 2;
  }
  auto info = tegra::store::DescribeCorpusFile(argv[0], /*check_crc=*/true);
  if (!info.ok()) return Fail(info.status());
  std::fputs(tegra::store::FormatCorpusFileInfo(info.value()).c_str(), stdout);
  return 0;
}

int CmdDigest(int argc, char** argv) {
  if (argc != 1) {
    PrintUsage();
    return 2;
  }
  auto loaded = tegra::store::OpenCorpus(argv[0]);
  if (!loaded.ok()) return Fail(loaded.status());
  const tegra::store::CorpusDigest digest =
      tegra::store::ComputeCorpusDigest(*loaded->view);
  std::printf("digest=%016llx values=%llu columns=%llu\n",
              static_cast<unsigned long long>(digest.digest),
              static_cast<unsigned long long>(digest.num_values),
              static_cast<unsigned long long>(digest.total_columns));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "build") return CmdBuild(argc - 2, argv + 2);
  if (cmd == "build-sharded") return CmdBuildSharded(argc - 2, argv + 2);
  if (cmd == "append") return CmdAppend(argc - 2, argv + 2);
  if (cmd == "compact") return CmdCompact(argc - 2, argv + 2);
  if (cmd == "verify") return CmdVerify(argc - 2, argv + 2);
  if (cmd == "stats") return CmdStats(argc - 2, argv + 2);
  if (cmd == "digest") return CmdDigest(argc - 2, argv + 2);
  if (cmd == "--help" || cmd == "-h") {
    PrintUsage();
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  PrintUsage();
  return 2;
}
