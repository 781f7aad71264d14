// End-to-end test of the sharded-corpus hot path in the real tegra_serve
// binary: builds a 4-shard corpus directory, starts the daemon on it, keeps
// extraction traffic in flight while an overlay append + reload swaps
// generations, and asserts that (a) zero in-flight requests fail, (b) the
// reload is O(delta) — every base shard mapping is reused (visible as
// corpus.parts_reused on /varz), (c) requests touching overlay-only values
// succeed, (d) a corrupted manifest is rejected while the old generation
// keeps serving, and (e) compaction + SIGHUP returns the directory to the
// overlay-free steady state.
//
// The binary path is injected at compile time via TEGRA_SERVE_BINARY.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "corpus/column_index.h"
#include "net/http_client.h"
#include "serve_process_util.h"
#include "service/serve_json.h"
#include "shard/shard_builder.h"
#include "store/manifest.h"
#include "synth/corpus_gen.h"

namespace tegra {
namespace serve {
namespace {

std::string CorpusDir() {
  return testing::TempDir() + "serve_shard_e2e_" + std::to_string(::getpid());
}

std::vector<Table> MakeTables(size_t n, uint64_t seed) {
  synth::TableGenerator gen(synth::CorpusProfile::kWeb, seed);
  return gen.GenerateMany(n);
}

ColumnIndex BuildIndex(const std::vector<Table>& tables) {
  ColumnIndex index;
  for (const Table& t : tables) index.AddTable(t);
  index.Finalize();
  return index;
}

void BuildShardedOrDie(const std::string& dir,
                       const std::vector<Table>& tables) {
  shardbuild::ShardBuildOptions options;
  options.num_shards = 4;
  shardbuild::ShardBuilder builder(dir, options);
  for (const Table& t : tables) builder.AddTable(t);
  const auto stats = builder.Finish();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
}

double VarzGauge(int port, const std::string& name) {
  const auto varz = net::HttpClient("127.0.0.1", port).Get("/varz");
  if (!varz.ok() || varz->status != 200) return -1;
  const auto parsed = ParseJson(varz->body);
  if (!parsed.ok()) return -1;
  return (*parsed)["gauges"][name].AsNumber(-1);
}

/// An extraction request over arbitrary line content (the canned helper
/// only knows the fixed city table; here we need overlay-only values).
std::string CustomRequestLine(int id, const std::vector<std::string>& lines) {
  JsonValue request = JsonValue::Object();
  request.Set("id", JsonValue::Number(id));
  JsonValue array = JsonValue::Array();
  for (const std::string& line : lines) array.Append(JsonValue::Str(line));
  request.Set("lines", std::move(array));
  request.Set("bypass_cache", JsonValue::Bool(true));
  return request.Dump();
}

TEST(ServeShardReloadE2eTest, OverlayAppendReloadIsODeltaWithZeroFailures) {
  const std::string dir = CorpusDir();
  const auto base_tables = MakeTables(120, 1);
  BuildShardedOrDie(dir, base_tables);

  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start(
      {"--corpus", dir, "--admin-port", "0", "--workers", "2"}));
  const std::string ready_line = daemon.NextLine();
  const auto ready = ParseJson(ready_line);
  ASSERT_TRUE(ready.ok()) << ready_line;
  ASSERT_EQ((*ready)["event"].AsString(), "admin_ready") << ready_line;
  const int port = static_cast<int>((*ready)["port"].AsNumber(0));
  ASSERT_GT(port, 0) << ready_line;

  // The daemon opened the directory as a sharded corpus.
  EXPECT_EQ(VarzGauge(port, "corpus.shards"), 4);
  EXPECT_EQ(VarzGauge(port, "corpus.overlays"), 0);
  const double base_values = VarzGauge(port, "corpus.values");
  EXPECT_GT(base_values, 0);

  // Find values the overlay introduces that the base corpus has never seen:
  // proof later that queries are actually routed into the overlay.
  const auto delta_tables = MakeTables(25, 2);
  const ColumnIndex delta = BuildIndex(delta_tables);
  const ColumnIndex base_index = BuildIndex(base_tables);
  std::vector<std::string> overlay_only;
  delta.ForEachValue([&](ValueId, const std::string& value) {
    if (overlay_only.size() < 8 &&
        base_index.Lookup(value) == kInvalidValueId) {
      overlay_only.push_back(value);
    }
  });
  ASSERT_FALSE(overlay_only.empty());

  // Queue a burst of in-flight extractions, append the overlay, and chase
  // with a reload so the generation swap lands under live traffic.
  int next_id = 1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(daemon.WriteLine(ExtractionRequestLine(next_id++, 32, i % 8)));
  }
  ASSERT_TRUE(shardbuild::AppendOverlay(dir, delta).ok());
  ASSERT_TRUE(daemon.WriteLine("{\"id\":9000,\"cmd\":\"corpus_reload\"}"));
  for (int i = 0; i < 8; ++i) {
    const std::string line = daemon.NextLine();
    const auto response = ParseJson(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_TRUE((*response)["ok"].AsBool(false))
        << "in-flight request failed across sharded reload: " << line;
  }
  const std::string ack_line = daemon.NextLine();
  const auto ack = ParseJson(ack_line);
  ASSERT_TRUE(ack.ok()) << ack_line;
  ASSERT_TRUE((*ack)["ok"].AsBool(false)) << ack_line;
  EXPECT_EQ((*ack)["format"].AsString(), "sharded-v2") << ack_line;
  EXPECT_EQ((*ack)["generation"].AsNumber(0), 2) << ack_line;

  // O(delta): all four base shard mappings were adopted, only the overlay
  // was mapped fresh; the value universe grew by the delta.
  EXPECT_EQ(VarzGauge(port, "corpus.overlays"), 1);
  EXPECT_EQ(VarzGauge(port, "corpus.parts_reused"), 4);
  EXPECT_GT(VarzGauge(port, "corpus.values"), base_values);

  // Queries over overlay-only values run against the new generation. The
  // daemon pipelines extraction responses, so a standalone request is chased
  // with a control command whose Flush(0) pushes the response out.
  ASSERT_TRUE(daemon.WriteLine(CustomRequestLine(next_id++, overlay_only)));
  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"metrics\"}"));
  const std::string overlay_line = daemon.NextLine();
  const auto overlay_response = ParseJson(overlay_line);
  ASSERT_TRUE(overlay_response.ok()) << overlay_line;
  EXPECT_TRUE((*overlay_response)["ok"].AsBool(false)) << overlay_line;
  daemon.NextLine();  // metrics payload

  // A corrupted manifest must be rejected at open: the reload fails, the
  // generation holds, and the old sharded corpus keeps serving.
  const std::string manifest_path = dir + "/MANIFEST.tgrs";
  auto manifest_bytes = ReadFileToString(manifest_path);
  ASSERT_TRUE(manifest_bytes.ok());
  {
    std::string tampered = manifest_bytes.value();
    tampered[20] = static_cast<char>(tampered[20] ^ 0x5a);
    ASSERT_TRUE(AtomicWriteFile(manifest_path, tampered).ok());
  }
  ASSERT_TRUE(daemon.WriteLine("{\"id\":9100,\"cmd\":\"corpus_reload\"}"));
  const std::string bad_line = daemon.NextLine();
  const auto bad = ParseJson(bad_line);
  ASSERT_TRUE(bad.ok()) << bad_line;
  EXPECT_FALSE((*bad)["ok"].AsBool(true)) << bad_line;
  EXPECT_EQ((*bad)["generation"].AsNumber(0), 2) << bad_line;
  ASSERT_TRUE(daemon.WriteLine(ExtractionRequestLine(next_id++, 16, 0)));
  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"metrics\"}"));
  const std::string after_line = daemon.NextLine();
  const auto after = ParseJson(after_line);
  ASSERT_TRUE(after.ok()) << after_line;
  EXPECT_TRUE((*after)["ok"].AsBool(false))
      << "old generation stopped serving after failed reload: " << after_line;
  daemon.NextLine();  // metrics payload
  ASSERT_TRUE(AtomicWriteFile(manifest_path, manifest_bytes.value()).ok());

  // Compaction folds the overlay into new shard files; SIGHUP picks the new
  // manifest up out-of-band. Nothing is reusable (every shard was rewritten)
  // and the overlay count returns to zero — same value universe.
  ASSERT_TRUE(shardbuild::Compact(dir).ok());
  ASSERT_EQ(::kill(daemon.pid(), SIGHUP), 0);
  bool reloaded = false;
  for (int poll = 0; poll < 100 && !reloaded; ++poll) {
    if (VarzGauge(port, "corpus.generation") >= 3) {
      reloaded = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(reloaded) << "SIGHUP did not reload the compacted manifest";
  EXPECT_EQ(VarzGauge(port, "corpus.overlays"), 0);
  EXPECT_EQ(VarzGauge(port, "corpus.parts_reused"), 0);
  EXPECT_EQ(VarzGauge(port, "corpus.shards"), 4);

  // Overlay-only values survived compaction.
  ASSERT_TRUE(daemon.WriteLine(CustomRequestLine(next_id++, overlay_only)));
  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"metrics\"}"));
  const std::string compacted_line = daemon.NextLine();
  const auto compacted = ParseJson(compacted_line);
  ASSERT_TRUE(compacted.ok()) << compacted_line;
  EXPECT_TRUE((*compacted)["ok"].AsBool(false)) << compacted_line;
  daemon.NextLine();  // metrics payload

  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"quit\"}"));
  daemon.CloseStdin();
  EXPECT_EQ(daemon.Wait(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace tegra
