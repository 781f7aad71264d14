// End-to-end test of corpus hot reload in the real tegra_serve binary:
// builds a TGRAIDX2 snapshot, starts the daemon on it, keeps extraction
// traffic in flight while {"cmd":"corpus_reload"} swaps generations, and
// asserts that (a) zero in-flight requests fail across the swaps, (b) the
// generation number climbs, (c) /varz reflects the bumped corpus.generation,
// (d) a corrupted snapshot is rejected while the old generation keeps
// serving, and (e) SIGHUP triggers the same reload out-of-band.
//
// The binary path is injected at compile time via TEGRA_SERVE_BINARY.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "corpus/column_index.h"
#include "net/http_client.h"
#include "serve_process_util.h"
#include "service/serve_json.h"
#include "store/snapshot_writer.h"
#include "synth/corpus_gen.h"

namespace tegra {
namespace serve {
namespace {

std::string SnapshotPath() {
  return testing::TempDir() + "serve_reload_e2e_" +
         std::to_string(::getpid()) + ".idx2";
}

void WriteSnapshotOrDie(const std::string& path, uint64_t seed) {
  const ColumnIndex index =
      synth::BuildBackgroundIndex(synth::CorpusProfile::kWeb, 300, seed);
  const Status written = store::WriteSnapshot(index, path);
  ASSERT_TRUE(written.ok()) << written.ToString();
}

/// Gauge value out of a /varz scrape.
double VarzGauge(int port, const std::string& name) {
  const auto varz = net::HttpClient("127.0.0.1", port).Get("/varz");
  if (!varz.ok() || varz->status != 200) return -1;
  const auto parsed = ParseJson(varz->body);
  if (!parsed.ok()) return -1;
  return (*parsed)["gauges"][name].AsNumber(-1);
}

TEST(ServeReloadE2eTest, HotReloadUnderLoadWithZeroFailedRequests) {
  const std::string path = SnapshotPath();
  WriteSnapshotOrDie(path, /*seed=*/7);

  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start(
      {"--corpus", path, "--admin-port", "0", "--workers", "2"}));

  const std::string ready_line = daemon.NextLine();
  const auto ready = ParseJson(ready_line);
  ASSERT_TRUE(ready.ok()) << ready_line;
  ASSERT_EQ((*ready)["event"].AsString(), "admin_ready") << ready_line;
  const int port = static_cast<int>((*ready)["port"].AsNumber(0));
  ASSERT_GT(port, 0) << ready_line;

  // Interleave extraction traffic with reloads: each round queues a burst of
  // bypass-cache requests and immediately chases it with corpus_reload, so
  // the swap lands while those requests are queued or mid-extraction. Round
  // 1 republishes different content (seed 8) to make the swap substantive.
  int next_id = 1;
  int requests_sent = 0;
  double last_generation = 0;
  for (int round = 0; round < 3; ++round) {
    if (round == 1) WriteSnapshotOrDie(path, /*seed=*/8);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          daemon.WriteLine(ExtractionRequestLine(next_id++, 32, i % 8)));
      ++requests_sent;
    }
    ASSERT_TRUE(daemon.WriteLine("{\"id\":9000,\"cmd\":\"corpus_reload\"}"));

    // The daemon answers the queued extractions first (the reload response
    // is emitted after the in-flight flush), then the reload ack.
    for (int i = 0; i < 8; ++i) {
      const std::string line = daemon.NextLine();
      const auto response = ParseJson(line);
      ASSERT_TRUE(response.ok()) << line;
      EXPECT_TRUE((*response)["ok"].AsBool(false))
          << "in-flight request failed across reload: " << line;
    }
    const std::string ack_line = daemon.NextLine();
    const auto ack = ParseJson(ack_line);
    ASSERT_TRUE(ack.ok()) << ack_line;
    ASSERT_TRUE((*ack)["ok"].AsBool(false)) << ack_line;
    EXPECT_EQ((*ack)["format"].AsString(), "mmap-v2") << ack_line;
    const double generation = (*ack)["generation"].AsNumber(0);
    EXPECT_GT(generation, last_generation) << ack_line;
    last_generation = generation;
  }
  // Initial load is generation 1; three reloads make 4.
  EXPECT_EQ(last_generation, 4) << "unexpected generation after 3 reloads";
  EXPECT_EQ(requests_sent, 24);

  // The bumped generation is visible to the admin plane.
  EXPECT_EQ(VarzGauge(port, "corpus.generation"), last_generation);

  // A torn/corrupt snapshot must be rejected: the reload fails, the
  // generation does not move, and the old corpus keeps serving. The garbage
  // is published via rename (a new inode) — truncating the live file in
  // place would invalidate the daemon's current mapping, which is exactly
  // what the atomic-publication contract exists to prevent.
  ASSERT_TRUE(
      AtomicWriteFile(path, "TGRAIDX2 but then garbage follows").ok());
  ASSERT_TRUE(daemon.WriteLine("{\"id\":9100,\"cmd\":\"corpus_reload\"}"));
  const std::string bad_line = daemon.NextLine();
  const auto bad = ParseJson(bad_line);
  ASSERT_TRUE(bad.ok()) << bad_line;
  EXPECT_FALSE((*bad)["ok"].AsBool(true)) << bad_line;
  EXPECT_EQ((*bad)["generation"].AsNumber(0), last_generation) << bad_line;
  ASSERT_TRUE(daemon.WriteLine(ExtractionRequestLine(next_id++, 16, 0)));
  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"metrics\"}"));
  const std::string after_line = daemon.NextLine();
  const auto after = ParseJson(after_line);
  ASSERT_TRUE(after.ok()) << after_line;
  EXPECT_TRUE((*after)["ok"].AsBool(false))
      << "old generation stopped serving after failed reload: " << after_line;
  const std::string metrics_line = daemon.NextLine();
  const auto metrics = ParseJson(metrics_line);
  ASSERT_TRUE(metrics.ok()) << metrics_line;
  EXPECT_GE((*metrics)["counters"]["store.reload_errors_total"].AsNumber(0), 1)
      << metrics_line;

  // SIGHUP drives the same reload path out-of-band: republish a good
  // snapshot, signal, and watch the generation climb on /varz.
  WriteSnapshotOrDie(path, /*seed=*/9);
  ASSERT_EQ(::kill(daemon.pid(), SIGHUP), 0);
  bool bumped = false;
  for (int poll = 0; poll < 100 && !bumped; ++poll) {
    if (VarzGauge(port, "corpus.generation") > last_generation) {
      bumped = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(bumped) << "SIGHUP did not bump corpus.generation";

  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"quit\"}"));
  daemon.CloseStdin();
  EXPECT_EQ(daemon.Wait(), 0);
  std::remove(path.c_str());
}

TEST(ServeReloadE2eTest, ReloadUnavailableWithoutCorpusPath) {
  // A daemon running on a synthetic in-process corpus has no path to reopen;
  // corpus_reload must fail cleanly, not crash.
  ServeProcess daemon;
  ASSERT_TRUE(daemon.Start({"--build-corpus", "web:200:3"}));
  ASSERT_TRUE(daemon.WriteLine("{\"id\":1,\"cmd\":\"corpus_reload\"}"));
  ASSERT_TRUE(daemon.WriteLine("{\"cmd\":\"quit\"}"));
  daemon.CloseStdin();
  const std::string line = daemon.NextLine();
  const auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_FALSE((*parsed)["ok"].AsBool(true)) << line;
  EXPECT_EQ((*parsed)["code"].AsString(), "InvalidArgument") << line;
  EXPECT_EQ(daemon.Wait(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace tegra
