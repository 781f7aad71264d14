// tegra_serve — a long-lived extraction daemon speaking newline-delimited
// JSON over stdin/stdout. One request per line in, one reply per line out,
// in submission order. Each reply is written as soon as it and every
// earlier reply are complete, so the service layer is driveable end-to-end
// with nothing but a pipe:
//
//   $ printf '%s\n' '{"id":1,"lines":["Boston Massachusetts 645,966",
//     "Worcester Massachusetts 182,544"]}' '{"cmd":"quit"}' |
//     ./tegra_serve --corpus web.idx2
//
// Request objects:
//   {"id": <any>, "lines": ["row", ...],          // required
//    "columns": N,                                 // optional, 0 = auto
//    "deadline_ms": D,                             // optional
//    "bypass_cache": true}                         // optional
// Control objects (only those with no HTTP twin):
//   {"cmd": "corpus_reload"} -> reopen --corpus (TGRAIDX2 or TGRSMAN1) and
//                               atomically swap the engine to the new
//                               generation; in-flight requests finish on the
//                               generation they started with. Replies
//                               {"ok":true,"generation":G,"format":...} or
//                               {"ok":false,...} with the old corpus kept,
//                               after every earlier reply. SIGHUP triggers
//                               the same reload out-of-band.
//   {"cmd": "inject_stall", "ms": N}
//                            -> watchdog drill: submit one probe request
//                               whose worker sleeps N ms (default 2000)
//                               mid-extraction, so the health watchdog can
//                               be exercised end-to-end (stack capture
//                               included). Control plane only — the HTTP
//                               data plane cannot reach this
//   {"cmd": "quit"}          -> drain in-flight work and exit
//
// Telemetry is served over HTTP with --admin-port (zPages: /metrics /healthz
// /readyz /statusz /tracez /slowlogz /varz /timeseriesz /alertz
// /pprof/profile), so Prometheus scrapers, load balancers and browsers reach
// it without the pipe. When the admin plane starts, one NDJSON event line
//   {"event":"admin_ready","port":N}
// is emitted on stdout before any responses — with `--admin-port 0` (bind an
// ephemeral port) this line is how drivers learn the actual port.
//
// With --port the extraction write path itself is served over HTTP: an
// epoll-driven keep-alive data plane answering POST /v1/extract with single
// ({"lines":[...]}) and batch ({"requests":[...]}) bodies (see
// docs/SERVING.md). It announces itself the same way:
//   {"event":"data_ready","port":N}
//
// Response objects have the shape of a single POST /v1/extract reply (one
// serializer, serve::ExtractionResponseToJson); "id" is echoed when the
// request carried one:
//   {"id":1,"ok":true,"columns":3,"rows":[[...],...],"sp":...,
//    "quality_level":0,"cache_hit":false,"queue_ms":...,"extract_ms":...,
//    "total_ms":...}
//   {"id":2,"ok":false,"code":"Unavailable","error":"queue full ...",
//    "quality_level":0,"queue_ms":...,"total_ms":...}
//
// Malformed input (unparsable JSON, missing/empty "lines", any other "cmd")
// is answered with a structured error object and counted in
// `serve.bad_request` rather than silently dropped.
//
// SIGTERM and SIGINT trigger the same graceful drain as {"cmd":"quit"}:
// stop accepting, finish in-flight work, flush the access log and the
// structured logger, exit 0. Signals are consumed synchronously by a
// dedicated thread (sigwait) — no async handler exists in the process.

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "corpus/column_index.h"
#include "health/monitor.h"
#include "prof/profiler.h"
#include "prof/runtime_stats.h"
#include "prof/wide_event.h"
#include "corpus/corpus_stats.h"
#include "net/http_server.h"
#include "qos/degradation.h"
#include "qos/token_bucket.h"
#include "service/admin_pages.h"
#include "service/data_plane.h"
#include "service/extraction_service.h"
#include "service/extractor_source.h"
#include "service/serve_json.h"
#include "store/corpus_manager.h"
#include "synth/corpus_gen.h"
#include "trace/log.h"
#include "trace/trace.h"

namespace {

using tegra::serve::ExtractionRequest;
using tegra::serve::ExtractionResponse;
using tegra::serve::JsonValue;

void PrintUsage() {
  std::fputs(R"(usage: tegra_serve [options]

Long-lived TEGRA extraction service over stdin/stdout (NDJSON).

options:
  --corpus PATH           load a background corpus — a TGRAIDX2 snapshot or a
                          sharded directory (see tegra_corpusctl);
                          {"cmd":"corpus_reload"} or SIGHUP re-opens it and
                          hot-swaps the engine without dropping requests
  --build-corpus SPEC     build a synthetic corpus; SPEC = profile:tables:seed
                          with profile in {web, wiki, enterprise}
                          (default: web:5000:1 when --corpus is not given)
  --workers N             extraction worker threads, 1..1024 (default 4)
  --queue-depth N         admission-control queue bound, 0..2^20 (default 64)
  --deadline-ms D         default per-request deadline in ms, 0..86400000
                          (default: none)
  --cache-capacity N      whole-list result cache entries, 0..2^32
                          (default 1024)
  --co-cache-capacity N   corpus co-occurrence memo entries, 0..2^32
                          (default 1M)
  --alpha X               syntactic weight in [0,1] (default 0.5)
  --threads N             per-extraction anchor threads, 1..1024 (default 1)
  --trace on|off          runtime span recording (default on)
  --slowlog N             slow-request log capacity, 0..2^16 (default 8)
  --admin-port N          serve the HTTP admin plane (zPages: /metrics
                          /healthz /readyz /statusz /tracez /slowlogz /varz)
                          on 127.0.0.1:N; N=0 binds an ephemeral port and
                          the bound port is reported via the
                          {"event":"admin_ready","port":N} stdout line and
                          the startup log. Omit the flag to disable (default)
  --admin-bind ADDR       admin plane bind address (default 127.0.0.1;
                          use 0.0.0.0 to expose beyond loopback)
  --port N                serve the extraction data plane — an event-loop
                          HTTP/1.1 server answering POST /v1/extract with
                          single and batch JSON bodies — on N; N=0 binds an
                          ephemeral port reported via the
                          {"event":"data_ready","port":N} stdout line.
                          Omit the flag to disable (default)
  --bind ADDR             data plane bind address (default 127.0.0.1)
  --max-connections N     data plane concurrent-connection cap; clients
                          beyond it are shed with 503 + Retry-After
                          (default 1024)
  --io-timeout-ms D       data plane per-connection read/write deadline in
                          milliseconds; a stalled mid-request read gets 408
                          (default 10000)
  --log-format text|json  stderr log rendering (default text)
  --log-level LEVEL       debug|info|warn|error (default info)
  --profile-hz N          always-on SIGPROF sampling frequency (default 99;
                          0 disables the CPU profiler — /pprof/profile then
                          arms it per capture)
  --access-log PATH       wide-event request log: one tail-sampled JSON line
                          per completed /v1/extract exchange ("stderr" logs
                          to stderr). Omit to disable (default)
  --access-log-sample X   keep probability for ordinary requests in [0,1]
                          (default 1.0; errors and slow requests are always
                          kept regardless)
  --access-log-slow-ms D  requests at or above D ms total latency are always
                          kept (default 100)
  --health-interval-ms D  health recorder cadence: every D ms the metrics
                          registry is snapshotted into in-process time
                          series (/timeseriesz), SLO burn rates re-evaluated
                          (/alertz) and the stall watchdog run. 0 disables
                          the recorder thread entirely (default 1000)
  --stall-threshold-ms D  a worker request (extraction, corpus reload)
                          running longer than D ms is a stall: the watchdog
                          captures the stuck thread's stack, logs it and
                          increments health.stalls_total (default 30000)
  --slo-config PATH       JSON SLO definitions replacing the built-in rules;
                          {"slos":[{"name":...,"kind":"error_ratio"|
                          "gauge_above"|"gauge_below",...}]} (see
                          docs/OBSERVABILITY.md)
  --qos on|off            adaptive degradation ladder: under overload the
                          service trades extraction quality for latency one
                          rung at a time (anchor budget -> DP cap ->
                          syntactic-only -> ListExtract baseline) instead of
                          shedding, and recovers with hysteresis. Every
                          response carries its "quality_level". Off behaves
                          exactly like the reject-at-queue service
                          (default off)
  --qos-max-rung N        deepest rung the ladder may reach, 1..4 (default 4)
  --qos-target-p99-ms D   served p99 that maps to pressure 1.0 — the latency
                          SLO the ladder defends (default 2000)
  --qos-target-queue-fraction X
                          queue fill fraction mapping to pressure 1.0
                          (default 0.5 — engage well before the 503 cliff)
  --qos-escalate-hold-ms D  pressure must hold >= 1.0 this long before each
                          escalation (default 1000)
  --qos-recover-hold-ms D pressure must hold <= 0.5 this long before each
                          recovery (default 5000)
  --qos-degraded-budget-s D  the qos_degraded SLO alert fires after the
                          ladder has been above rung 0 for D consecutive
                          seconds (default 300)
  --quota-rate X          per-tenant token-bucket refill in requests/second,
                          keyed on the X-Tegra-Tenant header (requests
                          without the header share one anonymous bucket); a
                          drained bucket answers 429 + Retry-After. 0
                          disables quotas (default 0)
  --quota-burst X         per-tenant bucket capacity (default max(rate, 1))
  --help                  this text
)",
             stderr);
}

struct ServeCliOptions {
  std::string corpus_path;
  /// Synthetic corpus recipe, used when --corpus is not given.
  std::string build_spec = "web:5000:1";
  size_t co_cache_capacity = 1 << 20;
  bool trace_enabled = true;
  /// -1 = admin plane disabled; 0 = ephemeral port; >0 = fixed port.
  int admin_port = -1;
  std::string admin_bind = "127.0.0.1";
  /// -1 = data plane disabled; 0 = ephemeral port; >0 = fixed port.
  int data_port = -1;
  std::string data_bind = "127.0.0.1";
  size_t max_connections = 1024;
  int io_timeout_ms = 10000;
  /// SIGPROF sampling frequency; 0 leaves the profiler disarmed until a
  /// capture asks for it.
  int profile_hz = 99;
  /// Wide-event access log destination; empty = disabled, "stderr" = stderr.
  std::string access_log_path;
  double access_log_sample = 1.0;
  double access_log_slow_ms = 100.0;
  /// Health recorder cadence; 0 disables the recorder thread.
  int health_interval_ms = 1000;
  int stall_threshold_ms = 30000;
  /// JSON SLO definitions; empty selects SloEngine::DefaultSpecs().
  std::string slo_config_path;
  /// Adaptive quality/latency trade-off under overload; off = today's
  /// reject-at-queue behavior, bit-identical results.
  bool qos_enabled = false;
  tegra::qos::DegradationOptions qos;
  /// The qos_degraded SLO alert's for_seconds budget.
  double qos_degraded_budget_s = 300;
  /// Per-tenant admission quotas (rate <= 0 disables).
  tegra::qos::QuotaOptions quota;
  tegra::TegraOptions tegra;
  tegra::serve::ServiceOptions service;
};

/// Upper bounds of the numeric flags. Counts beyond them are typos or wrapped
/// negatives, not sizing: each one would start that many threads, disable
/// admission control or retain every request.
constexpr uint64_t kMaxThreads = 1024;
constexpr uint64_t kMaxQueueDepth = uint64_t{1} << 20;
constexpr uint64_t kMaxCacheEntries = uint64_t{1} << 32;
constexpr uint64_t kMaxSlowlog = uint64_t{1} << 16;
constexpr double kMaxDeadlineMs = 86400000;  // one day

/// Parses the whole of `v` as a base-10 count in [lo, hi]: no sign, no
/// whitespace, no trailing bytes. Complains on stderr when it cannot.
template <typename T>
bool ParseCount(const std::string& flag, const char* v, uint64_t lo,
                uint64_t hi, T* out) {
  const char* end = v + std::strlen(v);
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(v, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    std::fprintf(stderr, "bad %s (want an integer in %llu..%llu): %s\n",
                 flag.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), v);
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// Parses the whole of `v` as a decimal number of milliseconds in
/// [0, kMaxDeadlineMs] and stores it in seconds.
bool ParseMillisAsSeconds(const std::string& flag, const char* v,
                          double* seconds) {
  const char* end = v + std::strlen(v);
  double ms = 0;
  const auto [ptr, ec] = std::from_chars(v, end, ms);
  if (ec != std::errc() || ptr != end || !(ms >= 0 && ms <= kMaxDeadlineMs)) {
    std::fprintf(stderr, "bad %s (want milliseconds in 0..%.0f): %s\n",
                 flag.c_str(), kMaxDeadlineMs, v);
    return false;
  }
  *seconds = ms / 1e3;
  return true;
}

bool ParseArgs(int argc, char** argv, ServeCliOptions* opts) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (arg == "--corpus") {
      if (!(v = need_value(i))) return false;
      opts->corpus_path = v;
    } else if (arg == "--build-corpus") {
      if (!(v = need_value(i))) return false;
      opts->build_spec = v;
    } else if (arg == "--workers") {
      if (!(v = need_value(i)) ||
          !ParseCount(arg, v, 1, kMaxThreads, &opts->service.num_workers)) {
        return false;
      }
    } else if (arg == "--queue-depth") {
      if (!(v = need_value(i)) ||
          !ParseCount(arg, v, 0, kMaxQueueDepth,
                      &opts->service.max_queue_depth)) {
        return false;
      }
    } else if (arg == "--deadline-ms") {
      if (!(v = need_value(i)) ||
          !ParseMillisAsSeconds(arg, v,
                                &opts->service.default_deadline_seconds)) {
        return false;
      }
    } else if (arg == "--cache-capacity") {
      if (!(v = need_value(i)) ||
          !ParseCount(arg, v, 0, kMaxCacheEntries,
                      &opts->service.result_cache_capacity)) {
        return false;
      }
    } else if (arg == "--co-cache-capacity") {
      if (!(v = need_value(i)) ||
          !ParseCount(arg, v, 0, kMaxCacheEntries, &opts->co_cache_capacity)) {
        return false;
      }
    } else if (arg == "--alpha") {
      if (!(v = need_value(i))) return false;
      opts->tegra.distance.alpha = std::atof(v);
      if (!(opts->tegra.distance.alpha >= 0 &&
            opts->tegra.distance.alpha <= 1)) {
        std::fprintf(stderr, "--alpha must be in [0,1]\n");
        return false;
      }
    } else if (arg == "--threads") {
      if (!(v = need_value(i)) ||
          !ParseCount(arg, v, 1, kMaxThreads, &opts->tegra.num_threads)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (!(v = need_value(i))) return false;
      opts->trace_enabled = std::string(v) != "off";
    } else if (arg == "--slowlog") {
      if (!(v = need_value(i)) ||
          !ParseCount(arg, v, 0, kMaxSlowlog,
                      &opts->service.slowlog_capacity)) {
        return false;
      }
    } else if (arg == "--admin-port") {
      if (!(v = need_value(i))) return false;
      opts->admin_port = std::atoi(v);
      if (opts->admin_port < 0 || opts->admin_port > 65535) {
        std::fprintf(stderr, "bad --admin-port: %s\n", v);
        return false;
      }
    } else if (arg == "--admin-bind") {
      if (!(v = need_value(i))) return false;
      opts->admin_bind = v;
    } else if (arg == "--port") {
      if (!(v = need_value(i))) return false;
      opts->data_port = std::atoi(v);
      if (opts->data_port < 0 || opts->data_port > 65535) {
        std::fprintf(stderr, "bad --port: %s\n", v);
        return false;
      }
    } else if (arg == "--bind") {
      if (!(v = need_value(i))) return false;
      opts->data_bind = v;
    } else if (arg == "--max-connections") {
      if (!(v = need_value(i))) return false;
      opts->max_connections = static_cast<size_t>(std::atoll(v));
      if (opts->max_connections == 0) {
        std::fprintf(stderr, "bad --max-connections: %s\n", v);
        return false;
      }
    } else if (arg == "--io-timeout-ms") {
      if (!(v = need_value(i))) return false;
      opts->io_timeout_ms = std::atoi(v);
      if (opts->io_timeout_ms <= 0) {
        std::fprintf(stderr, "bad --io-timeout-ms: %s\n", v);
        return false;
      }
    } else if (arg == "--profile-hz") {
      if (!(v = need_value(i))) return false;
      opts->profile_hz = std::atoi(v);
      if (opts->profile_hz < 0 || opts->profile_hz > 1000) {
        std::fprintf(stderr, "bad --profile-hz: %s\n", v);
        return false;
      }
    } else if (arg == "--access-log") {
      if (!(v = need_value(i))) return false;
      opts->access_log_path = v;
    } else if (arg == "--access-log-sample") {
      if (!(v = need_value(i))) return false;
      opts->access_log_sample = std::atof(v);
      if (opts->access_log_sample < 0 || opts->access_log_sample > 1) {
        std::fprintf(stderr, "bad --access-log-sample: %s\n", v);
        return false;
      }
    } else if (arg == "--access-log-slow-ms") {
      if (!(v = need_value(i))) return false;
      opts->access_log_slow_ms = std::atof(v);
    } else if (arg == "--health-interval-ms") {
      if (!(v = need_value(i))) return false;
      opts->health_interval_ms = std::atoi(v);
      if (opts->health_interval_ms < 0) {
        std::fprintf(stderr, "bad --health-interval-ms: %s\n", v);
        return false;
      }
    } else if (arg == "--stall-threshold-ms") {
      if (!(v = need_value(i))) return false;
      opts->stall_threshold_ms = std::atoi(v);
      if (opts->stall_threshold_ms <= 0) {
        std::fprintf(stderr, "bad --stall-threshold-ms: %s\n", v);
        return false;
      }
    } else if (arg == "--slo-config") {
      if (!(v = need_value(i))) return false;
      opts->slo_config_path = v;
    } else if (arg == "--qos") {
      if (!(v = need_value(i))) return false;
      opts->qos_enabled = std::string(v) == "on";
      if (!opts->qos_enabled && std::string(v) != "off") {
        std::fprintf(stderr, "bad --qos (want on|off): %s\n", v);
        return false;
      }
    } else if (arg == "--qos-max-rung") {
      if (!(v = need_value(i))) return false;
      opts->qos.max_rung = std::atoi(v);
      if (opts->qos.max_rung < 1 ||
          opts->qos.max_rung > tegra::qos::kNumRungs - 1) {
        std::fprintf(stderr, "bad --qos-max-rung (want 1..%d): %s\n",
                     tegra::qos::kNumRungs - 1, v);
        return false;
      }
    } else if (arg == "--qos-target-p99-ms") {
      if (!(v = need_value(i))) return false;
      opts->qos.target_p99_seconds = std::atof(v) / 1e3;
      if (opts->qos.target_p99_seconds <= 0) {
        std::fprintf(stderr, "bad --qos-target-p99-ms: %s\n", v);
        return false;
      }
    } else if (arg == "--qos-target-queue-fraction") {
      if (!(v = need_value(i))) return false;
      opts->qos.target_queue_fraction = std::atof(v);
      if (opts->qos.target_queue_fraction <= 0 ||
          opts->qos.target_queue_fraction > 1) {
        std::fprintf(stderr, "bad --qos-target-queue-fraction: %s\n", v);
        return false;
      }
    } else if (arg == "--qos-escalate-hold-ms") {
      if (!(v = need_value(i))) return false;
      opts->qos.escalate_hold_seconds = std::atof(v) / 1e3;
      if (opts->qos.escalate_hold_seconds < 0) {
        std::fprintf(stderr, "bad --qos-escalate-hold-ms: %s\n", v);
        return false;
      }
    } else if (arg == "--qos-recover-hold-ms") {
      if (!(v = need_value(i))) return false;
      opts->qos.recover_hold_seconds = std::atof(v) / 1e3;
      if (opts->qos.recover_hold_seconds < 0) {
        std::fprintf(stderr, "bad --qos-recover-hold-ms: %s\n", v);
        return false;
      }
    } else if (arg == "--qos-degraded-budget-s") {
      if (!(v = need_value(i))) return false;
      opts->qos_degraded_budget_s = std::atof(v);
      if (opts->qos_degraded_budget_s <= 0) {
        std::fprintf(stderr, "bad --qos-degraded-budget-s: %s\n", v);
        return false;
      }
    } else if (arg == "--quota-rate") {
      if (!(v = need_value(i))) return false;
      opts->quota.rate = std::atof(v);
    } else if (arg == "--quota-burst") {
      if (!(v = need_value(i))) return false;
      opts->quota.burst = std::atof(v);
    } else if (arg == "--log-format") {
      if (!(v = need_value(i))) return false;
      const std::string format = v;
      if (format != "text" && format != "json") {
        std::fprintf(stderr, "bad --log-format (want text|json): %s\n", v);
        return false;
      }
      tegra::trace::Logger::Global().SetFormat(
          format == "json" ? tegra::trace::Logger::Format::kJson
                           : tegra::trace::Logger::Format::kText);
    } else if (arg == "--log-level") {
      if (!(v = need_value(i))) return false;
      const std::string level = v;
      tegra::trace::LogLevel min_level;
      if (level == "debug") {
        min_level = tegra::trace::LogLevel::kDebug;
      } else if (level == "info") {
        min_level = tegra::trace::LogLevel::kInfo;
      } else if (level == "warn") {
        min_level = tegra::trace::LogLevel::kWarn;
      } else if (level == "error") {
        min_level = tegra::trace::LogLevel::kError;
      } else {
        std::fprintf(stderr,
                     "bad --log-level (want debug|info|warn|error): %s\n", v);
        return false;
      }
      tegra::trace::Logger::Global().SetMinLevel(min_level);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

tegra::Result<tegra::ColumnIndex> BuildSyntheticCorpus(
    const std::string& spec_text) {
  auto spec = tegra::synth::ParseCorpusSpec(spec_text);
  if (!spec.ok()) return spec.status();
  tegra::trace::LogInfo(
      "building synthetic corpus",
      {{"profile", tegra::synth::CorpusProfileName(spec->profile)},
       {"tables", spec->tables}});
  return tegra::synth::BuildBackgroundIndex(spec->profile, spec->tables,
                                            spec->seed);
}

/// Parses a --slo-config file: {"slos":[{...}, ...]}. Each entry mirrors
/// health::SloSpec; an error-ratio rule without explicit windows gets the
/// canonical fast (5m/1h @ 14.4x) + slow (30m/6h @ 6x) pairs. The parse
/// lives in the tool because tegra_health sits below the JSON helpers.
tegra::Result<std::vector<tegra::health::SloSpec>> LoadSloConfig(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return tegra::Status::NotFound("cannot open --slo-config " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = tegra::serve::ParseJson(buffer.str());
  if (!parsed.ok()) return parsed.status();
  std::vector<tegra::health::SloSpec> specs;
  for (const JsonValue& item : (*parsed)["slos"].AsArray()) {
    tegra::health::SloSpec spec;
    spec.name = item["name"].AsString();
    if (spec.name.empty()) {
      return tegra::Status::InvalidArgument("slo entry without \"name\"");
    }
    const std::string kind = item["kind"].AsString();
    if (kind.empty() || kind == "error_ratio") {
      spec.kind = tegra::health::SloSpec::Kind::kErrorRatio;
    } else if (kind == "gauge_above") {
      spec.kind = tegra::health::SloSpec::Kind::kGaugeAbove;
    } else if (kind == "gauge_below") {
      spec.kind = tegra::health::SloSpec::Kind::kGaugeBelow;
    } else {
      return tegra::Status::InvalidArgument("unknown slo kind: " + kind);
    }
    spec.description = item["description"].AsString();
    for (const JsonValue& series : item["bad_series"].AsArray()) {
      spec.bad_series.push_back(series.AsString());
    }
    spec.total_series = item["total_series"].AsString();
    spec.objective = item["objective"].AsNumber(spec.objective);
    for (const JsonValue& w : item["windows"].AsArray()) {
      tegra::health::BurnWindow window;
      window.short_seconds = w["short_seconds"].AsNumber(window.short_seconds);
      window.long_seconds = w["long_seconds"].AsNumber(window.long_seconds);
      window.burn_threshold =
          w["burn_threshold"].AsNumber(window.burn_threshold);
      spec.windows.push_back(window);
    }
    if (spec.kind == tegra::health::SloSpec::Kind::kErrorRatio &&
        spec.windows.empty()) {
      spec.windows.push_back({300, 3600, 14.4});
      spec.windows.push_back({1800, 21600, 6.0});
    }
    spec.series = item["series"].AsString();
    spec.threshold = item["threshold"].AsNumber(0);
    spec.for_seconds = item["for_seconds"].AsNumber(0);
    spec.keep_seconds = item["keep_seconds"].AsNumber(spec.keep_seconds);
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return tegra::Status::InvalidArgument("no \"slos\" entries in " + path);
  }
  return specs;
}

struct InFlight {
  JsonValue id;
  std::future<ExtractionResponse> future;
};

void Emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// Writes the replies at the front of `inflight` in submission order: every
/// one that is already complete, and, while more than `keep` remain, the
/// oldest after waiting for it. Flush(inflight, 0) drains them all.
void Flush(std::deque<InFlight>* inflight, size_t keep) {
  while (!inflight->empty()) {
    InFlight& front = inflight->front();
    if (inflight->size() <= keep &&
        front.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
      return;
    }
    Emit(tegra::serve::ExtractionResponseToJson(&front.id, front.future.get())
             .Dump());
    inflight->pop_front();
  }
}

/// Emits a structured error object (id echoed when present) and counts it.
void EmitBadRequest(const JsonValue& id, const std::string& message,
                    tegra::Counter* bad_requests) {
  if (bad_requests != nullptr) bad_requests->Increment();
  tegra::trace::LogWarn("bad request", {{"error", message}});
  JsonValue err = JsonValue::Object();
  if (!id.AsString().empty() || id.AsNumber(0) != 0) err.Set("id", id);
  err.Set("ok", JsonValue::Bool(false));
  err.Set("code", JsonValue::Str("InvalidArgument"));
  err.Set("error", JsonValue::Str(message));
  Emit(err.Dump());
}

// ---- signals: SIGHUP -> reload, SIGTERM/SIGINT -> drain (sigwait) ----------
// All handled signals are blocked process-wide before any thread is spawned;
// a dedicated signal thread consumes them synchronously with sigwait(2).
// SIGHUP performs a corpus reload in ordinary thread context; SIGTERM and
// SIGINT write one byte to a self-pipe the main loop polls alongside stdin,
// turning delivery into an ordered graceful drain. No async signal handler
// exists at all, so nothing can interrupt the main loop's stdin read (and
// sanitizer runtimes, which defer handlers while a thread is parked in a
// restarting syscall, have nothing to defer). SIGPROF is not in this set:
// the sampling profiler's handler is the one deliberate async handler in
// the process and is async-signal-safe by construction.
sigset_t HandledSignalSet() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGHUP);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  ServeCliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    PrintUsage();
    return 2;
  }

  // Block every handled signal *now* — before the worker pool, admin plane
  // or signal thread exist — so every thread inherits the mask and the
  // dedicated signal thread below is the only consumer. SIGHUP only
  // triggers a reload when a reloadable corpus path exists; SIGTERM/SIGINT
  // always mean "drain gracefully".
  const bool sighup_reload = !opts.corpus_path.empty();
  {
    sigset_t handled = HandledSignalSet();
    pthread_sigmask(SIG_BLOCK, &handled, nullptr);
  }

  // The self-pipe bridging the signal thread to the main loop's poll():
  // one byte per shutdown signal. Created before any thread so it always
  // exists when the signal thread runs.
  int shutdown_pipe[2] = {-1, -1};
  // The completion pipe: one byte per finished stdin request, written by
  // whichever thread completes it, so the main loop wakes to write replies
  // while stdin is idle. Non-blocking: a full pipe means a wakeup is
  // already pending, and a rejection completes inline on the main thread.
  int completion_pipe[2] = {-1, -1};
  if (::pipe(shutdown_pipe) != 0 ||
      ::pipe2(completion_pipe, O_NONBLOCK) != 0) {
    std::perror("pipe");
    return 1;
  }

  // One registry for the whole process: service accounting, corpus cache
  // counters and the tracer's per-phase histograms all land in it, so one
  // /varz or /metrics scrape shows the complete picture.
  tegra::MetricsRegistry registry;
  tegra::trace::Tracer& tracer = tegra::trace::Tracer::Global();
  tracer.BindMetrics(&registry);
  tracer.SetEnabled(opts.trace_enabled && tegra::trace::kCompiledIn);

  // Continuous profiling + request evidence. The main thread registers for
  // full-stack sampling; every pool/worker/handler thread registers itself
  // (the ThreadPool hook covers per-extraction anchor pools). Exemplars ride
  // on whatever tracing mode is active — with --trace off (or TEGRA_TRACE=OFF
  // builds) the source finds no context and exemplars quietly never fire.
  tegra::prof::EnsureThreadRegistered("main");
  tegra::prof::InstallExemplarSource();
  tegra::ThreadPool::SetThreadStartHook([](size_t worker_index) {
    tegra::prof::EnsureThreadRegistered("pool" + std::to_string(worker_index));
  });
  if (opts.profile_hz > 0) {
    const tegra::Status armed =
        tegra::prof::CpuProfiler::Global().Start(opts.profile_hz);
    if (!armed.ok()) {
      tegra::trace::LogWarn("cpu profiler unavailable",
                            {{"status", armed.ToString()}});
    }
  }
  tegra::prof::RuntimeStatsCollector runtime_stats(&registry,
                                                   /*period_seconds=*/5.0);
  runtime_stats.Start();

  // Wide-event access log (one JSON line per completed data-plane request).
  tegra::prof::WideEventLog access_log;
  if (!opts.access_log_path.empty()) {
    tegra::prof::WideEventLog::Options log_options;
    log_options.sample = opts.access_log_sample;
    log_options.slow_ms = opts.access_log_slow_ms;
    const tegra::Status opened =
        access_log.Open(opts.access_log_path, log_options);
    if (!opened.ok()) {
      tegra::trace::LogError("cannot open --access-log",
                             {{"path", opts.access_log_path},
                              {"status", opened.ToString()}});
      return 1;
    }
  }

  // Corpus lifecycle: the manager owns the current generation; the
  // reloadable engine rebuilds {CorpusStats, TegraExtractor} on every swap;
  // the service pins a generation per request. Declaration order matters —
  // the service (declared last) must drain before the engine and manager go.
  tegra::store::CorpusManagerOptions manager_options;
  manager_options.metrics = &registry;
  std::unique_ptr<tegra::store::CorpusManager> manager;
  if (!opts.corpus_path.empty()) {
    // TGRAIDX2 snapshot or TGRSMAN1 manifest, magic-sniffed;
    // corpus_reload / SIGHUP re-open the same path.
    manager = std::make_unique<tegra::store::CorpusManager>(opts.corpus_path,
                                                            manager_options);
    const tegra::Status loaded = manager->Reload();
    if (!loaded.ok()) {
      tegra::trace::LogError("corpus load failed",
                             {{"status", loaded.ToString()}});
      return 1;
    }
    tegra::trace::LogInfo("corpus loaded",
                          {{"path", opts.corpus_path},
                           {"format", manager->CurrentFormat()},
                           {"generation", manager->Generation()}});
  } else {
    auto built = BuildSyntheticCorpus(opts.build_spec);
    if (!built.ok()) {
      tegra::trace::LogError("corpus build failed",
                             {{"status", built.status().ToString()}});
      return 1;
    }
    manager = std::make_unique<tegra::store::CorpusManager>(
        std::make_shared<tegra::ColumnIndex>(std::move(built.value())),
        /*path=*/"", manager_options);
  }

  tegra::serve::ReloadableEngineConfig engine_config;
  engine_config.tegra = opts.tegra;
  engine_config.stats.co_cache_capacity = opts.co_cache_capacity;
  engine_config.stats.metrics = &registry;
  // With qos on, every corpus generation also carries the per-rung degraded
  // engines (sampled anchors, capped DP, syntactic-only, ListExtract).
  engine_config.build_qos_rungs = opts.qos_enabled;
  tegra::serve::ReloadableEngine engine(manager.get(), engine_config);

  // qos subsystem: the degradation controller is driven from the health
  // tick (EvaluateFromStore below); the tenant quota buckets are charged by
  // the data plane per request. Both outlive the service, which only
  // borrows pointers.
  tegra::qos::DegradationController degradation(opts.qos, &registry);
  tegra::qos::TenantQuotas quotas(opts.quota, &registry);

  // Health subsystem: recorder (metrics -> time series), SLO burn-rate
  // engine, stall watchdog. Constructed before the service so workers can
  // register heartbeats in its registry; Start()ed only after every observed
  // subsystem is up, and Stop()ped first in the drain sequence so no check
  // runs against half-dead threads. The gauge-refresh hook dereferences a
  // pointer filled in right after the service exists.
  std::vector<tegra::health::SloSpec> slo_specs;
  if (!opts.slo_config_path.empty()) {
    auto loaded = LoadSloConfig(opts.slo_config_path);
    if (!loaded.ok()) {
      tegra::trace::LogError("bad --slo-config",
                             {{"path", opts.slo_config_path},
                              {"status", loaded.status().ToString()}});
      return 1;
    }
    slo_specs = std::move(loaded.value());
  } else {
    slo_specs = tegra::health::SloEngine::DefaultSpecs();
    for (tegra::health::SloSpec& spec : slo_specs) {
      // The built-in saturation rule assumes the default queue bound;
      // rescale it to 75% of whatever --queue-depth actually is.
      if (spec.name == "queue_saturation") {
        spec.threshold =
            0.75 * static_cast<double>(opts.service.max_queue_depth);
      }
    }
  }
  if (opts.qos_enabled) {
    // Degradation is the intended overload response, but *sustained*
    // degradation means capacity, not load, is the problem — page on it.
    tegra::health::SloSpec spec;
    spec.name = "qos_degraded";
    spec.kind = tegra::health::SloSpec::Kind::kGaugeAbove;
    spec.description = "degradation ladder above rung 0 beyond budget";
    spec.series = "qos.rung";
    spec.threshold = 0.5;
    spec.for_seconds = opts.qos_degraded_budget_s;
    slo_specs.push_back(std::move(spec));
  }
  tegra::health::HealthOptions health_options;
  health_options.interval_seconds = opts.health_interval_ms / 1e3;
  health_options.watchdog.stall_threshold_seconds =
      opts.stall_threshold_ms / 1e3;
  health_options.slos = std::move(slo_specs);
  tegra::serve::ExtractionService* service_ptr = nullptr;
  tegra::health::HealthMonitor* health_ptr = nullptr;
  const bool qos_enabled = opts.qos_enabled;
  health_options.refresh_gauges = [&service_ptr, &health_ptr, &degradation,
                                   qos_enabled] {
    if (service_ptr != nullptr) service_ptr->metrics();
    // One qos control step per health tick: queue depth sampled live, the
    // latency signals read from the previous tick's time-series ingest.
    if (qos_enabled && service_ptr != nullptr && health_ptr != nullptr) {
      const tegra::serve::ServiceOptions& sopts = service_ptr->options();
      const double queue_fraction =
          sopts.max_queue_depth == 0
              ? 0.0
              : static_cast<double>(service_ptr->QueueDepth()) /
                    static_cast<double>(sopts.max_queue_depth);
      const double now_seconds =
          std::chrono::duration<double>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count();
      degradation.EvaluateFromStore(*health_ptr->store(), queue_fraction,
                                    sopts.default_deadline_seconds,
                                    now_seconds);
    }
  };
  tegra::health::HealthMonitor health(&registry, std::move(health_options));
  health_ptr = &health;

  // Per-extraction ThreadPool workers stamp busy/idle through the task
  // hooks; the thread-local slot registers on first task and releases at
  // thread exit (pools are created per extraction call).
  tegra::ThreadPool::SetTaskHooks(
      [&health](size_t) {
        tegra::health::Heartbeat* heartbeat =
            health.heartbeats()->PoolThreadHeartbeat();
        if (heartbeat != nullptr) heartbeat->BeginWork("pool-task");
      },
      [&health](size_t) {
        tegra::health::Heartbeat* heartbeat =
            health.heartbeats()->PoolThreadHeartbeat();
        if (heartbeat != nullptr) heartbeat->EndWork();
      });

  opts.service.heartbeats = health.heartbeats();
  if (opts.qos_enabled) opts.service.degradation = &degradation;
  tegra::serve::ExtractionService service(&engine, opts.service, &registry);
  service_ptr = &service;
  tegra::Counter* bad_requests = registry.GetCounter("serve.bad_request");

  // The signal thread: every handled signal is blocked in every thread (see
  // the pthread_sigmask call above); this thread alone consumes them,
  // synchronously, with sigwait. SIGHUP -> corpus reload (when a reloadable
  // path exists), SIGTERM/SIGINT -> one byte down the self-pipe so the main
  // loop starts the same graceful drain as {"cmd":"quit"}.
  std::atomic<bool> signal_thread_quit{false};
  const int shutdown_write_fd = shutdown_pipe[1];
  std::thread signal_thread(
      [&manager, &health, &signal_thread_quit, sighup_reload,
       shutdown_write_fd] {
        // This thread doubles as the reloader, and a reload can wedge on
        // a bad NFS mount or a giant index: stamp a worker heartbeat
        // around each Reload so the watchdog notices. SIGPROF is not in
        // the sigwait set, so the stack capture reaches this thread too.
        tegra::prof::EnsureThreadRegistered("reloader");
        tegra::health::Heartbeat* heartbeat = health.heartbeats()->Register(
            "reloader", tegra::health::ThreadKind::kWorker);
        const sigset_t handled = HandledSignalSet();
        while (true) {
          int sig = 0;
          if (sigwait(&handled, &sig) != 0) break;
          if (signal_thread_quit.load(std::memory_order_acquire)) break;
          if (sig == SIGTERM || sig == SIGINT) {
            tegra::trace::LogInfo("shutdown signal: draining",
                                  {{"signal", sig == SIGTERM ? "SIGTERM"
                                                             : "SIGINT"}});
            const char byte = 1;
            // A full pipe just means a drain is already pending.
            (void)!::write(shutdown_write_fd, &byte, 1);
            continue;
          }
          // SIGHUP.
          if (!sighup_reload) {
            tegra::trace::LogInfo("SIGHUP ignored (no --corpus path)", {});
            continue;
          }
          tegra::trace::LogInfo("SIGHUP: reloading corpus",
                                {{"path", manager->path()}});
          tegra::health::ScopedWork work(heartbeat, "corpus_reload");
          const tegra::Status status = manager->Reload();
          if (status.ok()) {
            tegra::trace::LogInfo("corpus reloaded",
                                  {{"generation", manager->Generation()},
                                   {"format", manager->CurrentFormat()}});
          } else {
            tegra::trace::LogError(
                "corpus reload failed; keeping previous generation",
                {{"status", status.ToString()}});
          }
        }
        if (heartbeat != nullptr) health.heartbeats()->Release(heartbeat);
      });

  // Optional HTTP data plane (POST /v1/extract over the tegra::net event
  // loop). Declared after the service so it is stopped and destroyed first —
  // its handlers only borrow the service, and in-flight HTTP exchanges
  // complete before the worker pool can drain away underneath them.
  tegra::serve::DataPlaneOptions plane_options;
  plane_options.server.port = opts.data_port < 0 ? 0 : opts.data_port;
  plane_options.server.bind_address = opts.data_bind;
  plane_options.server.max_connections = opts.max_connections;
  plane_options.server.io_timeout_ms = opts.io_timeout_ms;
  plane_options.quotas = &quotas;
  // Loop-liveness beat, fired every event-loop iteration (the poller wakes
  // at least every timer tick). The slot registers from the loop thread on
  // its first beat — Register records the calling tid for stack capture —
  // and releases itself at thread exit.
  plane_options.server.loop_heartbeat = [&health] {
    struct LoopSlot {
      tegra::health::HeartbeatRegistry* registry;
      tegra::health::Heartbeat* heartbeat;
      ~LoopSlot() {
        if (heartbeat != nullptr) registry->Release(heartbeat);
      }
    };
    static thread_local LoopSlot slot{
        health.heartbeats(),
        health.heartbeats()->Register("net-loop",
                                      tegra::health::ThreadKind::kLoop)};
    if (slot.heartbeat != nullptr) slot.heartbeat->Beat();
  };
  tegra::serve::DataPlane plane(&service, plane_options, &registry);
  if (access_log.enabled()) plane.set_wide_events(&access_log);

  // Optional HTTP admin plane. Declared after the service so it is stopped
  // (and destroyed) first; AdminPages only borrows the subsystems above.
  tegra::serve::AdminPagesOptions pages_options;
  pages_options.corpus_description = !opts.corpus_path.empty()
                                         ? opts.corpus_path
                                         : "synthetic " + opts.build_spec;
  tegra::serve::AdminPages pages(&service, &tracer, manager.get(),
                                 pages_options);
  pages.set_health(&health);
  if (opts.qos_enabled || quotas.enabled()) {
    pages.set_qos(opts.qos_enabled ? &degradation : nullptr,
                  quotas.enabled() ? &quotas : nullptr);
  }
  if (opts.data_port >= 0) {
    // /readyz reports data-plane saturation; /statusz gains its stats table.
    pages.set_data_plane(&plane.server());
  }
  // The admin plane is a second net::HttpServer listener; its metrics are
  // admin.* so they never mix with the data plane's net.* series. The
  // connection cap and the 16 KiB framing limits bound what probes,
  // scrapers and browsers can pin.
  tegra::net::HttpServerOptions admin_options;
  admin_options.name = "admin";
  admin_options.port = opts.admin_port < 0 ? 0 : opts.admin_port;
  admin_options.bind_address = opts.admin_bind;
  admin_options.max_connections = 32;
  admin_options.limits.max_head_bytes = 16384;
  admin_options.limits.max_body_bytes = 16384;
  tegra::net::HttpServer admin(admin_options, &registry);
  admin.set_handler(pages.Handler());
  if (opts.admin_port >= 0) {
    const tegra::Status started = admin.Start();
    if (!started.ok()) {
      tegra::trace::LogError("admin plane failed to start",
                             {{"status", started.ToString()}});
      return 1;
    }
    // Announce the bound port on stdout before any responses so drivers of
    // `--admin-port 0` (ephemeral) can discover where to scrape.
    JsonValue ready = JsonValue::Object();
    ready.Set("event", JsonValue::Str("admin_ready"));
    ready.Set("port", JsonValue::Number(admin.port()));
    Emit(ready.Dump());
    tegra::trace::LogInfo("admin plane listening",
                          {{"bind", opts.admin_bind}, {"port", admin.port()}});
  }

  if (opts.data_port >= 0) {
    const tegra::Status started = plane.Start();
    if (!started.ok()) {
      tegra::trace::LogError("data plane failed to start",
                             {{"status", started.ToString()}});
      return 1;
    }
    // Same discovery contract as admin_ready: with `--port 0` this stdout
    // line is how drivers learn the ephemeral port.
    JsonValue ready = JsonValue::Object();
    ready.Set("event", JsonValue::Str("data_ready"));
    ready.Set("port", JsonValue::Number(plane.port()));
    Emit(ready.Dump());
    tegra::trace::LogInfo(
        "data plane listening",
        {{"bind", opts.data_bind},
         {"port", plane.port()},
         {"max_connections", plane_options.server.max_connections},
         {"io_timeout_ms", plane_options.server.io_timeout_ms}});
  }

  // Every observed subsystem is up; start recording. With
  // --health-interval-ms 0 this is a no-op (zPages then show an idle,
  // never-ticked recorder).
  health.Start();

  tegra::trace::LogInfo(
      "tegra_serve ready",
      {{"workers", service.options().num_workers},
       {"queue_depth", service.options().max_queue_depth},
       {"cache_capacity", service.options().result_cache_capacity},
       {"slowlog_capacity", service.options().slowlog_capacity},
       {"trace", tracer.enabled()},
       {"admin", opts.admin_port >= 0 ? "on" : "off"},
       {"data_plane", opts.data_port >= 0 ? "on" : "off"},
       {"profile_hz", opts.profile_hz},
       {"health_interval_ms", opts.health_interval_ms},
       {"qos", opts.qos_enabled ? "on" : "off"},
       {"quota_rate", opts.quota.rate},
       {"access_log",
        opts.access_log_path.empty() ? "off" : opts.access_log_path}});

  // Keep at most pipeline_depth requests in flight so admission control is
  // exercised by fast producers while stdout stays in submission order.
  // Replies are written as they complete (see the completion pipe above);
  // only a producer that runs pipeline_depth ahead waits for the oldest.
  const size_t pipeline_depth = opts.service.max_queue_depth + 16;
  std::deque<InFlight> inflight;

  // Processes one NDJSON input line; returns false on {"cmd":"quit"}.
  auto handle_line = [&](const std::string& line) -> bool {
    if (tegra::Trim(line).empty()) return true;
    auto parsed = tegra::serve::ParseJson(line);
    if (!parsed.ok()) {
      Flush(&inflight, 0);  // Keep output ordered even for parse errors.
      EmitBadRequest(JsonValue(), parsed.status().message(), bad_requests);
      return true;
    }
    const JsonValue& request = *parsed;
    const std::string& cmd = request["cmd"].AsString();
    if (cmd == "quit") return false;
    if (cmd == "inject_stall") {
      // Watchdog drill: one probe request whose worker sleeps mid-Process,
      // producing a genuine stall (busy heartbeat, capturable stack). The
      // future is deliberately dropped — the probe completes on its own and
      // the control loop must not block for the sleep. debug_sleep_ms is
      // only settable here; the HTTP data plane never populates it.
      Flush(&inflight, 0);
      double sleep_ms = request["ms"].AsNumber(2000.0);
      sleep_ms = std::min(120000.0, std::max(1.0, sleep_ms));
      ExtractionRequest probe;
      probe.lines = {"stall probe alpha 1", "stall probe beta 2"};
      probe.num_columns = 0;
      probe.bypass_cache = true;
      probe.debug_sleep_ms = sleep_ms;
      (void)service.Submit(std::move(probe));
      tegra::trace::LogWarn("inject_stall: stall probe submitted",
                            {{"sleep_ms", sleep_ms}});
      JsonValue out = JsonValue::Object();
      if (request.Has("id")) out.Set("id", request["id"]);
      out.Set("ok", JsonValue::Bool(true));
      out.Set("sleep_ms", JsonValue::Number(sleep_ms));
      Emit(out.Dump());
      return true;
    }
    if (cmd == "corpus_reload") {
      // Deliberately reload BEFORE flushing: the swap happens while queued
      // and in-flight extractions are live, which is exactly the hot-reload
      // contract being exercised (each request finishes on the generation
      // it acquired). The response is emitted after the flush so stdout
      // stays in submission order.
      const tegra::Status status = manager->Reload();
      Flush(&inflight, 0);
      JsonValue out = JsonValue::Object();
      if (request.Has("id")) out.Set("id", request["id"]);
      if (status.ok()) {
        out.Set("ok", JsonValue::Bool(true));
        out.Set("generation",
                JsonValue::Number(static_cast<double>(manager->Generation())));
        out.Set("format", JsonValue::Str(manager->CurrentFormat()));
        tegra::trace::LogInfo("corpus reloaded",
                              {{"generation", manager->Generation()},
                               {"format", manager->CurrentFormat()}});
      } else {
        out.Set("ok", JsonValue::Bool(false));
        out.Set("code", JsonValue::Str(
                            tegra::StatusCodeToString(status.code())));
        out.Set("error", JsonValue::Str(status.message()));
        out.Set("generation",
                JsonValue::Number(static_cast<double>(manager->Generation())));
        tegra::trace::LogError(
            "corpus reload failed; keeping previous generation",
            {{"status", status.ToString()}});
      }
      Emit(out.Dump());
      return true;
    }
    if (!cmd.empty()) {
      Flush(&inflight, 0);
      EmitBadRequest(request["id"], "unknown cmd: " + cmd, bad_requests);
      return true;
    }
    if (!request.Has("lines") || request["lines"].AsArray().empty()) {
      Flush(&inflight, 0);
      EmitBadRequest(request["id"], "request has no \"lines\"", bad_requests);
      return true;
    }

    ExtractionRequest extraction;
    for (const JsonValue& item : request["lines"].AsArray()) {
      extraction.lines.push_back(item.AsString());
    }
    extraction.num_columns = static_cast<int>(request["columns"].AsNumber(0));
    extraction.deadline_seconds = request["deadline_ms"].AsNumber(0) / 1e3;
    extraction.bypass_cache = request["bypass_cache"].AsBool(false);
    auto promise = std::make_shared<std::promise<ExtractionResponse>>();
    inflight.push_back(InFlight{request["id"], promise->get_future()});
    const int completion_fd = completion_pipe[1];
    service.SubmitWithCallback(
        std::move(extraction),
        [promise, completion_fd](ExtractionResponse response) {
          promise->set_value(std::move(response));
          const char byte = 1;
          (void)!::write(completion_fd, &byte, 1);
        });
    Flush(&inflight, pipeline_depth);
    return true;
  };

  // The main loop polls stdin, the shutdown self-pipe and the completion
  // pipe, so a SIGTERM delivered while no input is arriving still starts the
  // drain promptly and a finished request is answered without more input.
  // Input is read raw and split into lines here (std::getline would block
  // past the poll and miss the pipe).
  std::string input_buffer;
  bool stdin_eof = false;
  bool signal_drain = false;
  while (!signal_drain) {
    size_t newline;
    bool quit = false;
    while ((newline = input_buffer.find('\n')) != std::string::npos) {
      const std::string line = input_buffer.substr(0, newline);
      input_buffer.erase(0, newline + 1);
      if (!handle_line(line)) {
        quit = true;
        break;
      }
    }
    if (quit) break;
    if (stdin_eof) {
      // A trailing unterminated line still counts as input.
      if (!input_buffer.empty()) {
        const std::string line = std::move(input_buffer);
        input_buffer.clear();
        handle_line(line);
      }
      break;
    }
    struct pollfd fds[3] = {{STDIN_FILENO, POLLIN, 0},
                            {shutdown_pipe[0], POLLIN, 0},
                            {completion_pipe[0], POLLIN, 0}};
    if (::poll(fds, 3, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      signal_drain = true;
      break;
    }
    if (fds[2].revents != 0) {
      char wakeups[256];
      while (::read(completion_pipe[0], wakeups, sizeof(wakeups)) > 0) {
      }
      Flush(&inflight, pipeline_depth);
    }
    if (fds[0].revents != 0) {
      char chunk[4096];
      const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
      if (n > 0) {
        input_buffer.append(chunk, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        stdin_eof = true;
      }
    }
  }
  Flush(&inflight, 0);
  // Tear down the signal thread before the manager can go away: raise the
  // quit flag, then poke the thread out of sigwait with a directed SIGHUP.
  signal_thread_quit.store(true, std::memory_order_release);
  pthread_kill(signal_thread.native_handle(), SIGHUP);
  signal_thread.join();
  // Ordered graceful drain. Stop the data plane before the service drains:
  // the listener closes, in-flight HTTP exchanges finish (or hit the drain
  // timeout), and only then may the worker pool go away. The admin plane
  // follows so probes see the process disappear (connection refused), not a
  // half-dead server. Only after every request that could emit evidence has
  // finished do the telemetry threads stop and the buffered sinks flush —
  // a SIGTERM never loses buffered access-log lines or log records.
  // The health recorder goes first: no watchdog check may run while the
  // planes and workers it observes are mid-teardown.
  health.Stop();
  plane.Stop();
  admin.Stop();
  service.Shutdown();
  tegra::ThreadPool::SetTaskHooks({}, {});
  runtime_stats.Stop();
  tegra::prof::CpuProfiler::Global().Stop();
  access_log.Flush();
  // Closed only after the workers have joined: a completion callback may
  // still be writing its wakeup byte after its reply was emitted.
  for (const int fd : {shutdown_pipe[0], shutdown_pipe[1], completion_pipe[0],
                       completion_pipe[1]}) {
    ::close(fd);
  }
  tegra::trace::LogInfo("tegra_serve exiting",
                        {{"spans_recorded", tracer.spans_recorded()},
                         {"spans_dropped", tracer.dropped()},
                         {"access_log_lines", access_log.written()},
                         {"profile_samples",
                          tegra::prof::CpuProfiler::Global().samples_total()},
                         {"drain", signal_drain ? "signal" : "stdin"}});
  tegra::trace::Logger::Global().Flush();
  return 0;
}
