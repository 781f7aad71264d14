#!/usr/bin/env bash
# Repo-wide check harness: builds and tests every supported configuration so
# the tracing subsystem stays green both compiled-in and compiled-out, the
# concurrency-sensitive code (histograms, trace ring, thread pool, serving
# layer) is exercised under ThreadSanitizer, and the whole suite (including
# the snapshot / manifest / HTTP decoders of untrusted bytes) runs under
# AddressSanitizer and UndefinedBehaviorSanitizer.
#
# Configurations:
#   1. default        — TEGRA_TRACE=ON, full ctest suite
#   2. trace-off      — TEGRA_TRACE=OFF (spans compile to no-op stubs); the
#                       full suite must still pass, proving nothing depends
#                       on tracing being compiled in
#   3. tsan           — TEGRA_SANITIZE=thread; runs the `service`, `trace`,
#                       `store`, `net`, `prof`, `qos` and `health` ctest
#                       labels plus the metrics/stress/property2/
#                       active_batch tests, the suites with real
#                       cross-thread traffic (property2_test and
#                       active_batch_test run parallel anchor tasks that
#                       share one ListContext and the CorpusStats memo;
#                       store_test races readers against corpus hot
#                       swaps; hub_tier_test races first touches of the
#                       shared hub bitmaps; the net suite
#                       runs the event loop against concurrent clients;
#                       the prof suite fires SIGPROF into a live thread
#                       pool; the qos suite hammers the controller and
#                       tenant buckets from concurrent admission threads;
#                       the health suite blocks real threads and signals
#                       them from the watchdog)
#   4. asan           — TEGRA_SANITIZE=address; the full ctest suite, so
#                       every test (corruption matrices, parser edge cases,
#                       e2e daemons) also proves it stays in bounds
#   5. ubsan          — TEGRA_SANITIZE=undefined; the full ctest suite with
#                       UBSAN_OPTIONS=halt_on_error=1, so any report (signed
#                       overflow, bad shift, misaligned load, ...) aborts
#                       the test — the e2e daemons inherit it — instead of
#                       only printing
#
# Usage:
#   scripts/check.sh            # all five configurations
#   scripts/check.sh default    # just one (default | trace-off | tsan | asan
#                               #           | ubsan)
#
# Each configuration gets its own build directory (build-check-*) so this
# never clobbers an existing developer `build/`.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
ONLY="${1:-all}"

run() { echo "+ $*" >&2; "$@"; }

configure_and_build() {
  local name="$1"
  shift
  local dir="$ROOT/build-check-$name"
  echo "=== [$name] configure ==="
  run cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@" \
    > /dev/null
  echo "=== [$name] build ==="
  run cmake --build "$dir" -j "$JOBS" > /dev/null
}

if [[ "$ONLY" == "all" || "$ONLY" == "default" ]]; then
  configure_and_build default -DTEGRA_TRACE=ON
  echo "=== [default] test (full suite) ==="
  (cd "$ROOT/build-check-default" && run ctest --output-on-failure)
  echo "=== [default] OK ==="
fi

if [[ "$ONLY" == "all" || "$ONLY" == "trace-off" ]]; then
  configure_and_build trace-off -DTEGRA_TRACE=OFF
  echo "=== [trace-off] test (full suite) ==="
  (cd "$ROOT/build-check-trace-off" && run ctest --output-on-failure)
  echo "=== [trace-off] OK ==="
fi

if [[ "$ONLY" == "all" || "$ONLY" == "tsan" ]]; then
  # TSan build: run the suites with genuine multi-threaded traffic. The
  # trace label covers the span ring + cross-thread context handoff; the
  # service label covers the worker pool, caches and metrics; the store
  # label races concurrent corpus readers against hot-reload swaps; the
  # net label drives the event-loop HTTP server with concurrent clients
  # and foreign-thread completions; stress_test and metrics_test hammer
  # the histogram CAS paths; the prof label delivers SIGPROF into busy
  # worker threads while captures drain the sample rings; the qos label
  # covers the degradation controller (health tick vs request threads)
  # and the tenant bucket map under concurrent admission checks; the
  # health label runs the watchdog against genuinely blocked worker
  # threads and captures their stacks with a targeted SIGPROF;
  # property2_test and active_batch_test extract with num_threads > 1, so
  # parallel anchor tasks read one ListContext and share the CorpusStats
  # co-occurrence memo while each owns its DistanceCache.
  configure_and_build tsan -DTEGRA_SANITIZE=thread -DTEGRA_TRACE=ON
  echo "=== [tsan] test (service/trace/store/net/prof/qos/health labels, metrics/stress/property2/active_batch) ==="
  (cd "$ROOT/build-check-tsan" &&
    run ctest --output-on-failure --timeout 600 -L 'service|trace|store|net|prof|qos|health' &&
    run ctest --output-on-failure --timeout 600 -R 'metrics_test|stress_test|property2_test|active_batch_test')
  echo "=== [tsan] OK ==="
fi

if [[ "$ONLY" == "all" || "$ONLY" == "asan" ]]; then
  configure_and_build asan -DTEGRA_SANITIZE=address -DTEGRA_TRACE=ON
  echo "=== [asan] test (full suite) ==="
  (cd "$ROOT/build-check-asan" &&
    run ctest --output-on-failure --timeout 600)
  echo "=== [asan] OK ==="
fi

if [[ "$ONLY" == "all" || "$ONLY" == "ubsan" ]]; then
  configure_and_build ubsan -DTEGRA_SANITIZE=undefined -DTEGRA_TRACE=ON
  echo "=== [ubsan] test (full suite) ==="
  (cd "$ROOT/build-check-ubsan" &&
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      run ctest --output-on-failure --timeout 600)
  echo "=== [ubsan] OK ==="
fi

echo "All requested configurations passed."
