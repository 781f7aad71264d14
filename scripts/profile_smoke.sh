#!/usr/bin/env bash
# Profiling smoke drill: boot tegra_serve with both planes, the 99 Hz SIGPROF
# sampler and a wide-event access log; run a tegra_loadgen burst that
# concurrently captures GET /pprof/profile; then require
#   (a) a non-empty folded-stack profile whose frames symbolize into tegra
#       code (frame-pointer walk + dladdr working end to end),
#   (b) at least one OpenMetrics exemplar on /metrics?format=openmetrics,
#   (c) a clean daemon shutdown via {"cmd":"quit"} (exit code 0),
#   (d) a non-empty access log with one parseable JSON object per line,
#   (e) every request retained by /slowlogz joins an access-log line with the
#       same trace_id and total_ms (both render the same per-request record).
# The folded profile lands in BENCH_profile.folded next to the build dir so
# CI can archive it (flamegraph.pl / speedscope ingest it directly).
#
# Usage: scripts/profile_smoke.sh [build-dir]

set -euo pipefail

BUILD="${1:-build}"
PROFILE="$BUILD/BENCH_profile.folded"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

mkfifo "$WORK/stdin"
"$BUILD/tools/tegra_serve" --build-corpus web:300:1 --port 0 --admin-port 0 \
  --workers 4 --profile-hz 99 \
  --access-log "$WORK/access.jsonl" --access-log-sample 1.0 \
  < "$WORK/stdin" > "$WORK/stdout.ndjson" 2> "$WORK/stderr.log" &
SERVE_PID=$!
# Hold the fifo's write end open so the daemon's stdin never sees EOF
# before we send quit.
exec 9> "$WORK/stdin"

# Wait for both ready announcements: data_ready and admin_ready.
PORTS=""
for _ in $(seq 1 150); do
  PORTS=$(python3 -c '
import json, sys
data = admin = None
try:
    for line in open(sys.argv[1]):
        obj = json.loads(line)
        if obj.get("event") == "data_ready":
            data = obj["port"]
        elif obj.get("event") == "admin_ready":
            admin = obj["port"]
except (FileNotFoundError, ValueError):
    pass
if data is not None and admin is not None:
    print(data, admin)
' "$WORK/stdout.ndjson")
  [[ -n "$PORTS" ]] && break
  sleep 0.2
done
if [[ -z "$PORTS" ]]; then
  echo "FAIL: no data_ready/admin_ready events from tegra_serve" >&2
  cat "$WORK/stderr.log" >&2
  exit 1
fi
DATA_PORT="${PORTS% *}"
ADMIN_PORT="${PORTS#* }"
echo "data plane on port $DATA_PORT, admin plane on port $ADMIN_PORT"

# A burst long enough to give the CPU-time-driven sampler material (cache
# bypassed so every request runs a real extraction), with a concurrent 2.5s
# profile capture through the admin plane.
"$BUILD/tools/tegra_loadgen" --port "$DATA_PORT" --qps 300 --duration-s 4 \
  --connections 8 --bypass-cache --out "$WORK/BENCH_loadgen.json" \
  --admin-port "$ADMIN_PORT" --profile-seconds 2.5 --profile-out "$PROFILE"

# (a) The folded profile must be non-empty and symbolize tegra frames. The
# corpus-statistics hot path (CoOccurrence*) should usually dominate; warn
# rather than fail on its absence since inlining can fold it away.
python3 -c '
import sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l.strip()]
assert lines, "empty folded profile"
stacks = [l for l in lines if ";" in l]
assert stacks, "no multi-frame stacks in profile"
tegra = [l for l in lines if "tegra" in l]
assert tegra, "no tegra frames symbolized in profile"
total = sum(int(l.rsplit(" ", 1)[1]) for l in lines)
print("profile OK: %d folded stacks, %d samples, %d tegra-attributed lines"
      % (len(lines), total, len(tegra)))
if not any("CoOccurrence" in l for l in lines):
    print("note: no CoOccurrence* frame (inlined or load too light)")
' "$PROFILE"

# (b) OpenMetrics exposition carries at least one exemplar.
curl -fsS "http://127.0.0.1:$ADMIN_PORT/metrics?format=openmetrics" \
  > "$WORK/openmetrics.txt"
python3 -c '
import sys
text = open(sys.argv[1]).read()
assert text.rstrip().endswith("# EOF"), "missing OpenMetrics EOF marker"
exemplars = [l for l in text.splitlines() if "# {trace_id=" in l]
assert exemplars, "no exemplars in OpenMetrics exposition"
print("exemplars OK: %d buckets carry exemplars" % len(exemplars))
' "$WORK/openmetrics.txt"

# Retained slow requests, fetched while the daemon still runs; joined against
# the flushed access log after shutdown.
curl -fsS "http://127.0.0.1:$ADMIN_PORT/slowlogz?format=json" \
  > "$WORK/slowlogz.json"

# (c) Clean shutdown: quit drains in-flight work and must exit 0.
echo '{"cmd":"quit"}' >&9
exec 9>&-
wait "$SERVE_PID"
SERVE_PID=""
echo "clean shutdown OK"

# (d) After the shutdown flush, the wide-event access log has one parseable
# JSON object per line. (Checked post-exit on purpose: libc block-buffers
# the sink, so mid-run reads can see a torn final line.)
python3 -c '
import json, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l.strip()]
assert lines, "empty access log"
for line in lines:
    obj = json.loads(line)
    assert obj["endpoint"] == "/v1/extract", line
print("access log OK: %d wide events" % len(lines))
' "$WORK/access.jsonl"

# (e) The load is single bodies logged at --access-log-sample 1.0, so every
# retained slow request has exactly its own access-log line: same trace id,
# same total_ms to the log's printed precision (%g, 6 significant digits).
python3 -c '
import json, sys
slow = json.load(open(sys.argv[1]))["records"]
assert slow, "/slowlogz retained no requests"
logged = {}
for line in open(sys.argv[2]).read().splitlines():
    if line.strip():
        obj = json.loads(line)
        logged.setdefault(obj["trace_id"], []).append(obj)
for rec in slow:
    tid = rec["trace_id"]
    assert tid != 0, "retained request without a trace id: %r" % rec
    lines = logged.get(tid, [])
    assert len(lines) == 1, "trace %d has %d access-log lines" % (tid, len(lines))
    want = "%g" % rec["total_ms"]
    got = "%g" % lines[0]["total_ms"]
    assert want == got, "trace %d: /slowlogz total_ms %s, access log %s" % (
        tid, want, got)
print("slowlogz join OK: %d retained requests match their access-log lines"
      % len(slow))
' "$WORK/slowlogz.json" "$WORK/access.jsonl"
