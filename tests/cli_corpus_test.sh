#!/usr/bin/env bash
# tegra_cli corpus files, end to end: a corpus built and published with
# --save-corpus is a verified TGRAIDX2 snapshot, and extracting against it
# with --corpus prints byte-identical tables to the in-memory build. A
# sharded directory of the same tables (what tegra_serve reloads) gives the
# same tables too, and --save-corpus together with --corpus is a usage error.
#
# corpus_inspector --build rejects an unknown profile.
#
# Usage: cli_corpus_test.sh TEGRA_CLI TEGRA_CORPUSCTL CORPUS_INSPECTOR

set -euo pipefail

CLI="$1"
CORPUSCTL="$2"
INSPECTOR="$3"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

cat > "$WORK/list.txt" <<'LIST'
Toronto Ontario Canada 2,731,571
Boston Massachusetts United States 645,966
New York City New York United States 8,405,837
Vancouver British Columbia Canada 631,486
Seattle Washington United States 652,405
Chicago Illinois United States 2,718,782
LIST

SPEC="web:300:1"
"$CLI" --build-corpus "$SPEC" --save-corpus "$WORK/web.idx2" \
  "$WORK/list.txt" > "$WORK/built.table" 2> /dev/null
[[ -s "$WORK/built.table" ]] || fail "no output from the built corpus"

[[ "$(head -c 8 "$WORK/web.idx2")" == "TGRAIDX2" ]] ||
  fail "--save-corpus did not write a TGRAIDX2 snapshot"
"$CORPUSCTL" verify "$WORK/web.idx2" > /dev/null

"$CLI" --corpus "$WORK/web.idx2" "$WORK/list.txt" > "$WORK/mapped.table"
cmp "$WORK/built.table" "$WORK/mapped.table" ||
  fail "table output differs between the built corpus and its snapshot"

"$CORPUSCTL" build-sharded "$SPEC" "$WORK/sharded" --shards 3 > /dev/null
"$CLI" --corpus "$WORK/sharded" "$WORK/list.txt" > "$WORK/sharded.table"
cmp "$WORK/built.table" "$WORK/sharded.table" ||
  fail "table output differs between the built corpus and a sharded build"

rc=0
"$CLI" --corpus "$WORK/web.idx2" --save-corpus "$WORK/copy.idx2" \
  "$WORK/list.txt" > /dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] || fail "--corpus with --save-corpus exited $rc, want 2"
[[ ! -e "$WORK/copy.idx2" ]] || fail "--corpus with --save-corpus wrote a file"

! "$INSPECTOR" --build foo:100 > /dev/null 2>&1 ||
  fail "corpus_inspector --build foo:100 succeeded"

echo "cli_corpus_test: ok"
