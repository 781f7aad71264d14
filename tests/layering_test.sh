#!/usr/bin/env bash
# Layering guard: base primitives (metrics, the sharded LRU, JSON string
# escaping) live in src/common/, and only src/service/ may include serving
# headers. Fails when
#   * a file under src/ outside src/service/ includes "service/...",
#   * src/trace/ holds a json_* header again (the old second JSON escaper), or
#   * a CMakeLists.txt names the retired tegra_metrics target.
#
# Usage: layering_test.sh SOURCE_ROOT

set -euo pipefail

ROOT="$1"
status=0

fail() { echo "FAIL: $*" >&2; status=1; }

if hits=$(grep -rn '#include "service/' "$ROOT/src" --include='*.h' \
            --include='*.cc' | grep -v "^$ROOT/src/service/"); then
  fail "files outside src/service/ include serving headers:"$'\n'"$hits"
fi

if hits=$(find "$ROOT/src/trace" -name 'json_*' | grep .); then
  fail "JSON escaping lives in common/string_util.h, not in:"$'\n'"$hits"
fi

cmake_files=("$ROOT/CMakeLists.txt")
for dir in src tests bench tools perfbench examples cmake; do
  [[ -d "$ROOT/$dir" ]] || continue
  while IFS= read -r f; do cmake_files+=("$f"); done \
    < <(find "$ROOT/$dir" -name CMakeLists.txt)
done
if hits=$(grep -n 'tegra_metrics' "${cmake_files[@]}"); then
  fail "CMakeLists.txt names the retired tegra_metrics target:"$'\n'"$hits"
fi

[[ $status -eq 0 ]] && echo "layering ok"
exit $status
