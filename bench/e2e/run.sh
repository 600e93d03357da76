#!/usr/bin/env bash
# End-to-end host-cost benchmark of greenvis (see bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed N] [--traced] [--smoke] [--out DIR]
#       Every workload, one process each. Prints one `workload metric value
#       unit` line per metric and writes DIR/result.json (default DIR:
#       build/e2e). --traced gives the per-layer ledger instead, plus
#       DIR/layers_<workload>.json and the Chrome trace DIR/trace_<workload>.json.
#       --smoke runs 2 timed ops per workload with every output check.
#   bench/e2e/run.sh --workload W [--seed N] [--traced]
#       One workload; the last line of stdout is its result object. The
#       form BENCHMARK.json's command is called in, `--seconds 15 --trace
#       0|1`, is accepted too: --trace 1 is --traced, and the run length is
#       fixed at 15 s, so --seconds takes no other value.
#   bench/e2e/run.sh --check-refs
#       Only verify the committed references in bench/e2e/refs/.
#
# Every mode first builds the repository (Release, into build/) and
# greenvis_e2e, then verifies the references. Exits 2 when build/ is not a Release
# build or any GREENVIS_* variable is set: those knobs change what is timed.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$ROOT"

WORKLOADS=(post_case1 serve_case1 campaign_resume volume3d_insitu)
RUN_SECONDS=15  # greenvis_e2e's kRunSeconds
SEED=1
TRACED=0
SMOKE=0
OUT=build/e2e
WORKLOAD=""
CHECK_ONLY=0

usage() {
  sed -n '2,20p' "$0" >&2
  exit 2
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) SEED=${2:?}; shift ;;
    --seconds) [[ "${2:-}" == "$RUN_SECONDS" ]] || usage; shift ;;
    --trace)
      case "${2:-}" in 0) TRACED=0 ;; 1) TRACED=1 ;; *) usage ;; esac
      shift ;;
    --traced) TRACED=1 ;;
    --smoke) SMOKE=1 ;;
    --out) OUT=${2:?}; shift ;;
    --workload) WORKLOAD=${2:?}; shift ;;
    --check-refs) CHECK_ONLY=1 ;;
    *) usage ;;
  esac
  shift
done

if [[ ! -f CMakeLists.txt || ! -d src || ! -d tools/golden ]]; then
  echo "run.sh: $ROOT holds no greenvis source tree" >&2
  exit 1
fi
KNOBS=$(compgen -e | grep '^GREENVIS_' || true)
if [[ -n "$KNOBS" ]]; then
  echo "run.sh: unset" $KNOBS "first: they change the code paths being timed" >&2
  exit 2
fi
if [[ -f build/CMakeCache.txt ]]; then
  if ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' build/CMakeCache.txt; then
    echo "run.sh: build/ is not a Release build; reconfigure it with" \
         "-DCMAKE_BUILD_TYPE=Release or remove it" >&2
    exit 2
  fi
fi
# Compiler temporaries stay inside the tree as well.
export TMPDIR="$ROOT/build/tmp"
mkdir -p "$TMPDIR"
if [[ ! -f build/CMakeCache.txt ]]; then
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >&2
fi

NPROC=$(nproc)
THREADS=$(( NPROC < 4 ? NPROC : 4 ))
cmake --build build -j "$THREADS" >&2
CXX=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' build/CMakeCache.txt)
make -s -C bench/e2e CXX="${CXX:-c++}" >&2
BIN=build/e2e/greenvis_e2e

"$BIN" --check-refs
if [[ "$CHECK_ONLY" == 1 ]]; then
  echo "run.sh: references match" >&2
  exit 0
fi

COMMIT=unknown
if [[ -e .git ]] && command -v git >/dev/null 2>&1; then
  COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
mkdir -p "$OUT"
ARGS=(--seed "$SEED" --out "$OUT" --commit "$COMMIT")
if [[ "$TRACED" == 1 ]]; then
  ARGS+=(--traced)
fi
if [[ "$SMOKE" == 1 ]]; then
  ARGS+=(--smoke)
fi

if [[ -n "$WORKLOAD" ]]; then
  exec "$BIN" --workload "$WORKLOAD" "${ARGS[@]}"
fi

# Every workload in its own process; the per-workload files become one
# result.json.
status=0
files=()
for w in "${WORKLOADS[@]}"; do
  result=$("$BIN" --workload "$w" "${ARGS[@]}")
  printf '%s\n' "$result" | sed '$d'
  if [[ "$result" != *'"correct": true'* ]]; then
    echo "run.sh: $w produced wrong outputs" >&2
    status=1
  fi
  if [[ "$TRACED" == 1 ]]; then
    files+=("$OUT/layers_$w.json")
  else
    files+=("$OUT/$w.json")
  fi
done
{
  echo '{"workloads": ['
  for i in "${!files[@]}"; do
    [[ "$i" == 0 ]] || echo ','
    cat "${files[$i]}"
  done
  echo ']}'
} > "$OUT/result.json"
echo "run.sh: wrote $OUT/result.json" >&2
exit "$status"
