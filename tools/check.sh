#!/usr/bin/env bash
# CI-style gate: configure + build, run the full test suite, and (when
# clang-format is available) verify formatting of everything under src/.
#
# Usage: tools/check.sh [--asan] [--bench-smoke] [--campaign-smoke]
#                       [--conformance] [--energy-smoke] [--serve-smoke]
#                       [--simd] [build-dir]
#   --asan        build with AddressSanitizer + UndefinedBehaviorSanitizer
#                 (RelWithDebInfo, default build dir: build-asan) and run the
#                 full suite under them — including the obs/pool concurrency
#                 tests, which is where a data race would surface as UB, and
#                 the intrinsics TU (kernels_avx2.cpp), where UBSan checks
#                 the lane-math shifts/casts the vector path leans on.
#   --bench-smoke after the suite, run the ~5 s perf-harness subset and fail
#                 on a >10% regression vs the committed BENCH_perf.json
#                 (heat2d_512 serial MCUPS and codec MB/s).
#   --campaign-smoke after the suite, exercise the campaign engine end to
#                 end: run a small sweep truncated by --limit (expects the
#                 "interrupted" exit code 3), resume it from the journal, and
#                 require the resumed JSON to be byte-identical to an
#                 uninterrupted reference run.
#   --conformance after the suite, run `greenvis verify`: the differential
#                 oracles plus the paper-conformance invariants (Fig. 5/8/9/
#                 10, Table II bands), emitting QA_conformance.json into the
#                 build dir. Fails if any invariant leaves its band.
#   --energy-smoke after the suite, run `greenvis profile --case 1`, check
#                 the profile's schema tag and conservation error, and diff
#                 it byte-for-byte against the committed golden
#                 tools/golden/ENERGY_profile_case1.json (the profile is a
#                 pure function of the virtual timelines, so it must never
#                 drift without an intentional regeneration).
#   --serve-smoke after the suite (which already runs the serve unit tests,
#                 oracle and property), run `greenvis serve` twice with
#                 pinned flags — the two profiles must be byte-identical to
#                 each other (determinism) and to the committed golden
#                 tools/golden/SERVE_profile_case1.json (the modeled results
#                 are a pure function of the config; only host wall-clock may
#                 vary run to run).
#   --simd        after the suite, re-run the full tier-1 suite once under
#                 GREENVIS_SIMD=scalar and once under GREENVIS_SIMD=auto
#                 (the dispatcher's best native path), then require
#                 `greenvis compare` output to be byte-for-byte identical
#                 across the two paths — the end-to-end statement of the
#                 scalar-vs-vector bit-identity contract.
set -euo pipefail

cd "$(dirname "$0")/.."

ASAN=0
BENCH_SMOKE=0
CAMPAIGN_SMOKE=0
CONFORMANCE=0
ENERGY_SMOKE=0
SERVE_SMOKE=0
SIMD=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --asan) ASAN=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    --campaign-smoke) CAMPAIGN_SMOKE=1 ;;
    --conformance) CONFORMANCE=1 ;;
    --energy-smoke) ENERGY_SMOKE=1 ;;
    --serve-smoke) SERVE_SMOKE=1 ;;
    --simd) SIMD=1 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ "$ASAN" == 1 ]]; then
  BUILD_DIR="${1:-build-asan}"
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  CONFIGURE_ARGS=(
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS"
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
  )
else
  BUILD_DIR="${1:-build}"
  CONFIGURE_ARGS=()
fi

echo "== configure =="
cmake -B "$BUILD_DIR" -S . "${CONFIGURE_ARGS[@]}" >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

if [[ "$BENCH_SMOKE" == 1 ]]; then
  echo "== bench smoke =="
  if [[ "$ASAN" == 1 ]]; then
    # Sanitizer overhead makes throughput incomparable to the committed
    # baseline; run --bench-smoke against a plain build instead.
    echo "skipped: --bench-smoke is meaningless under sanitizers"
  else
    "$BUILD_DIR"/bench/bench_perf_harness --smoke --baseline=BENCH_perf.json
    # The async staging pipeline must stay runnable end to end from the CLI.
    "$BUILD_DIR"/tools/greenvis compare --case 1 --pipeline=async \
      --stage-buffers=2 >/dev/null
  fi
fi

if [[ "$CAMPAIGN_SMOKE" == 1 ]]; then
  echo "== campaign smoke =="
  CLI="$BUILD_DIR"/tools/greenvis
  SMOKE_DIR="$BUILD_DIR"/campaign-smoke
  rm -rf "$SMOKE_DIR" && mkdir -p "$SMOKE_DIR"
  SWEEP=(campaign --pipelines=post,insitu --grids=16,24 --periods=1,2
         --iterations=2 --threads=4)

  # Reference: one uninterrupted run.
  "$CLI" "${SWEEP[@]}" --journal="$SMOKE_DIR/ref.journal" \
    --out="$SMOKE_DIR/ref.json"

  # Interrupt after 3 executed configs (exit code 3 = interrupted) ...
  rc=0
  "$CLI" "${SWEEP[@]}" --journal="$SMOKE_DIR/resume.journal" --limit=3 \
    --out="$SMOKE_DIR/partial.json" || rc=$?
  if [[ "$rc" != 3 ]]; then
    echo "campaign smoke: expected interrupted exit code 3, got $rc" >&2
    exit 1
  fi
  # ... then resume from the journal and demand byte-identical output.
  "$CLI" "${SWEEP[@]}" --journal="$SMOKE_DIR/resume.journal" --resume \
    --out="$SMOKE_DIR/resumed.json"
  cmp "$SMOKE_DIR/ref.json" "$SMOKE_DIR/resumed.json"
  echo "campaign smoke: resumed JSON byte-identical to the reference"
fi

if [[ "$SIMD" == 1 ]]; then
  echo "== simd differential =="
  # Tier-1 suite under the forced-scalar reference path, then again under
  # the auto-dispatched best native path. Both must be green: the vector
  # kernels are a pure performance substitution, never a semantic one.
  GREENVIS_SIMD=scalar ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  GREENVIS_SIMD=auto ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  # End-to-end bit-identity: the full pipeline comparison (solver sweeps,
  # codec round-trips, renders, energy model) must print byte-for-byte the
  # same report whichever ISA path executed it.
  SIMD_DIR="$BUILD_DIR"/simd-smoke
  rm -rf "$SIMD_DIR" && mkdir -p "$SIMD_DIR"
  for case_no in 1 2 3; do
    GREENVIS_SIMD=scalar "$BUILD_DIR"/tools/greenvis compare --case "$case_no" \
      > "$SIMD_DIR/compare_case${case_no}_scalar.txt"
    GREENVIS_SIMD=auto "$BUILD_DIR"/tools/greenvis compare --case "$case_no" \
      > "$SIMD_DIR/compare_case${case_no}_auto.txt"
    cmp "$SIMD_DIR/compare_case${case_no}_scalar.txt" \
        "$SIMD_DIR/compare_case${case_no}_auto.txt"
  done
  echo "simd differential: scalar and auto paths byte-identical"
fi

if [[ "$CONFORMANCE" == 1 ]]; then
  echo "== conformance =="
  "$BUILD_DIR"/tools/greenvis verify --out="$BUILD_DIR/QA_conformance.json"
fi

if [[ "$ENERGY_SMOKE" == 1 ]]; then
  echo "== energy smoke =="
  PROFILE="$BUILD_DIR/ENERGY_profile_case1.json"
  "$BUILD_DIR"/tools/greenvis profile --case 1 --out="$PROFILE" >/dev/null
  grep -q '"schema": "greenvis.energy_profile.v1"' "$PROFILE"
  # Conservation error is printed in full precision; anything at or above
  # 1e-9 relative means the attributor's ENSURE should have fired already.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$PROFILE" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    profile = json.load(f)
assert profile["conservation_error"] < 1e-9, profile["conservation_error"]
total = profile["total_j"]
stage_sum = sum(s["total_j"] for s in profile["stages"])
assert abs(stage_sum - total) <= 1e-9 * max(1.0, abs(total))
EOF
  else
    echo "energy smoke: python3 unavailable; schema + golden diff only"
  fi
  cmp "$PROFILE" tools/golden/ENERGY_profile_case1.json
  echo "energy smoke: profile byte-identical to the committed golden"
fi

if [[ "$SERVE_SMOKE" == 1 ]]; then
  echo "== serve smoke =="
  SERVE_A="$BUILD_DIR/SERVE_profile_case1.json"
  SERVE_B="$BUILD_DIR/SERVE_profile_case1.rerun.json"
  "$BUILD_DIR"/tools/greenvis serve --case=1 --viewers=8 --views=4 \
    --out="$SERVE_A" >/dev/null
  grep -q '"schema": "greenvis.serve_profile.v1"' "$SERVE_A"
  "$BUILD_DIR"/tools/greenvis serve --case=1 --viewers=8 --views=4 \
    --out="$SERVE_B" >/dev/null
  cmp "$SERVE_A" "$SERVE_B"
  echo "serve smoke: profile byte-identical across reruns"
  cmp "$SERVE_A" tools/golden/SERVE_profile_case1.json
  echo "serve smoke: profile byte-identical to the committed golden"
fi

echo "== format =="
if command -v clang-format >/dev/null 2>&1; then
  find src -name '*.hpp' -o -name '*.cpp' | xargs clang-format --dry-run -Werror
  echo "clang-format clean"
else
  echo "clang-format not installed; skipping format check"
fi

echo "== all checks passed =="
