#!/usr/bin/env bash
# CI-style gate: configure + build, run the full test suite, and (when
# clang-format is available) verify formatting of everything under src/.
#
# Usage: tools/check.sh [--asan] [--bench-smoke] [--simd] [build-dir]
#
# The suite includes the `golden` ctest label (tools/golden_check.cmake): the
# committed ENERGY/SERVE profile and CAMPAIGN sweep goldens, serve rerun
# determinism, the campaign interrupt/resume byte-identity and the
# scalar-vs-auto `greenvis compare` byte-identity. `greenvis verify` runs as the
# cli_verify_smoke test.
#
#   --asan        build with AddressSanitizer + UndefinedBehaviorSanitizer
#                 (RelWithDebInfo, default build dir: build-asan) and run the
#                 full suite under them — including the obs/pool concurrency
#                 tests, which is where a data race would surface as UB, and
#                 the intrinsics TU (kernels_avx2.cpp), where UBSan checks
#                 the lane-math shifts/casts the vector path leans on.
#   --bench-smoke after the suite, run the ~5 s perf-harness subset and fail
#                 on a >10% regression vs the committed BENCH_perf.json
#                 (heat2d_512 serial MCUPS and codec MB/s).
#   --simd        after the suite, re-run the full tier-1 suite once under
#                 GREENVIS_SIMD=scalar and once under GREENVIS_SIMD=auto
#                 (the dispatcher's best native path). The end-to-end
#                 scalar-vs-vector `greenvis compare` identity is the
#                 golden_simd test, part of every suite run.
set -euo pipefail

cd "$(dirname "$0")/.."

ASAN=0
BENCH_SMOKE=0
SIMD=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --asan) ASAN=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
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

if [[ "$SIMD" == 1 ]]; then
  echo "== simd differential =="
  # Tier-1 suite under the forced-scalar reference path, then again under
  # the auto-dispatched best native path. Both must be green: the vector
  # kernels are a pure performance substitution, never a semantic one.
  GREENVIS_SIMD=scalar ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  GREENVIS_SIMD=auto ctest --test-dir "$BUILD_DIR" --output-on-failure -j
fi

echo "== format =="
if command -v clang-format >/dev/null 2>&1; then
  find src -name '*.hpp' -o -name '*.cpp' | xargs clang-format --dry-run -Werror
  echo "clang-format clean"
else
  echo "clang-format not installed; skipping format check"
fi

echo "== all checks passed =="
