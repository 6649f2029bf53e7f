#!/usr/bin/env bash
# Builds the tree with one sanitizer in its own build directory and runs the
# tests under it.
#
#   thread     the concurrency suites: fused kernels (fused_test), parallel
#              tensor ops (tensor_parallel_test), sparse top-k (sparse_test),
#              entity sharding (shard_test), the micro-batcher (serve_test)
#              and the model registry (registry_test). They run with
#              ENHANCENET_NUM_THREADS=8 so every ParallelFor region really
#              splits; the fused and sparse kernels claim each output element
#              is written by exactly one chunk, which ThreadSanitizer can
#              falsify.
#   address    the full ctest suite under AddressSanitizer.
#   undefined  the full ctest suite under UndefinedBehaviorSanitizer; the
#              first report aborts the test (halt_on_error=1).
#
# Usage:
#   bench/run_sanitizer.sh thread
#   bench/run_sanitizer.sh address
#   SANITIZER_BUILD_DIR=/tmp/ubsan bench/run_sanitizer.sh undefined
set -euo pipefail

MODE="${1:-}"
case "$MODE" in
  thread | address | undefined) ;;
  *)
    echo "usage: $0 <thread|address|undefined>" >&2
    exit 2
    ;;
esac

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${SANITIZER_BUILD_DIR:-$ROOT/build-$MODE}"

cmake -B "$BUILD_DIR" -S "$ROOT" -DENHANCENET_SANITIZE="$MODE" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo

if [[ "$MODE" == thread ]]; then
  SUITES=(fused_test tensor_parallel_test sparse_test shard_test serve_test
          registry_test)
  TARGETS=()
  for suite in "${SUITES[@]}"; do TARGETS+=(--target "$suite"); done
  cmake --build "$BUILD_DIR" -j "${TARGETS[@]}"
  REGEX="^($(IFS='|'; echo "${SUITES[*]}"))\$"
  ENHANCENET_NUM_THREADS=8 ctest --test-dir "$BUILD_DIR" -R "$REGEX" \
    --output-on-failure
else
  cmake --build "$BUILD_DIR" -j
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure
fi

echo "tests clean under the $MODE sanitizer"
