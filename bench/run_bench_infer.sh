#!/usr/bin/env bash
# Runs the inference-serving benchmarks and records the results as
# BENCH_infer.json at the repo root, so the serving-latency trajectory is
# tracked in-tree PR over PR.
#
# Usage:
#   bench/run_bench_infer.sh                 # full bench_infer sweep
#   BENCHMARK_FILTER='DGRNN' bench/run_bench_infer.sh
#   BUILD_DIR=/tmp/build bench/run_bench_infer.sh
#   ENHANCENET_NUM_THREADS=1 bench/run_bench_infer.sh   # serial baseline
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT="$ROOT/BENCH_infer.json"

if [[ ! -x "$BUILD_DIR/bench/bench_infer" ]]; then
  cmake -B "$BUILD_DIR" -S "$ROOT"
  cmake --build "$BUILD_DIR" -j --target bench_infer
fi

# Results go to a temp file beside $OUT and replace it only once they parse
# as JSON, so an interrupted or failed run leaves the committed artifact
# intact.
TMP="$(mktemp "$OUT.XXXXXX")"
trap 'rm -f "$TMP"' EXIT
chmod 644 "$TMP"

# The metrics snapshot (counters + histograms, same JSON schema as the
# CLI's --metrics-out) lands next to the timings.
ENHANCENET_METRICS_OUT="${ENHANCENET_METRICS_OUT:-$ROOT/BENCH_infer_metrics.json}" \
"$BUILD_DIR/bench/bench_infer" \
  --benchmark_format=json \
  ${BENCHMARK_FILTER:+--benchmark_filter="$BENCHMARK_FILTER"} \
  > "$TMP"

python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$TMP"
mv "$TMP" "$OUT"
echo "wrote $OUT"
