#!/usr/bin/env bash
# Runs the open-loop SLO serving benchmark and records the results as
# BENCH_serve.json at the repo root: one Poisson arrival trace replayed
# against the micro-batcher under the legacy fixed-wait policy and the
# deadline-aware policy, reporting latency percentiles, windows/s within the
# SLO, miss rates, and fresh allocations per request.
#
# Usage:
#   bench/run_bench_serve.sh                       # default trace (~minutes)
#   ENHANCENET_QUICK=1 bench/run_bench_serve.sh    # smoke-scale trace
#   ENHANCENET_SLO_MS=50 bench/run_bench_serve.sh  # benchmark a 50 ms SLO
#   BUILD_DIR=/tmp/build bench/run_bench_serve.sh
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT="$ROOT/BENCH_serve.json"

if [[ ! -x "$BUILD_DIR/bench/bench_serve" ]]; then
  cmake -B "$BUILD_DIR" -S "$ROOT"
  cmake --build "$BUILD_DIR" -j --target bench_serve
fi

# Results go to a temp file beside $OUT and replace it only once they parse
# as JSON, so an interrupted or failed run leaves the committed artifact
# intact.
TMP="$(mktemp "$OUT.XXXXXX")"
trap 'rm -f "$TMP"' EXIT
chmod 644 "$TMP"

# The metrics snapshot (counters + histograms, same JSON schema as the
# CLI's --metrics-out) lands next to the timings.
ENHANCENET_METRICS_OUT="${ENHANCENET_METRICS_OUT:-$ROOT/BENCH_serve_metrics.json}" \
"$BUILD_DIR/bench/bench_serve" > "$TMP"

python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$TMP"
mv "$TMP" "$OUT"
echo "wrote $OUT"
