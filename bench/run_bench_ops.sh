#!/usr/bin/env bash
# Runs the substrate micro-benchmarks and records the results as
# BENCH_ops.json at the repo root, so the perf trajectory is tracked in-tree
# PR over PR.
#
# Usage:
#   bench/run_bench_ops.sh                 # full bench_ops sweep
#   BENCHMARK_FILTER='BM_Gemm' bench/run_bench_ops.sh
#   BUILD_DIR=/tmp/build bench/run_bench_ops.sh
#   ENHANCENET_NUM_THREADS=1 bench/run_bench_ops.sh   # serial baseline
#   BENCHMARK_REPETITIONS=1 bench/run_bench_ops.sh    # quick single-shot run
#
# Besides the sweep, the GEMM rows run again at 1 and at 4 threads; the
# medians land under the `threads_1_vs_4` key, and the script fails when a
# row is more than 10% slower at 4 threads than at 1.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT="$ROOT/BENCH_ops.json"
# Single-shot timings on a shared single-core runner drift by ±5-25% between
# benchmark families measured seconds apart. Randomly interleaved repetitions
# sample each family across the whole run, so the recorded medians compare
# families (e.g. BM_Gemm vs BM_GemmProfiled) against the same machine state.
REPS="${BENCHMARK_REPETITIONS:-5}"

if [[ ! -x "$BUILD_DIR/bench/bench_ops" ]]; then
  cmake -B "$BUILD_DIR" -S "$ROOT"
  cmake --build "$BUILD_DIR" -j --target bench_ops
fi

# Results go to a temp file beside $OUT and replace it only once they parse
# as JSON, so an interrupted or failed run leaves the committed artifact
# intact.
TMP="$(mktemp "$OUT.XXXXXX")"
trap 'rm -f "$TMP"' EXIT
chmod 644 "$TMP"

# The metrics snapshot (counters + histograms, same JSON schema as the
# CLI's --metrics-out) lands next to the timings.
ENHANCENET_METRICS_OUT="${ENHANCENET_METRICS_OUT:-$ROOT/BENCH_ops_metrics.json}" \
"$BUILD_DIR/bench/bench_ops" \
  --benchmark_format=json \
  --benchmark_repetitions="$REPS" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  ${BENCHMARK_FILTER:+--benchmark_filter="$BENCHMARK_FILTER"} \
  > "$TMP"

# Post-process: record the dense-vs-sparse adjacency-apply N-sweep as a
# top-level sparse_vs_dense key (median over the interleaved repetitions,
# so both families sampled the same machine states). The sparse PR's
# acceptance bar is >= 5x at N=1024, k=16.
python3 - "$TMP" <<'EOF'
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
benchmarks = doc["benchmarks"]

def median_time(name):
    rows = [b for b in benchmarks
            if b.get("run_name") == name and
            b.get("aggregate_name") == "median"]
    if not rows:
        rows = [b for b in benchmarks if b["name"] == name]
    return rows[0]["real_time"] if rows else None

sweep = {}
for n in (208, 1024, 10240):
    dense = median_time(f"BM_AdjacencyApplyDense/{n}")
    if dense is None:
        continue
    for k in (8, 16, 32):
        sparse = median_time(f"BM_AdjacencyApplySparse/{n}/{k}")
        if sparse is None:
            continue
        key = f"N{n}_k{k}"
        sweep[key] = {
            "dense_ns": dense,
            "sparse_ns": sparse,
            "speedup": dense / sparse,
        }
        print(f"adjacency apply {key}: dense {dense/1e3:.1f}us, "
              f"sparse {sparse/1e3:.1f}us -> {dense/sparse:.1f}x")

def counter(name, key):
    rows = [b for b in benchmarks
            if b.get("run_name") == name and
            b.get("aggregate_name") == "median"]
    if not rows:
        rows = [b for b in benchmarks if b["name"] == name]
    return rows[0].get(key) if rows else None

# Entity-sharded execution sweep (DESIGN.md §12): S-shard halo-exchange
# apply vs the S=1 single-context placement of the same executor, up to
# N = 102400 rows, plus the windowed O(N·k_cand) selection vs the O(N²)
# full scan it replaces at fleet scale.
sharded = {}
for n in (10240, 102400):
    k = 8
    single = median_time(f"BM_SparseApplySharded/{n}/{k}/1")
    if single is None:
        continue
    for s in (2, 4, 8):
        row_name = f"BM_SparseApplySharded/{n}/{k}/{s}"
        timed = median_time(row_name)
        if timed is None:
            continue
        key = f"N{n}_k{k}_S{s}"
        sharded[key] = {
            "single_ns": single,
            "sharded_ns": timed,
            "ratio": single / timed,
            "halo_entities": counter(row_name, "halo_entities"),
        }
        print(f"sharded apply {key}: single {single/1e3:.1f}us, "
              f"S={s} {timed/1e3:.1f}us (ratio {single/timed:.2f}x, "
              f"halo {counter(row_name, 'halo_entities')})")
full_scan = median_time("BM_TopKSparsify/10240/16")
windowed = median_time("BM_TopKSparsifyWindowed/10240/16/256")
if full_scan is not None and windowed is not None:
    sharded["selection_N10240_kcand256"] = {
        "full_scan_ns": full_scan,
        "windowed_ns": windowed,
        "speedup": full_scan / windowed,
    }
    print(f"top-k selection N=10240: full scan {full_scan/1e6:.2f}ms, "
          f"k_cand=256 window {windowed/1e6:.2f}ms "
          f"-> {full_scan/windowed:.1f}x")

if sweep or sharded:
    if sweep:
        doc["sparse_vs_dense"] = sweep
    if sharded:
        doc["sharded_vs_single"] = sharded
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("recorded sweep keys")
EOF

# Thread gate: the GEMM rows at 1 and at 4 threads, one invocation of each
# per repetition in alternation so both thread counts sample the same
# machine states. Four threads must never be slower than one: the run fails
# (leaving the committed artifact untouched) when a row's 4-thread median
# real time exceeds its 1-thread median by more than 10%.
GATE_DIR="$(mktemp -d)"
trap 'rm -f "$TMP"; rm -rf "$GATE_DIR"' EXIT
for ((rep = 0; rep < REPS; ++rep)); do
  for threads in 1 4; do
    ENHANCENET_NUM_THREADS="$threads" "$BUILD_DIR/bench/bench_ops" \
      --benchmark_format=json \
      --benchmark_filter='^BM_(Gemm|BatchGemm)' \
      > "$GATE_DIR/t${threads}_${rep}.json"
  done
done

python3 - "$TMP" "$GATE_DIR" "$REPS" <<'EOF'
import json, statistics, sys
path, gate_dir, reps = sys.argv[1], sys.argv[2], int(sys.argv[3])
limit = 1.10
times = {1: {}, 4: {}}
for threads in times:
    for rep in range(reps):
        run = json.load(open(f"{gate_dir}/t{threads}_{rep}.json"))
        for b in run["benchmarks"]:
            times[threads].setdefault(b["run_name"], []).append(b["real_time"])
rows = {}
slow = []
for name in sorted(times[1]):
    t1 = statistics.median(times[1][name])
    t4 = statistics.median(times[4].get(name, [float("nan")]))
    rows[name] = {"threads_1_ns": t1, "threads_4_ns": t4, "ratio": t4 / t1}
    print(f"thread gate {name}: 1 thread {t1/1e3:.1f}us, "
          f"4 threads {t4/1e3:.1f}us ({t4/t1:.2f}x)")
    if not t4 <= limit * t1:
        slow.append(name)
doc = json.load(open(path))
doc["threads_1_vs_4"] = {"threads": [1, 4], "repetitions": reps,
                         "limit_ratio": limit, "rows": rows}
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
if slow:
    print("thread gate FAILED: slower at 4 threads than at 1 by more than "
          f"{limit - 1:.0%}: {', '.join(slow)}", file=sys.stderr)
    sys.exit(1)
EOF

python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$TMP"
mv "$TMP" "$OUT"
echo "wrote $OUT"
