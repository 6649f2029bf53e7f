#!/usr/bin/env bash
# Runs the training-throughput benchmarks and records the results as
# BENCH_train.json at the repo root: the RNN/D-GRNN/TCN/STGCN training step
# (plus bound-context rows), the N=208 dense-vs-top-k D-DA-GRNN step sweep
# and the accuracy-vs-k curve.
#
# Usage:
#   bench/run_bench_train.sh            # every row
#   BENCHMARK_FILTER='DGRNN' bench/run_bench_train.sh
#   BUILD_DIR=/tmp/build bench/run_bench_train.sh
#   ENHANCENET_NUM_THREADS=1 bench/run_bench_train.sh   # serial kernels
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT="$ROOT/BENCH_train.json"

if [[ ! -x "$BUILD_DIR/bench/bench_train" ]]; then
  cmake -B "$BUILD_DIR" -S "$ROOT"
  cmake --build "$BUILD_DIR" -j --target bench_train
fi

# Results go to a temp file beside $OUT and replace it only once they parse
# as JSON, so an interrupted or failed run leaves the committed artifact
# intact.
TMP="$(mktemp "$OUT.XXXXXX")"
trap 'rm -f "$TMP"' EXIT
chmod 644 "$TMP"

# The metrics snapshot (counters + histograms, same JSON schema as the
# CLI's --metrics-out) lands next to the timings; it includes the
# tensor.alloc.* pool counters.
# Medians over randomly interleaved repetitions: on a shared runner two rows
# timed seconds apart drift by hypervisor steal (see DESIGN.md §7);
# interleaving samples both across the same machine states so the recorded
# ratios are the kernels', not the scheduler's.
ENHANCENET_METRICS_OUT="${ENHANCENET_METRICS_OUT:-$ROOT/BENCH_train_metrics.json}" \
"$BUILD_DIR/bench/bench_train" \
  --benchmark_format=json \
  --benchmark_repetitions="${BENCHMARK_REPETITIONS:-5}" \
  --benchmark_enable_random_interleaving \
  ${BENCHMARK_FILTER:+--benchmark_filter="$BENCHMARK_FILTER"} \
  > "$TMP"

# Post-process: print each model's median step and record context_overhead
# — the fractional cost of running the step with an explicitly bound
# RuntimeContext (the *_context rows) relative to the unbound rows — as a
# top-level key in BENCH_train.json. The acceptance bar is < 2% per model.
python3 - "$TMP" <<'EOF'
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
benchmarks = doc["benchmarks"]

def median_row(name):
    agg = [b for b in benchmarks
           if b["name"] == f"{name}_median" or
           (b.get("run_name") == name and b.get("aggregate_name") == "median")]
    if agg:
        return agg[0]
    plain = [b for b in benchmarks if b["name"] == name]
    return plain[0] if plain else None

context_overhead = {}
for model in ("RNN", "DGRNN", "TCN", "STGCN"):
    row = median_row(f"BM_TrainStep/{model}")
    ctx = median_row(f"BM_TrainStep/{model}_context")
    if not row:
        continue
    line = (f"{model}: {row['real_time']:.2f} ms median step "
            f"(allocs/step {row['allocs_per_step']:.2f}, "
            f"hit rate {row['pool_hit_rate']*100:.1f}%)")
    if ctx:
        overhead = ctx["real_time"] / row["real_time"] - 1.0
        context_overhead[model] = overhead
        line += f", context overhead {overhead*100:+.2f}%"
    print(line)

if context_overhead:
    doc["context_overhead"] = context_overhead

# Sparse top-k summary (DESIGN.md §10): dense-vs-sparse step time at N=208
# plus the accuracy-vs-k curve of the dense-trained model evaluated sparse.
# The PR's acceptance bar: some k <= 32 within 2% MAE of dense, allocs/step
# still 0 with the sparse path enabled.
sparse = {"train_step": {}, "accuracy_vs_k": {}}
for k in (0, 8, 16, 32):
    label = "N208_dense" if k == 0 else f"N208_k{k}"
    step = median_row(f"BM_TrainStepSweep/{label}")
    if step:
        sparse["train_step"][label] = {
            "step_ms": step["real_time"],
            "allocs_per_step": step["allocs_per_step"],
            "pool_hit_rate": step["pool_hit_rate"],
        }
    acc = median_row(f"BM_AccuracyVsK/{label}/iterations:1")
    if acc:
        sparse["accuracy_vs_k"][label] = {
            "mae": acc["mae"],
            "mae_vs_dense_pct": acc["mae_vs_dense_pct"],
        }
    tr = median_row(f"BM_AccuracyVsKTrained/{label}/iterations:1")
    if tr:
        sparse["accuracy_vs_k"][label + "_trained"] = {
            "mae": tr["mae"],
            "mae_vs_dense_pct": tr["mae_vs_dense_pct"],
        }
for label, row in sparse["train_step"].items():
    print(f"sweep {label}: {row['step_ms']:.0f} ms/step, "
          f"allocs/step {row['allocs_per_step']:.2f}")
for label, row in sparse["accuracy_vs_k"].items():
    print(f"accuracy {label}: mae {row['mae']:.4f} "
          f"({row['mae_vs_dense_pct']:+.2f}% vs dense)")
if sparse["train_step"] or sparse["accuracy_vs_k"]:
    doc["sparse_topk"] = sparse

if context_overhead or sparse["train_step"] or sparse["accuracy_vs_k"]:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("recorded summary keys")
EOF

python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$TMP"
mv "$TMP" "$OUT"
echo "wrote $OUT"
