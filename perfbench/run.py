#!/usr/bin/env python3
"""The repository benchmark: train-207, forecast-1024-topk and serve-207.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench driver (perfbench/CMakeLists.txt, which builds the
library from the repository's own CMake project) into .bench_build/ in
Release mode, runs one workload for --seconds seconds on inputs made from
--seed, validates what the driver wrote, and prints the result.

Workloads (see BENCHMARK.json for why each was chosen):
  train-207           D-DA-GRNN training steps, N=207, B=8, dense DAMGN.
  forecast-1024-topk  no-grad D-DA-GRNN forecasts, N=1024, top-k=16, B=1.
  serve-207           D-DA-GTCN, N=207, through serve::ModelRegistry with a
                      150 ms SLO: untraced, a closed-loop capacity phase
                      whose throughput is the end-to-end figure; traced,
                      open-loop Poisson traffic first (10/s then 20/s, a
                      version-2 publish midway through the 20/s phase).

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json:
windows_per_cpu_s and setup_s are measured in process CPU time, which leaves
out the time a shared host's hypervisor steals from this machine (wall-clock
step times swung 2x between runs of the same code on a busy host; CPU times
stay within a few percent). The wall-clock speed is reported in the traced
run as wall.windows_per_s and wall.latency_p50_ms, unbounded.
With --trace 1 the result carries the per-layer metrics (spans around the calls the
driver makes into each layer, a layer-by-layer replay of one forward, and
the library's ENHANCENET_PROFILE counters). A per-layer metric of a layer
the workload never calls reads 0.

The driver writes its result to .bench_out/<workload>-seed<n>-trace<t>.json
(and, traced, the span log to ...spans.json) as a temporary file; this
script parses and validates it, then renames it into place. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Any failure to build, run or validate exits non-zero
without printing a result.

The driver runs its kernels on 4 threads and records the machine's thread
count, the thread count and the build type in the result file. ENHANCENET_*
variables are removed from the driver's environment, so the library runs on
its defaults apart from what each workload sets.

The benchmark's own statistics have unit tests:

    cmake --build .bench_build --target perfbench_stats_test
    .bench_build/perfbench_stats_test
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
# The longest --seconds whose runs (traced ones add set-ups, a replay and
# direct forwards to the measured time) finish well within RUN_TIMEOUT_S.
MAX_SECONDS = 60
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 600


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


_children = []  # the running child, whose process group a signal takes down


def _stop_children(signum, _frame):
    for proc in _children:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def run(command, timeout, **kwargs):
    """subprocess.run in a process group of its own: on a timeout, or when
    this script is terminated, the whole group (a build's compilers too) is
    killed and reaped."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        _children.append(proc)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        finally:
            _children.remove(proc)
    return subprocess.CompletedProcess(command, proc.returncode, stdout)


def run_checked(command, timeout, **kwargs):
    done = run(command, timeout, **kwargs)
    if done.returncode != 0:
        raise subprocess.CalledProcessError(done.returncode, command)
    return done


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    return args


def build(root):
    """Configures (once) and builds the driver; returns its path."""
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            CONFIGURE_TIMEOUT_S, stdout=sys.stderr)
    run_checked(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        build_type = next(
            (line.split("=", 1)[1].strip() for line in cache
             if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        fail(f"refusing to measure a '{build_type}' build (needs Release)")
    return os.path.join(build_dir, "perfbench")


def validate(result, expected):
    """Raises ValueError unless `result` is a well-formed driver result."""
    for key in ("correct", "attempted", "failed", "metrics", "build_type",
                "nproc", "threads", "checks"):
        if key not in result:
            raise ValueError(f"result has no '{key}'")
    if not isinstance(result["correct"], bool):
        raise ValueError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("no ops attempted")
    if result["build_type"] != "Release":
        raise ValueError(f"build type {result['build_type']!r} is not Release")
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        raise ValueError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for m in expected:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise ValueError(f"{m['name']}: value {value!r} is not a finite number")


def main():
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _stop_children)
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found in {root}: run from a checkout of the repository")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(workloads)})")
    expected = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    try:
        binary = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result_path, spans_path = stem + ".json", stem + ".spans.json"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out", result_path + ".tmp"]
    if args.trace == "1":
        command += ["--spans", spans_path + ".tmp"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENHANCENET_")}
    try:
        driver = run(command, RUN_TIMEOUT_S, cwd=root, env=env,
                     stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if driver.returncode != 0:
        sys.stdout.write(driver.stdout)
        fail(f"driver exited with code {driver.returncode}")

    try:
        with open(result_path + ".tmp") as f:
            result = json.load(f)
        validate(result, expected)
        if args.trace == "1":
            with open(spans_path + ".tmp") as f:
                spans = json.load(f)["spans"]
            if not isinstance(spans, list) or not spans:
                raise ValueError("empty span log")
            os.replace(spans_path + ".tmp", spans_path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"invalid driver output: {e}")
    os.replace(result_path + ".tmp", result_path)

    sys.stdout.write(driver.stdout)
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, {result['threads']} threads on "
          f"{result['nproc']}-thread machine, {result['build_type']} build")
    for m in expected:
        got = result["metrics"][m["name"]]
        print(f"  {m['name']} = {got['value']:.6g} {got['unit']}")
    print(f"  ops attempted {result['attempted']}, failed {result['failed']}; "
          f"output checks {'passed' if result['correct'] else 'FAILED'}")
    print(f"  result: {os.path.relpath(result_path, root)}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in expected},
    }
    print(json.dumps(line))


if __name__ == "__main__":
    main()
