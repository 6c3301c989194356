#!/usr/bin/env python3
"""Build and run the period benchmark from the root of a source checkout.

    python3 periodbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the repository's `edgebol` library and the benchmark (Release) into
$CARGO_TARGET_DIR/periodbench (default .bench_build/periodbench), runs one
workload, and passes its output through. The last stdout line is the JSON
result; it is checked against the metric lists in BENCHMARK.json. Exits
non-zero, without a result line, when the build, the run or the check
fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cell-fig13", "cell-static-mux", "fleet-fullgrid")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"periodbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"build step failed: {' '.join(cmd)}")


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    # The Makefile exists only after a configure step succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build_dir, "-j", jobs,
               "--target", "period_bench", "period_selftest"],
              max(1, deadline - time.monotonic()))
    return os.path.join(build_dir, "period_bench")


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_bench(cmd):
    """Run the benchmark in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "periodbench")
    binary = build(build_dir)
    want = expected_metrics(args.trace)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    code, out = run_bench(cmd)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        fail(f"benchmark exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line of the benchmark output is not JSON")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json "
             f"{sorted(want.items())}")
    if not result["correct"]:
        fail("benchmark reported an incorrect run")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
