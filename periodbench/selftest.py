#!/usr/bin/env python3
"""Self-tests of the period benchmark, run from the root of a checkout:

    python3 periodbench/selftest.py

1. period_selftest: nearest-rank percentiles, the ten-samples-beyond rule,
   and the re-track classifier at the tolerance edge.
2. Metric names: every metric the benchmark defines is listed in
   BENCHMARK.json and printed by a run; each run's JSON carries exactly the
   BENCHMARK.json list for its mode.
3. Determinism: the same seed gives identical mean_cost, violation_rate and
   core.retracks on every workload.
Exits non-zero if any check fails.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

END_TO_END = ["period_p50_ms", "period_tail_ms", "period_p99_ms",
              "decisions_per_s",
              "mean_cost", "violation_rate", "failed_frac", "peak_rss_mb",
              "setup_s"]
PER_LAYER = [
    "core.select_retrack_p50_ms", "core.select_retrack_p99_ms",
    "core.select_steady_p50_ms", "core.select_steady_p99_ms",
    "core.retracks", "core.retrack_frac", "core.update_p50_ms",
    "core.update_p99_ms", "core.s0_fallbacks",
    "core.fleet_decide_batch_p50_ms", "core.fleet_decide_batch_p99_ms",
    "core.fleet_update_batch_p50_ms", "core.fleet_update_batch_p99_ms",
    "core.fleet_batch_cells_mean", "gp.track_p50_ms", "gp.add_p50_ms",
    "gp.evict_oldest_p50_ms", "gp.acache_mb", "oran.plane_step_p50_ms",
    "oran.plane_step_p99_ms", "oran.handshake_ms", "oran.kpi_losses",
    "oran.delivery_failures", "oran.decode_rejects", "env.step_p50_ms",
    "proc.cpu_util", "proc.trace_overhead_frac"]
DETERMINISTIC = ["mean_cost", "violation_rate", "core.retracks"]
EXTRA_LINE = re.compile(
    r"^\s+(\S+)\s+(\S+)\s+\S+\s*\(not in this run's JSON\)$")


def run(binary, workload, trace, seed=7, seconds=1):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=bench.RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace={trace} exited "
                         f"{out.returncode}")
    lines = out.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:
        m = EXTRA_LINE.match(line)
        if m:
            values[m.group(1)] = float(m.group(2))
    return result, values


def main():
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(("ok    " if ok else "FAIL  ") + what)
        failures += not ok

    binary = bench.build(os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "periodbench"))
    unit = subprocess.run([binary.replace("period_bench", "period_selftest")])
    check(unit.returncode == 0, "period_selftest")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = {r["name"] for r in spec["end_to_end"] + spec["per_layer"]}
    for name in END_TO_END + PER_LAYER:
        check(name in listed, f"{name} listed in BENCHMARK.json")

    for workload in bench.WORKLOADS:
        first = None
        for _ in range(2):
            result, values = run(binary, workload, trace=1)
            want = {r["name"] for r in spec["per_layer"]}
            check(set(result["metrics"]) == want,
                  f"{workload}: traced JSON carries exactly per_layer")
            for name in END_TO_END + PER_LAYER:
                check(name in values, f"{workload}: {name} printed")
            if first is None:
                first = values
            else:
                for name in DETERMINISTIC:
                    check(values.get(name) == first.get(name),
                          f"{workload}: same seed, same {name} "
                          f"({first.get(name)} vs {values.get(name)})")

    result, _ = run(binary, "cell-static-mux", trace=0)
    check(set(result["metrics"]) == {r["name"] for r in spec["end_to_end"]},
          "untraced JSON carries exactly end_to_end")

    print(f"{'FAIL' if failures else 'PASS'}: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
