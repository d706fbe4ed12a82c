#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny window (about a minute, after the build).

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it runs perfbench/run.py twice with --trace 0 and twice
with --trace 1 at `--scale smoke`, and checks that

  * the last output line has exactly the keys correct/attempted/failed/metrics,
    is correct, and attempted >= 1;
  * the metric names and units are exactly those BENCHMARK.json declares;
  * every simulated number (all but host times and memory) repeats exactly
    between the two runs, and `trace.dropped` is 0;

and that run.py rejects an unknown workload with a non-zero exit.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Host measurements: everything else must repeat bit for bit.
HOST_E2E = {"wall_us_per_request", "setup_s", "peak_rss_mib"}
HOST_LAYER_PREFIXES = ("ledger.",)
HOST_LAYER_SUFFIXES = (".ns_per_event", ".ns_per_send", ".ns_plain_event",
                       ".ns_enqueue_dequeue", ".ns_progress", ".ns_get",
                       ".ns_lsm_op", ".ns_pick", ".ns_per_request",
                       ".ns_per_record", ".overhead_frac")

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def is_host(name, trace):
    if not trace:
        return name in HOST_E2E
    return name.startswith(HOST_LAYER_PREFIXES) or name.endswith(HOST_LAYER_SUFFIXES)


def run(workload, trace, seed=3):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-1]) if lines else {}


def check_schema(workload, trace, out):
    where = f"{workload} trace {trace}"
    check(set(out) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(out)}")
    check(out.get("correct") is True, f"{where}: not correct")
    check(isinstance(out.get("attempted"), int) and out["attempted"] >= 1,
          f"{where}: attempted {out.get('attempted')}")
    check(out.get("failed") == 0, f"{where}: failed {out.get('failed')}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = out.get("metrics", {})
    check(set(metrics) == set(declared), f"{where}: metric names differ from BENCHMARK.json")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        check(set(m) == {"value", "unit"} and m.get("unit") == unit,
              f"{where}: {name} should be {{value, unit={unit}}}, got {m}")
        check(isinstance(m.get("value"), (int, float)), f"{where}: {name} value not a number")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            first, second = run(workload, trace), run(workload, trace)
            check_schema(workload, trace, first)
            check_schema(workload, trace, second)
            for name, m in first.get("metrics", {}).items():
                if is_host(name, trace):
                    continue
                again = second.get("metrics", {}).get(name, {}).get("value")
                check(m["value"] == again,
                      f"{workload} trace {trace}: {name} did not repeat ({m['value']} vs {again})")
            check(first.get("attempted") == second.get("attempted"),
                  f"{workload} trace {trace}: attempted did not repeat")
            if trace:
                check(first.get("metrics", {}).get("trace.dropped", {}).get("value") == 0,
                      f"{workload}: trace.dropped != 0")
            print(f"ok   {workload} trace {trace}")
    bad = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "nope",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    check(bad.returncode != 0, "run.py accepted an unknown workload")
    print("smoke test:", "PASS" if not failures else f"FAIL ({len(failures)} problems)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
