#!/usr/bin/env python3
"""The repository benchmark: builds `dasperf` from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload das-read --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics and
the host-time ledger. Human-readable lines come first; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The exit code is 0 only when every output check
passed. The build goes to `.bench_build/perfbench` under the repository root.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("das-read", "fcfs-read", "rein-lsm-write")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds dasperf; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found at {ROOT / 'src'}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "dasperf",
                  "-j", "4"])
    for step in steps:
        # A session of its own, so a timeout stops make and the compilers too.
        try:
            proc = subprocess.Popen(step, stdout=sys.stderr, stderr=sys.stderr,
                                    start_new_session=True)
        except FileNotFoundError as err:
            die(f"build failed: {err}")
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            die(f"build exceeded {BUILD_TIMEOUT_S} s")
        if code != 0:
            die(f"build failed: {' '.join(step)} exited with code {code}")
    return BUILD_DIR / "dasperf"


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def validate(out, trace):
    """Output checks beyond dasperf's own; returns a list of failures."""
    problems = [f"{c['name']}: {c['detail']}" for c in out["checks"] if not c["ok"]]
    metrics = out["metrics"]
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r} is not a finite number")
    declared = declared_metrics(trace)
    if declared is not None:
        wanted = dict(declared)
        if set(wanted) != set(metrics):
            missing = sorted(set(wanted) - set(metrics))
            extra = sorted(set(metrics) - set(wanted))
            problems.append(f"metric names differ from BENCHMARK.json: "
                            f"missing {missing}, undeclared {extra}")
        for name, unit in wanted.items():
            if name in metrics and metrics[name]["unit"] != unit:
                problems.append(f"{name}: unit {metrics[name]['unit']} != {unit}")
    if trace:
        if metrics.get("trace.dropped", {}).get("value") != 0:
            problems.append("the traced run dropped events")
    else:
        for name, m in metrics.items():
            if not m["value"] > 0:
                problems.append(f"{name}: end-to-end metric must be positive")
        if out["failed"] != 0:
            problems.append(f"{out['failed']} requests failed, were shed or expired")
    return problems


def print_report(out, trace, problems):
    info = out["info"]
    print(f"workload {out['workload']}  seed {out['seed']}  trace {trace}")
    print("  " + "  ".join(f"{k}={v:g}" for k, v in info.items()))
    # Percentiles are per sub-run, median over sub-runs: show one sub-run's
    # sample count and how many of its samples lie beyond the percentile.
    beyond = {"rct_p50_us": 0.5, "rct_p99_us": 0.01, "rct_p999_us": 0.001}
    for name, m in out["metrics"].items():
        line = f"  {name:38s} {m['value']:>16.6g} {m['unit']}"
        if name in beyond and "rct_samples_per_subrun" in info:
            n = int(info["rct_samples_per_subrun"])
            line += (f"   (median of {int(info['subruns'])} sub-runs of n={n},"
                     f" {int(n * beyond[name])} beyond)")
        print(line)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'all passed' if not problems else f'{len(problems)} failed'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny window, for perfbench/smoke_test.py")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"dasperf exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"dasperf exited with code {proc.returncode}")
    out = json.loads(lines[-1])

    problems = validate(out, args.trace)
    print_report(out, args.trace, problems)
    correct = bool(out["correct"]) and not problems
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
