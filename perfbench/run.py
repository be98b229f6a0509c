#!/usr/bin/env python3
"""Benchmark for rieszops: end-to-end metrics per workload, or a traced run.

Run from the root of the repository:

    python3 perfbench/run.py --workload identity_exact --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --trace 1

Each measurement runs in its own fresh, single-threaded Python process
(worker.py) with BLAS threads pinned to 1; the process gets only the
workload name and seed and generates its inputs from them. With --trace 0
the run prints every end-to-end metric of BENCHMARK.json, with --trace 1
every per-layer metric. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 whenever that line is printed, and
not 0 when the benchmark cannot run, for example without src/rieszops.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Set-up-only processes per run, besides the measuring one; setup_s is the
#: median of all of them.
SETUP_REPEATS = 6

#: A single workload must finish well inside three minutes.
DEADLINE_S = 170.0

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, seconds, mode, deadline):
    """Start worker.py once, wait for it, and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before the {mode} process of {workload}")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", repr(seconds), "--mode", mode]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the {mode} process of {workload} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"the {mode} process of {workload} exited with {proc.returncode}:\n"
            + proc.stderr.strip()[-3000:]
        )
    return json.loads(lines[-1])


def end_to_end(workload, seed, seconds, deadline):
    setups = [
        run_worker(workload, seed, 0, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS)
    ]
    run = run_worker(workload, seed, seconds, "run", deadline)
    metrics = {
        "setup_s": statistics.median(setups + [run["setup_s"]]),
        "cases_per_s": run["cases"] / run["case_seconds"],
        "case_ms_p50": run["case_ms_p50"],
        "case_ms_p90": run["case_ms_p90"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = run["unexpected"] + [
        f"unscaled: cases_per_s {run['cases'] / run['raw_case_seconds']:.6g}"
        f" case_ms_p50 {run['raw_case_ms_p50']:.6g} case_ms_p90 {run['raw_case_ms_p90']:.6g}"
        f" setup_s {run['raw_setup_s']:.6g}; machine speed {run['speed']:.4g} x reference"
    ]
    return run["unexpected_count"] == 0, run["cases"], run["failed"], metrics, notes


def per_layer(workload, seed, seconds, deadline):
    """An untraced and a traced process, each for half the time."""
    plain = run_worker(workload, seed, seconds / 2, "run", deadline)
    traced = run_worker(workload, seed, seconds / 2, "trace", deadline)
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_ratio"] = (plain["cases"] / plain["case_seconds"]) / (
        traced["cases"] / traced["case_seconds"]
    )
    notes = plain["unexpected"] + traced["unexpected"]
    correct = plain["unexpected_count"] == 0 and traced["unexpected_count"] == 0
    if metrics["trace.self_sum_share"] > 1.0:
        correct = False
        notes.append("layer self times sum to more than the traced wall time")
    notes.append(f"trace written to {traced['trace_file']}")
    attempted = plain["cases"] + traced["cases"]
    return correct, attempted, plain["failed"] + traced["failed"], metrics, notes


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rieszops", "__init__.py")):
        print(f"perfbench: no rieszops sources under {ROOT}/src", file=sys.stderr)
        return 2
    selected = names if args.workload == "all" else [args.workload]
    measure = per_layer if args.trace else end_to_end
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S * len(selected)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in selected:
            correct, attempted, failed, values, notes = measure(
                workload, args.seed, args.seconds, deadline
            )
            summary["correct"] = summary["correct"] and correct
            summary["attempted"] += attempted
            summary["failed"] += failed
            for metric in metric_spec:
                value = values[metric["name"]]
                key = metric["name"] if len(selected) == 1 else f"{workload}.{metric['name']}"
                summary["metrics"][key] = {"value": value, "unit": metric["unit"]}
                print(f"{workload:<15} {metric['name']:<32} {value:>14.6g} {metric['unit']}")
            print(f"{workload:<15} attempted {attempted} failed {failed} correct {correct}")
            for note in notes:
                print(f"{workload:<15} {note}")
            sys.stdout.flush()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
