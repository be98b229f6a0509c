"""Run one workload in this process: set up, then whole rounds for a fixed time.

run.py starts this file in a fresh process for every measurement:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --t0 MONOTONIC_START

``setup`` stops once the inputs exist; ``run`` then times each case; ``trace``
first wraps rieszops' entry points (see tracer.py) and reports per-layer
figures. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Every reported time is scaled to a reference speed of the machine: it is
#: multiplied by REFERENCE_KERNEL_S over the time the calibration kernel took
#: next to it. On a shared machine whose speed drifts by tens of percent from
#: minute to minute, this keeps run-to-run spreads at a few percent. The
#: reference is about the kernel's median time on the 2-vCPU machine of the
#: README's figures, so scaled times read as milliseconds there.
REFERENCE_KERNEL_S = 1.6e-3
CALIBRATION_INTERVAL_S = 0.025
SETUP_KERNEL_REPEATS = 5

#: Work counters reported per round in a traced run.
COUNT_METRICS = (
    "scalars.coerce_calls",
    "scalars.coerce_entries",
    "lattice.vectors_built",
    "lattice.partitions_built",
    "operators.operators_built",
    "operators.compose_calls",
    "operators.apply_calls",
    "operators.operator_splits",
    "operators.oracle_partitions",
    "superop.builds",
    "superop.kron_calls",
    "superop.partition_sup_calls",
    "superop.kron_entries",
    "norms.operator_norm_calls",
    "norms.extreme_points",
    "norms.batched_matrices",
    "counterexample.inf_G_calls",
    "counterexample.g_terms",
    "reports.reports_made",
    "reports.canonical_bytes",
    "cli.invocations",
)

#: Self-time metrics reported per round, by layer.
SELF_METRICS = {
    "scalars": "scalars.coerce_self_s",
    "lattice": "lattice.self_s",
    "operators": "operators.self_s",
    "superop": "superop.self_s",
    "norms": "norms.self_s",
    "counterexample": "counterexample.self_s",
    "reports": "reports.self_s",
    "cli": "cli.self_s",
}


def calibration_kernel():
    """A fixed pure-Python task in the workloads' mix: Fractions, a list, a sort."""
    total = Fraction(0)
    items = []
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        items.append((i * 2654435761) % 1000 / 7.0)
    items.sort()
    return total


def time_kernel():
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def run_rounds(pool, seconds, tracer=None):
    """Run whole rounds until ``seconds`` have passed; at least one round.

    The calibration kernel is timed before the first case, then before a
    case whenever CALIBRATION_INTERVAL_S has passed, and after the last one.
    Each case's latency is scaled by REFERENCE_KERNEL_S over the mean of the
    two kernel times that bracket it.
    """
    clock = time.perf_counter
    latencies = []
    marks = []  # per case: index of the last kernel time before it
    kernel = [time_kernel()]
    last_kernel = clock()
    failed = 0
    unexpected = []
    rounds = 0
    start = clock()
    while True:
        for case in pool[rounds % len(pool)]:
            if clock() - last_kernel >= CALIBRATION_INTERVAL_S:
                kernel.append(time_kernel())
                last_kernel = clock()
            marks.append(len(kernel) - 1)
            t0 = clock()
            try:
                result = case.call() if tracer is None else tracer.root("bench.case", case.call)
            except Exception as exc:  # a raised error fails the case; the run goes on
                latencies.append(clock() - t0)
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                latencies.append(clock() - t0)
                try:
                    problems = case.check(result)
                except Exception as exc:  # output too malformed to check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                if not (case.known_fault and problems == [workloads.VERDICT_FAIL]):
                    unexpected.append(f"{case.op}: {'; '.join(problems)}")
        rounds += 1
        if clock() - start >= seconds:
            break
    wall_s = clock() - start
    kernel.append(time_kernel())
    scaled = [
        t * REFERENCE_KERNEL_S * 2 / (kernel[i] + kernel[i + 1]) for t, i in zip(latencies, marks)
    ]
    return {
        "rounds": rounds,
        "cases": len(latencies),
        "failed": failed,
        "unexpected_count": len(unexpected),
        "unexpected": unexpected[:5],
        "wall_s": wall_s,
        "speed": REFERENCE_KERNEL_S / statistics.median(kernel),
        "case_seconds": sum(scaled),
        "case_ms_p50": statistics.median(scaled) * 1e3,
        "case_ms_p90": statistics.quantiles(scaled, n=10)[8] * 1e3,
        "raw_case_seconds": sum(latencies),
        "raw_case_ms_p50": statistics.median(latencies) * 1e3,
        "raw_case_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def per_layer(setup_spans, spans, counts, run, setup_speed):
    """Per-layer figures of a traced run: work and scaled self time per round."""
    from tracer import layer_self_seconds

    rounds = run["rounds"]
    self_s = layer_self_seconds(spans)
    metrics = {name: counts.get(name, 0) / rounds for name in COUNT_METRICS}
    entries = counts.get("scalars.coerce_entries", 0)
    metrics["scalars.already_typed_share"] = (
        counts.get("scalars.already_typed", 0) / entries if entries else 0.0
    )
    for layer, name in SELF_METRICS.items():
        metrics[name] = self_s[layer] * run["speed"] / rounds
    metrics["corpus.self_s"] = layer_self_seconds(setup_spans)["corpus"] * setup_speed
    metrics["trace.self_sum_share"] = sum(self_s.values()) / run["wall_s"]
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import rieszops

    if not os.path.abspath(rieszops.__file__).startswith(src + os.sep):
        raise SystemExit(f"rieszops imported from {rieszops.__file__}, not from {src}")
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def build():
        return workloads.build(args.workload, rieszops, args.seed, OUT_DIR)

    pool = build() if tracer is None else tracer.root("bench.setup", build)
    raw_setup_s = time.monotonic() - args.t0
    setup_speed = REFERENCE_KERNEL_S / statistics.median(
        time_kernel() for _ in range(SETUP_KERNEL_REPEATS)
    )
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": raw_setup_s * setup_speed,
        "raw_setup_s": raw_setup_s,
    }
    if args.mode != "setup":
        setup_spans = tracer.take()[0] if tracer is not None else None
        out.update(run_rounds(pool, args.seconds, tracer))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            from tracer import spans_to_json

            spans, counts = tracer.take()
            out["per_layer"] = per_layer(setup_spans, spans, counts, out, setup_speed)
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "rounds": out["rounds"],
                        "setup_spans": spans_to_json(setup_spans),
                        "spans": spans_to_json(spans),
                        "counts": counts,
                    },
                    fh,
                    indent=1,
                )
            out["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
