"""Tests of the benchmark itself: its spec, its output checks and tiny runs.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import rieszops  # noqa: E402
import workloads  # noqa: E402
from worker import run_rounds  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _first_case_per_op(name, seed=3):
    seen = {}
    for case in workloads.build(name, rieszops, seed, OUT_DIR)[0]:
        seen.setdefault((case.op, case.known_fault), case)
    return list(seen.values())


def _bump(entry):
    if isinstance(entry, str):
        return str(Fraction(entry) + Fraction(1, 7))
    return entry * (1 + 1e-6) + 1e-6


def _corrupt(case, result):
    """The same output with one entry perturbed."""
    if isinstance(result, rieszops.OracleResult):
        entries = list(result.value.entries)
        entries[0] = entries[0] + 1
        return dataclasses.replace(result, value=rieszops.LatticeVector(entries))
    details = dict(result.details)
    if case.op == "cor23":
        details["closed_form_value"] = _bump(details["closed_form_value"])
        return dataclasses.replace(result, details=details)
    if case.op == "gap":
        details["rho"] = _bump(details["rho"])
        return dataclasses.replace(result, details=details)
    witnesses = [dict(w) for w in result.witnesses]
    entries = list(witnesses[-1]["entries"])
    entries[-1] = _bump(entries[-1])
    witnesses[-1]["entries"] = entries
    return dataclasses.replace(result, witnesses=tuple(witnesses))


def test_benchmark_json_form():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and "\n" not in workload["why"]
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_pass_true_outputs_and_flag_corrupted_ones(name):
    for case in _first_case_per_op(name):
        result = case.call()
        problems = case.check(result)
        if case.known_fault:
            assert problems == [workloads.VERDICT_FAIL], (case.op, problems)
            continue
        assert problems == [], (case.op, problems)
        if case.op == "counterexample":
            # check() consumed the report file; write a corrupted one.
            assert case.call() == 0
            path = workloads.lab_report_path(OUT_DIR)
            with open(path, encoding="ascii") as fh:
                report = json.load(fh)
            report["details"]["lambda_B_at_e"]["entries"][0] = "2"
            with open(path, "w", encoding="ascii") as fh:
                json.dump(report, fh)
            assert case.check(0), "corrupted lab report passed"
        else:
            assert case.check(_corrupt(case, result)), f"corrupted {case.op} output passed"


def test_every_scaled_float_prop21_case_fails_on_the_tolerance():
    pool = workloads.build("identity_float", rieszops, 0, OUT_DIR)
    faults = [case for cases in pool for case in cases if case.known_fault]
    assert faults and all(case.op == "prop21" for case in faults)
    for case in faults:
        assert case.check(case.call()) == [workloads.VERDICT_FAIL]


def test_run_rounds_counts_failures_and_known_faults():
    def raises():
        raise RuntimeError("boom")

    pool = [
        [
            workloads.Case("ok", lambda: 1, lambda r: []),
            workloads.Case("known", lambda: 1, lambda r: [workloads.VERDICT_FAIL], True),
            workloads.Case("wrong", lambda: 1, lambda r: ["witness differs"]),
            workloads.Case("raises", raises, lambda r: []),
            workloads.Case("malformed", lambda: {}, lambda r: r["details"]),
        ]
    ]
    out = run_rounds(pool, seconds=0)
    assert (out["rounds"], out["cases"], out["failed"], out["unexpected_count"]) == (1, 5, 4, 3)
    assert out["unexpected"] == [
        "wrong: witness differs",
        "raises: raised RuntimeError: boom",
        "malformed: check raised KeyError: 'details'",
    ]


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(name, trace):
    proc = _run_bench(ROOT, "--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        if not trace:
            assert entry["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "meet_lab", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
