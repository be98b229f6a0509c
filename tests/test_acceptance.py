"""Acceptance gate: the seven criteria the package must meet.

Each criterion is one test; each registers a single [PASS]/[FAIL] line
(echoed in the terminal summary) carrying the measured deviation and
runtime.  Deviations are exact rationals wherever the model permits;
float tolerances are pinned where they appear.
"""

import math
import os
import time
from fractions import Fraction

from rieszops import (
    LatticeNorm,
    NormAssignment,
    counterexample_report,
    gap_report,
    hadamard_tensor_power,
    modulus_oracle,
    refinement_sums,
    verify_cor22,
    verify_cor23,
    verify_prop21,
)
from rieszops.cli import main
from rieszops.lattice import atomic_partition

import conftest
from cases import mixed_dims_pairs, mixed_dims_prop21_cases, square_matrix_cases

SEED = 20260819


def _record(num: int, title: str, ok: bool, elapsed: float, detail: str):
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(
        f"[{verdict}] criterion {num}: {title} — {detail} ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 1. modulus identity |M_{A,B}| = M_{|A|,|B|} + corner disjointness,
#    500 mixed-dimension rational pairs, exact-zero deviation, < 30 s
# ---------------------------------------------------------------------------


def test_criterion_1_modulus_identity_500_pairs():
    t0 = time.perf_counter()
    worst = Fraction(0)
    cases = 0
    for dims, A, B in mixed_dims_pairs(seed=SEED, count=500, dim_choices=(1, 2, 3)):
        report = verify_cor22(A, B, seed=SEED)
        assert report.exact
        assert report.status == "pass", f"dims={dims}"
        worst = max(worst, report.max_deviation)
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst == 0 and cases == 500 and elapsed < 30.0
    _record(
        1,
        "modulus factorization + corner disjointness on 500 random pairs",
        ok,
        elapsed,
        f"max_deviation={worst} over {cases} exact cases",
    )
    assert cases == 500
    assert worst == 0
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. positive-left-factor identities at T, evaluated at 3 positive w each,
#    atomic partition supremum attains / coarser strategies dominated,
#    500 cases, exact, < 60 s
# ---------------------------------------------------------------------------


def test_criterion_2_positive_left_factor_500_cases():
    t0 = time.perf_counter()
    worst = Fraction(0)
    cases = 0
    evaluations = 0
    for case in mixed_dims_prop21_cases(
        seed=SEED + 1, count=500, dim_choices=(1, 2, 3), vectors_per_case=3
    ):
        cases += 1
        for w in case["ws"]:
            report = verify_prop21(
                case["A0"], case["B"], case["D"], case["T"], w, seed=SEED
            )
            assert report.exact
            assert report.status == "pass"
            worst = max(worst, report.max_deviation)
            evaluations += 1
    elapsed = time.perf_counter() - t0
    ok = worst == 0 and cases == 500 and evaluations == 1500 and elapsed < 60.0
    _record(
        2,
        "positive-left-factor identities, 500 cases x 3 test vectors",
        ok,
        elapsed,
        f"max_deviation={worst} over {evaluations} evaluations",
    )
    assert cases == 500 and evaluations == 1500
    assert worst == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. regular-norm multiplicativity with the all-l1 assignment:
#    exact closed form, rank-one witness within 1e-9, 1000 positive samples
#    per case never exceed the product + 1e-9; 200 cases, < 60 s
# ---------------------------------------------------------------------------


def test_criterion_3_norm_multiplicativity_200_cases():
    t0 = time.perf_counter()
    assignment = NormAssignment.uniform(1.0)
    worst_exact = Fraction(0)
    worst_shortfall = 0.0
    worst_excess = 0.0
    cases = 0
    for dims, A, B in mixed_dims_pairs(seed=SEED + 2, count=200, dim_choices=(1, 2, 3)):
        report = verify_cor23(A, B, assignment, samples=1000, seed=SEED, tol=1e-9)
        assert report.status == "pass", f"dims={dims}"
        assert report.exact  # the l1 chain is exactly enumerable
        worst_exact = max(worst_exact, report.max_deviation)
        worst_shortfall = max(worst_shortfall, report.details["witness_shortfall"])
        worst_excess = max(worst_excess, report.details["sample_excess"])
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = (
        cases == 200
        and worst_exact == 0
        and worst_shortfall <= 1e-9
        and worst_excess <= 1e-9
        and elapsed < 60.0
    )
    _record(
        3,
        "norm multiplicativity (l1 chain), 200 cases x 1000 samples",
        ok,
        elapsed,
        (
            f"closed-form deviation={worst_exact}, witness shortfall"
            f"={worst_shortfall:.2e}, sample excess={worst_excess:.2e}"
        ),
    )
    assert cases == 200
    assert worst_exact == 0
    assert worst_shortfall <= 1e-9
    assert worst_excess <= 1e-9
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 4. partition oracle: the atomic partition attains |B| w exactly and the
#    refinement chain is monotone; 2x2 and 3x3 corpora, 20 vectors each, < 30 s
# ---------------------------------------------------------------------------


def test_criterion_4_partition_oracle_equivalence():
    t0 = time.perf_counter()
    checks = 0
    for size, count in ((2, 200), (3, 200)):
        for case in square_matrix_cases(
            seed=SEED + 3, size=size, count=count, vectors_per_matrix=20
        ):
            B = case["B"]
            closed = B.modulus_closed_form()
            for w in case["ws"]:
                result = modulus_oracle(B, w, partitions=[atomic_partition(w)])
                assert result.attained
                assert result.value.eq(closed.apply(w))
                sums = refinement_sums(B, w)
                for lo, hi in zip(sums, sums[1:]):
                    assert lo.le(hi)
                assert sums[-1].eq(closed.apply(w))
                checks += 1
    elapsed = time.perf_counter() - t0
    ok = checks == 8000 and elapsed < 30.0
    _record(
        4,
        "partition oracle attains the closed form, refinements monotone",
        ok,
        elapsed,
        f"{checks} exact matrix/vector checks (2x2 and 3x3)",
    )
    assert checks == 8000
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 5. the finite lab: meet evaluated through components, double-partition
#    infimum, single-support dichotomy, restoration — n in 2..6, every k,
#    100 random T per (n, k), >= 1000 operator splits total, exact, < 120 s
# ---------------------------------------------------------------------------


def test_criterion_5_counterexample_lab_full_sweep():
    t0 = time.perf_counter()
    worst = Fraction(0)
    pairs = 0
    splits_total = 0
    for n in range(2, 7):
        for k in range(1, n + 1):
            report = counterexample_report(
                n=n,
                k=k,
                seed=SEED,
                t_samples=100,
                partition_budget=40,
                operator_split_samples=26,
                g_samples=1,
            )
            assert report.exact
            assert report.status == "pass", f"(n, k)=({n}, {k})"
            worst = max(worst, report.max_deviation)
            splits_total += report.details["splits_sampled"]
            pairs += 1
    elapsed = time.perf_counter() - t0
    ok = worst == 0 and pairs == 20 and splits_total >= 1000 and elapsed < 120.0
    _record(
        5,
        "finite meet lab, n=2..6 all k, 100 T each",
        ok,
        elapsed,
        f"max_deviation={worst}, {splits_total} operator splits sampled",
    )
    assert pairs == 20
    assert worst == 0
    assert splits_total >= 1000
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6. norm gap: A = B = H_2^{(x) m}, 2->2 norms; ratio <= 2^-m + 1e-6 and the
#    regular side equals 4^m within 1e-6; m = 1..3, < 30 s
# ---------------------------------------------------------------------------


def test_criterion_6_gap_decay():
    t0 = time.perf_counter()
    assignment = NormAssignment.uniform(2.0)
    ratios = []
    for m in (1, 2, 3):
        H = hadamard_tensor_power(m)
        report = gap_report(H, H, assignment, seed=SEED)
        rho = report.details["rho"]
        regular = report.details["regular_side"]
        assert rho <= 2.0**-m + 1e-6, f"m={m}"
        assert abs(regular - 4.0**m) <= 1e-6, f"m={m}"
        ratios.append(rho)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0 and all(
        r <= 2.0**-m + 1e-6 for m, r in zip((1, 2, 3), ratios)
    )
    _record(
        6,
        "operator/regular norm gap on the sign-matrix family",
        ok,
        elapsed,
        "rho = " + ", ".join(f"{r:.6f}" for r in ratios) + " (bounds 0.5, 0.25, 0.125)",
    )
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 7. determinism: identical seeded invocations produce byte-identical reports
# ---------------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    t0 = time.perf_counter()
    invocations = [
        ["verify", "cor22", "--corpus", f"seed={SEED},dims=2x3x2x2,count=25"],
        ["verify", "prop21", "--corpus", f"seed={SEED},dims=2x2x2x2,count=10"],
        ["verify", "gap", "--m", "2", "--seed", str(SEED)],
        ["counterexample", "--n", "4", "--k", "2", "--seed", str(SEED)],
    ]
    identical = True
    for idx, args in enumerate(invocations):
        out1 = str(tmp_path / f"r{idx}_a.json")
        out2 = str(tmp_path / f"r{idx}_b.json")
        assert main(args + ["--json", out1]) == 0
        assert main(args + ["--json", out2]) == 0
        with open(out1, "rb") as fh:
            b1 = fh.read()
        with open(out2, "rb") as fh:
            b2 = fh.read()
        identical = identical and b1 == b2
        assert b1 == b2, f"report bytes differ for {args}"
    elapsed = time.perf_counter() - t0
    _record(
        7,
        "byte-identical reports on repeated seeded runs",
        identical,
        elapsed,
        f"{len(invocations)} CLI invocations doubled",
    )
    assert identical
