#!/usr/bin/env python3
"""Sweep the operator-norm / regular-norm ratio on the sign-matrix family.

For A = B = H_2^{(x) m} with 2->2 norms the two-sided multiplication
superoperator T |-> ATB has operator norm 2^m but regular norm 4^m, so the
ratio rho halves with every tensor power — the two norms are inequivalent
in any dimension-free sense.  This script measures the decay and, for
contrast, shows that positive factors exhibit no gap at all (rho = 1).
Every norm here is a closed form, so each rho is certified.

Usage:
    python scripts/gap_decay.py --max-m 5
"""

import argparse
import sys

from rieszops import (
    NormAssignment,
    RegularOperator,
    gap_report,
    hadamard_tensor_power,
)
from rieszops.lattice import EnumerationLimitError
from rieszops.norms import hadamard_order

#: 2 -> 2 norms on all four spaces, where the gap is rho = 2^-m.
SPECTRAL = NormAssignment.uniform(2.0)


def check_sweep(args):
    """Refuse a sweep that could not run to its end, before any work: the
    largest power sets the largest Hadamard matrix."""
    if args.max_m < 1:
        raise ValueError(f"need at least one tensor power, got --max-m {args.max_m}")
    hadamard_order(args.max_m)


def run_sweep(args) -> list:
    rows = []
    for m in range(1, args.max_m + 1):
        H = hadamard_tensor_power(m)
        report = gap_report(H, H, SPECTRAL)
        rows.append(
            {
                "m": m,
                "size": 2**m,
                "operator_side": report.details["operator_side"],
                "regular_side": report.details["regular_side"],
                "rho": report.details["rho"],
                "predicted": 2.0**-m,
            }
        )
    return rows


def positive_control() -> float:
    """rho for a positive pair: the gap closes because |A| = A."""
    A = RegularOperator.from_rows([[2, 1], [0, 3]])
    return gap_report(A, A, SPECTRAL).details["rho"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-m", type=int, default=5)
    args = parser.parse_args(argv)

    # Bad sizes exit 2, as the rieszops command does.
    try:
        check_sweep(args)
        rows = run_sweep(args)
        rho_positive = positive_control()
    except (ValueError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'m':>3} {'size':>5} {'operator':>12} {'regular':>12} "
          f"{'rho':>10} {'2^-m':>10}")
    for row in rows:
        print(
            f"{row['m']:>3} {row['size']:>5} {row['operator_side']:>12.6f} "
            f"{row['regular_side']:>12.2f} {row['rho']:>10.6f} "
            f"{row['predicted']:>10.6f}"
        )
    print(f"\npositive-factor control: rho = {rho_positive:.6f} "
          "(no gap when the factors are positive)")
    worst = max(abs(r["rho"] - r["predicted"]) for r in rows)
    print(f"max |rho - 2^-m| = {worst:.2e}")
    return 0 if worst < 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
