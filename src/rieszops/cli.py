"""Command-line verification harness.

Subcommands
-----------
verify CLAIM     run one verifier (prop21 | cor22 | cor23 | synnatzschke_a |
                 counterexample | gap) on explicit JSON inputs or on a
                 seeded corpus ("--corpus seed=7,dims=2x2x2x2,count=100")
corpus           write a reproducible corpus of matrix files + manifest
norm             operator norm and regular norm of one matrix
gap              operator-norm vs regular-norm ratio explorer
counterexample   the finite transcription lab report

Exit codes: 0 = pass (or informational), 1 = a verified claim failed,
2 = usage error / malformed input.  Reports are canonical JSON: identical
invocations (same inputs, same --seed) produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .counterexample import counterexample_report
from .corpus import Corpus, claim_cases, generate_corpus, parse_corpus_spec
from .lattice import EnumerationLimitError, LatticeVector
from .norms import (
    LatticeNorm,
    NormAssignment,
    gap_report,
    hadamard_tensor_power,
    operator_norm,
    regular_norm,
    verify_cor23,
)
from .operators import RegularOperator
from .reports import (
    VerificationReport,
    canonical_json,
    digest_inputs,
    emit_report,
    render_console,
)
from .scalars import DEFAULT_TOLERANCE, scalar_to_json
from .superop import verify_cor22, verify_prop21, verify_synnatzschke_a

CLAIMS = ("prop21", "cor22", "cor23", "synnatzschke_a", "counterexample", "gap")


class UsageError(Exception):
    """Bad invocation or malformed input file (exit code 2)."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def load_matrix(path: str) -> RegularOperator:
    data = _load_json(path)
    try:
        return RegularOperator.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a valid matrix file: {exc}") from exc


def load_vector(path: str) -> LatticeVector:
    data = _load_json(path)
    try:
        return LatticeVector.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a valid vector file: {exc}") from exc


def parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"invalid norm exponent: {text!r}") from exc
    if value < 1.0:
        raise UsageError(f"norm exponent must be >= 1, got {text}")
    return value


def assignment_from_args(args, default: str) -> NormAssignment:
    return NormAssignment(
        n_W=LatticeNorm(p=parse_p(args.p_in or default)),
        n_X=LatticeNorm(p=parse_p(args.p_mid1 or default)),
        n_Y=LatticeNorm(p=parse_p(args.p_mid2 or default)),
        n_Z=LatticeNorm(p=parse_p(args.p_out or default)),
    )


def _require_exact(args, *operands):
    if getattr(args, "exact", False):
        for op in operands:
            if op is not None and not op.is_exact:
                raise UsageError(
                    "--exact was given but an input contains float entries"
                )


# ---------------------------------------------------------------------------
# claim dispatch
# ---------------------------------------------------------------------------


def _aggregate(claim_id: str, reports, corpus: Corpus) -> VerificationReport:
    reports = list(reports)
    exact = all(r.exact for r in reports)
    if exact:
        max_dev = max((r.max_deviation for r in reports), default=Fraction(0))
    else:
        max_dev = max((float(r.max_deviation) for r in reports), default=0.0)
    failures = [i for i, r in enumerate(reports) if r.status == "fail"]
    status = "fail" if failures else "pass"
    witnesses = reports[failures[0]].witnesses if failures else ()
    return VerificationReport(
        claim_id=claim_id,
        status=status,
        inputs_digest=digest_inputs({"corpus": corpus.to_json()}),
        max_deviation=max_dev,
        exact=exact,
        witnesses=witnesses,
        seed=corpus.seed,
        details={
            "cases": len(reports),
            "failed_cases": failures[:10],
        },
    )


def _run_verify(args) -> VerificationReport:
    claim = args.claim
    tol = args.tolerance
    if claim == "counterexample":
        return counterexample_report(n=args.n, k=args.k, seed=args.seed)
    if claim == "gap":
        return _run_gap(args)
    if args.corpus is not None:
        try:
            corpus = parse_corpus_spec(args.corpus)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        reports = []
        for case in claim_cases(corpus, claim):
            if claim == "cor22":
                reports.append(
                    verify_cor22(case["A"], case["B"], seed=corpus.seed, tol=tol)
                )
            elif claim == "prop21":
                reports.append(
                    verify_prop21(
                        case["A0"],
                        case["B"],
                        case["D"],
                        case["T"],
                        case["w"],
                        seed=corpus.seed,
                        tol=tol,
                    )
                )
            elif claim == "synnatzschke_a":
                reports.append(
                    verify_synnatzschke_a(
                        case["A"], case["C"], case["B0"], seed=corpus.seed, tol=tol
                    )
                )
            elif claim == "cor23":
                reports.append(
                    verify_cor23(
                        case["A"],
                        case["B"],
                        assignment_from_args(args, default="1"),
                        samples=args.samples,
                        seed=corpus.seed,
                        tol=tol,
                    )
                )
            else:
                raise UsageError(f"--corpus is not supported for {claim}")
        return _aggregate(claim, reports, corpus)
    if claim == "cor23":
        if args.A is None or args.B is None:
            raise UsageError("verify cor23 needs --A and --B (or --corpus)")
        A, B = load_matrix(args.A), load_matrix(args.B)
        _require_exact(args, A, B)
        return verify_cor23(
            A,
            B,
            assignment_from_args(args, default="1"),
            samples=args.samples,
            seed=args.seed,
            tol=tol,
        )
    if claim == "cor22":
        if args.A is None or args.B is None:
            raise UsageError("verify cor22 needs --A and --B (or --corpus)")
        A, B = load_matrix(args.A), load_matrix(args.B)
        _require_exact(args, A, B)
        return verify_cor22(A, B, seed=args.seed, tol=tol)
    if claim == "prop21":
        if args.A0 is None or args.B is None:
            raise UsageError("verify prop21 needs --A0 and --B (or --corpus)")
        A0, B = load_matrix(args.A0), load_matrix(args.B)
        D = load_matrix(args.D) if args.D else -B
        T = (
            load_matrix(args.T)
            if args.T
            else RegularOperator(
                A0.cols,
                B.rows,
                [Fraction(1)] * (A0.cols * B.rows),
            )
        )
        w = (
            load_vector(args.w)
            if args.w
            else LatticeVector.ones(B.cols)
        )
        _require_exact(args, A0, B, D, T)
        try:
            return verify_prop21(A0, B, D, T, w, seed=args.seed, tol=tol)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if claim == "synnatzschke_a":
        if args.A is None or args.B0 is None:
            raise UsageError(
                "verify synnatzschke_a needs --A and --B0 (or --corpus)"
            )
        A = load_matrix(args.A)
        C = load_matrix(args.C) if args.C else -A
        B0 = load_matrix(args.B0)
        _require_exact(args, A, C, B0)
        try:
            return verify_synnatzschke_a(A, C, B0, seed=args.seed, tol=tol)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown claim: {claim}")


def _run_gap(args) -> VerificationReport:
    if getattr(args, "m", None) is not None:
        H = hadamard_tensor_power(args.m)
        A = B = H
    else:
        if args.A is None or args.B is None:
            raise UsageError("gap needs either --m or both --A and --B")
        A, B = load_matrix(args.A), load_matrix(args.B)
    return gap_report(
        A,
        B,
        assignment_from_args(args, default="2"),
        samples=args.samples,
        seed=args.seed,
    )


def _run_corpus(args) -> int:
    try:
        corpus = Corpus(
            seed=args.seed,
            dims=tuple(int(d) for d in args.dims.split("x")),
            count=args.count,
            distribution=args.distribution,
            sign_mode=args.sign,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    manifest = generate_corpus(corpus, args.out)
    print(f"wrote {len(manifest['files'])} files to {args.out}")
    return 0


def _run_norm(args) -> int:
    A = load_matrix(args.A)
    _require_exact(args, A)
    n_from = LatticeNorm(p=parse_p(args.p_from))
    n_to = LatticeNorm(p=parse_p(args.p_to))
    op = operator_norm(A, n_from, n_to, seed=args.seed)
    reg = regular_norm(A, n_from, n_to, seed=args.seed)
    payload = {
        "operator_norm": {
            "value": scalar_to_json(op.value),
            "certified": op.certified,
            "method": op.method,
            "witness": op.witness.to_json(),
        },
        "regular_norm": {
            "value": scalar_to_json(reg.value),
            "certified": reg.certified,
            "method": reg.method,
            "witness": reg.witness.to_json(),
        },
    }
    text = canonical_json(payload)
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="float comparison tolerance (exact mode ignores it)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="reject inputs containing float entries",
    )
    parser.add_argument("--json", metavar="PATH", help="write the report here")


def _add_norm_flags(parser: argparse.ArgumentParser):
    # defaults resolve per claim: "1" for the norm identity (its exactly
    # enumerable chain), "2" for the gap explorer (where the gap lives)
    parser.add_argument("--p-in", default=None, help="norm exponent for W")
    parser.add_argument("--p-mid1", default=None, help="norm exponent for X")
    parser.add_argument("--p-mid2", default=None, help="norm exponent for Y")
    parser.add_argument("--p-out", default=None, help="norm exponent for Z")
    parser.add_argument(
        "--samples", type=int, default=200, help="random samples for bounds"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszops",
        description=(
            "verify lattice identities of two-sided multiplication "
            "superoperators on coordinate Riesz spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one claim verifier")
    p_verify.add_argument("claim", choices=CLAIMS)
    p_verify.add_argument("--corpus", help="seed=S,dims=WxXxYxZ,count=N[,...]")
    for flag in ("--A", "--B", "--A0", "--C", "--B0", "--D", "--T", "--w"):
        p_verify.add_argument(flag, metavar="FILE")
    p_verify.add_argument("--n", type=int, default=3, help="lab dimension")
    p_verify.add_argument("--k", type=int, default=1, help="lab coordinate (1-based)")
    p_verify.add_argument("--m", type=int, default=None, help="sign-matrix tensor power")
    _add_norm_flags(p_verify)
    _add_common(p_verify)

    p_corpus = sub.add_parser("corpus", help="generate a reproducible corpus")
    p_corpus.add_argument("--out", required=True, help="output directory")
    p_corpus.add_argument("--dims", default="2x2x2x2", help="WxXxYxZ")
    p_corpus.add_argument("--count", type=int, default=10)
    p_corpus.add_argument("--distribution", default="rational",
                          choices=("rational", "float"))
    p_corpus.add_argument("--sign", default="mixed", choices=("positive", "mixed"))
    _add_common(p_corpus)

    p_norm = sub.add_parser("norm", help="operator and regular norm of a matrix")
    p_norm.add_argument("--A", required=True, metavar="FILE")
    p_norm.add_argument("--p-from", default="1", help="domain norm exponent")
    p_norm.add_argument("--p-to", default="1", help="codomain norm exponent")
    _add_common(p_norm)

    p_gap = sub.add_parser("gap", help="operator-norm vs regular-norm ratio")
    p_gap.add_argument("--m", type=int, default=None,
                       help="use A = B = H2^(x)m (sign-matrix family)")
    p_gap.add_argument("--A", metavar="FILE")
    p_gap.add_argument("--B", metavar="FILE")
    _add_norm_flags(p_gap)
    _add_common(p_gap)

    p_lab = sub.add_parser(
        "counterexample", help="finite transcription lab report"
    )
    p_lab.add_argument("--n", type=int, required=True)
    p_lab.add_argument("--k", type=int, required=True, help="1-based coordinate")
    p_lab.add_argument("--t-samples", type=int, default=5)
    p_lab.add_argument("--partition-budget", type=int, default=40)
    p_lab.add_argument("--split-samples", type=int, default=12)
    _add_common(p_lab)

    return parser


def _finish_report(report: VerificationReport, args) -> int:
    if args.json:
        emit_report(report, args.json)
    else:
        print(canonical_json(report.to_json()))
    print(render_console(report), file=sys.stderr)
    if report.status == "fail":
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _finish_report(_run_verify(args), args)
        if args.command == "corpus":
            return _run_corpus(args)
        if args.command == "norm":
            return _run_norm(args)
        if args.command == "gap":
            return _finish_report(_run_gap(args), args)
        if args.command == "counterexample":
            report = counterexample_report(
                n=args.n,
                k=args.k,
                seed=args.seed,
                t_samples=args.t_samples,
                partition_budget=args.partition_budget,
                operator_split_samples=args.split_samples,
            )
            return _finish_report(report, args)
        raise UsageError(f"unknown command: {args.command}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
