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

``verify`` runs every claim with input files through one claim table: the
claim's input roles and their shapes and signs come from
``corpus.CLAIM_ROLES`` and ``corpus.ROLES``, so the same roles are loaded
from ``--A``/``--B``/... files or drawn from the corpus.  Inputs a claim
may leave out come from ``DEFAULTS`` (D = -B, C = -A, all-ones T and w in
the scalar mode of B); ``--exact`` checks the inputs of every case, from
files or from the corpus, before its verifier runs.  A file, lab or norm
flag the claim does not read, any file flag next to ``--corpus``, and
``--m`` next to ``--A``/``--B`` are usage errors, so a run never passes on
other inputs than the ones named.

Exit codes: 0 = pass (or informational), 1 = a verified claim failed,
2 = usage error, malformed input (including files that mix exact and
float entries), a request over a work or memory cap, or float overflow or
an invalid float operation (every command runs under
``np.errstate(over="raise", invalid="raise")``).
Reports are canonical JSON: identical invocations (same inputs, same
--seed) produce byte-identical bytes; the wall time goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .counterexample import counterexample_report
from .corpus import (
    CLAIM_ROLES,
    ROLES,
    Corpus,
    claim_cases,
    generate_corpus,
    parse_corpus_spec,
)
from .lattice import EnumerationLimitError, LatticeVector
from .norms import (
    LatticeNorm,
    NormAssignment,
    check_sample_stack,
    gap_report,
    hadamard_order,
    hadamard_tensor_power,
    operator_norm,
    regular_norm,
    verify_cor23,
)
from .operators import RegularOperator
from .reports import (
    CLAIM_IDS,
    VerificationReport,
    _write_canonical,
    canonical_json,
    emit_report,
    make_report,
    render_console,
)
from .scalars import DEFAULT_TOLERANCE, ScalarModeError, one_of, scalar_to_json
from .superop import verify_cor22, verify_prop21, verify_synnatzschke_a

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


def _load(path: str, cls=RegularOperator):
    """A matrix (a vector for ``cls=LatticeVector``) from a JSON input file:
    an object, its shape fields its kind's own (rows and cols, or dim) and
    ints >= 1, its entries a list, its floats finite."""
    data = _load_json(path)
    kind = "matrix" if cls is RegularOperator else "vector"
    own = ("rows", "cols") if cls is RegularOperator else ("dim",)
    try:
        if type(data) is not dict:
            raise ValueError(f"expected a JSON object, got {data!r}")
        for name in ("rows", "cols", "dim"):
            if name in data and name not in own:
                raise ValueError(f"a {kind} file has no {name} field")
            if name in data and (type(data[name]) is not int or data[name] < 1):
                raise ValueError(f"{name} must be an integer >= 1, got {data[name]!r}")
        if type(data["entries"]) is not list:
            raise ValueError(f"entries must be a list, got {data['entries']!r}")
        loaded = cls.from_json(data)
        if not (loaded.is_exact or np.isfinite(loaded.as_floats()).all()):
            raise ValueError("entries must be finite")
        return loaded
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a valid {kind} file: {exc}") from exc


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
    if getattr(args, "exact", False) and not all(op.is_exact for op in operands):
        raise UsageError("--exact was given but an input contains float entries")


# ---------------------------------------------------------------------------
# claim dispatch
# ---------------------------------------------------------------------------


def _aggregate(claim_id: str, reports, corpus: Corpus) -> VerificationReport:
    """The corpus report, folded from the case reports as they come: the
    count, the largest deviation (the first maximum), the first ten failing
    cases and the witnesses of the first; no case report is kept."""
    max_dev, exact, failures, witnesses = None, True, [], None
    for case, report in enumerate(reports):
        exact = exact and report.exact
        if max_dev is None or report.max_deviation > max_dev:
            max_dev = report.max_deviation
        if report.status == "fail" and len(failures) < 10:
            if not failures:
                witnesses = {w["role"]: w for w in report.witnesses}
            failures.append(case)
    return make_report(
        claim_id=claim_id,
        inputs={"corpus": corpus},
        deviations=[max_dev if exact else float(max_dev)],
        witnesses=witnesses,
        seed=corpus.seed,
        details={"cases": case + 1, "failed_cases": failures},
        status="fail" if failures else "pass",
    )


#: The inputs a claim may leave out, built from those it was given; T and
#: w are all-ones in the scalar mode of B.
DEFAULTS = {
    "C": lambda x: -x["A"],
    "D": lambda x: -x["B"],
    "T": lambda x: RegularOperator(
        x["A0"].cols,
        x["B"].rows,
        [one_of(x["B"].mode)] * (x["A0"].cols * x["B"].rows),
    ),
    "w": lambda x: LatticeVector.ones(x["B"].cols, x["B"].mode),
}


def _load_inputs(args) -> dict:
    """The claim's inputs by role: the given files, then the defaults."""
    roles = CLAIM_ROLES[args.claim]
    required = [role for role in roles if role not in DEFAULTS]
    if any(getattr(args, role) is None for role in required):
        flags = " and ".join(f"--{role}" for role in required)
        raise UsageError(f"verify {args.claim} needs {flags} (or --corpus)")
    inputs = {}
    for role in roles:
        path = getattr(args, role)
        if path is not None:
            vector = len(ROLES[role][0]) == 1
            inputs[role] = _load(path, LatticeVector if vector else RegularOperator)
    for role in roles:
        if role not in inputs:
            inputs[role] = DEFAULTS[role](inputs)
    return inputs


def _call_verifier(args, inputs: dict, seed: int) -> VerificationReport:
    """One verifier call, with the claim's roles as positional arguments,
    after ``--exact`` has checked them."""
    _require_exact(args, *inputs.values())
    claim = args.claim
    extra = {}
    if claim == "cor23":
        extra = {"assignment": assignment_from_args(args, "1"), "samples": args.samples}
    # Built per call, so that it sees the module's names as bound now.
    verifier = {
        "cor22": verify_cor22,
        "prop21": verify_prop21,
        "synnatzschke_a": verify_synnatzschke_a,
        "cor23": verify_cor23,
    }[claim]
    positional = [inputs[role] for role in CLAIM_ROLES[claim]]
    return verifier(*positional, seed=seed, tol=args.tolerance, **extra)


def _flags(names) -> str:
    return ", ".join(f"--{name.replace('_', '-')}" for name in names)


def _run_verify(args) -> VerificationReport:
    # Refuse every input flag the run would not read, before opening files.
    claim = args.claim
    norm = ("samples", "p_in", "p_mid1", "p_mid2", "p_out")
    given = [name for name in (*ROLES, "n", "k", "m", *norm)
             if getattr(args, name) is not None]
    reads = {
        **CLAIM_ROLES,
        "cor23": (*CLAIM_ROLES["cor23"], *norm),
        "gap": ("A", "B", "m", *norm),
        "counterexample": ("n", "k"),
    }[claim]
    stray = [name for name in given if name not in reads]
    if stray:
        raise UsageError(f"verify {claim} does not take {_flags(stray)}")
    if args.corpus is not None:
        if claim not in CLAIM_ROLES:
            raise UsageError(f"verify {claim} does not take --corpus")
        files = [name for name in given if name in ROLES]
        if files:
            raise UsageError(f"--corpus cannot be combined with {_flags(files)}")
    # The defaults of the flags the claim reads.
    for name, default in (("n", 3), ("k", 1), ("samples", 200)):
        if getattr(args, name) is None:
            setattr(args, name, default)
    if claim == "counterexample":
        return counterexample_report(n=args.n, k=args.k, seed=args.seed)
    if claim == "gap":
        return _run_gap(args)
    if args.corpus is not None:
        corpus = parse_corpus_spec(args.corpus)
        reports = (
            _call_verifier(args, case, corpus.seed)
            for case in claim_cases(corpus, claim)
        )
        return _aggregate(claim, reports, corpus)
    return _call_verifier(args, _load_inputs(args), args.seed)


def _run_gap(args) -> VerificationReport:
    if args.m is not None:
        if args.A is not None or args.B is not None:
            raise UsageError("gap takes either --m or --A and --B, not both")
        # Refuse an oversized sample stack before building the Fraction H.
        n = hadamard_order(args.m)
        check_sample_stack(args.samples, (n, n), (n, n))
        A = B = hadamard_tensor_power(args.m)
    else:
        if args.A is None or args.B is None:
            raise UsageError("gap needs either --m or both --A and --B")
        A, B = _load(args.A), _load(args.B)
        _require_exact(args, A, B)
    return gap_report(
        A,
        B,
        assignment_from_args(args, default="2"),
        samples=args.samples,
        seed=args.seed,
    )


def _run_counterexample(args) -> VerificationReport:
    return counterexample_report(
        n=args.n,
        k=args.k,
        seed=args.seed,
        t_samples=args.t_samples,
        partition_budget=args.partition_budget,
        operator_split_samples=args.split_samples,
    )


def _run_corpus(args) -> int:
    corpus = Corpus(
        seed=args.seed,
        dims=tuple(int(d) for d in args.dims.split("x")),
        count=args.count,
        distribution=args.distribution,
        sign_mode=args.sign,
    )
    manifest = generate_corpus(corpus, args.out)
    print(f"wrote {len(manifest['files'])} files to {args.out}")
    return 0


def _run_norm(args) -> int:
    A = _load(args.A)
    _require_exact(args, A)
    n_from = LatticeNorm(p=parse_p(args.p_from))
    n_to = LatticeNorm(p=parse_p(args.p_to))
    op = operator_norm(A, n_from, n_to, seed=args.seed)
    reg = regular_norm(A, n_from, n_to, seed=args.seed)
    payload = {
        key: {
            "value": scalar_to_json(result.value),
            "certified": result.certified,
            "method": result.method,
            "witness": result.witness.to_json(),
        }
        for key, result in (("operator_norm", op), ("regular_norm", reg))
    }
    if args.json:
        _write_canonical(payload, args.json)
    else:
        print(canonical_json(payload))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text}")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=seed, default=0, help="RNG seed (>= 0)")
    parser.add_argument(
        "--tolerance",
        type=tolerance,
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
        "--samples", type=int, help="random samples for bounds (200)"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="rieszops",
        description=(
            "verify lattice identities of two-sided multiplication "
            "superoperators on coordinate Riesz spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one claim verifier")
    p_verify.add_argument("claim", choices=CLAIM_IDS)
    p_verify.add_argument("--corpus", help="seed=S,dims=WxXxYxZ,count=N[,...]")
    for flag in ("--A", "--B", "--A0", "--C", "--B0", "--D", "--T", "--w"):
        p_verify.add_argument(flag, metavar="FILE")
    p_verify.add_argument("--n", type=int, help="lab dimension (3)")
    p_verify.add_argument("--k", type=int, help="lab coordinate, 1-based (1)")
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
    p_gap.set_defaults(samples=200)
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


def _finish_report(run, args) -> int:
    """Run one report-producing command, time it, emit the report.

    The wall time goes to the stderr summary only; the report bytes stay a
    pure function of (inputs, seed).
    """
    t0 = time.perf_counter()
    report = run(args)
    report = replace(report, runtime_ms=(time.perf_counter() - t0) * 1e3)
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
    # Float overflow raises (numpy and Python floats alike) and exits 2.
    try:
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "verify":
                return _finish_report(_run_verify, args)
            if args.command == "corpus":
                return _run_corpus(args)
            if args.command == "norm":
                return _run_norm(args)
            if args.command == "gap":
                return _finish_report(_run_gap, args)
            if args.command == "counterexample":
                return _finish_report(_run_counterexample, args)
            raise UsageError(f"unknown command: {args.command}")
    except (
        UsageError, ValueError, IndexError, EnumerationLimitError, ScalarModeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: float overflow or invalid value: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
