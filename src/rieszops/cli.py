"""Command-line verification harness.

Subcommands
-----------
verify CLAIM     run one verifier (prop21 | cor22 | cor23 | synnatzschke_a |
                 counterexample | gap) on explicit JSON inputs or on a
                 seeded corpus ("--corpus seed=7,dims=2x2x2x2,count=100")
corpus           write a reproducible corpus of matrix files + manifest
norm             operator norm and regular norm of one matrix
gap              operator-norm vs regular-norm ratio (same parser as verify gap)
counterexample   the finite meet lab (same parser as verify counterexample)

Each command and each claim has its own parser, which declares the flags
its run reads and names the run (``run=``); any other flag exits 2 before
a file is opened: ``--seed`` everywhere, ``--json`` everywhere but
``corpus``, ``--exact`` on the identity claims, ``gap`` and ``norm``,
``--tolerance`` on the identity claims only.  An identity claim reads
``--corpus`` or one file per role of ``corpus.CLAIM_ROLES``, a role it may
leave out coming from ``DEFAULTS``; ``--exact`` checks every case's inputs
before its verifier runs.  File flags or ``--seed`` next to ``--corpus``
(which carries its seed), and ``--m`` next to ``--A``/``--B``, are usage
errors too.

Exit codes: 0 = pass (or informational), 1 = a verified claim failed,
2 = usage error, malformed input (including files that mix exact and
float entries), an unwritable output path, a request over a work or
memory cap, an allocation the machine refuses (``MemoryError``), or float
overflow or an invalid float operation (every command runs under
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
    check_sampling,
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
    except KeyError as exc:
        raise UsageError(f"{path} is not a valid {kind} file: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a valid {kind} file: {exc}") from exc


def assignment_from_args(args) -> NormAssignment:
    return NormAssignment(args.p_in, args.p_mid1, args.p_mid2, args.p_out)


def _require_exact(args, *operands):
    if args.exact and not all(op.is_exact for op in operands):
        raise UsageError("--exact was given but an input contains float entries")


# ---------------------------------------------------------------------------
# runs: each returns its report, or prints its output and returns None
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
        extra = {"assignment": assignment_from_args(args), "samples": args.samples}
    # Built per call, so that it sees the module's names as bound now.
    verifier = {
        "cor22": verify_cor22,
        "prop21": verify_prop21,
        "synnatzschke_a": verify_synnatzschke_a,
        "cor23": verify_cor23,
    }[claim]
    positional = [inputs[role] for role in CLAIM_ROLES[claim]]
    return verifier(*positional, seed=seed, tol=args.tolerance, **extra)


def _run_claim(args) -> VerificationReport:
    """An identity claim, on its files or on a corpus (which carries the seed)."""
    if args.corpus is None:
        return _call_verifier(args, _load_inputs(args), args.seed or 0)
    given = [f"--{name}" for name in (*CLAIM_ROLES[args.claim], "seed")
             if getattr(args, name) is not None]
    if given:
        raise UsageError(f"--corpus cannot be combined with {', '.join(given)}")
    corpus = parse_corpus_spec(args.corpus)
    reports = (
        _call_verifier(args, case, corpus.seed)
        for case in claim_cases(corpus, args.claim)
    )
    return _aggregate(args.claim, reports, corpus)


def _run_gap(args) -> VerificationReport:
    assignment = assignment_from_args(args)
    if args.m is not None:
        if args.A is not None or args.B is not None:
            raise UsageError("gap takes either --m or --A and --B, not both")
        # Refuse an oversized norm search before building the Fraction H,
        # which is signed but for the 1 x 1 H at m = 0.
        n = hadamard_order(args.m)
        check_sampling(0, (n, n), (n, n), assignment, factor_signs=(args.m == 0,) * 2)
        A = B = hadamard_tensor_power(args.m)
    else:
        if args.A is None or args.B is None:
            raise UsageError("gap needs either --m or both --A and --B")
        A, B = _load(args.A), _load(args.B)
    _require_exact(args, A, B)
    return gap_report(A, B, assignment, seed=args.seed)


def _run_counterexample(args) -> VerificationReport:
    return counterexample_report(
        n=args.n,
        k=args.k,
        seed=args.seed,
        t_samples=args.t_samples,
        partition_budget=args.partition_budget,
        operator_split_samples=args.split_samples,
    )


def _run_corpus(args) -> None:
    corpus = Corpus(
        seed=args.seed,
        dims=tuple(int(d) for d in args.dims.split("x")),
        count=args.count,
        distribution=args.distribution,
        sign_mode=args.sign,
    )
    manifest = generate_corpus(corpus, args.out)
    print(f"wrote {len(manifest['files'])} files to {args.out}")


def _run_norm(args) -> None:
    A = _load(args.A)
    _require_exact(args, A)
    op = operator_norm(A, args.p_from, args.p_to, seed=args.seed)
    reg = regular_norm(A, args.p_from, args.p_to, seed=args.seed)
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


# ---------------------------------------------------------------------------
# parsers: one per command and one per claim of ``verify``
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


def lp_norm(text: str) -> LatticeNorm:
    """The l^p norm of an exponent >= 1 or ``inf`` (also ``infinity``, ``oo``)."""
    try:
        return LatticeNorm(p=math.inf if text.strip().lower() == "oo" else float(text))
    except ValueError:  # not a number, nan, or below 1
        raise argparse.ArgumentTypeError(f"must be a number >= 1 or inf, got {text}") from None


def _add_globals(parser: argparse.ArgumentParser, *flags: str):
    """``--seed`` and those of the global flags ``--json``, ``--exact`` and
    ``--tolerance`` named in ``flags``: the ones the leaf's run reads."""
    parser.add_argument("--seed", type=seed, default=0, help="RNG seed (>= 0)")
    if "--json" in flags:
        parser.add_argument("--json", metavar="PATH", help="write the report here")
    if "--exact" in flags:
        parser.add_argument("--exact", action="store_true",
                            help="reject inputs containing float entries")
    if "--tolerance" in flags:
        parser.add_argument("--tolerance", type=tolerance, default=DEFAULT_TOLERANCE,
                            help="float comparison tolerance (exact mode ignores it)")


def _add_norm_flags(parser: argparse.ArgumentParser, p: str):
    for flag, space in (("--p-in", "W"), ("--p-mid1", "X"), ("--p-mid2", "Y"),
                        ("--p-out", "Z")):
        parser.add_argument(flag, type=lp_norm, default=p,
                            help=f"norm exponent for {space} (%(default)s)")


def _add_gap(parser: argparse.ArgumentParser):
    """``gap`` and ``verify gap``: the Euclidean chain is where the gap lives."""
    parser.add_argument("--m", type=int, help="use A = B = H2^(x)m (sign-matrix family)")
    parser.add_argument("--A", metavar="FILE")
    parser.add_argument("--B", metavar="FILE")
    _add_norm_flags(parser, "2")
    _add_globals(parser, "--json", "--exact")
    parser.set_defaults(run=_run_gap)


def _add_lab(parser: argparse.ArgumentParser):
    """``counterexample`` and ``verify counterexample``."""
    parser.add_argument("--n", type=int, default=3, help="lab dimension (%(default)s)")
    parser.add_argument("--k", type=int, default=1, help="1-based coordinate (%(default)s)")
    parser.add_argument("--t-samples", type=int, default=5)
    parser.add_argument("--partition-budget", type=int, default=40)
    parser.add_argument("--split-samples", type=int, default=12)
    _add_globals(parser, "--json")
    parser.set_defaults(run=_run_counterexample)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state in it.
    No parser abbreviates: ``--B`` must not bind to ``--B0``."""
    Parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = Parser(
        prog="rieszops",
        description=(
            "verify lattice identities of two-sided multiplication "
            "superoperators on coordinate Riesz spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    p_verify = sub.add_parser("verify", help="run one claim verifier")
    claims = p_verify.add_subparsers(dest="claim", required=True, parser_class=Parser)
    for claim in CLAIM_IDS:
        p_claim = claims.add_parser(claim)
        if claim == "gap":
            _add_gap(p_claim)
        elif claim == "counterexample":
            _add_lab(p_claim)
        else:
            p_claim.add_argument("--corpus", help="seed=S,dims=WxXxYxZ,count=N[,...]")
            for role in CLAIM_ROLES[claim]:
                p_claim.add_argument(f"--{role}", metavar="FILE")
            if claim == "cor23":
                _add_norm_flags(p_claim, "1")  # the exactly enumerable chain
                p_claim.add_argument("--samples", type=int, default=200,
                                     help="random samples for bounds (%(default)s)")
            _add_globals(p_claim, "--json", "--exact", "--tolerance")
            p_claim.set_defaults(run=_run_claim, seed=None)  # see _run_claim

    p_corpus = sub.add_parser("corpus", help="generate a reproducible corpus")
    p_corpus.add_argument("--out", required=True, help="output directory")
    p_corpus.add_argument("--dims", default="2x2x2x2", help="WxXxYxZ")
    p_corpus.add_argument("--count", type=int, default=10)
    p_corpus.add_argument("--distribution", default="rational",
                          choices=("rational", "float"))
    p_corpus.add_argument("--sign", default="mixed", choices=("positive", "mixed"))
    _add_globals(p_corpus)
    p_corpus.set_defaults(run=_run_corpus)

    p_norm = sub.add_parser("norm", help="operator and regular norm of a matrix")
    p_norm.add_argument("--A", required=True, metavar="FILE")
    p_norm.add_argument("--p-from", type=lp_norm, default="1", help="domain norm exponent")
    p_norm.add_argument("--p-to", type=lp_norm, default="1", help="codomain norm exponent")
    _add_globals(p_norm, "--json", "--exact")
    p_norm.set_defaults(run=_run_norm)

    _add_gap(sub.add_parser("gap", help="operator-norm vs regular-norm ratio"))
    _add_lab(sub.add_parser("counterexample", help="finite transcription lab report"))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args, stray = build_parser().parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if stray:
        # Refuse every flag the run would not read, before opening files.
        command = " ".join(filter(None, (args.command, getattr(args, "claim", None))))
        flags = [token.partition("=")[0] for token in stray if token.startswith("--")]
        print(f"error: {command} does not take {', '.join(flags or stray)}", file=sys.stderr)
        return 2
    # Float overflow raises (numpy and Python floats alike) and exits 2.
    try:
        with np.errstate(over="raise", invalid="raise"):
            t0 = time.perf_counter()
            report = args.run(args)
            if report is None:
                return 0
            # The wall time goes to the stderr summary only; the report
            # bytes stay a pure function of (inputs, seed).
            report = replace(report, runtime_ms=(time.perf_counter() - t0) * 1e3)
            if args.json:
                emit_report(report, args.json)
            else:
                print(canonical_json(report.to_json()))
            print(render_console(report), file=sys.stderr)
            return 1 if report.status == "fail" else 0
    except (
        UsageError, ValueError, IndexError, EnumerationLimitError, ScalarModeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: float overflow or invalid value: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
