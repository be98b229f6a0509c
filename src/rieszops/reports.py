"""Verification reports and canonical JSON persistence.

Every verifier in the package produces a ``VerificationReport``: which claim
was checked, the worst deviation observed, witnesses, and enough input
digest/seed information to reproduce the run.  ``make_report`` is the one
writer of that schema: verifiers hand it their containers and raw scalars,
and it writes their JSON forms, derives the mode from the deviations and
decides the verdict.  Reports serialize to a
canonical JSON form — sorted keys, minimal separators, floats rendered with
17 significant digits, rationals as "p/q" strings — so that two runs with
identical inputs and seed produce byte-identical files, suitable for
golden-file diffing.

Wall-clock time (``runtime_ms``) is kept on the in-memory object for console
display but deliberately excluded from the serialized form: emitted reports
must be a pure function of (inputs, seed).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .scalars import DEFAULT_TOLERANCE, scalar_to_json

#: The claims the CLI and the verifiers know about.
CLAIM_IDS = (
    "prop21",
    "cor22",
    "cor23",
    "synnatzschke_a",
    "counterexample",
    "gap",
)

STATUSES = ("pass", "fail", "info")


class ReportError(ValueError):
    """A report violates its own invariants."""


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def _canon_scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, Fraction):
        return json.dumps(scalar_to_json(value), ensure_ascii=True)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ReportError("non-finite float in a report")
        return format(value, ".17g")
    raise ReportError(f"unsupported scalar in report: {type(value).__name__}")


def _canonical_dict(obj: dict, write) -> str:
    """The canonical form of a dict whose values ``write`` writes."""
    parts = []
    for key in sorted(obj):
        if not isinstance(key, str):
            raise ReportError("report keys must be strings")
        parts.append(f"{json.dumps(key, ensure_ascii=True)}:{write(obj[key])}")
    return "{" + ",".join(parts) + "}"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, 17-sig-digit floats."""
    if isinstance(obj, dict):
        return _canonical_dict(obj, canonical_json)
    if isinstance(obj, (list, tuple)):
        # Lists of strings or of floats: the same bytes as the recursion.
        types = set(map(type, obj))
        if types == {str}:
            return json.dumps(obj, ensure_ascii=True, separators=(",", ":"))
        if types == {float}:
            if not all(map(math.isfinite, obj)):
                raise ReportError("non-finite float in a report")
            return "[" + ",".join([format(x, ".17g") for x in obj]) + "]"
        return "[" + ",".join(canonical_json(x) for x in obj) + "]"
    return _canon_scalar(obj)


def digest_inputs(inputs: dict) -> str:
    """Short stable digest of an input description, names mapped to
    JSON-serializable values or containers: the sha256 of its canonical
    JSON, each distinct object (by ``id``) written once however many names
    hold it (A is B)."""
    texts = {}
    for value in inputs.values():
        if id(value) not in texts:
            texts[id(value)] = canonical_json(_json_value(value))
    text = _canonical_dict(inputs, lambda value: texts[id(value)])
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run.

    ``max_deviation`` is a ``Fraction`` in exact mode (zero iff the identity
    held on the nose) or a float in tolerance mode.  ``status`` must be
    consistent with it: an exact-mode report passes iff the deviation is
    exactly zero.
    """

    claim_id: str
    status: str
    inputs_digest: str
    max_deviation: object
    exact: bool
    witnesses: tuple = ()
    seed: Optional[int] = None
    details: dict = field(default_factory=dict)
    runtime_ms: Optional[float] = None

    def __post_init__(self):
        if self.claim_id not in CLAIM_IDS:
            raise ReportError(f"unknown claim id: {self.claim_id!r}")
        if self.status not in STATUSES:
            raise ReportError(f"unknown status: {self.status!r}")
        if self.exact and self.status != "info":
            is_zero = self.max_deviation == 0
            if (self.status == "pass") != is_zero:
                raise ReportError(
                    "exact-mode invariant violated: pass requires exact-zero "
                    f"deviation (status={self.status}, deviation={self.max_deviation})"
                )

    def to_json(self) -> dict:
        # runtime_ms intentionally omitted: serialized reports depend only
        # on (inputs, seed).
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "inputs_digest": self.inputs_digest,
            "max_deviation": scalar_to_json(self.max_deviation),
            "exact": self.exact,
            "witnesses": list(self.witnesses),
            "seed": self.seed,
            "details": self.details,
        }


def _json_value(value):
    """A report value as written: a container (anything with ``to_json``)
    as its JSON form, a ``Fraction`` as "p/q", anything else as it is."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, Fraction):
        return scalar_to_json(value)
    return value


def make_report(
    claim_id: str,
    inputs: dict,
    deviations: Sequence,
    witnesses: Optional[Mapping] = None,
    seed: Optional[int] = None,
    details: Optional[dict] = None,
    tol: float = DEFAULT_TOLERANCE,
    status: Optional[str] = None,
) -> VerificationReport:
    """Assemble a report from containers and raw deviations.

    The one writer of the report schema.  ``inputs`` (digested) and
    ``details`` map names to plain values or containers; ``witnesses`` maps
    each role, in order, to a container (or to a witness dict of an earlier
    report, kept as it is).  The mode is exact iff every deviation is a
    ``Fraction``.  Unless an explicit ``status`` is forced (e.g. ``info``
    for descriptive reports), the status is pass iff every deviation is
    within tolerance (exactly zero in exact mode).
    """
    exact = all(isinstance(d, Fraction) for d in deviations)
    max_dev = max(deviations, default=Fraction(0))
    if not exact:
        max_dev = float(max_dev)
    if status is None:
        passed = max_dev == 0 if exact else max_dev <= tol
        status = "pass" if passed else "fail"
    return VerificationReport(
        claim_id=claim_id,
        status=status,
        inputs_digest=digest_inputs(inputs),
        max_deviation=max_dev,
        exact=exact,
        witnesses=tuple(
            {"role": role, **_json_value(witness)}
            for role, witness in (witnesses or {}).items()
        ),
        seed=seed,
        details={name: _json_value(value) for name, value in (details or {}).items()},
    )


def _write_canonical(obj, path: str) -> str:
    """Write ``canonical_json(obj)`` and a newline atomically (write +
    rename) and return that text.  Two calls with equal objects write
    byte-identical files; a failed write or rename leaves neither a partial
    file nor the temporary one."""
    text = canonical_json(obj) + "\n"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return text


def emit_report(report: VerificationReport, path: str) -> str:
    """Write the report's canonical JSON form atomically; returns the text."""
    return _write_canonical(report.to_json(), path)


def render_console(report: VerificationReport) -> str:
    """One-line human summary (the only place runtime_ms appears)."""
    dev = scalar_to_json(report.max_deviation)
    line = (
        f"[{report.status.upper()}] {report.claim_id} "
        f"max_deviation={dev} exact={report.exact}"
    )
    if report.seed is not None:
        line += f" seed={report.seed}"
    if report.runtime_ms is not None:
        line += f" ({report.runtime_ms:.1f} ms)"
    return line
