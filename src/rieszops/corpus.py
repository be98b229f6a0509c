"""Seeded corpora of rational (or float) test matrices and vectors.

Entries live on the grid p/q with |value| <= 5 and denominator <= 8 in
rational mode, or uniform floats in the same range.  Everything is driven
by ``random.Random(seed)`` so regeneration from (seed, params) is
bit-identical, which the determinism guarantees of the CLI depend on.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator

from .lattice import EnumerationLimitError, LatticeVector
from .operators import RegularOperator
from .reports import _write_canonical
from .superop import KRON_ENTRY_CAP

GRID_MAX = 5
GRID_MAX_DENOMINATOR = 8

DISTRIBUTIONS = ("rational", "float")
SIGN_MODES = ("positive", "mixed")


def random_rational(rng: Random, positive: bool = False) -> Fraction:
    den = rng.randint(1, GRID_MAX_DENOMINATOR)
    low = 0 if positive else -GRID_MAX * den
    num = rng.randint(low, GRID_MAX * den)
    return Fraction(num, den)


def random_scalar(rng: Random, distribution: str, positive: bool = False):
    if distribution == "rational":
        return random_rational(rng, positive)
    if distribution == "float":
        low = 0.0 if positive else -float(GRID_MAX)
        return rng.uniform(low, float(GRID_MAX))
    raise ValueError(f"unknown distribution: {distribution!r}")


def random_matrix(
    rng: Random,
    rows: int,
    cols: int,
    distribution: str = "rational",
    sign_mode: str = "mixed",
) -> RegularOperator:
    positive = sign_mode == "positive"
    return RegularOperator(
        rows,
        cols,
        [random_scalar(rng, distribution, positive) for _ in range(rows * cols)],
    )


def random_vector(
    rng: Random,
    dim: int,
    distribution: str = "rational",
    sign_mode: str = "positive",
) -> LatticeVector:
    positive = sign_mode == "positive"
    return LatticeVector(
        [random_scalar(rng, distribution, positive) for _ in range(dim)]
    )


@dataclass(frozen=True)
class Corpus:
    """Parameters of a reproducible corpus of (A, B) factor pairs.

    ``dims = (w, x, y, z)`` fixes A to z x y and B to x x w; either of more
    than ``KRON_ENTRY_CAP`` entries raises ``EnumerationLimitError`` undrawn.
    """

    seed: int
    dims: tuple
    count: int
    distribution: str = "rational"
    sign_mode: str = "mixed"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"corpus seed must be >= 0, got seed={self.seed}")
        if len(self.dims) != 4 or any(int(d) < 1 for d in self.dims):
            raise ValueError(f"dims must be four integers >= 1, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        w, x, y, z = self.dims
        if max(z * y, x * w) > KRON_ENTRY_CAP:
            raise EnumerationLimitError(
                f"corpus factors A ({z}x{y}) and B ({x}x{w}) may have at most "
                f"KRON_ENTRY_CAP = {KRON_ENTRY_CAP} entries each"
            )
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution: {self.distribution!r}")
        if self.sign_mode not in SIGN_MODES:
            raise ValueError(f"unknown sign mode: {self.sign_mode!r}")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "count": self.count,
            "distribution": self.distribution,
            "sign_mode": self.sign_mode,
        }


def parse_corpus_spec(spec: str) -> Corpus:
    """Parse "seed=7,dims=2x2x2x2,count=100[,distribution=...][,sign=...]"."""
    fields = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"malformed corpus field: {item!r}")
        key, value = item.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"seed", "dims", "count", "distribution", "sign"}
    if unknown:
        raise ValueError(f"unknown corpus fields: {sorted(unknown)}")
    try:
        seed = int(fields.get("seed", "0"))
        count = int(fields.get("count", "10"))
        dims = tuple(int(d) for d in fields.get("dims", "2x2x2x2").split("x"))
    except ValueError as exc:
        raise ValueError(f"malformed corpus spec {spec!r}: {exc}") from exc
    return Corpus(
        seed=seed,
        dims=dims,
        count=count,
        distribution=fields.get("distribution", "rational"),
        sign_mode=fields.get("sign", "mixed"),
    )


#: Each input role of the claim verifiers: its shape, as indices into
#: ``Corpus.dims`` = (w, x, y, z) (one index for a vector), and its sign
#: ("positive", or None for the corpus's own sign mode).
ROLES = {
    "A": ((3, 2), None), "C": ((3, 2), None), "A0": ((3, 2), "positive"),
    "B": ((1, 0), None), "D": ((1, 0), None), "B0": ((1, 0), "positive"),
    "T": ((2, 1), "positive"), "w": ((0,), "positive"),
}

#: The roles of each claim with a corpus schema, in draw order (which is
#: also the order of the verifier's positional arguments).
CLAIM_ROLES = {
    "cor22": ("A", "B"),
    "prop21": ("A0", "B", "D", "T", "w"),
    "synnatzschke_a": ("A", "C", "B0"),
    "cor23": ("A", "B"),
}


def _draw_role(rng: Random, corpus: Corpus, role: str):
    shape, sign = ROLES[role]
    sizes = [corpus.dims[i] for i in shape]
    sign = sign or corpus.sign_mode
    if len(sizes) == 1:
        return random_vector(rng, *sizes, corpus.distribution, sign)
    return random_matrix(rng, *sizes, corpus.distribution, sign)


def claim_cases(corpus: Corpus, claim_id: str) -> Iterator[dict]:
    """Per-claim input bundles drawn deterministically from the corpus.

    Each case maps the claim's roles (``CLAIM_ROLES``) to inputs drawn in
    that order from one ``Random(corpus.seed)``, with the shapes and signs
    of ``ROLES``.  Positivity requirements (A0 for the positive-left-factor
    identities, B0 for the positive-right-factor ones, T and w throughout)
    are built in by construction, not by rejection sampling.  A claim
    without a schema raises ``ValueError``.  Every claim but cor23 builds
    the rep of M_{A,B}, kron(B', A) of z w y x entries; over
    ``KRON_ENTRY_CAP`` they raise ``EnumerationLimitError`` before the
    first draw, as that ``kron`` would after the draws.
    """
    if claim_id not in CLAIM_ROLES:
        raise ValueError(f"no corpus schema for claim {claim_id!r}")
    w, x, y, z = corpus.dims
    if claim_id != "cor23" and z * w * y * x > KRON_ENTRY_CAP:
        raise EnumerationLimitError(
            f"the rep of M_{{A,B}} for {claim_id} on dims {w}x{x}x{y}x{z} has "
            f"{z * w * y * x} entries, above KRON_ENTRY_CAP = {KRON_ENTRY_CAP}"
        )
    rng = Random(corpus.seed)
    for _ in range(corpus.count):
        yield {role: _draw_role(rng, corpus, role) for role in CLAIM_ROLES[claim_id]}


# ---------------------------------------------------------------------------
# on-disk corpora
# ---------------------------------------------------------------------------


def generate_corpus(corpus: Corpus, out_dir: str) -> dict:
    """Write the corpus's matrix files plus a manifest with digests.

    The (A, B) pairs are the ``cor23`` cases of ``claim_cases``: cor23
    builds no rep, so only the factors are capped.  Files:
    A_0000.json, B_0000.json, ... and manifest.json.  Re-running with the
    same parameters reproduces every byte.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for idx, case in enumerate(claim_cases(corpus, "cor23")):
        for tag, op in case.items():
            name = f"{tag}_{idx:04d}.json"
            text = _write_canonical(op.to_json(), os.path.join(out_dir, name))
            digest = hashlib.sha256(text.encode("ascii")).hexdigest()
            files.append({"name": name, "sha256": digest})
    manifest = {"params": corpus.to_json(), "files": files}
    _write_canonical(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest
