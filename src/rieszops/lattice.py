"""Coordinate Riesz space model: R^n with componentwise order.

This is the one Dedekind complete vector lattice that is finitely
representable, so every order-theoretic statement about it can be checked
mechanically.  Vectors carry either exact rational entries or floats (see
``scalars``); all lattice operations (meet, join, modulus, positive and
negative parts) act componentwise.

Besides the vector type the module provides the combinatorial machinery the
Riesz-Kantorovich formulas quantify over: components of a positive element,
disjoint and positive partitions, partition-refinement schemes, and band
projections (coordinate-subset masks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Iterator, Optional, Sequence

from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    ScalarModeError,
    coerce_entries,
    eq,
    is_zero,
    le,
    scalar_to_json,
    zero_of,
)

#: Largest support size for which component / partition enumeration is
#: allowed (streams grow like 2^n and Bell(n)).
ENUMERATION_CAP = 20

#: Denominator used by the seeded random convex-split generators; keeps
#: exact-mode pieces on a coarse rational grid.
SPLIT_DENOMINATOR = 16


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class EnumerationLimitError(RuntimeError):
    """A request would exceed a work or memory cap."""


@dataclass(frozen=True)
class LatticeVector:
    """Element of R^n with componentwise order.

    Entries are normalized at construction: all-``Fraction``/int input gives
    an exact vector, any float entry gives a float vector.  Instances are
    immutable and hashable.
    """

    entries: tuple = field()

    def __init__(self, entries: Sequence):
        coerced, _ = coerce_entries(entries)
        if not coerced:
            raise ValueError("a lattice vector needs at least one entry")
        object.__setattr__(self, "entries", coerced)

    # -- structure -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def mode(self) -> str:
        return FLOAT if isinstance(self.entries[0], float) else EXACT

    @property
    def is_exact(self) -> bool:
        return self.mode == EXACT

    def _check_compatible(self, other: "LatticeVector"):
        if not isinstance(other, LatticeVector):
            raise TypeError(f"expected LatticeVector, got {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )
        if self.mode != other.mode:
            raise ScalarModeError(
                f"scalar mode mismatch: {self.mode} vs {other.mode}"
            )

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int, mode: str = EXACT) -> "LatticeVector":
        return cls([zero_of(mode)] * dim)

    @classmethod
    def unit(cls, dim: int, index: int, mode: str = EXACT) -> "LatticeVector":
        if not 0 <= index < dim:
            raise IndexError(f"unit index {index} out of range for dim {dim}")
        entries = [zero_of(mode)] * dim
        entries[index] = Fraction(1) if mode == EXACT else 1.0
        return cls(entries)

    @classmethod
    def ones(cls, dim: int, mode: str = EXACT) -> "LatticeVector":
        one = Fraction(1) if mode == EXACT else 1.0
        return cls([one] * dim)

    @classmethod
    def from_json(cls, data: dict) -> "LatticeVector":
        entries = data["entries"]
        vec = cls(entries)
        if "dim" in data and int(data["dim"]) != vec.dim:
            raise ValueError(
                f"declared dim {data['dim']} does not match {vec.dim} entries"
            )
        return vec

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": [scalar_to_json(x) for x in self.entries]}

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        return LatticeVector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        return LatticeVector([a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "LatticeVector":
        return LatticeVector([-a for a in self.entries])

    def scale(self, c) -> "LatticeVector":
        if isinstance(c, float) and self.is_exact:
            raise ScalarModeError("cannot scale an exact vector by a float")
        if isinstance(c, (int, Fraction)) and not self.is_exact:
            c = float(c)
        return LatticeVector([c * a for a in self.entries])

    def __mul__(self, c) -> "LatticeVector":
        return self.scale(c)

    __rmul__ = __mul__

    def dot(self, other: "LatticeVector"):
        self._check_compatible(other)
        return sum(a * b for a, b in zip(self.entries, other.entries))

    # -- lattice operations ------------------------------------------------

    def meet(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        return LatticeVector([min(a, b) for a, b in zip(self.entries, other.entries)])

    def join(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        return LatticeVector([max(a, b) for a, b in zip(self.entries, other.entries)])

    def __abs__(self) -> "LatticeVector":
        return LatticeVector([abs(a) for a in self.entries])

    def pos_part(self) -> "LatticeVector":
        zero = zero_of(self.mode)
        return LatticeVector([max(a, zero) for a in self.entries])

    def neg_part(self) -> "LatticeVector":
        zero = zero_of(self.mode)
        return LatticeVector([max(-a, zero) for a in self.entries])

    # -- order ------------------------------------------------------------

    def le(self, other: "LatticeVector", tol: float = DEFAULT_TOLERANCE) -> bool:
        self._check_compatible(other)
        return all(le(a, b, tol) for a, b in zip(self.entries, other.entries))

    def eq(self, other: "LatticeVector", tol: float = DEFAULT_TOLERANCE) -> bool:
        self._check_compatible(other)
        return all(eq(a, b, tol) for a, b in zip(self.entries, other.entries))

    def is_positive(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        zero = zero_of(self.mode)
        return all(le(zero, a, tol) for a in self.entries)

    def is_zero(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return all(is_zero(a, tol) for a in self.entries)

    # -- support ------------------------------------------------------------

    def support(self, tol: float = DEFAULT_TOLERANCE) -> tuple:
        """Indices of (tolerance-aware) nonzero entries, ascending."""
        return tuple(i for i, a in enumerate(self.entries) if not is_zero(a, tol))

    def restrict(self, indices) -> "LatticeVector":
        """Zero out every entry whose index is not in ``indices``."""
        keep = set(indices)
        zero = zero_of(self.mode)
        return LatticeVector(
            [a if i in keep else zero for i, a in enumerate(self.entries)]
        )

    def as_floats(self) -> tuple:
        return tuple(float(a) for a in self.entries)

    def to_float(self) -> "LatticeVector":
        """The same vector in float mode (no-op on float vectors)."""
        if not self.is_exact:
            return self
        return LatticeVector([float(a) for a in self.entries])

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.entries)
        return f"LatticeVector([{inner}])"


# ---------------------------------------------------------------------------
# components of a positive element
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """A piece x of a positive base e with x ^ (e - x) = 0.

    In the coordinate model these are exactly the restrictions of e to
    subsets of its support.
    """

    base: LatticeVector
    piece: LatticeVector

    def is_valid(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        residual = self.base - self.piece
        return (
            self.piece.is_positive(tol)
            and residual.is_positive(tol)
            and self.piece.meet(residual).is_zero(tol)
        )


def enumerate_components(
    e: LatticeVector, cap: int = ENUMERATION_CAP
) -> Iterator[Component]:
    """Stream the 2^s components of a positive element e, s = |support(e)|.

    Deterministic order: subsets of the sorted support by binary counter,
    so the zero component comes first and e itself last.
    """
    if not e.is_positive():
        raise ValueError("components are only defined for positive elements")
    support = e.support()
    if len(support) > cap:
        raise EnumerationLimitError(
            f"support size {len(support)} exceeds enumeration cap {cap}"
        )
    for mask in range(1 << len(support)):
        subset = [support[i] for i in range(len(support)) if mask >> i & 1]
        yield Component(base=e, piece=e.restrict(subset))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Finite family of positive vectors summing to a positive target."""

    target: LatticeVector
    pieces: tuple

    def __init__(self, target: LatticeVector, pieces: Sequence[LatticeVector]):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("a partition needs at least one piece")
        total = pieces[0]
        for p in pieces[1:]:
            total = total + p
        for p in pieces:
            if not p.is_positive():
                raise ValueError("partition pieces must be positive")
        if not total.eq(target):
            raise ValueError("partition pieces do not sum to the target")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "pieces", pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    def is_disjoint(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        for i in range(len(self.pieces)):
            for j in range(i + 1, len(self.pieces)):
                if not self.pieces[i].meet(self.pieces[j]).is_zero(tol):
                    return False
        return True


def trivial_partition(w: LatticeVector) -> Partition:
    return Partition(w, (w,))


def atomic_partition(w: LatticeVector) -> Partition:
    """Split w into its atoms w_i * unit_i (support only).

    The zero vector yields a single zero piece so downstream formulas stay
    total.
    """
    if not w.is_positive():
        raise ValueError("atomic partitions are defined for positive vectors")
    support = w.support()
    if not support:
        return Partition(w, (w,))
    return Partition(w, tuple(w.restrict([i]) for i in support))


def _set_partitions(items: tuple, max_parts: int) -> Iterator[list]:
    """All set partitions of ``items`` into at most ``max_parts`` blocks.

    Canonical recursive order: the first item anchors the first block.
    """
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for sub in _set_partitions(tail, max_parts):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]
        if len(sub) < max_parts:
            yield sub + [[head]]


def disjoint_partitions(
    e: LatticeVector, max_parts: Optional[int] = None, cap: int = ENUMERATION_CAP
) -> Iterator[Partition]:
    """Stream all partitions of e into <= max_parts pairwise-disjoint pieces.

    These correspond to set partitions of the support; blocks are reported
    ordered by their smallest index.  ``max_parts`` defaults to the support
    size (i.e. no restriction).
    """
    if not e.is_positive():
        raise ValueError("disjoint partitions are defined for positive vectors")
    if max_parts is None:
        max_parts = max(1, len(e.support()))
    support = e.support()
    if len(support) > cap:
        raise EnumerationLimitError(
            f"support size {len(support)} exceeds enumeration cap {cap}"
        )
    if not support:
        yield Partition(e, (e,))
        return
    for blocks in _set_partitions(tuple(support), max_parts):
        ordered = sorted(blocks, key=min)
        yield Partition(e, tuple(e.restrict(block) for block in ordered))


def halves_partition(w: LatticeVector) -> Partition:
    """Split w across the lower/upper half of its support (refines trivial)."""
    support = w.support()
    if len(support) < 2:
        return trivial_partition(w)
    cut = len(support) // 2
    return Partition(
        w, (w.restrict(support[:cut]), w.restrict(support[cut:]))
    )


def dyadic_partition(w: LatticeVector, depth: int = 1) -> Partition:
    """Refine the atomic partition by splitting each atom into 2^depth
    equal parts."""
    if not w.is_positive():
        raise ValueError("dyadic partitions are defined for positive vectors")
    base = atomic_partition(w)
    k = 1 << depth
    scale = Fraction(1, k) if w.is_exact else 1.0 / k
    pieces = []
    for atom in base.pieces:
        piece = atom.scale(scale)
        pieces.extend([piece] * k)
    return Partition(w, tuple(pieces))


def _integer_composition(rng: Random, total: int, parts: int) -> list:
    """Random composition of ``total`` into ``parts`` nonnegative integers."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    prev = 0
    out = []
    for c in cuts:
        out.append(c - prev)
        prev = c
    out.append(total - prev)
    return out


def random_convex_partition(
    w: LatticeVector, parts: int, rng: Random
) -> Partition:
    """Split w into ``parts`` positive pieces with per-coordinate random
    convex weights on the grid k/SPLIT_DENOMINATOR (exact in rational mode)."""
    if not w.is_positive():
        raise ValueError("convex splits are defined for positive vectors")
    denom = SPLIT_DENOMINATOR
    columns = []
    for a in w.entries:
        weights = _integer_composition(rng, denom, parts)
        if w.is_exact:
            columns.append([a * Fraction(c, denom) for c in weights])
        else:
            columns.append([a * (c / denom) for c in weights])
    pieces = [
        LatticeVector([columns[i][p] for i in range(w.dim)]) for p in range(parts)
    ]
    kept = [p for p in pieces if not p.is_zero()]
    if not kept:
        kept = [pieces[0]]
    return Partition(w, tuple(kept))


@dataclass(frozen=True)
class PartitionScheme:
    """Configuration for a family of partitions of a positive vector.

    Kinds: ``trivial`` (just {w}), ``halves``, ``atomic``, ``dyadic``
    (atoms split into 2^depth equal parts), ``random`` (seeded convex
    splits, ``samples`` of them with ``parts`` pieces each).
    """

    kind: str = "atomic"
    depth: int = 1
    parts: int = 3
    samples: int = 5
    seed: int = 0


def vector_partitions(w: LatticeVector, scheme: PartitionScheme) -> Iterator[Partition]:
    if scheme.kind == "trivial":
        yield trivial_partition(w)
    elif scheme.kind == "halves":
        yield halves_partition(w)
    elif scheme.kind == "atomic":
        yield atomic_partition(w)
    elif scheme.kind == "dyadic":
        yield dyadic_partition(w, scheme.depth)
    elif scheme.kind == "random":
        rng = Random(scheme.seed)
        for _ in range(scheme.samples):
            yield random_convex_partition(w, scheme.parts, rng)
    else:
        raise ValueError(f"unknown partition scheme kind: {scheme.kind!r}")


def refinement_chain(w: LatticeVector) -> list:
    """A chain of partitions, each refining the previous one.

    Along such a chain the Riesz-Kantorovich partition sums are monotone
    nondecreasing, which makes the directed-supremum structure observable.
    """
    return [
        trivial_partition(w),
        halves_partition(w),
        atomic_partition(w),
        dyadic_partition(w, depth=1),
    ]


# ---------------------------------------------------------------------------
# band projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandProjection:
    """Order projection onto the band of a coordinate subset.

    Acts by zeroing every entry outside ``support`` (0-based indices); the
    complement projection uses the complementary support, and together they
    sum to the identity.
    """

    dim: int
    support: frozenset

    def apply(self, v: LatticeVector) -> LatticeVector:
        if v.dim != self.dim:
            raise DimensionMismatchError(
                f"projection dim {self.dim} vs vector dim {v.dim}"
            )
        return v.restrict(self.support)

    def complement(self) -> "BandProjection":
        return BandProjection(
            self.dim, frozenset(range(self.dim)) - self.support
        )

    def diagonal(self, mode: str = EXACT) -> LatticeVector:
        """The 0/1 diagonal realizing this projection as a matrix."""
        one = Fraction(1) if mode == EXACT else 1.0
        return LatticeVector(
            [one if i in self.support else zero_of(mode) for i in range(self.dim)]
        )


def band_projection(dim: int, support) -> BandProjection:
    support = frozenset(support)
    for i in support:
        if not 0 <= i < dim:
            raise IndexError(f"support index {i} out of range for dim {dim}")
    return BandProjection(dim, support)


def positive_band_projection(v: LatticeVector) -> BandProjection:
    """Projection onto the band generated by the positive part of v."""
    zero = zero_of(v.mode)
    support = frozenset(i for i, a in enumerate(v.entries) if a > zero)
    return BandProjection(v.dim, support)
