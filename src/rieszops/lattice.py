"""Coordinate Riesz space model: R^n with componentwise order.

This is the one Dedekind complete vector lattice that is finitely
representable, so every order-theoretic statement about it can be checked
mechanically.  Vectors carry either exact rational entries or floats (see
``scalars``); all lattice operations (meet, join, modulus, positive and
negative parts) act componentwise.  They are written once, on the private
``_Entrywise`` base (a shape plus a flat tuple of entries) that
``operators.RegularOperator`` shares, since the lattice structure of the
matrix spaces is entrywise too; so are the atom splitter and the random
convex splitter behind the vector and the operator partitions.

Besides the vector type the module provides the combinatorial machinery the
Riesz-Kantorovich formulas quantify over: components of a positive element,
disjoint and positive partitions, the refinement chain, and
``default_partitions``, the family the partition oracles try by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
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
    one_of,
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


def _integer_composition(rng: Random, total: int, parts: int) -> list:
    """Random composition of ``total`` into ``parts`` nonnegative integers."""
    cuts = [0] + sorted(rng.randint(0, total) for _ in range(parts - 1)) + [total]
    return [b - a for a, b in zip(cuts, cuts[1:])]


@dataclass(frozen=True, init=False, repr=False)
class _Entrywise:
    """A shape plus a flat tuple of entries, all ``Fraction`` or all ``float``.

    The coordinate-model lattice structure is entrywise on R^n, on the
    matrix spaces and on the Kronecker rep alike, so ``LatticeVector`` and
    ``operators.RegularOperator`` share this one implementation of it.
    Results of entrywise operations come from ``_trusted``, which skips
    ``coerce_entries``: entrywise arithmetic on typed entries stays typed.
    """

    shape: tuple
    entries: tuple

    @classmethod
    def _trusted(cls, shape: tuple, entries):
        """An instance from entries already in one scalar mode (no checks)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "shape", shape)
        object.__setattr__(obj, "entries", tuple(entries))
        return obj

    def _like(self, entries):
        return self._trusted(self.shape, entries)

    @property
    def mode(self) -> str:
        return FLOAT if isinstance(self.entries[0], float) else EXACT

    @property
    def is_exact(self) -> bool:
        return self.mode == EXACT

    def _check_compatible(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(
                f"expected {type(self).__name__}, got {type(other).__name__}"
            )
        if self.shape != other.shape:
            raise DimensionMismatchError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )
        if self.mode != other.mode:
            raise ScalarModeError(
                f"scalar mode mismatch: {self.mode} vs {other.mode}"
            )

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return self._like([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like([a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return self._like([-a for a in self.entries])

    def scale(self, c):
        if self.is_exact:
            if isinstance(c, float):
                raise ScalarModeError(
                    f"cannot scale an exact {type(self).__name__} by a float"
                )
            c = Fraction(c)
        else:
            c = float(c)
        return self._like([c * a for a in self.entries])

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    # -- lattice operations ------------------------------------------------

    def _min(self, other):
        self._check_compatible(other)
        return self._like([min(a, b) for a, b in zip(self.entries, other.entries)])

    def _max(self, other):
        self._check_compatible(other)
        return self._like([max(a, b) for a, b in zip(self.entries, other.entries)])

    def __abs__(self):
        return self._like([abs(a) for a in self.entries])

    def pos_part(self):
        zero = zero_of(self.mode)
        return self._like([max(a, zero) for a in self.entries])

    def neg_part(self):
        zero = zero_of(self.mode)
        return self._like([max(-a, zero) for a in self.entries])

    # -- order ------------------------------------------------------------

    def le(self, other, tol: float = DEFAULT_TOLERANCE) -> bool:
        self._check_compatible(other)
        return all(le(a, b, tol) for a, b in zip(self.entries, other.entries))

    def eq(self, other, tol: float = DEFAULT_TOLERANCE) -> bool:
        self._check_compatible(other)
        return all(eq(a, b, tol) for a, b in zip(self.entries, other.entries))

    def is_positive(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        zero = zero_of(self.mode)
        return all(le(zero, a, tol) for a in self.entries)

    def is_zero(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return all(is_zero(a, tol) for a in self.entries)

    def to_float(self):
        """The same element in float mode (no-op in float mode)."""
        if not self.is_exact:
            return self
        return self._like([float(a) for a in self.entries])

    # -- splitters (the partitions' pieces) ----------------------------------

    def _atoms(self) -> tuple:
        """One piece per nonzero entry, holding that entry alone; an all-zero
        element gives (self,) so downstream formulas stay total."""
        zero = zero_of(self.mode)
        pieces = []
        for index, a in enumerate(self.entries):
            if not is_zero(a):
                entries = [zero] * len(self.entries)
                entries[index] = a
                pieces.append(self._like(entries))
        return tuple(pieces) or (self,)

    def _convex_split(self, parts: int, rng: Random, signed: bool = False) -> tuple:
        """Split each entry over ``parts`` pieces with random convex weights
        on the grid k/SPLIT_DENOMINATOR (exact in rational mode), each share
        with a random sign when ``signed``, so the moduli of the pieces sum
        to a positive self; all-zero pieces are dropped, (self,) if none is
        left."""
        ratio = Fraction if self.is_exact else truediv
        grids = []
        for a in self.entries:
            weights = _integer_composition(rng, SPLIT_DENOMINATOR, parts)
            shares = [a * ratio(c, SPLIT_DENOMINATOR) for c in weights]
            if signed:
                shares = [s if rng.random() < 0.5 else -s for s in shares]
            grids.append(shares)
        pieces = [self._like(column) for column in zip(*grids)]
        return tuple(p for p in pieces if not p.is_zero()) or (self,)


class LatticeVector(_Entrywise):
    """Element of R^n with componentwise order.

    Entries are normalized at construction: all-``Fraction``/int input gives
    an exact vector, any float entry gives a float vector.  Instances are
    immutable and hashable.
    """

    def __init__(self, entries: Sequence):
        coerced, _ = coerce_entries(entries)
        if not coerced:
            raise ValueError("a lattice vector needs at least one entry")
        object.__setattr__(self, "shape", (len(coerced),))
        object.__setattr__(self, "entries", coerced)

    @property
    def dim(self) -> int:
        return self.shape[0]

    meet = _Entrywise._min
    join = _Entrywise._max

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int, mode: str = EXACT) -> "LatticeVector":
        return cls._trusted((dim,), [zero_of(mode)] * dim)

    @classmethod
    def unit(cls, dim: int, index: int, mode: str = EXACT) -> "LatticeVector":
        if not 0 <= index < dim:
            raise IndexError(f"unit index {index} out of range for dim {dim}")
        entries = [zero_of(mode)] * dim
        entries[index] = one_of(mode)
        return cls._trusted((dim,), entries)

    @classmethod
    def ones(cls, dim: int, mode: str = EXACT) -> "LatticeVector":
        return cls._trusted((dim,), [one_of(mode)] * dim)

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

    def dot(self, other: "LatticeVector"):
        self._check_compatible(other)
        return sum(a * b for a, b in zip(self.entries, other.entries))

    # -- support ------------------------------------------------------------

    def support(self, tol: float = DEFAULT_TOLERANCE) -> tuple:
        """Indices of (tolerance-aware) nonzero entries, ascending."""
        return tuple(i for i, a in enumerate(self.entries) if not is_zero(a, tol))

    def restrict(self, indices) -> "LatticeVector":
        """Zero out every entry whose index is not in ``indices``."""
        keep = set(indices)
        zero = zero_of(self.mode)
        return self._like(
            [a if i in keep else zero for i, a in enumerate(self.entries)]
        )

    def as_floats(self) -> tuple:
        return tuple(float(a) for a in self.entries)

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
        total = sum(pieces[1:], pieces[0])
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
    return Partition(w, w._atoms())


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
    support = e.support()
    if max_parts is None:
        max_parts = max(1, len(support))
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


def random_convex_partition(
    w: LatticeVector, parts: int, rng: Random
) -> Partition:
    """Split w into ``parts`` positive pieces with per-coordinate random
    convex weights on the grid k/SPLIT_DENOMINATOR (exact in rational mode)."""
    if not w.is_positive():
        raise ValueError("convex splits are defined for positive vectors")
    return Partition(w, w._convex_split(parts, rng))


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


def default_partitions(w: LatticeVector) -> list:
    """The partition oracles' default family: the refinement chain of w,
    then 5 seeded random convex splits into 3 pieces (one ``Random(0)``)."""
    rng = Random(0)
    return refinement_chain(w) + [random_convex_partition(w, 3, rng) for _ in range(5)]
