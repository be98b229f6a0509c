"""Coordinate Riesz space model: R^n with componentwise order.

This is the one Dedekind complete vector lattice that is finitely
representable, so every order-theoretic statement about it can be checked
mechanically.  Vectors carry either exact rational entries or floats (see
``scalars``); all lattice operations (meet, join, modulus, positive and
negative parts) act componentwise.  They are written once, on the private
``_Entrywise`` base that ``operators.RegularOperator`` shares, since the
lattice structure of the matrix spaces is entrywise too; so are the atom
splitter and the random convex splitter behind the vector and the operator
partitions.

Storage.  An ``_Entrywise`` holds one numpy array of its shape and one
denominator.  In exact mode the array holds Python-int numerators (an
object array, so nothing overflows) over the denominator D, in lowest
terms (gcd(D, numerators) = 1), so equal values have equal storage; in
float mode it is float64 and D is None.  ``entries`` builds ``Fraction``s
(or floats) on each access, for JSON and for callers that index; every
operation, and the integer kernels of the other modules, read the array
(``_stack`` puts several over one denominator, ``_chunk_size`` bounds a
kernel's intermediates).  Float results match Python float arithmetic bit
for bit, Python's tie rule on -0.0 and 0.0 included.

Besides the vector type the module provides the combinatorial machinery the
Riesz-Kantorovich formulas quantify over: components of a positive element,
disjoint and positive partitions, the refinement chain, and
``default_partitions``, the family the partition oracles try by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Iterator, Optional, Sequence

import numpy as np

from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    ScalarModeError,
    coerce_entries,
    scalar_to_json,
)

#: Largest support size for which component / partition enumeration is
#: allowed (streams grow like 2^n and Bell(n)).
ENUMERATION_CAP = 20

#: Denominator used by the seeded random convex-split generators; keeps
#: exact-mode pieces on a coarse rational grid.
SPLIT_DENOMINATOR = 16

#: Entries of an integer kernel's per-chunk intermediates, so that their
#: memory stays bounded however much the kernel enumerates.
_KERNEL_CHUNK_ENTRIES = 1 << 16


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class EnumerationLimitError(RuntimeError):
    """A request would exceed a work or memory cap."""


def _chunk_size(entries_per_item: int) -> int:
    """Items of ``entries_per_item`` entries per kernel chunk (at least 1)."""
    return max(1, _KERNEL_CHUNK_ENTRIES // entries_per_item)


def _stack(items) -> tuple:
    """Containers of one shape and mode over their common denominator D,
    their values stacked on a new first axis: (array, D); D is None for
    floats."""
    if items[0]._den is None:
        return np.stack([item._values for item in items]), None
    D = math.lcm(*(item._den for item in items))
    return np.stack([item._values * (D // item._den) for item in items]), D


def _matmul(a, b):
    """a @ b over the last two axes (broadcast over the others).  Float
    entries are summed left to right from 0, as Python's ``sum`` of the
    products is, so results match it bit for bit."""
    if a.dtype == object:
        return a @ b
    total = 0.0
    for k in range(a.shape[-1]):
        total = total + a[..., k, None] * b[..., k, None, :]
    return total


def _all(mask) -> bool:
    """``mask.all()``, faster on the small arrays of this package."""
    return bool(np.count_nonzero(mask) == mask.size)


def _integer_composition(rng: Random, total: int, parts: int) -> list:
    """Random composition of ``total`` into ``parts`` nonnegative integers."""
    cuts = [0] + sorted(rng.randint(0, total) for _ in range(parts - 1)) + [total]
    return [b - a for a, b in zip(cuts, cuts[1:])]


class _Entrywise:
    """One array and one denominator: Python-int numerators over D in
    lowest terms (exact mode) or float64 values with D None (float mode).

    The coordinate-model lattice structure is entrywise on R^n, on the
    matrix spaces and on the Kronecker rep alike, so ``LatticeVector`` and
    ``operators.RegularOperator`` share this one implementation of it.
    Instances are immutable; equality and hashing go by (shape, D, values).
    """

    __slots__ = ("_values", "_den")

    @classmethod
    def _of(cls, values, den):
        """values / den (den None for floats) in lowest terms, unchecked."""
        obj = object.__new__(cls)
        obj._store(values, den)
        return obj

    def _store(self, values, den):
        if den is not None and den != 1:
            g = math.gcd(den, *values.flat)
            if g != 1:
                values, den = values // g, den // g
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_den", den)

    @staticmethod
    def _parse(entries) -> tuple:
        """Scalar input (coerced by ``scalars.coerce_entries``) as a flat
        array and its denominator: all-exact input over the lcm of its
        denominators, anything else as floats."""
        coerced, mode = coerce_entries(entries)
        if mode == FLOAT:
            return np.array(coerced, dtype=np.float64), None
        D = math.lcm(*(v.denominator for v in coerced))
        numerators = [v.numerator * (D // v.denominator) for v in coerced]
        return np.array(numerators, dtype=object), D

    @staticmethod
    def _constant(shape, value, mode: str) -> tuple:
        """(array, D) of the given shape with every entry the integer value."""
        if mode == EXACT:
            return np.full(shape, value, dtype=object), 1
        return np.full(shape, float(value)), None

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self._den == other._den
            and self.shape == other.shape
            and _all(self._values == other._values)
        )

    def __hash__(self):
        return hash((self.shape, self._den, tuple(self._values.ravel().tolist())))

    @property
    def shape(self) -> tuple:
        return self._values.shape

    @property
    def entries(self) -> tuple:
        """The entries in row-major order, ``Fraction``s or floats, built on
        each access."""
        if self._den is None:
            return tuple(self._values.ravel().tolist())
        return tuple(Fraction(v, self._den) for v in self._values.flat)

    def _scalar(self, value):
        """One stored value as a scalar of the container's mode."""
        return float(value) if self._den is None else Fraction(value, self._den)

    def entry(self, *index):
        """The entry at ``index`` (i for a vector, i, j for an operator)."""
        return self._scalar(self._values[index])

    def max_entry(self):
        """The largest entry."""
        return self._scalar(self._values.max())

    @property
    def mode(self) -> str:
        return FLOAT if self._den is None else EXACT

    @property
    def is_exact(self) -> bool:
        return self._den is not None

    def _check_compatible(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(
                f"expected {type(self).__name__}, got {type(other).__name__}"
            )
        if self._values.shape != other._values.shape:
            raise DimensionMismatchError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )
        if self.is_exact != other.is_exact:
            raise ScalarModeError(
                f"scalar mode mismatch: {self.mode} vs {other.mode}"
            )

    def _aligned(self, other) -> tuple:
        """(a, b, D): the values of self and other over one denominator."""
        self._check_compatible(other)
        a, b, D, E = self._values, other._values, self._den, other._den
        if D == E:
            return a, b, D
        L = math.lcm(D, E)
        return a * (L // D), b * (L // E), L

    def _zero_mask(self, tol: float = DEFAULT_TOLERANCE):
        """Where the entries are zero (within ``tol`` in float mode)."""
        if self._den is None:
            return np.abs(self._values) <= tol
        return self._values == 0

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b, D = self._aligned(other)
        return self._of(a + b, D)

    def __sub__(self, other):
        a, b, D = self._aligned(other)
        return self._of(a - b, D)

    def __neg__(self):
        return self._of(-self._values, self._den)

    def scale(self, c):
        if not self.is_exact:
            return self._of(float(c) * self._values, None)
        if isinstance(c, float):
            raise ScalarModeError(
                f"cannot scale an exact {type(self).__name__} by a float"
            )
        c = Fraction(c)
        return self._of(self._values * c.numerator, self._den * c.denominator)

    __mul__ = __rmul__ = scale

    # -- lattice operations ------------------------------------------------
    # np.where keeps the first operand on ties, as Python's min and max do:
    # np.maximum would turn max(-0.0, 0.0) into 0.0.

    def _min(self, other):
        a, b, D = self._aligned(other)
        return self._of(np.where(b < a, b, a), D)

    def _max(self, other):
        a, b, D = self._aligned(other)
        return self._of(np.where(b > a, b, a), D)

    def __abs__(self):
        return self._of(np.abs(self._values), self._den)

    def pos_part(self):
        return self._of(np.where(self._values < 0, 0, self._values), self._den)

    def neg_part(self):
        a = -self._values
        return self._of(np.where(a < 0, 0, a), self._den)

    # -- order ------------------------------------------------------------

    def le(self, other, tol: float = DEFAULT_TOLERANCE) -> bool:
        a, b, D = self._aligned(other)
        return _all(a <= (b if D is not None else b + tol))

    def eq(self, other, tol: float = DEFAULT_TOLERANCE) -> bool:
        a, b, D = self._aligned(other)
        if D is not None:
            return _all(a == b)
        return _all(np.abs(a - b) <= tol)

    def is_positive(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        a = self._values
        return _all(0 <= (a if self.is_exact else a + tol))

    def is_zero(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return _all(self._zero_mask(tol))

    def to_float(self):
        """The same element in float mode (no-op in float mode)."""
        if not self.is_exact:
            return self
        return self._of((self._values / self._den).astype(np.float64), None)

    # -- splitters (the partitions' pieces) ----------------------------------

    def _atoms(self) -> tuple:
        """One piece per nonzero entry, holding that entry alone; an all-zero
        element gives (self,) so downstream formulas stay total."""
        nonzero = np.flatnonzero(~self._zero_mask())
        rows = np.zeros((len(nonzero), self._values.size), dtype=self._values.dtype)
        rows[np.arange(len(nonzero)), nonzero] = self._values.flat[nonzero]
        pieces = [self._of(row.reshape(self.shape), self._den) for row in rows]
        return tuple(pieces) or (self,)

    def _convex_split(self, parts: int, rng: Random, signed: bool = False) -> tuple:
        """Split each entry over ``parts`` pieces with random convex weights
        on the grid k/SPLIT_DENOMINATOR (exact in rational mode), each share
        with a random sign when ``signed``, so the moduli of the pieces sum
        to a positive self; all-zero pieces are dropped, (self,) if none is
        left."""
        # The share c/16 of an entry a is a * c over 16 D, or a * (c / 16) in
        # float mode, where a * -(c / 16) is -(a * (c / 16)) bit for bit.
        unit = 1 if self.is_exact else 1 / SPLIT_DENOMINATOR
        shares = []
        for _ in range(self._values.size):
            for c in _integer_composition(rng, SPLIT_DENOMINATOR, parts):
                share = c * unit
                shares.append(share if not signed or rng.random() < 0.5 else -share)
        grid = np.array(shares, dtype=self._values.dtype).reshape(-1, parts)
        columns = (self._values.reshape(-1, 1) * grid).T
        den = self._den and self._den * SPLIT_DENOMINATOR
        pieces = [self._of(column.reshape(self.shape), den) for column in columns]
        return tuple(p for p in pieces if not p.is_zero()) or (self,)


class LatticeVector(_Entrywise):
    """Element of R^n with componentwise order.

    Entries are normalized at construction: all-``Fraction``/int input gives
    an exact vector, any float entry gives a float vector.  Instances are
    immutable and hashable.
    """

    __slots__ = ()

    def __init__(self, entries: Sequence):
        values, den = self._parse(entries)
        if not values.size:
            raise ValueError("a lattice vector needs at least one entry")
        self._store(values, den)

    @property
    def dim(self) -> int:
        return self.shape[0]

    meet = _Entrywise._min
    join = _Entrywise._max

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int, mode: str = EXACT) -> "LatticeVector":
        return cls._of(*cls._constant((dim,), 0, mode))

    @classmethod
    def unit(cls, dim: int, index: int, mode: str = EXACT) -> "LatticeVector":
        if not 0 <= index < dim:
            raise IndexError(f"unit index {index} out of range for dim {dim}")
        values, den = cls._constant((dim,), 0, mode)
        values[index] = 1
        return cls._of(values, den)

    @classmethod
    def ones(cls, dim: int, mode: str = EXACT) -> "LatticeVector":
        return cls._of(*cls._constant((dim,), 1, mode))

    @classmethod
    def from_json(cls, data: dict) -> "LatticeVector":
        vec = cls(data["entries"])
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
        return tuple(np.flatnonzero(~self._zero_mask(tol)).tolist())

    def restrict(self, indices) -> "LatticeVector":
        """Zero out every entry whose index is not in ``indices``."""
        keep = set(indices)
        mask = [i in keep for i in range(self.dim)]
        return self._of(np.where(mask, self._values, 0), self._den)

    def as_floats(self) -> tuple:
        return tuple(self.to_float()._values.tolist())

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
        pairs = combinations(self.pieces, 2)
        return all(x.meet(y).is_zero(tol) for x, y in pairs)


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
