"""Coordinate Riesz space model: R^n with componentwise order.

This is the one Dedekind complete vector lattice that is finitely
representable, so every order-theoretic statement about it can be checked
mechanically.  Vectors carry either exact rational entries or floats (see
``scalars``); all lattice operations (meet, join, modulus, positive and
negative parts) act componentwise.  They are written once, on the private
``_Entrywise`` base that ``operators.RegularOperator`` shares, since the
lattice structure of the matrix spaces is entrywise too; so are the
partition builders, which split a vector and a matrix alike.

Storage.  An ``_Entrywise`` holds one numpy array of its shape and one
denominator.  In exact mode the array holds Python-int numerators (an
object array, so nothing stored overflows) over the denominator D, in
lowest terms (gcd(D, numerators) = 1), so equal values have equal storage;
in float mode it is float64 and D is None.  ``entries`` builds
``Fraction``s (or floats) on each access, for callers that index;
``to_json`` writes "p/q" strings straight from the numerators; every
operation, and the integer kernels of the other modules, read the array
(``_stack`` puts several over one denominator, ``_chunk_size`` bounds a
kernel's intermediates).  A kernel runs on int64 copies of numerators only
where ``_on_words``, the one maker of int64 values, proves by a magnitude
bound that none of its sums overflows, and a container made of them
stores them as Python ints again.  Every product of containers takes its
rules from here: the operand rule ``_check_operands`` (one scalar mode
and, for a matrix product, a matching inner dimension), the outer product
``_outer`` of ``operators.rank_one`` and of ``superop``'s stacked reps
(every product of two stacks of containers, or of their i-th pairs, in one
product), and the rule ``_product_den`` (the factors' denominators
multiplied, None for floats).  ``_gap`` is the largest entrywise |x - y|
of two such arrays over their denominators.
Float results match Python float arithmetic bit for bit, Python's tie rule
on -0.0 and 0.0 included.

Float sums.  Every float sum in a result of the package (``_matmul``, the
partition sums, the norms) is ``_left_sum``: the terms added left to right
from 0.0, as Python adds floats one at a time, so its bits are Python's
(but for the sign of a nan, which IEEE 754 leaves open).  A result of at
most ``_ACCUMULATE_ENTRIES`` (128) entries comes from one
``np.add.accumulate`` along the summed axis, which adds left to right from
the first term, plus 0.0.  The two agree: a sum from 0.0 is never -0.0,
and x + 0.0 is x but for -0.0 + 0.0 = 0.0, which turns the -0.0 that
accumulate leaves on a run of negative zeros into Python's 0.0.  A larger
result takes one vector add per term, on views, so that neither the terms
nor a product of them is copied whole and the kernels' chunk bounds hold.
The partition sums pad their rows with +0.0 terms, so that partitions of
different lengths share one ``_left_sum``; that changes no bit, for the
same reason: a running sum from 0.0 is never -0.0, and x + 0.0 is x for
every other x, inf and nan included.  Exact sums are exact in any order.

Comparisons.  ``_zero_mask``, ``_le_mask`` and ``_eq_mask`` alone compare
stored values: exactly in exact mode, within the absolute
``scalars.DEFAULT_TOLERANCE`` in float mode, for every module.  The one
exception is the float sum check of ``_check_stack``, which lets k pieces
miss their target by their rounding bound beyond that tolerance.

Partitions.  A ``Partition`` stores its pieces the same way, stacked on a
first axis over one denominator.  Every builder (trivial, halves, atomic,
dyadic, random convex, and ``default_partitions``, the family the oracles
try by default) writes that array directly, and trivial, atomic and random
convex also split the matrices of ``superop`` and ``counterexample``.
Many partitions make one stack (values, bounds, D): their pieces over one
denominator and the offsets of each partition's run of pieces
(``_partition_stack``; a single partition is a stack of one).  One check,
``_check_stack``, validates a stack: a positive target, pieces >= 0 (or,
signed, their moduli) that sum to it, by one ``np.add.reduceat`` in exact
mode and left to right per partition in float mode; ``Partition`` is that
check on a stack of one.  The oracles' default family (``_default_family``,
whose first four partitions are the refinement chain ``_chain``) and
``superop.verify_prop21``'s splits of T (``_signed_splits``) are built as
one stack, their random splits drawn in one loop (``_convex_split`` with a
``count``), and checked once, with no ``Partition`` built.  ``_disjoint``
tests each partition of a stack for pairwise disjoint pieces, and the
segment-sum kernel ``_segment_sums`` sums the images of each partition's
pieces in piece order: for those two families, for the partitions a
caller gives an oracle (stacked by ``_partition_sums``), and for the
lab's stack of partitions of e, which ``counterexample`` builds
directly; in float mode one padded ``_left_sum`` per batch of consecutive
partitions, a batch closed before its padded rows pass the kernel's chunk
bound.  The random convex splits draw their cuts as
``Random.randint(0, 16)`` does, from ``getrandbits`` directly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from random import Random
from typing import Iterator, Sequence

import numpy as np

from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    ScalarModeError,
    coerce_entries,
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

#: Most entries of a float sum's result that ``_left_sum`` forms with one
#: ``np.add.accumulate``, which pays per result entry, where one vector add
#: per term pays per term.  Timed with numpy 2.4.6 on one core, the two
#: crossed at 16 to 1024 entries as the terms went from 2 to 32, near 128
#: for the 4 to 16 terms of the verifiers' products.
_ACCUMULATE_ENTRIES = 128


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class EnumerationLimitError(RuntimeError):
    """A request would exceed a work or memory cap."""


def _chunk_size(entries_per_item: int) -> int:
    """Items of ``entries_per_item`` entries per kernel chunk (at least 1)."""
    return max(1, _KERNEL_CHUNK_ENTRIES // entries_per_item)


def _on_words(a, b, terms: int) -> tuple:
    """Integer arrays a and b as int64 when terms * max|a| * max|b| < 2^63,
    so that every entry and every sum of at most ``terms`` products a_i b_j
    fits in a machine word (Dumas, Giorgi and Pernet's test for word
    arithmetic); otherwise a and b as they are, Python-int object arrays.
    The one place the package makes int64 values: a missed bound would give
    a wrong exact value silently."""
    top_a, top_b = (int(np.abs(v).max(initial=0)) for v in (a, b))
    if max(top_a, top_b, terms * top_a * top_b) < 1 << 63:
        return a.astype(np.int64), b.astype(np.int64)
    return a, b


def _product_den(*dens):
    """A product's denominator: its factors' ``dens`` multiplied, None for floats."""
    return None if dens[0] is None else math.prod(dens)


def _check_operands(left, right, inner: bool = False):
    """The operand rule of a product of containers: one scalar mode
    (``ScalarModeError``) and, for a matrix product (``inner``), left's
    columns as many as right's rows (``DimensionMismatchError``)."""
    if inner and left.shape[-1] != right.shape[0]:
        raise DimensionMismatchError(f"cannot multiply {left.shape} by {right.shape}")
    if left.is_exact != right.is_exact:
        raise ScalarModeError(f"scalar mode mismatch: {left.mode} vs {right.mode}")


def _outer(left, right, paired: bool = False, terms: int = 0) -> tuple:
    """(values, D): every entry of ``left`` times every entry of ``right``,
    in one ``np.multiply.outer``, under the operand rule.

    A side is a container or a stack of them: a list of containers of one
    class, shape and mode, put over one denominator by ``_stack`` on a new
    first axis.  values keeps the operands' axes in order (left's stack,
    left's shape, right's stack, right's shape), so values[j, k, i, l] is
    entry k of the j-th left container times entry l of the i-th right one
    (for vectors); a side given as one container has no stack axis.
    ``paired`` takes two stacks of one length and multiplies only their
    i-th containers, in one broadcast product: values[i] is the outer
    product of the i-th pair, and no other pair of the stacks is formed.
    Exact products are Python ints or, with ``terms``, int64 where
    ``_on_words`` proves that every sum of ``terms`` of them fits a machine
    word, for a caller that compares them as arrays (``_Entrywise`` stores
    them as Python ints again)."""
    lefts = left if isinstance(left, list) else [left]
    rights = right if isinstance(right, list) else [right]
    for right_item in rights:
        _check_operands(lefts[0], right_item)
    for left_item in lefts[1:]:
        _check_operands(left_item, rights[0])
    a, D = _side(left)
    b, E = _side(right)
    if terms and D is not None:
        a, b = _on_words(a, b, terms)
    if not paired:
        return np.multiply.outer(a, b), _product_den(D, E)
    if len(a) != len(b):
        raise DimensionMismatchError(f"cannot pair {len(a)} with {len(b)} containers")
    spread_a = a.reshape(a.shape + (1,) * (b.ndim - 1))
    spread_b = b.reshape(b.shape[:1] + (1,) * (a.ndim - 1) + b.shape[1:])
    return spread_a * spread_b, _product_den(D, E)


def _side(side) -> tuple:
    """(values, D) of one side of ``_outer``: a container's, or a stack's
    over one denominator, its containers checked alike and stacked on a new
    first axis."""
    if not isinstance(side, list):
        return side._values, side._den
    for item in side[1:]:
        side[0]._check_compatible(item)
    if len(side) == 1:
        return side[0]._values[None], side[0]._den
    return _stack(side)


def _stack(items, join=np.stack) -> tuple:
    """Containers of one shape and mode (or partitions of one target) over
    their common denominator D, their values joined by ``join``: stacked on
    a new first axis, or concatenated along the pieces' axis.  Returns
    (array, D); D is None for floats."""
    if items[0]._den is None:
        return join([item._values for item in items]), None
    D = math.lcm(*(item._den for item in items))
    return join([item._values if item._den == D else item._values * (D // item._den)
                 for item in items]), D


def _left_sum(terms, factor=None, axis: int = -1):
    """The sums along ``axis`` (negative) of ``terms``, or of the broadcast
    product ``terms * factor``: exact, or left to right from 0.0 as the
    module docstring's float sums rule says."""
    if terms.dtype == object:
        return (terms if factor is None else terms * factor).sum(axis=axis)
    shape = terms.shape if factor is None else np.broadcast(terms, factor).shape
    count, tail = shape[axis], (slice(None),) * (-1 - axis)
    if 0 < math.prod(shape) <= count * _ACCUMULATE_ENTRIES:
        if factor is not None:
            terms = terms * factor
        return np.add.accumulate(terms, axis)[(..., -1, *tail)] + 0.0
    total = 0.0
    for k in range(count):
        term = terms[(..., k, *tail)]
        total = total + (term if factor is None else term * factor[(..., k, *tail)])
    return total


def _matmul(a, b):
    """a @ b over the last two axes (broadcast over the others), the
    products summed by ``_left_sum``."""
    if a.dtype == object:
        return a @ b
    return _left_sum(a[..., None], b[..., None, :, :], axis=-2)


def _all(mask) -> bool:
    """``mask.all()``, faster on the small arrays of this package."""
    return bool(np.count_nonzero(mask) == mask.size)


def _zero_mask(values, exact: bool):
    """Where values are zero."""
    return values == 0 if exact else np.abs(values) <= DEFAULT_TOLERANCE


def _le_mask(a, b, exact: bool):
    """Where a <= b; a = 0 tests for non-negative b."""
    return a <= b if exact else a <= b + DEFAULT_TOLERANCE


def _eq_mask(a, b, exact: bool):
    """Where a equals b."""
    return a == b if exact else np.abs(a - b) <= DEFAULT_TOLERANCE


# np.where keeps the first operand on ties, as Python's min and max do:
# np.maximum would turn max(-0.0, 0.0) into 0.0.

def _lesser(a, b):
    """The entrywise min(a, b) of two arrays over one denominator."""
    return np.where(b < a, b, a)


def _greater(a, b):
    """The entrywise max(a, b) of two arrays over one denominator."""
    return np.where(b > a, b, a)


def _scalar(value, den):
    """One stored value over ``den`` as a scalar: a ``Fraction``, or a float
    when den is None."""
    return float(value) if den is None else Fraction(int(value), den)


def _gap(x: tuple, y: tuple):
    """The largest entrywise |x - y| of two arrays of one shape, each given
    with its denominator as (values, D), as a scalar (a ``Fraction``, or a
    float when D is None), with no container built."""
    (a, D), (b, E) = x, y
    if D != E:  # scaled as Python ints, which machine words might not hold
        L = math.lcm(D, E)
        a, b = (np.asarray(v, dtype=object) * (L // d) for v, d in ((a, D), (b, E)))
        D = L
    diff = a - b
    return _scalar(np.abs(diff, out=diff).max(), D)


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
    def _of(cls, values, den, lowest: bool = False):
        """values / den (den None for floats) in lowest terms, unchecked;
        ``lowest`` says they are already (an image of a container's values
        that keeps their gcd with den, such as their moduli)."""
        obj = object.__new__(cls)
        obj._store(values, den, lowest)
        return obj

    def _store(self, values, den, lowest: bool = False):
        if den is not None and values.dtype != object:  # machine words
            values = values.astype(object)
        if den is not None and den != 1 and not lowest:
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

    def _json_entries(self) -> list:
        """The entries in row-major order for JSON: floats as they are, exact
        entries as "p" or "p/q" strings in lowest terms, one gcd each over a
        denominator D > 1 and none over D = 1."""
        D = self._den
        if D is None:
            return self._values.ravel().tolist()
        if D == 1:
            return [str(v) for v in self._values.flat]
        return [str(v // g) if (g := math.gcd(v, D)) == D else f"{v // g}/{D // g}"
                for v in self._values.flat]

    def _scalar(self, value):
        """One stored value as a scalar of the container's mode."""
        return _scalar(value, self._den)

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
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self._values.shape != other._values.shape:
            raise DimensionMismatchError(f"shape mismatch: {self.shape} vs {other.shape}")
        _check_operands(self, other)

    def _aligned(self, other) -> tuple:
        """(a, b, D): the values of self and other over one denominator."""
        self._check_compatible(other)
        a, b, D, E = self._values, other._values, self._den, other._den
        if D == E:
            return a, b, D
        L = math.lcm(D, E)
        return a * (L // D), b * (L // E), L

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b, D = self._aligned(other)
        return self._of(a + b, D)

    def __sub__(self, other):
        a, b, D = self._aligned(other)
        return self._of(a - b, D)

    def __neg__(self):
        return self._of(-self._values, self._den, lowest=True)

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

    def _min(self, other):
        a, b, D = self._aligned(other)
        return self._of(_lesser(a, b), D)

    def _max(self, other):
        a, b, D = self._aligned(other)
        return self._of(_greater(a, b), D)

    def __abs__(self):
        return self._of(np.abs(self._values), self._den, lowest=True)

    def pos_part(self):
        return self._of(np.where(self._values < 0, 0, self._values), self._den)

    def neg_part(self):
        a = -self._values
        return self._of(np.where(a < 0, 0, a), self._den)

    # -- order ------------------------------------------------------------

    def le(self, other) -> bool:
        a, b, D = self._aligned(other)
        return _all(_le_mask(a, b, D is not None))

    def eq(self, other) -> bool:
        a, b, D = self._aligned(other)
        return _all(_eq_mask(a, b, D is not None))

    def is_positive(self) -> bool:
        return _all(_le_mask(0, self._values, self.is_exact))

    def to_float(self):
        """The same element in float mode (no-op in float mode)."""
        if not self.is_exact:
            return self
        return self._of((self._values / self._den).astype(np.float64), None)

    # -- splitters (the partitions' pieces, stacked) ---------------------------

    def _atoms(self) -> tuple:
        """One piece per nonzero entry, holding that entry alone, stacked
        over the denominator: (array, D); an all-zero element gives the one
        piece self, so downstream formulas stay total."""
        nonzero = np.flatnonzero(~_zero_mask(self._values, self.is_exact))
        if not len(nonzero):
            return self._values[None], self._den
        rows = np.zeros((len(nonzero), self._values.size), dtype=self._values.dtype)
        rows[np.arange(len(nonzero)), nonzero] = self._values.flat[nonzero]
        return rows.reshape((-1,) + self.shape), self._den

    def _convex_split(
        self, parts: int, rng: Random, signed: bool = False, count: int = 1
    ) -> tuple:
        """``count`` splits in a row, each of every entry over ``parts``
        pieces with random convex weights on the grid k/SPLIT_DENOMINATOR
        (exact in rational mode), each share with a random sign when
        ``signed``, so the moduli of a split's pieces sum to a positive
        self.  Returns the splits as one stack (values, bounds, D), each
        split's exactly-zero pieces dropped, or the one piece self if none
        is left."""
        # Per split, then per entry, in the order drawn: parts - 1 cuts in
        # [0, 16], whose sorted gaps are the integer weights c, then (when
        # signed) one rng.random() per share for its sign.  Each cut is
        # rng.randint(0, 16) as CPython draws it, without its call chain:
        # getrandbits(5), drawn again while above 16.  The share c/16 of an
        # entry a is a * c over 16 D, or a * (c / 16) in float mode, where
        # a * -(c / 16) is -(a * (c / 16)) bit for bit (a negated zero share
        # stays -0.0, which an integer grid scaled afterwards would lose).
        unit = 1 if self.is_exact else 1 / SPLIT_DENOMINATOR
        top = SPLIT_DENOMINATOR
        bits = (top + 1).bit_length()
        getrandbits, random = rng.getrandbits, rng.random
        shares = []
        share_of, draws = shares.append, range(parts - 1)
        for _ in range(count * self._values.size):
            cuts = []
            for _ in draws:
                cut = getrandbits(bits)
                while cut > top:
                    cut = getrandbits(bits)
                cuts.append(cut)
            cuts.sort()
            cuts.append(top)
            low = 0
            for cut in cuts:
                share = (cut - low) * unit
                share_of(share if not signed or random() < 0.5 else -share)
                low = cut
        grid = np.array(shares, dtype=self._values.dtype).reshape(count, -1, parts)
        columns = (self._values.reshape(1, -1, 1) * grid).transpose(0, 2, 1)
        kept = (columns != 0).any(axis=2)  # (split, piece)
        sizes = kept.sum(axis=1)
        den = self._den and self._den * SPLIT_DENOMINATOR
        if not sizes.all():
            # A split keeps no piece only of an all-zero exact self, where
            # every split is empty and self stays over D, or of float
            # entries so small that every share underflows to zero.
            empty = sizes == 0
            columns[empty, 0] = self._values.ravel()
            kept[empty, 0] = True
            sizes[empty] = 1
            den = self._den
        bounds = [0, *accumulate(sizes.tolist())]
        return columns[kept].reshape((-1,) + self.shape), bounds, den


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
    def unit(cls, dim: int, index: int) -> "LatticeVector":
        if not 0 <= index < dim:
            raise IndexError(f"unit index {index} out of range for dim {dim}")
        values, den = cls._constant((dim,), 0, EXACT)
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
        return {"dim": self.dim, "entries": self._json_entries()}

    def support(self) -> tuple:
        """Indices of the nonzero entries (see ``_zero_mask``), ascending."""
        return tuple(np.flatnonzero(~_zero_mask(self._values, self.is_exact)).tolist())

    def as_floats(self) -> tuple:
        return tuple(self.to_float()._values.tolist())

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.entries)
        return f"LatticeVector([{inner}])"


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


class Partition:
    """Finite family of pieces of a positive target, stacked.

    The pieces are one array over one denominator, the first axis indexing
    the piece: Python-int numerators over D (exact mode) or float64 values
    with D None (float mode).  The target is positive; a positive partition
    has pieces >= 0 that sum to it, a signed one (``signed=True``, such as
    the splits sum_j |T_j| = T of ``superop.verify_prop21``) pieces whose
    moduli sum to it.  Either is checked by ``_check_stack`` on a stack of
    one, so the builders check nothing themselves.
    """

    __slots__ = ("target", "signed", "_values", "_den")

    def __init__(self, target: _Entrywise, pieces, den=None, signed: bool = False):
        """``pieces`` is a sequence of containers of the target's class and
        shape; the builders pass their values already stacked instead, an
        array over the denominator ``den``."""
        if not isinstance(pieces, np.ndarray):
            pieces = tuple(pieces)
            for piece in pieces:
                target._check_compatible(piece)
            pieces, den = _stack(pieces) if pieces else (np.empty(0), None)
        _check_stack(target, (pieces, [0, len(pieces)], den), 0 if signed else None)
        for name, value in zip(self.__slots__, (target, signed, pieces, den)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other):
        if type(other) is not Partition:
            return NotImplemented
        same_shape = self.signed == other.signed and len(self) == len(other)
        if not (same_shape and self.target == other.target):
            return False
        if self._den is None:
            return _all(self._values == other._values)
        return _all(self._values * other._den == other._values * self._den)


def _check_stack(target: _Entrywise, stack: tuple, positive=None) -> tuple:
    """The one check of partitions: each partition of ``stack`` (values,
    bounds, D) splits the positive ``target`` into pieces of its shape.
    The first ``positive`` partitions (all of them when None) have pieces
    >= 0 that sum to it, the others signed pieces whose moduli sum to it.
    The sums are exact (one ``np.add.reduceat``), or in float mode left to
    right per partition, within ``DEFAULT_TOLERANCE`` plus the rounding
    bound gamma_k sum_i |p_i| of k pieces p_i, entry by entry.  Raises
    ``ValueError`` on the first check that fails; returns the stack."""
    values, bounds, D = stack
    if (not len(values) or values.shape[1:] != target.shape
            or any(start >= stop for start, stop in zip(bounds, bounds[1:]))):
        raise ValueError("a partition needs pieces of its target's shape")
    cut = bounds[-1 if positive is None else positive]  # the first signed piece
    # Exact positive pieces that sum to the target prove it positive; float
    # pieces within DEFAULT_TOLERANCE of zero, or signed pieces, do not.
    if (cut < len(values) or D is None) and not target.is_positive():
        raise ValueError("partitions target a positive element")
    if not _all(_le_mask(0, values[:cut], D is not None)):
        raise ValueError("partition pieces must be positive")
    moduli = values if cut == len(values) else np.concatenate(
        [values[:cut], np.abs(values[cut:])]
    )
    if D is None:
        # np.add.accumulate adds left to right, as Python does.  A sum of k
        # float pieces may miss the target by their own rounding and the
        # sum's, at most gamma_k = k u / (1 - k u) times the sum of their
        # moduli, u = 2^-53 (Higham, Accuracy and Stability of Numerical
        # Algorithms, 3.5); so it may miss by that beyond DEFAULT_TOLERANCE,
        # but never by an infinite amount.
        sums = [np.add.accumulate(moduli[a:b])[-1] for a, b in zip(bounds, bounds[1:])]
        k_u = np.diff(bounds).reshape((-1,) + (1,) * target._values.ndim) * 2.0**-53
        spread = np.add.reduceat(np.abs(moduli), bounds[:-1], axis=0)
        miss = np.abs(np.array(sums) - target._values)
        adds_up = np.isfinite(miss) & (miss <= DEFAULT_TOLERANCE + k_u / (1 - k_u) * spread)
    else:
        adds_up = np.add.reduceat(moduli, bounds[:-1], axis=0) * target._den == (
            target._values * D
        )
    if not _all(adds_up):
        wrong = np.flatnonzero(~adds_up.reshape(len(bounds) - 1, -1).all(axis=1))[0]
        raise ValueError(
            "moduli of the pieces do not sum to the target"
            if bounds[wrong] >= cut else "partition pieces do not sum to the target"
        )
    return stack


def _join(stacks) -> tuple:
    """Stacks (values, bounds, D) of partitions of one target as one stack,
    in order, over the lcm of their denominators (None for floats)."""
    if stacks[0][2] is None:
        values, D = np.concatenate([v for v, _, _ in stacks]), None
    else:
        D = math.lcm(*(d for _, _, d in stacks))
        values = np.concatenate([v if d == D else v * (D // d) for v, _, d in stacks])
    bounds = [0]
    for _, run, _ in stacks:
        bounds += [bounds[-1] + b for b in run[1:]]
    return values, bounds, D


def _one(values, den) -> tuple:
    """The pieces ``values`` over ``den`` of one partition, as a stack of one."""
    return values, [0, len(values)], den


def _partition_stack(partitions: Sequence[Partition]) -> tuple:
    """Partitions as one stack (values, bounds, D): the pieces of all of
    them over one denominator D (None for floats), first axis the piece,
    partition p owning the pieces bounds[p] to bounds[p + 1] - 1.  A
    single partition is a stack of one."""
    values, D = _stack(partitions, np.concatenate)
    return values, [0, *accumulate(len(p) for p in partitions)], D


def _disjoint(stack: tuple):
    """Per partition of a stack, whether its pieces are pairwise disjoint:
    at every coordinate at most one piece is nonzero (beyond
    DEFAULT_TOLERANCE in float mode)."""
    values, bounds, D = stack
    nonzero = ~_zero_mask(values, D is not None)
    return (np.add.reduceat(nonzero, bounds[:-1], axis=0) <= 1).all(
        axis=tuple(range(1, values.ndim))
    )


def _partition_sums(
    partitions: Sequence[Partition], image, image_entries: int
) -> tuple:
    """For each of the partitions, the sum of its pieces' images in piece
    order, as every partition oracle takes them: (sums, D), the
    ``_segment_sums`` of the partitions' stack and its denominator."""
    stack = _partition_stack(partitions)
    return _segment_sums(stack, image, image_entries), stack[2]


def _segment_sums(stack: tuple, image, image_entries: int):
    """For each partition of a stack (values, bounds, D), the sum of its
    pieces' images in piece order.

    ``image`` maps a run of pieces (first axis: the piece) to their images,
    at most ``_chunk_size(image_entries)`` pieces at a time, so the
    intermediates stay bounded however many pieces there are.  sums[p] is
    the sum for partition p: exact sums by ``np.add.reduceat``, float sums
    (D None) by one padded ``_left_sum`` per batch of a chunk's partitions,
    each row that partition's sum so far and its images in the chunk, so
    that they match adding the images one at a time bit for bit, however
    the pieces fall into chunks and batches.
    """
    values, bounds, D = stack
    step = _chunk_size(image_entries)
    sums = None
    for start in range(0, bounds[-1], step):
        stop = min(start + step, bounds[-1])
        terms = image(values[start:stop])
        if sums is None:
            sums = np.zeros((len(bounds) - 1,) + terms.shape[1:], dtype=terms.dtype)
        # The partitions lo..hi - 1 have pieces in this chunk, from firsts on.
        lo, hi = bisect_right(bounds, start) - 1, bisect_left(bounds, stop)
        firsts = [max(b, start) - start for b in bounds[lo:hi]]
        if D is not None:
            sums[lo:hi] += np.add.reduceat(terms, firsts, axis=0)
            continue
        # Batches of consecutive partitions, one _left_sum each: a row per
        # partition of its pieces' images in this chunk, padded with +0.0 to
        # the batch's longest run, its sum so far s added into the first
        # image (s + t is 0.0 + s + t, as s is never -0.0), so that a row is
        # no longer than its run.  A batch closes before it would pass
        # ``step`` images; the chunk holds at most ``step`` pieces, so one
        # partition always fits.
        runs = np.diff(firsts, append=stop - start)
        ends = [*firsts[1:], stop - start]
        p = 0
        while p < len(runs):
            widths = np.maximum.accumulate(runs[p:])
            sizes = widths * np.arange(1, len(widths) + 1)
            q = p + int(np.searchsorted(sizes, step, "right"))
            rows = np.zeros((q - p, widths[q - p - 1]) + terms.shape[1:], terms.dtype)
            live = np.arange(rows.shape[1]) < runs[p:q, None]
            rows[live] = terms[firsts[p]:ends[q - 1]]
            rows[:, 0] += sums[lo + p:lo + q]
            sums[lo + p:lo + q] = _left_sum(rows, axis=1 - rows.ndim)
            p = q
    return sums


def _entrywise_best(rows, den, better) -> LatticeVector:
    """The entrywise best of ``rows`` over ``den``: an entry moves to a later
    row where ``better`` (np.greater for a sup, np.less for an inf) holds,
    so ties keep the earlier row, as Python's max and min do."""
    best = rows[0]
    for row in rows[1:]:
        best = np.where(better(row, best), row, best)
    return LatticeVector._of(best, den)


def _trivial(w: _Entrywise) -> tuple:
    """(pieces, D) of the trivial partition: the one piece w."""
    return w._values[None], w._den


def trivial_partition(w: _Entrywise) -> Partition:
    """The one piece w itself, of a vector or a matrix."""
    return Partition(w, *_trivial(w))


def atomic_partition(w: _Entrywise) -> Partition:
    """Split a positive vector or matrix w into its atoms, one piece per
    nonzero entry holding that entry alone.

    The zero element yields a single zero piece so downstream formulas stay
    total.
    """
    return Partition(w, *w._atoms())


def _set_partitions(items: tuple) -> Iterator[list]:
    """All set partitions of ``items``.

    Canonical recursive order: the first item anchors the first block.
    """
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for sub in _set_partitions(tail):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]
        yield sub + [[head]]


def _halves(w: LatticeVector) -> tuple:
    """(pieces, D): w restricted to the lower and to the upper half of its
    support, or the one piece w when the support has fewer than 2 entries."""
    support = w.support()
    if len(support) < 2:
        return _trivial(w)
    cut = len(support) // 2
    values = w._values
    rows = np.zeros((2,) + values.shape, dtype=values.dtype)
    for row, block in zip(rows, (list(support[:cut]), list(support[cut:]))):
        row[block] = values[block]
    return rows, w._den


def halves_partition(w: LatticeVector) -> Partition:
    """Split w across the lower/upper half of its support (refines trivial)."""
    return Partition(w, *_halves(w))


def _dyadic(atoms, den) -> tuple:
    """(pieces, D): each of the atoms (over ``den``) as two halves."""
    pieces = np.repeat(atoms, 2, axis=0)
    return (0.5 * pieces, None) if den is None else (pieces, den * 2)


def dyadic_partition(w: LatticeVector) -> Partition:
    """Refine the atomic partition by halving each atom."""
    return Partition(w, *_dyadic(*w._atoms()))


def random_convex_partition(
    w: _Entrywise, parts: int, rng: Random, signed: bool = False
) -> Partition:
    """Split a positive vector or matrix w into ``parts`` pieces with
    per-entry random convex weights on the grid k/SPLIT_DENOMINATOR (exact
    in rational mode): positive pieces that sum to w, or, when ``signed``,
    pieces with random signs whose moduli sum to w."""
    values, _, den = w._convex_split(parts, rng, signed)
    return Partition(w, values, den, signed)


def _chain(w: LatticeVector) -> list:
    """The refinement chain of w as stacks of one, unchecked: trivial,
    halves, atomic, dyadic."""
    atoms = w._atoms()
    return [_one(*_trivial(w)), _one(*_halves(w)), _one(*atoms), _one(*_dyadic(*atoms))]


def _default_family(w: LatticeVector) -> list:
    """``default_partitions(w)`` as stacks, unchecked: the refinement chain,
    then 5 random convex splits into 3 pieces drawn from one ``Random(0)``."""
    return [*_chain(w), w._convex_split(3, Random(0), count=5)]


def _signed_splits(T: _Entrywise, rng: Random) -> tuple:
    """``superop.verify_prop21``'s splits of a positive T as one stack,
    checked once: the atomic and the trivial partitions, then 5 signed
    random convex splits into 3 pieces drawn from ``rng``."""
    splits = T._convex_split(3, rng, signed=True, count=5)
    stack = _join([_one(*T._atoms()), _one(*_trivial(T)), splits])
    return _check_stack(T, stack, positive=2)


def refinement_chain(w: LatticeVector) -> list:
    """A chain of partitions, each refining the previous one.

    Along such a chain the Riesz-Kantorovich partition sums are monotone
    nondecreasing, which makes the directed-supremum structure observable.
    """
    return [
        trivial_partition(w),
        halves_partition(w),
        atomic_partition(w),
        dyadic_partition(w),
    ]


def default_partitions(w: LatticeVector) -> list:
    """The partition oracles' default family: the refinement chain of w,
    then 5 seeded random convex splits into 3 pieces (one ``Random(0)``)."""
    rng = Random(0)
    return refinement_chain(w) + [random_convex_partition(w, 3, rng) for _ in range(5)]
