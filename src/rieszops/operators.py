"""Regular operators between coordinate Riesz spaces.

A regular operator here is a matrix acting on column vectors; between
finite-dimensional spaces every operator is regular and order continuous,
and the lattice operations admit entrywise closed forms, which
``RegularOperator`` shares with ``LatticeVector`` through one base class:

* ``|A|``      -- entrywise absolute value,
* ``(S v T)`` -- entrywise max,  ``(S ^ T)`` -- entrywise min.

The point of this module is not to trust those closed forms but to check
them against the defining Riesz-Kantorovich expressions, which quantify
over positive partitions of a positive test vector:

* ``|A| w   = sup { sum_i |A w_i| : w_i >= 0, sum_i w_i = w }``
* ``(S^T) w = inf { sum_i min(S w_i, T w_i) : w_i >= 0, sum_i w_i = w }``

``modulus_oracle`` and ``meet_oracle`` evaluate those partition sums over
the partitions they are given (by default ``lattice.default_partitions``:
the refinement chain trivial / halves / atomic / dyadic, then seeded random
convex splits) and report the best bound seen.  In the coordinate model the
atomic partition attains the supremum/infimum exactly, which the
test-suite pins down.

``OperatorPartition`` models the operator-side decompositions
``sum_j |T_j| = T`` used by the superoperator formulas.

``RegularOperator.apply`` and ``compose`` share one matrix product: row dot
products against the columns of the right factor.  Exact operands run it
on scaled integers, over the two factors' common denominators, with one
``Fraction`` per output entry; float operands sum the same products left
to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from random import Random
from typing import Optional, Sequence

from .lattice import (
    DimensionMismatchError,
    LatticeVector,
    Partition,
    _Entrywise,
    default_partitions,
    refinement_chain,
)
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    ScalarModeError,
    coerce_entries,
    one_of,
    scalar_to_json,
    scaled_integers,
    zero_of,
)


class RegularOperator(_Entrywise):
    """Matrix operator between coordinate Riesz spaces (rows x cols).

    Entries are stored row-major as a flat tuple, all exact rationals or
    all floats (mixed input is coerced to float).  The entrywise ring,
    lattice and order operations come from the shared base in ``lattice``.
    """

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows <= 0 or cols <= 0:
            raise ValueError("operator dimensions must be positive")
        coerced, _ = coerce_entries(entries)
        if len(coerced) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} operator, "
                f"got {len(coerced)}"
            )
        object.__setattr__(self, "shape", (rows, cols))
        object.__setattr__(self, "entries", coerced)

    # -- structure ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def entry(self, i: int, j: int):
        return self.entries[i * self.shape[1] + j]

    def row(self, i: int) -> LatticeVector:
        return LatticeVector._trusted(
            (self.cols,), self.entries[i * self.cols : (i + 1) * self.cols]
        )

    def column(self, j: int) -> LatticeVector:
        return LatticeVector._trusted(
            (self.rows,), [self.entry(i, j) for i in range(self.rows)]
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int, mode: str = EXACT) -> "RegularOperator":
        return cls.diagonal(LatticeVector.ones(n, mode))

    @classmethod
    def zero(cls, rows: int, cols: int, mode: str = EXACT) -> "RegularOperator":
        return cls._trusted((rows, cols), [zero_of(mode)] * (rows * cols))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RegularOperator":
        rows = [list(r) for r in rows]
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = [x for r in rows for x in r]
        return cls(len(rows), ncols, flat)

    @classmethod
    def diagonal(cls, diag: LatticeVector) -> "RegularOperator":
        n = diag.dim
        zero = zero_of(diag.mode)
        return cls._trusted(
            (n, n),
            [diag.entries[i] if i == j else zero for i in range(n) for j in range(n)],
        )

    @classmethod
    def matrix_unit(
        cls, rows: int, cols: int, i: int, j: int, mode: str = EXACT
    ) -> "RegularOperator":
        """E_ij: 1 in entry (i, j), zero elsewhere."""
        entries = [zero_of(mode)] * (rows * cols)
        entries[i * cols + j] = one_of(mode)
        return cls._trusted((rows, cols), entries)

    @classmethod
    def from_json(cls, data: dict) -> "RegularOperator":
        return cls(int(data["rows"]), int(data["cols"]), data["entries"])

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [scalar_to_json(x) for x in self.entries],
        }

    def to_lists(self) -> list:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols])
                for i in range(self.rows)]

    def as_floats(self) -> list:
        return [[float(self.entry(i, j)) for j in range(self.cols)]
                for i in range(self.rows)]

    # -- algebra ----------------------------------------------------------

    def _product(self, right: Sequence, width: int) -> list:
        """Row-major entries of self @ R for the self.cols x width matrix R
        with row-major entries ``right`` (same scalar mode): row dot column,
        summed left to right from int 0; exact entries as scaled integers
        over the two common denominators, with one ``Fraction`` per entry."""
        if self.is_exact:
            A, D_A = scaled_integers(self.entries)
            R, D_R = scaled_integers(right)
        else:
            A, R = self.entries, right
        c = self.cols
        columns = [R[j::width] for j in range(width)]
        sums = [
            sum(map(mul, A[i : i + c], column))
            for i in range(0, len(A), c)
            for column in columns
        ]
        if not self.is_exact:
            return sums
        D = D_A * D_R
        return [Fraction(s, D) for s in sums]

    def apply(self, v: LatticeVector) -> LatticeVector:
        if v.dim != self.cols:
            raise DimensionMismatchError(
                f"operator expects dim {self.cols}, vector has dim {v.dim}"
            )
        if v.mode != self.mode:
            raise ScalarModeError(
                f"scalar mode mismatch: operator {self.mode}, vector {v.mode}"
            )
        return LatticeVector._trusted((self.rows,), self._product(v.entries, 1))

    def compose(self, other: "RegularOperator") -> "RegularOperator":
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot compose {self.shape} with {other.shape}"
            )
        if self.mode != other.mode:
            raise ScalarModeError(
                f"scalar mode mismatch: {self.mode} vs {other.mode}"
            )
        return self._trusted(
            (self.rows, other.cols), self._product(other.entries, other.cols)
        )

    def __matmul__(self, other: "RegularOperator") -> "RegularOperator":
        return self.compose(other)

    def transpose(self) -> "RegularOperator":
        return self._trusted(
            (self.cols, self.rows),
            [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    # -- lattice closed forms ---------------------------------------------

    def modulus_closed_form(self) -> "RegularOperator":
        """|A|: entrywise absolute value (coordinate-model closed form)."""
        return abs(self)

    join_closed_form = _Entrywise._max
    meet_closed_form = _Entrywise._min

    def __repr__(self) -> str:
        return f"RegularOperator({self.rows}x{self.cols}, {self.to_lists()!r})"


def rank_one(functional: LatticeVector, value: LatticeVector) -> RegularOperator:
    """The operator  x' (x) y : v |-> <x', v> y  (matrix y x'^T)."""
    if functional.mode != value.mode:
        raise ScalarModeError(
            f"scalar mode mismatch: {functional.mode} vs {value.mode}"
        )
    entries = [
        value.entries[i] * functional.entries[j]
        for i in range(value.dim)
        for j in range(functional.dim)
    ]
    return RegularOperator._trusted((value.dim, functional.dim), entries)


# ---------------------------------------------------------------------------
# partition oracles for |A| and S ^ T
# ---------------------------------------------------------------------------


def partition_modulus_sum(A: RegularOperator, partition: Partition) -> LatticeVector:
    """sum_i |A w_i| for one positive partition of w."""
    total = LatticeVector.zero(A.rows, A.mode)
    for piece in partition.pieces:
        total = total + abs(A.apply(piece))
    return total


def partition_meet_sum(
    S: RegularOperator, T: RegularOperator, partition: Partition
) -> LatticeVector:
    """sum_i min(S w_i, T w_i) for one positive partition of w."""
    S._check_compatible(T)
    total = LatticeVector.zero(S.rows, S.mode)
    for piece in partition.pieces:
        total = total + S.apply(piece).meet(T.apply(piece))
    return total


@dataclass(frozen=True)
class OracleResult:
    """Best partition bound found for a Riesz-Kantorovich expression.

    ``value`` is the running sup (modulus) or inf (meet) over all partitions
    tried; ``best_partition`` is the first partition attaining it;
    ``closed_form`` is the entrywise prediction at the same test vector;
    ``attained`` reports componentwise equality of the two at ``tol``.
    """

    value: LatticeVector
    best_partition: Partition
    closed_form: LatticeVector
    attained: bool
    partitions_tried: int


def _best_over_partitions(
    w: LatticeVector,
    partitions: Optional[Sequence[Partition]],
    evaluate,
    improve,
    closed: LatticeVector,
    tol: float,
) -> OracleResult:
    """Run a partition oracle: fold ``improve`` (join or meet) over the
    values ``evaluate`` gives on each partition of w, first attainer kept."""
    if partitions is None:
        partitions = default_partitions(w)
    best: Optional[LatticeVector] = None
    best_partition: Optional[Partition] = None
    tried = 0
    for partition in partitions:
        if partition.target != w:
            raise ValueError("a partition does not split the test vector w")
        tried += 1
        value = evaluate(partition)
        if best is None:
            best, best_partition = value, partition
            continue
        candidate = improve(best, value)
        if not candidate.eq(best, tol):
            best_partition = partition
        best = candidate
    if best is None:
        raise ValueError("no partitions to try")
    return OracleResult(
        value=best,
        best_partition=best_partition,
        closed_form=closed,
        attained=best.eq(closed, tol),
        partitions_tried=tried,
    )


def modulus_oracle(
    A: RegularOperator,
    w: LatticeVector,
    partitions: Optional[Sequence[Partition]] = None,
    tol: float = DEFAULT_TOLERANCE,
) -> OracleResult:
    """Evaluate sup { sum_i |A w_i| } over the given partitions of w
    (default: ``lattice.default_partitions(w)``).

    The supremum is directed (refinements only increase the sum) and in the
    coordinate model it is attained by the atomic partition, where the sum
    collapses to (|A| w).
    """
    if not w.is_positive():
        raise ValueError("the modulus oracle needs a positive test vector")
    if w.dim != A.cols:
        raise DimensionMismatchError(
            f"operator expects dim {A.cols}, vector has dim {w.dim}"
        )
    return _best_over_partitions(
        w,
        partitions,
        lambda partition: partition_modulus_sum(A, partition),
        LatticeVector.join,
        A.modulus_closed_form().apply(w),
        tol,
    )


def meet_oracle(
    S: RegularOperator,
    T: RegularOperator,
    w: LatticeVector,
    partitions: Optional[Sequence[Partition]] = None,
    tol: float = DEFAULT_TOLERANCE,
) -> OracleResult:
    """Evaluate inf { sum_i min(S w_i, T w_i) } over the given partitions
    of w (default: ``lattice.default_partitions(w)``)."""
    if not w.is_positive():
        raise ValueError("the meet oracle needs a positive test vector")
    if w.dim != S.cols:
        raise DimensionMismatchError(
            f"operator expects dim {S.cols}, vector has dim {w.dim}"
        )
    S._check_compatible(T)
    return _best_over_partitions(
        w,
        partitions,
        lambda partition: partition_meet_sum(S, T, partition),
        LatticeVector.meet,
        S.meet_closed_form(T).apply(w),
        tol,
    )


def refinement_sums(A: RegularOperator, w: LatticeVector) -> list:
    """Partition-modulus sums along a refinement chain of w (monotone up)."""
    return [partition_modulus_sum(A, p) for p in refinement_chain(w)]


# ---------------------------------------------------------------------------
# operator partitions  sum_j |T_j| = T
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorPartition:
    """Family (T_j) with sum_j |T_j| = T for a positive target T."""

    target: RegularOperator
    pieces: tuple

    def __init__(self, target: RegularOperator, pieces: Sequence[RegularOperator]):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("an operator partition needs at least one piece")
        if not target.is_positive():
            raise ValueError("operator partitions target a positive operator")
        total = sum((abs(p) for p in pieces[1:]), abs(pieces[0]))
        if not total.eq(target):
            raise ValueError("moduli of the pieces do not sum to the target")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "pieces", pieces)

    def __len__(self) -> int:
        return len(self.pieces)


def trivial_operator_partition(T: RegularOperator) -> OperatorPartition:
    return OperatorPartition(T, (T,))


def atomic_operator_partition(T: RegularOperator) -> OperatorPartition:
    """Split T >= 0 into matrix-unit pieces t_ij E_ij (nonzero entries only)."""
    return OperatorPartition(T, T._atoms())


def random_operator_partition(
    T: RegularOperator, parts: int, rng: Random, signed: bool = True
) -> OperatorPartition:
    """Split each entry of T >= 0 across ``parts`` pieces with random convex
    weights (grid 1/16, exact in rational mode) and, when ``signed``, random
    signs; unsigned splits give positive decompositions sum T_i = T."""
    return OperatorPartition(T, T._convex_split(parts, rng, signed))
