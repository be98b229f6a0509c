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

``RegularOperator.apply`` and ``compose`` share one matrix product on the
stored arrays (``lattice._matmul``).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

import numpy as np

from .lattice import (
    DimensionMismatchError,
    LatticeVector,
    Partition,
    _Entrywise,
    _matmul,
    default_partitions,
    refinement_chain,
)
from .scalars import DEFAULT_TOLERANCE, EXACT, ScalarModeError, scalar_to_json


class RegularOperator(_Entrywise):
    """Matrix operator between coordinate Riesz spaces (rows x cols).

    Entries are all exact rationals or all floats (mixed input is coerced
    to float), stored as a rows x cols array.  The entrywise ring, lattice
    and order operations come from the shared base in ``lattice``.
    """

    __slots__ = ()

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows <= 0 or cols <= 0:
            raise ValueError("operator dimensions must be positive")
        values, den = self._parse(entries)
        if values.size != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} operator, "
                f"got {values.size}"
            )
        self._store(values.reshape(rows, cols), den)

    # -- structure ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def row(self, i: int) -> LatticeVector:
        return LatticeVector._of(self._values[i], self._den)

    def column(self, j: int) -> LatticeVector:
        return LatticeVector._of(self._values[:, j], self._den)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int, mode: str = EXACT) -> "RegularOperator":
        return cls.diagonal(LatticeVector.ones(n, mode))

    @classmethod
    def zero(cls, rows: int, cols: int, mode: str = EXACT) -> "RegularOperator":
        return cls._of(*cls._constant((rows, cols), 0, mode))

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
        return cls._of(np.diag(diag._values), diag._den)

    @classmethod
    def matrix_unit(
        cls, rows: int, cols: int, i: int, j: int, mode: str = EXACT
    ) -> "RegularOperator":
        """E_ij: 1 in entry (i, j), zero elsewhere."""
        values, den = cls._constant((rows, cols), 0, mode)
        values[i, j] = 1
        return cls._of(values, den)

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
        return np.array(self.entries, dtype=object).reshape(self.shape).tolist()

    def as_floats(self) -> list:
        return self.to_float()._values.tolist()

    # -- algebra ----------------------------------------------------------

    def _product(self, right: _Entrywise):
        """self @ R for a vector or matrix R of self.cols rows (same scalar
        mode), as an instance of R's class."""
        b = right._values
        product = _matmul(self._values, b.reshape(len(b), -1)).reshape(
            (self.rows,) + b.shape[1:]
        )
        return right._of(product, self._den and self._den * right._den)

    def apply(self, v: LatticeVector) -> LatticeVector:
        if v.dim != self.cols:
            raise DimensionMismatchError(
                f"operator expects dim {self.cols}, vector has dim {v.dim}"
            )
        if v.mode != self.mode:
            raise ScalarModeError(
                f"scalar mode mismatch: operator {self.mode}, vector {v.mode}"
            )
        return self._product(v)

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
        return self._product(other)

    def __matmul__(self, other: "RegularOperator") -> "RegularOperator":
        return self.compose(other)

    def transpose(self) -> "RegularOperator":
        return self._of(self._values.T, self._den)

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
    product = np.multiply.outer(value._values, functional._values)
    return RegularOperator._of(product, value._den and value._den * functional._den)


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
