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
test-suite pins down.  Both, and ``refinement_sums``, run as one
segment-sum kernel (``lattice._segment_sums``) on the stacked pieces of
all the partitions: one matrix product for every image, then ``abs`` or
the minimum, then each partition's sum in piece order.  The default family
and the refinement chain are built as one stack and checked once by
``lattice._check_stack``, with no ``Partition`` built; partitions a caller
passes in are stacked by ``lattice._partition_sums``.

The operator-side decompositions ``sum_j |T_j| = T`` used by the
superoperator formulas are partitions of T, built by the same trivial,
atomic and seeded random convex splitters of ``lattice`` that split
vectors; ``superop.verify_prop21`` takes them as one checked stack.

``RegularOperator.apply`` and ``compose`` are one product on the stored
arrays (``lattice._matmul``), checked by ``lattice``'s operand rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .lattice import (
    LatticeVector,
    Partition,
    _chain,
    _check_operands,
    _check_stack,
    _default_family,
    _Entrywise,
    _entrywise_best,
    _join,
    _matmul,
    _outer,
    _partition_sums,
    _product_den,
    _segment_sums,
    default_partitions,
)


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

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RegularOperator":
        return cls.diagonal(LatticeVector.ones(n))

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
    def from_json(cls, data: dict) -> "RegularOperator":
        return cls(int(data["rows"]), int(data["cols"]), data["entries"])

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": self._json_entries(),
        }

    def to_lists(self) -> list:
        return [[self._scalar(v) for v in row] for row in self._values]

    def as_floats(self) -> list:
        return self.to_float()._values.tolist()

    # -- algebra ----------------------------------------------------------

    def _product(self, right: _Entrywise):
        """self @ R, as an instance of R's class, for a vector (``apply``) or
        a matrix R (``compose``) that passes ``lattice``'s operand rule."""
        _check_operands(self, right, inner=True)
        b = right._values
        product = _matmul(self._values, b.reshape(len(b), -1)).reshape(
            (self.rows,) + b.shape[1:]
        )
        return right._of(product, _product_den(self._den, right._den))

    apply = compose = _product

    def __matmul__(self, other: "RegularOperator") -> "RegularOperator":
        return self.compose(other)

    def transpose(self) -> "RegularOperator":
        return self._of(self._values.T, self._den, lowest=True)

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
    return RegularOperator._of(*_outer(value, functional))


# ---------------------------------------------------------------------------
# partition oracles for |A| and S ^ T
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Best partition bound found for a Riesz-Kantorovich expression.

    ``value`` is the running sup (modulus) or inf (meet) over all partitions
    tried; ``closed_form`` is the entrywise prediction at the same test
    vector; ``attained`` reports componentwise equality of the two (within
    ``DEFAULT_TOLERANCE`` in float mode).
    """

    value: LatticeVector
    closed_form: LatticeVector
    attained: bool
    partitions_tried: int


def _check_test_vector(w: LatticeVector, oracle: str):
    if not w.is_positive():
        raise ValueError(f"the {oracle} needs a positive test vector")


def _modulus_images(A: RegularOperator):
    """The images |A w_i| of a run of stacked pieces w_i, one per row."""
    return lambda W: np.abs(_matmul(A._values, W.T).T)


#: What the partition oracles try: partitions of w, or a function that
#: builds them from w (None stands for ``default_partitions``).
_Partitions = Optional[
    Union[Sequence[Partition], Callable[[LatticeVector], Sequence[Partition]]]
]


def _best_over_partitions(
    w: LatticeVector,
    partitions: _Partitions,
    image,
    image_entries: int,
    den,
    better,
    closed: LatticeVector,
) -> OracleResult:
    """Run a partition oracle: the segment-sum kernel sums the ``image`` rows
    (over ``den`` times the pieces' denominator) of each partition of w,
    then ``lattice._entrywise_best`` folds those sums by ``better``
    (np.greater for the sup, np.less for the inf).  ``partitions`` is a
    sequence of partitions of w, which go through
    ``lattice._partition_sums``, or a function that builds them from w;
    ``default_partitions``' family (or None) is built as one stack and
    checked once, with no ``Partition`` built."""
    if partitions is None or partitions is default_partitions:
        stack = _check_stack(w, _join(_default_family(w)))
        rows, D = _segment_sums(stack, image, image_entries), stack[2]
        tried = len(stack[1]) - 1
    else:
        partitions = list(partitions(w) if callable(partitions) else partitions)
        if not partitions:
            raise ValueError("no partitions to try")
        if any(p.target is not w and p.target != w for p in partitions):
            raise ValueError("a partition does not split the test vector w")
        (rows, D), tried = _partition_sums(partitions, image, image_entries), len(partitions)
    value = _entrywise_best(rows, _product_den(den, D), better)
    return OracleResult(
        value=value,
        closed_form=closed,
        attained=value.eq(closed),
        partitions_tried=tried,
    )


def modulus_oracle(
    A: RegularOperator,
    w: LatticeVector,
    partitions: _Partitions = default_partitions,
) -> OracleResult:
    """Evaluate sup { sum_i |A w_i| } over the given partitions of w
    (default: ``lattice.default_partitions(w)``, as one checked stack), all
    of them in one segment-sum kernel (``lattice._segment_sums``).

    The supremum is directed (refinements only increase the sum) and in the
    coordinate model it is attained by the atomic partition, where the sum
    collapses to (|A| w).
    """
    _check_test_vector(w, "modulus oracle")
    closed = A.modulus_closed_form().apply(w)
    return _best_over_partitions(
        w, partitions, _modulus_images(A), A.rows, A._den, np.greater, closed
    )


def meet_oracle(
    S: RegularOperator,
    T: RegularOperator,
    w: LatticeVector,
    partitions: _Partitions = default_partitions,
) -> OracleResult:
    """Evaluate inf { sum_i min(S w_i, T w_i) } over the given partitions
    of w (default: ``lattice.default_partitions(w)``, as one checked
    stack).  S and T, over one
    denominator, act on every piece in one matrix product."""
    _check_test_vector(w, "meet oracle")
    a, b, E = S._aligned(T)
    both = np.concatenate([a, b])

    def meets(W):
        images = _matmul(both, W.T).T
        s, t = images[:, : S.rows], images[:, S.rows :]
        return np.where(t < s, t, s)

    closed = S.meet_closed_form(T).apply(w)
    return _best_over_partitions(w, partitions, meets, 2 * S.rows, E, np.less, closed)


def refinement_sums(A: RegularOperator, w: LatticeVector) -> list:
    """Partition-modulus sums along a refinement chain of w (monotone up)."""
    _check_test_vector(w, "refinement chain")
    _check_operands(A, w, inner=True)
    stack = _check_stack(w, _join(_chain(w)))
    sums = _segment_sums(stack, _modulus_images(A), A.rows)
    return [LatticeVector._of(row, _product_den(A._den, stack[2])) for row in sums]

