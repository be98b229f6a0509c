"""Two-sided multiplication superoperators T |-> A T B.

Given A (z x y) and B (x x w), the map M(T) = A T B sends y x x matrices to
z x w matrices.  Because the matrix space with entrywise order is itself a
coordinate Riesz space, M is an operator between coordinate Riesz spaces and
all the machinery of ``operators`` applies to its matrix representation:
under column-major stacking, rep(M) = B^T (x) A (Kronecker product).  A
``Superoperator`` is that rep and nothing else: its action is
unvec(rep vec(T)), and its sums, moduli, meets and joins are entrywise on
rep.  The factors A and B are not kept, since a lattice operation's result
is generally not a two-sided multiplication.

The verifiers check, with exact rational arithmetic:

* ``verify_prop21``        -- for a positive left factor A0:
                              |M_{A0,B}|(T) = A0 T |B|  and
                              (M_{A0,B} v M_{A0,D})(T) = A0 T (B v D),
                              plus attainment of the operator-partition
                              supremum  sup { sum_j |A0 T_j B| w }  by the
                              atomic splitting of T, while the singleton
                              and 5 seeded random signed splittings stay
                              below it.
* ``verify_cor22``         -- |M_{A,B}| = M_{|A|,|B|} at rep level, pairwise
                              disjointness of the four sign-corner
                              superoperators M_{A+-,B+-}, and the signed
                              corner expansion reconstructing M_{A,B}.
* ``verify_synnatzschke_a`` -- for a positive right factor B0:
                              |M_{A,B0}| = M_{|A|,B0}  and
                              M_{A,B0} v M_{C,B0} = M_{A v C,B0}.

``verify_prop21`` sends its atomic, singleton and random signed splittings
of T (one stack, built and checked once by ``lattice._signed_splits``,
with no ``Partition`` built) through one pass of the
segment-sum kernel of ``lattice``, on their stored arrays in chunks of
bounded size, reads the atomic value off the first row and folds the
others; the tests check that pass against the loop over partitions and
pieces it replaced.  The verifiers measure every identity by
``deviation``, the largest entrywise |X - Y| of two vectors or two
operators.

``kron``, ``vec`` and ``unvec`` act on the stored arrays.  ``kron`` refuses
a product of more than ``KRON_ENTRY_CAP`` (2^20) entries with
``EnumerationLimitError`` before multiplying anything, so a rep of large
inputs cannot exhaust memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Optional

import numpy as np

from .lattice import (
    DimensionMismatchError,
    EnumerationLimitError,
    LatticeVector,
    _entrywise_best,
    _matmul,
    _outer,
    _product_den,
    _segment_sums,
    _signed_splits,
)
from .operators import RegularOperator
from .reports import VerificationReport, make_report
from .scalars import DEFAULT_TOLERANCE, zero_of


#: Entries a ``kron`` may produce: H_2^{(x) 10} still builds (and
#: ``norms.hadamard_order`` refuses m > 10 by this cap before any work), while
#: the rep of two 40 x 40 factors (2.56 million Fractions) is refused.
KRON_ENTRY_CAP = 1 << 20


def kron(P: RegularOperator, Q: RegularOperator) -> RegularOperator:
    """Kronecker product P (x) Q: block matrix of P[i,j] * Q.

    A product of more than ``KRON_ENTRY_CAP`` entries raises
    ``EnumerationLimitError`` before anything is multiplied.
    """
    entries_out = P.rows * Q.rows * P.cols * Q.cols
    if entries_out > KRON_ENTRY_CAP:
        raise EnumerationLimitError(
            f"kron of {P.shape} and {Q.shape} has {entries_out} entries, "
            f"above kron entry cap {KRON_ENTRY_CAP}"
        )
    blocks, den = _outer(P, Q)
    shape = (P.rows * Q.rows, P.cols * Q.cols)
    return RegularOperator._of(blocks.transpose(0, 2, 1, 3).reshape(shape), den)


def vec(T: RegularOperator) -> LatticeVector:
    """Column-major stacking of a matrix into a vector."""
    return LatticeVector._of(T._values.ravel(order="F"), T._den)


def unvec(v: LatticeVector, rows: int, cols: int) -> RegularOperator:
    """Inverse of ``vec`` for the given shape."""
    if v.dim != rows * cols:
        raise DimensionMismatchError(
            f"cannot reshape dim {v.dim} into {rows}x{cols}"
        )
    return RegularOperator._of(v._values.reshape(cols, rows).T, v._den)


@dataclass(frozen=True)
class Superoperator:
    """Linear map on matrix spaces: y x x inputs, z x w outputs.

    ``dims = (w, x, y, z)`` are the four underlying coordinate-space
    dimensions; ``rep`` is the (z*w) x (y*x) matrix acting on column-stacked
    inputs.  The action and the lattice operations all go through ``rep``,
    which for T |-> A T B is B^T (x) A.
    """

    dims: tuple
    rep: RegularOperator

    def __post_init__(self):
        w, x, y, z = self.dims
        if min(w, x, y, z) <= 0:
            raise ValueError("all four dimensions must be positive")
        if self.rep.shape != (z * w, y * x):
            raise DimensionMismatchError(
                f"rep shape {self.rep.shape} does not match dims {self.dims}: "
                f"expected {(z * w, y * x)}"
            )

    @classmethod
    def build(cls, A: RegularOperator, B: RegularOperator) -> "Superoperator":
        """The two-sided multiplication T |-> A T B (A: z x y, B: x x w)."""
        z, y = A.shape
        x, w = B.shape
        return cls(dims=(w, x, y, z), rep=kron(B.transpose(), A))

    def apply(self, T: RegularOperator) -> RegularOperator:
        """M(T) = unvec(rep vec(T)), a z x w matrix for a y x x input T."""
        w, x, y, z = self.dims
        if T.shape != (y, x):
            raise DimensionMismatchError(
                f"superoperator expects {(y, x)} inputs, got {T.shape}"
            )
        return unvec(self.rep.apply(vec(T)), z, w)

    def _check_compatible(self, other: "Superoperator"):
        if self.dims != other.dims:
            raise DimensionMismatchError(
                f"superoperator dims mismatch: {self.dims} vs {other.dims}"
            )

    # -- linear and lattice structure (entrywise on rep) ----------------------

    def __add__(self, other: "Superoperator") -> "Superoperator":
        self._check_compatible(other)
        return Superoperator(self.dims, self.rep + other.rep)

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        self._check_compatible(other)
        return Superoperator(self.dims, self.rep - other.rep)

    def modulus(self) -> "Superoperator":
        return Superoperator(self.dims, self.rep.modulus_closed_form())

    def meet(self, other: "Superoperator") -> "Superoperator":
        self._check_compatible(other)
        return Superoperator(self.dims, self.rep.meet_closed_form(other.rep))

    def join(self, other: "Superoperator") -> "Superoperator":
        self._check_compatible(other)
        return Superoperator(self.dims, self.rep.join_closed_form(other.rep))


# ---------------------------------------------------------------------------
# deviation helpers
# ---------------------------------------------------------------------------


def deviation(X, Y):
    """Largest entrywise |X - Y| of two vectors or two operators
    (Fraction in exact mode, float otherwise)."""
    return abs(X - Y).max_entry()


def one_sided_excess(x: LatticeVector, upper: LatticeVector):
    """How far x pokes above upper: max(0, max_i (x - upper)_i)."""
    return max(zero_of(x.mode), (x - upper).max_entry())


# ---------------------------------------------------------------------------
# the operator-partition supremum
# ---------------------------------------------------------------------------

def _partition_values(A0, B, w, stack) -> tuple:
    """(values, D): values[p] = (sum_j |A0 T_j B|) w over the pieces T_j of
    partition p of a stack (values, bounds, D_T) of splits of T, over the
    denominator D (None for floats).  One pass of ``lattice._segment_sums``
    in chunks of bounded size sums each partition in piece order, as the
    images one by one would; the inputs are ``verify_prop21``'s, checked
    there."""
    z, (x, cols) = A0.rows, B.shape
    D_T = stack[2]
    sums = _segment_sums(
        stack,
        lambda P: np.abs(_matmul(_matmul(A0._values, P), B._values)),
        z * max(x, cols),
    )
    values = _matmul(sums, w._values[:, None])[..., 0]  # (partitions, z)
    return values, _product_den(A0._den, D_T, B._den, w._den)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_prop21(
    A0: RegularOperator,
    B: RegularOperator,
    D: RegularOperator,
    T: RegularOperator,
    w: LatticeVector,
    seed: Optional[int] = None,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Positive-left-factor identities, checked pointwise at T (and w);
    A0, T and w must be positive (``ValueError`` otherwise).

    (i)   |M_{A0,B}|(T)            = A0 T |B|
    (ii)  (M_{A0,B} v M_{A0,D})(T) = A0 T (B v D)
    (iii) the operator-partition supremum at w: the atomic splitting of T
          attains A0 T |B| w exactly; singleton and random splittings stay
          componentwise below it.  The splittings are one stack of T's
          pieces, checked once.
    """
    if not A0.is_positive():
        raise ValueError("the left factor A0 must be positive")
    if not T.is_positive():
        raise ValueError("the argument T must be positive")
    if not w.is_positive():
        raise ValueError("the vector w must be positive")
    M_B = Superoperator.build(A0, B)
    M_D = Superoperator.build(A0, D)

    modulus_at_T = A0 @ T @ abs(B)
    dev_modulus = deviation(M_B.modulus().apply(T), modulus_at_T)
    dev_join = deviation(
        M_B.join(M_D).apply(T), A0 @ T @ B.join_closed_form(D)
    )

    rhs_at_w = modulus_at_T.apply(w)
    # One kernel pass: the atomic partition first, then the coarse ones.
    values, den = _partition_values(A0, B, w, _signed_splits(T, Random(seed or 0)))
    atomic_value = LatticeVector._of(values[0], den)
    dev_atomic = deviation(atomic_value, rhs_at_w)
    dev_coarse = one_sided_excess(_entrywise_best(values[1:], den, np.greater), rhs_at_w)

    return make_report(
        claim_id="prop21",
        inputs={"A0": A0, "B": B, "D": D, "T": T, "w": w},
        deviations=[dev_modulus, dev_join, dev_atomic, dev_coarse],
        witnesses={"modulus_at_T": modulus_at_T, "partition_sup_at_w": atomic_value},
        seed=seed,
        details={
            "modulus_identity_deviation": dev_modulus,
            "join_identity_deviation": dev_join,
            "atomic_attainment_deviation": dev_atomic,
            "coarse_strategy_excess": dev_coarse,
        },
        tol=tol,
    )


def verify_cor22(
    A: RegularOperator,
    B: RegularOperator,
    seed: Optional[int] = None,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Modulus factorization and the sign-corner decomposition.

    Checks rep(|M_{A,B}|) = rep(M_{|A|,|B|}); pairwise disjointness of the
    four corners M_{A+,B+}, M_{A+,B-}, M_{A-,B+}, M_{A-,B-}; and the signed
    expansion  corner(+,+) - corner(+,-) - corner(-,+) + corner(-,-)
    reconstructing M_{A,B}.
    """
    M = Superoperator.build(A, B)
    M_abs = Superoperator.build(A.modulus_closed_form(), B.modulus_closed_form())
    modulus = M.modulus()
    dev_modulus = deviation(modulus.rep, M_abs.rep)

    Ap, An = A.pos_part(), A.neg_part()
    Bp, Bn = B.pos_part(), B.neg_part()
    corners = (
        Superoperator.build(Ap, Bp),
        Superoperator.build(Ap, Bn),
        Superoperator.build(An, Bp),
        Superoperator.build(An, Bn),
    )
    dev_disjoint = max(
        abs(P.meet(Q).rep).max_entry() for P, Q in combinations(corners, 2)
    )

    signed = corners[0] - corners[1] - corners[2] + corners[3]
    dev_expansion = deviation(signed.rep, M.rep)

    return make_report(
        claim_id="cor22",
        inputs={"A": A, "B": B},
        deviations=[dev_modulus, dev_disjoint, dev_expansion],
        witnesses={"modulus_rep": modulus.rep},
        seed=seed,
        details={
            "modulus_rep_deviation": dev_modulus,
            "corner_disjointness_deviation": dev_disjoint,
            "signed_expansion_deviation": dev_expansion,
        },
        tol=tol,
    )


def verify_synnatzschke_a(
    A: RegularOperator,
    C: RegularOperator,
    B0: RegularOperator,
    seed: Optional[int] = None,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Positive-right-factor identities, checked at rep level.

    (i)  |M_{A,B0}|          = M_{|A|,B0}
    (ii) M_{A,B0} v M_{C,B0} = M_{A v C,B0}
    """
    if not B0.is_positive():
        raise ValueError("the right factor B0 must be positive")
    M_A = Superoperator.build(A, B0)
    M_C = Superoperator.build(C, B0)
    dev_modulus = deviation(
        M_A.modulus().rep, Superoperator.build(A.modulus_closed_form(), B0).rep
    )
    join = M_A.join(M_C)
    dev_join = deviation(
        join.rep, Superoperator.build(A.join_closed_form(C), B0).rep
    )
    return make_report(
        claim_id="synnatzschke_a",
        inputs={"A": A, "C": C, "B0": B0},
        deviations=[dev_modulus, dev_join],
        witnesses={"join_rep": join.rep},
        seed=seed,
        details={"modulus_rep_deviation": dev_modulus, "join_rep_deviation": dev_join},
        tol=tol,
    )

