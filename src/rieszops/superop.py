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

``operator_partition_sup`` takes the operator partitions themselves (by
default the atomic one) and runs as one kernel on the stored arrays, in
chunks of bounded size; the tests check it against the loop over
partitions and pieces it replaced.  The verifiers measure every identity by
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
from typing import Optional, Sequence

import numpy as np

from .lattice import (
    DimensionMismatchError,
    EnumerationLimitError,
    LatticeVector,
    _chunk_size,
    _matmul,
    _stack,
)
from .operators import (
    OperatorPartition,
    RegularOperator,
    atomic_operator_partition,
    random_operator_partition,
    trivial_operator_partition,
)
from .reports import VerificationReport, make_report
from .scalars import DEFAULT_TOLERANCE, ScalarModeError, scalar_to_json, zero_of


#: Entries a ``kron`` may produce: H_2^{(x) 10} (norms.HADAMARD_ENTRY_CAP
#: entries) still builds, while the rep of two 40 x 40 factors (2.56 million
#: Fractions) is refused.
KRON_ENTRY_CAP = 1 << 20


def kron(P: RegularOperator, Q: RegularOperator) -> RegularOperator:
    """Kronecker product P (x) Q: block matrix of P[i,j] * Q.

    A product of more than ``KRON_ENTRY_CAP`` entries raises
    ``EnumerationLimitError`` before anything is multiplied.
    """
    if P.mode != Q.mode:
        raise ScalarModeError(f"scalar mode mismatch: {P.mode} vs {Q.mode}")
    entries_out = P.rows * Q.rows * P.cols * Q.cols
    if entries_out > KRON_ENTRY_CAP:
        raise EnumerationLimitError(
            f"kron of {P.shape} and {Q.shape} has {entries_out} entries, "
            f"above kron entry cap {KRON_ENTRY_CAP}"
        )
    blocks = np.multiply.outer(P._values, Q._values).transpose(0, 2, 1, 3)
    shape = (P.rows * Q.rows, P.cols * Q.cols)
    return RegularOperator._of(blocks.reshape(shape), P._den and P._den * Q._den)


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
        if A.mode != B.mode:
            raise ScalarModeError(
                f"scalar mode mismatch: A is {A.mode}, B is {B.mode}"
            )
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

def operator_partition_sup(
    A0: RegularOperator,
    B: RegularOperator,
    T: RegularOperator,
    w: LatticeVector,
    partitions: Optional[Sequence[OperatorPartition]] = None,
) -> LatticeVector:
    """sup over the given partitions (sum_j |T_j| = T) of  (sum_j |A0 T_j B|) w.

    Requires A0 >= 0 and T >= 0, and every partition must split T itself
    (``ValueError`` otherwise).  The default is the atomic partition, at
    which the supremum is attained and equals A0 T |B| w exactly; coarser
    partitions give componentwise smaller-or-equal values (cancellation
    inside |A0 T_j B| only ever loses mass).

    The images |A0 P_j B| of all pieces are formed on the stacked values,
    in chunks of bounded size, and summed per partition in piece order, so
    an atomic partition's y x pieces never need y x z w image entries at
    once; float results match summing the images as operators one by one.
    """
    if not A0.is_positive():
        raise ValueError("the partition supremum needs a positive left factor")
    if not T.is_positive():
        raise ValueError("the partition supremum needs a positive argument T")
    if T.shape != (A0.cols, B.rows):
        raise DimensionMismatchError(
            f"T has shape {T.shape}, expected {(A0.cols, B.rows)}"
        )
    if w.dim != B.cols:
        raise DimensionMismatchError(
            f"w has dim {w.dim}, expected {B.cols}"
        )
    if not w.is_positive():
        raise ValueError("the partition supremum is evaluated at positive w")
    if partitions is None:
        partitions = [atomic_operator_partition(T)]
    partitions = list(partitions)
    if not partitions:
        raise ValueError("no operator partitions to try")
    if any(partition.target != T for partition in partitions):
        raise ValueError("an operator partition does not split T")
    if len({A0.mode, B.mode, T.mode, w.mode}) > 1:
        raise ScalarModeError("A0, B, T and w must share one scalar mode")
    z, (x, cols) = A0.rows, B.shape
    pieces = [piece for partition in partitions for piece in partition.pieces]
    P, D_T = _stack(pieces)
    owner = np.repeat(np.arange(len(partitions)), [len(p) for p in partitions])
    sums = np.zeros((len(partitions), z, cols), dtype=P.dtype)
    step = _chunk_size(z * max(x, cols))
    for start in range(0, len(pieces), step):
        images = _matmul(_matmul(A0._values, P[start : start + step]), B._values)
        for partition, image in zip(owner[start : start + step], np.abs(images)):
            sums[partition] = sums[partition] + image
    values = _matmul(sums, w._values[:, None])[..., 0]  # (partitions, z)
    best = values[0]
    for value in values[1:]:
        best = np.where(value > best, value, best)
    return LatticeVector._of(best, D_T and A0._den * D_T * B._den * w._den)


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
    """Positive-left-factor identities, checked pointwise at T (and w).

    (i)   |M_{A0,B}|(T)            = A0 T |B|
    (ii)  (M_{A0,B} v M_{A0,D})(T) = A0 T (B v D)
    (iii) the operator-partition supremum at w: the atomic splitting of T
          attains A0 T |B| w exactly; singleton and random splittings stay
          componentwise below it.
    """
    if not A0.is_positive():
        raise ValueError("the left factor A0 must be positive")
    if not T.is_positive():
        raise ValueError("the argument T must be positive")
    M_B = Superoperator.build(A0, B)
    M_D = Superoperator.build(A0, D)

    modulus_at_T = A0 @ T @ abs(B)
    dev_modulus = deviation(M_B.modulus().apply(T), modulus_at_T)
    dev_join = deviation(
        M_B.join(M_D).apply(T), A0 @ T @ B.join_closed_form(D)
    )

    rhs_at_w = modulus_at_T.apply(w)
    atomic_value = operator_partition_sup(
        A0, B, T, w, [atomic_operator_partition(T)]
    )
    dev_atomic = deviation(atomic_value, rhs_at_w)

    rng = Random(seed or 0)
    coarse = operator_partition_sup(
        A0,
        B,
        T,
        w,
        [trivial_operator_partition(T)]
        + [random_operator_partition(T, 3, rng) for _ in range(5)],
    )
    dev_coarse = one_sided_excess(coarse, rhs_at_w)

    exact = A0.is_exact and B.is_exact and D.is_exact and T.is_exact and w.is_exact
    inputs = {
        "A0": A0.to_json(),
        "B": B.to_json(),
        "D": D.to_json(),
        "T": T.to_json(),
        "w": w.to_json(),
    }
    return make_report(
        claim_id="prop21",
        inputs=inputs,
        deviations=[dev_modulus, dev_join, dev_atomic, dev_coarse],
        exact=exact,
        witnesses=(
            {"role": "modulus_at_T", **modulus_at_T.to_json()},
            {"role": "partition_sup_at_w", **atomic_value.to_json()},
        ),
        seed=seed,
        details={
            "modulus_identity_deviation": scalar_to_json(dev_modulus),
            "join_identity_deviation": scalar_to_json(dev_join),
            "atomic_attainment_deviation": scalar_to_json(dev_atomic),
            "coarse_strategy_excess": scalar_to_json(dev_coarse),
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

    exact = A.is_exact and B.is_exact
    inputs = {"A": A.to_json(), "B": B.to_json()}
    return make_report(
        claim_id="cor22",
        inputs=inputs,
        deviations=[dev_modulus, dev_disjoint, dev_expansion],
        exact=exact,
        witnesses=({"role": "modulus_rep", **modulus.rep.to_json()},),
        seed=seed,
        details={
            "modulus_rep_deviation": scalar_to_json(dev_modulus),
            "corner_disjointness_deviation": scalar_to_json(dev_disjoint),
            "signed_expansion_deviation": scalar_to_json(dev_expansion),
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
    exact = A.is_exact and C.is_exact and B0.is_exact
    inputs = {"A": A.to_json(), "C": C.to_json(), "B0": B0.to_json()}
    return make_report(
        claim_id="synnatzschke_a",
        inputs=inputs,
        deviations=[dev_modulus, dev_join],
        exact=exact,
        witnesses=({"role": "join_rep", **join.rep.to_json()},),
        seed=seed,
        details={
            "modulus_rep_deviation": scalar_to_json(dev_modulus),
            "join_rep_deviation": scalar_to_json(dev_join),
        },
        tol=tol,
    )

