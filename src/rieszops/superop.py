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
default the atomic one).  In exact mode it runs as an integer kernel: the
pieces of all partitions, A0, B and w are scaled to Python ints over
common denominators (``scalars.scaled_array``) and the images |A0 P B| w
are formed as numpy object-array products, in chunks of at most
``_KERNEL_CHUNK_ENTRIES`` image entries, with the per-partition sums
carried across chunks.  ``partition_superop_sum`` stays the Fraction (and
float-mode) loop the kernel is tested against.  The verifiers measure every
identity by ``deviation``, the largest entrywise |X - Y| of two vectors or
two operators.

``kron`` refuses a product of more than ``KRON_ENTRY_CAP`` (2^20) entries
with ``EnumerationLimitError`` before multiplying anything, so a rep of
large inputs cannot exhaust memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

import numpy as np

from .lattice import DimensionMismatchError, EnumerationLimitError, LatticeVector
from .operators import (
    OperatorPartition,
    RegularOperator,
    atomic_operator_partition,
    random_operator_partition,
    trivial_operator_partition,
)
from .reports import VerificationReport, make_report
from .scalars import (
    DEFAULT_TOLERANCE,
    ScalarModeError,
    scalar_to_json,
    scaled_array,
    zero_of,
)


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
    entries = []
    for pr in range(P.rows):
        for qr in range(Q.rows):
            for pc in range(P.cols):
                for qc in range(Q.cols):
                    entries.append(P.entry(pr, pc) * Q.entry(qr, qc))
    return RegularOperator._trusted((P.rows * Q.rows, P.cols * Q.cols), entries)


def vec(T: RegularOperator) -> LatticeVector:
    """Column-major stacking of a matrix into a vector."""
    return LatticeVector._trusted(
        (T.rows * T.cols,),
        [T.entry(i, j) for j in range(T.cols) for i in range(T.rows)],
    )


def unvec(v: LatticeVector, rows: int, cols: int) -> RegularOperator:
    """Inverse of ``vec`` for the given shape."""
    if v.dim != rows * cols:
        raise DimensionMismatchError(
            f"cannot reshape dim {v.dim} into {rows}x{cols}"
        )
    entries = [v.entries[j * rows + i] for i in range(rows) for j in range(cols)]
    return RegularOperator._trusted((rows, cols), entries)


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
    return max(abs(a) for a in (X - Y).entries)


def one_sided_excess(x: LatticeVector, upper: LatticeVector):
    """How far x pokes above upper: max(0, max_i (x - upper)_i)."""
    diff = x - upper
    worst = max(diff.entries)
    zero = zero_of(x.mode)
    return worst if worst > zero else zero


# ---------------------------------------------------------------------------
# the operator-partition supremum
# ---------------------------------------------------------------------------

def partition_superop_sum(
    A0: RegularOperator,
    B: RegularOperator,
    partition: OperatorPartition,
) -> RegularOperator:
    """sum_j |A0 T_j B| for one operator partition of T."""
    total = RegularOperator.zero(A0.rows, B.cols, A0.mode)
    for piece in partition.pieces:
        total = total + (A0 @ piece @ B).modulus_closed_form()
    return total


#: Entries of the kernel's per-chunk image intermediates (A0 P and A0 P B),
#: so its memory stays bounded however many pieces the partitions have.
_KERNEL_CHUNK_ENTRIES = 1 << 16


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

    Exact inputs go through an integer kernel: every piece of every
    partition is scaled by the common denominator D_T of all pieces, and
    A0, B and w by their own D_A, D_B, D_w, so each partition's value is
    sum_j |A P_j B| W / (D_A D_T D_B D_w)  over numpy object arrays of
    Python ints, which cannot overflow.  The images are formed in chunks of
    pieces holding at most ``_KERNEL_CHUNK_ENTRIES`` entries, with the
    per-partition sums carried across chunks, so an atomic partition's
    y x pieces never need y x z w image entries at once.  The result equals
    the entrywise maximum of ``partition_superop_sum(...).apply(w)`` over
    the same partitions exactly.  Inputs that are not all exact run that
    loop itself, so float results (and mode-mismatch errors) are unchanged.
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
    if not (A0.is_exact and B.is_exact and T.is_exact and w.is_exact):
        best: Optional[LatticeVector] = None
        for partition in partitions:
            value = partition_superop_sum(A0, B, partition).apply(w)
            best = value if best is None else best.join(value)
        return best
    (z, y), (x, cols) = A0.shape, B.shape
    pieces = [piece for partition in partitions for piece in partition.pieces]
    P, D_T = scaled_array(
        (v for piece in pieces for v in piece.entries), (len(pieces), y, x)
    )
    A, D_A = scaled_array(A0.entries, (z, y))
    Bm, D_B = scaled_array(B.entries, (x, cols))
    W, D_w = scaled_array(w.entries, (cols,))
    owner = np.repeat(np.arange(len(partitions)), [len(p) for p in partitions])
    sums = np.zeros((len(partitions), z), dtype=object)
    step = max(1, _KERNEL_CHUNK_ENTRIES // (z * max(x, cols)))
    for start in range(0, len(pieces), step):
        values = np.abs(A @ P[start : start + step] @ Bm) @ W  # (pieces, z)
        ids = owner[start : start + step]
        firsts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        sums[ids[firsts]] += np.add.reduceat(values, firsts, axis=0)
    D = D_A * D_T * D_B * D_w
    best = np.maximum.reduce(sums, axis=0)
    return LatticeVector._trusted((z,), [Fraction(v, D) for v in best])


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
    zero = zero_of(A.mode)
    dev_disjoint = zero
    for i in range(4):
        for j in range(i + 1, 4):
            meet_rep = corners[i].rep.meet_closed_form(corners[j].rep)
            worst = max(abs(a) for a in meet_rep.entries)
            dev_disjoint = max(dev_disjoint, worst)

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

