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

Stacked reps.  The reps one verifier compares share a factor or are the
sign corners of one split, so each verifier forms them in one stacked
product (Van Loan, "The ubiquitous Kronecker product", J. Comput. Appl.
Math. 123, 2000): ``_kron`` takes a stack of transposed right factors and
a stack of left factors, each put over one denominator, and forms
rep(M_{A_i,B_j}) for every pair, or with ``paired`` for the i-th pair
only, in one ``lattice._outer``.  ``verify_cor22`` forms M with
M_{|A|,|B|} (paired) and the four corners (every pair of A+-, B+-),
``verify_synnatzschke_a`` M_{A,B0}, M_{C,B0}, M_{|A|,B0} and
M_{A v C,B0}, and ``verify_prop21`` M_{A0,B} and M_{A0,D}, applying
|M_{A0,B}| and M_{A0,B} v M_{A0,D} to vec(T) in one batched product.  No
pair is formed that a verifier does not compare.  The comparisons run on
those arrays: exact products are int64 where ``lattice._on_words`` proves
that the verifier's sums of them fit a machine word, float entries are
the same single products and left-to-right sums a chain of containers
would give, and an exact value is normalised only where it is written, as
a witness or a ``Fraction`` deviation (``lattice._gap`` is ``deviation``
on two arrays).  The corner meets are reduced one pair at a time.  The
container chains they replaced are the tests' reference, report byte for
byte.

``verify_prop21`` sends its atomic, singleton and random signed splittings
of T (one stack, built and checked once by ``lattice._signed_splits``,
with no ``Partition`` built) through one pass of the
segment-sum kernel of ``lattice``, on their stored arrays in chunks of
bounded size, reads the atomic value off the first row and folds the
others; the tests check that pass against the loop over partitions and
pieces it replaced.  The verifiers measure every identity by the largest
entrywise |X - Y| of two vectors, operators or reps.

``kron``, ``vec`` and ``unvec`` act on the stored arrays; ``kron`` and
``Superoperator.build`` are ``_kron`` on stacks of one.  ``_kron`` checks
``KRON_ENTRY_CAP`` (2^20 entries) per rep, not per stack, and refuses a
larger rep with ``EnumerationLimitError`` before multiplying anything, so
a rep of large inputs cannot exhaust memory; a verifier holds a few reps
of at most that size at once.
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
    _gap,
    _greater,
    _lesser,
    _matmul,
    _outer,
    _product_den,
    _scalar,
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


def _kron(P: list, Q: list, paired: bool = False, terms: int = 0) -> tuple:
    """(values, D): the Kronecker products of the stacks P and Q (lists of
    operators of one shape and mode each) over one denominator D, formed
    in one ``lattice._outer`` after ``KRON_ENTRY_CAP`` has been checked per
    product.  values[i, j] is P_j (x) Q_i, so rep(M_{A_i,B_j}) for P the
    transposed right factors B_j^T and Q the left factors A_i; with
    ``paired``, values[i] is P_i (x) Q_i alone.  Exact values are int64
    where every sum of ``terms`` products fits a machine word (see
    ``lattice._outer``).  A product of more than ``KRON_ENTRY_CAP`` entries
    raises ``EnumerationLimitError`` before anything is multiplied."""
    (p_rows, p_cols), (q_rows, q_cols) = P[0].shape, Q[0].shape
    entries_out = p_rows * q_rows * p_cols * q_cols
    if entries_out > KRON_ENTRY_CAP:
        raise EnumerationLimitError(
            f"kron of {P[0].shape} and {Q[0].shape} has {entries_out} entries, "
            f"above kron entry cap {KRON_ENTRY_CAP}"
        )
    values, den = _outer(P, Q, paired, terms)
    # The outer product's axes are (stack of P,) p_row, p_col, (stack of Q,)
    # q_row, q_col; a Kronecker block matrix is indexed by (p_row, q_row),
    # (p_col, q_col).
    if paired:
        blocks, stacks = values.transpose(0, 1, 3, 2, 4), (len(P),)
    else:
        blocks, stacks = values.transpose(3, 0, 1, 4, 2, 5), (len(Q), len(P))
    return blocks.reshape(stacks + (p_rows * q_rows, p_cols * q_cols)), den


def kron(P: RegularOperator, Q: RegularOperator) -> RegularOperator:
    """Kronecker product P (x) Q: block matrix of P[i,j] * Q, the stacked
    product of ``_kron`` on stacks of one.

    A product of more than ``KRON_ENTRY_CAP`` entries raises
    ``EnumerationLimitError`` before anything is multiplied.
    """
    values, den = _kron([P], [Q])
    return RegularOperator._of(values[0, 0], den)


def _column_major(T: RegularOperator) -> tuple:
    """(values, D): T's entries stacked column by column, over its denominator."""
    return T._values.ravel(order="F"), T._den


def vec(T: RegularOperator) -> LatticeVector:
    """Column-major stacking of a matrix into a vector."""
    return LatticeVector._of(*_column_major(T))


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
    (Fraction in exact mode, float otherwise): ``lattice._gap`` of their
    stored values."""
    X._check_compatible(Y)
    return _gap((X._values, X._den), (Y._values, Y._den))


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
    # rep(M_{A0,B}) and rep(M_{A0,D}) in one product; then |M_{A0,B}| and
    # M_{A0,B} v M_{A0,D}, written over them, act on vec(T) in one product.
    # They stay Python ints: a term of that product has three factors, which
    # the two-factor bound of machine words does not cover.
    reps, den = _kron([B.transpose(), D.transpose()], [A0])
    pair = reps[0]
    A0_T = A0 @ T
    modulus_at_T = A0_T @ abs(B)
    join_at_T = A0_T @ B.join_closed_form(D)
    pair[1] = _greater(pair[0], pair[1])
    np.abs(pair[0], out=pair[0])
    vec_T, den_T = _column_major(T)
    at_T = _matmul(pair, vec_T[:, None])[..., 0]
    den_at_T = _product_den(den, den_T)
    dev_modulus = _gap((at_T[0], den_at_T), _column_major(modulus_at_T))
    dev_join = _gap((at_T[1], den_at_T), _column_major(join_at_T))

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
    z, y = A.shape
    x, w = B.shape
    Bt = B.transpose()
    # M = M_{A,B} beside M_{|A|,|B|} in one product, the four sign corners in
    # another, compared on their arrays; |M| is written as M's modulus.  The
    # longest sum compared, the signed corners less M, has 5 terms.
    pair, den = _kron([Bt, abs(Bt)], [A, abs(A)], paired=True, terms=5)
    modulus = Superoperator((w, x, y, z), RegularOperator._of(pair[0], den)).modulus()
    dev_modulus = _gap((np.abs(pair[0]), den), (pair[1], den))

    corners, corner_den = _kron(
        [Bt.pos_part(), Bt.neg_part()], [A.pos_part(), A.neg_part()], terms=5
    )
    # (A+, B+), (A+, B-), (A-, B+), (A-, B-): their meets one pair at a time.
    corners = corners.reshape((4,) + corners.shape[2:])
    dev_disjoint = _scalar(
        max(np.abs(meet, out=meet).max()
            for meet in (_lesser(P, Q) for P, Q in combinations(corners, 2))),
        corner_den,
    )
    signed = corners[0] - corners[1]
    signed -= corners[2]
    signed += corners[3]
    dev_expansion = _gap((signed, corner_den), (pair[0], den))

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
    # M_{A,B0}, M_{C,B0}, M_{|A|,B0} and M_{A v C,B0} in one product; each
    # comparison is one rep less another, 2 terms.
    reps, den = _kron([B0.transpose()], [A, C, abs(A), A.join_closed_form(C)], terms=2)
    M_A, M_C, M_abs_A, M_join = reps[:, 0]
    dev_modulus = _gap((np.abs(M_A), den), (M_abs_A, den))
    join = _greater(M_A, M_C)
    dev_join = _gap((join, den), (M_join, den))
    return make_report(
        claim_id="synnatzschke_a",
        inputs={"A": A, "C": C, "B0": B0},
        deviations=[dev_modulus, dev_join],
        witnesses={"join_rep": RegularOperator._of(join, den)},
        seed=seed,
        details={"modulus_rep_deviation": dev_modulus, "join_rep_deviation": dev_join},
        tol=tol,
    )

