"""Weighted p-norms, p -> q operator norms, and the regular norm.

A ``LatticeNorm`` is a weighted l^p norm on a coordinate space; every such
norm is a lattice norm (|x| <= |y| implies ||x|| <= ||y||) and, being
finite-dimensional, order continuous.  ``operator_norm`` computes the
induced p -> q norm of a matrix, using closed forms whenever one exists:

* from-norm p = 1:        max over columns of the to-norm (weighted);
* to-norm   q = inf:      max over rows of the dual from-norm;
* from-norm p = inf, A positive: the value at the positive unit corner;
* p = q = 2:              largest singular value (weighted by diagonal
                          scalings);
* otherwise:              seeded multistart ascent (generalized power
                          iteration alternating the duality maps of the two
                          norms), reported as an uncertified lower bound.

``regular_norm`` is the operator norm of the entrywise modulus.  The two
verifiers cover the regular-norm multiplicativity of two-sided
multiplications (``verify_cor23``: ||M_{A,B}||_r = ||A||_r ||B||_r, with the
rank-one witness family T = x' (x) y for which M(T) = (B'x') (x) (Ay)) and
the gap between the operator norm and the regular norm of the same map
(``gap_report``), which collapses like 2^-m along the sign-matrix family
H_2^{(x) m}.

Both verifiers sample a stack of T and form every image A T_s B as one
batched BLAS product ``A @ stack @ B``; a stack of more than
``SAMPLE_STACK_CAP`` (2^24) floats raises ``EnumerationLimitError`` before
anything is drawn, and so does a ``hadamard_tensor_power`` of more than
``HADAMARD_ENTRY_CAP`` (2^20) entries, i.e. m > 10.

For the all-l1 assignment on exact factors, ``verify_cor23`` also computes
the left side exactly (``superop_regular_norm_1chain``) by enumerating the
y^x extreme points of the domain's unit ball in an integer kernel over numpy
object arrays of Python ints; a domain with more than ``EXTREME_POINT_CAP``
(2^20) extreme points raises ``EnumerationLimitError``.

Norm values stay exact (``Fraction``) whenever the closed form involves no
roots and the inputs are exact; witness vectors are always float-mode unit
vectors (attainment is certified to 1e-9, not bitwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .lattice import DimensionMismatchError, EnumerationLimitError, LatticeVector
from .operators import RegularOperator, rank_one
from .reports import VerificationReport, make_report
from .scalars import (
    DEFAULT_TOLERANCE,
    FLOAT,
    ScalarModeError,
    scalar_to_json,
    scaled_array,
)

INF = math.inf


@dataclass(frozen=True)
class LatticeNorm:
    """Weighted l^p norm: ||x|| = (sum_j u_j |x_j|^p)^(1/p), max for p = inf."""

    p: float = 2.0
    weights: Optional[LatticeVector] = None

    def __post_init__(self):
        p = float(self.p)
        if not (p >= 1.0):
            raise ValueError(f"norm exponent must be >= 1, got {self.p}")
        object.__setattr__(self, "p", p)
        if self.weights is not None:
            zero = 0 if self.weights.is_exact else 0.0
            if not all(u > zero for u in self.weights.entries):
                raise ValueError("norm weights must be strictly positive")

    @property
    def exact_capable(self) -> bool:
        """True when values can stay rational: p in {1, inf}, exact weights."""
        return self.p in (1.0, INF) and (
            self.weights is None or self.weights.is_exact
        )

    def conjugate_exponent(self) -> float:
        if self.p == 1.0:
            return INF
        if self.p == INF:
            return 1.0
        return self.p / (self.p - 1.0)

    def weight_list(self, dim: int, exact: bool) -> list:
        if self.weights is not None:
            if self.weights.dim != dim:
                raise DimensionMismatchError(
                    f"norm weights have dim {self.weights.dim}, expected {dim}"
                )
            return list(self.weights.entries)
        one = Fraction(1) if exact else 1.0
        return [one] * dim

    def np_weights(self, dim: int) -> np.ndarray:
        return np.array([float(u) for u in self.weight_list(dim, exact=False)])

    def to_json(self) -> dict:
        return {
            "p": "inf" if self.p == INF else self.p,
            "weights": None if self.weights is None else self.weights.to_json(),
        }


@dataclass(frozen=True)
class NormAssignment:
    """One lattice norm per underlying space W, X, Y, Z."""

    n_W: LatticeNorm
    n_X: LatticeNorm
    n_Y: LatticeNorm
    n_Z: LatticeNorm

    @classmethod
    def uniform(cls, p, weights=None) -> "NormAssignment":
        """The same norm on all four spaces; `p` may be a LatticeNorm."""
        if isinstance(p, LatticeNorm):
            norm = p
        else:
            norm = LatticeNorm(p=p, weights=weights)
        return cls(norm, norm, norm, norm)

    def to_json(self) -> dict:
        return {
            "W": self.n_W.to_json(),
            "X": self.n_X.to_json(),
            "Y": self.n_Y.to_json(),
            "Z": self.n_Z.to_json(),
        }


@dataclass(frozen=True)
class NormResult:
    """An operator-norm value with its (near-)attaining unit witness.

    ``value`` is a Fraction when the closed form is root-free on exact
    inputs, a float otherwise.  ``witness`` is always a float-mode vector of
    from-norm at most 1 + 1e-12 with ||A witness|| <= value + 1e-9 (equality
    up to float rounding for certified methods).  ``certified`` is False
    only for search-based lower bounds.
    """

    value: object
    witness: LatticeVector
    certified: bool
    method: str

    @property
    def value_float(self) -> float:
        return float(self.value)


# ---------------------------------------------------------------------------
# vector norms, dual norms, duality maps
# ---------------------------------------------------------------------------


def vector_norm(x: LatticeVector, n: LatticeNorm):
    """Weighted l^p norm; Fraction for p in {1, inf} on exact data."""
    u = n.weight_list(x.dim, x.is_exact)
    if n.p == 1.0:
        return sum(w * abs(a) for w, a in zip(u, x.entries))
    if n.p == INF:
        return max(w * abs(a) for w, a in zip(u, x.entries))
    if n.p == 2.0:
        total = sum(float(w) * float(a) * float(a) for w, a in zip(u, x.entries))
        return math.sqrt(total)
    total = sum(
        float(w) * abs(float(a)) ** n.p for w, a in zip(u, x.entries)
    )
    return total ** (1.0 / n.p)


def dual_norm(f: LatticeVector, n: LatticeNorm):
    """Norm of the functional x |-> f . x on (R^d, n)."""
    u = n.weight_list(f.dim, f.is_exact)
    if n.p == 1.0:
        return max(abs(a) / w for w, a in zip(u, f.entries))
    if n.p == INF:
        return sum(abs(a) / w for w, a in zip(u, f.entries))
    q = n.conjugate_exponent()
    scaled = [
        abs(float(a)) * float(w) ** (-1.0 / n.p) for w, a in zip(u, f.entries)
    ]
    if q == 2.0:
        return math.sqrt(sum(s * s for s in scaled))
    return sum(s ** q for s in scaled) ** (1.0 / q)


def _sign(a):
    return -1 if a < 0 else 1


def norming_vector(f: LatticeVector, n: LatticeNorm) -> LatticeVector:
    """A unit vector x (in n) maximizing f . x, so f . x = dual_norm(f, n).

    Exact for p in {1, inf} with exact data; float otherwise.  For f = 0 an
    arbitrary unit vector is returned.
    """
    u = n.weight_list(f.dim, f.is_exact)
    one = Fraction(1) if f.is_exact else 1.0
    if n.p == 1.0:
        if f.is_zero(0.0 if f.is_exact else 0.0):
            entries = [one * 0] * f.dim
            entries[0] = one / u[0]
            return LatticeVector(entries)
        best = max(range(f.dim), key=lambda j: abs(f.entries[j]) / u[j])
        entries = [one * 0] * f.dim
        entries[best] = _sign(f.entries[best]) * one / u[best]
        return LatticeVector(entries)
    if n.p == INF:
        return LatticeVector(
            [_sign(a) * one / w for w, a in zip(u, f.entries)]
        )
    rho = [
        float(a) * float(w) ** (-1.0 / n.p) for w, a in zip(u, f.entries)
    ]
    q = n.conjugate_exponent()
    mags = [abs(r) ** (q - 1.0) for r in rho]
    scale = sum(m ** n.p * 1.0 for m in mags)
    if scale == 0.0:
        entries = [0.0] * f.dim
        entries[0] = float(u[0]) ** (-1.0 / n.p)
        return LatticeVector(entries)
    scale = scale ** (1.0 / n.p)
    return LatticeVector(
        [
            _sign(r) * m / scale * float(w) ** (-1.0 / n.p)
            for r, m, w in zip(rho, mags, u)
        ]
    )


def norming_functional(x: LatticeVector, n: LatticeNorm) -> LatticeVector:
    """A dual-unit functional phi with phi . x = vector_norm(x, n).

    Exact for p in {1, inf} with exact data; float otherwise.  For x = 0 an
    arbitrary dual-unit functional is returned.
    """
    u = n.weight_list(x.dim, x.is_exact)
    one = Fraction(1) if x.is_exact else 1.0
    if n.p == 1.0:
        return LatticeVector([_sign(a) * w * one for w, a in zip(u, x.entries)])
    if n.p == INF:
        best = max(range(x.dim), key=lambda j: u[j] * abs(x.entries[j]))
        entries = [one * 0] * x.dim
        entries[best] = _sign(x.entries[best]) * u[best] * one
        return LatticeVector(entries)
    xi = [float(w) ** (1.0 / n.p) * float(a) for w, a in zip(u, x.entries)]
    norm_xi = sum(abs(s) ** n.p for s in xi) ** (1.0 / n.p)
    if norm_xi == 0.0:
        entries = [0.0] * x.dim
        entries[0] = float(u[0]) ** (1.0 / n.p)
        return LatticeVector(entries)
    rho = [
        _sign(s) * (abs(s) / norm_xi) ** (n.p - 1.0) for s in xi
    ]
    return LatticeVector(
        [r * float(w) ** (1.0 / n.p) for r, w in zip(rho, u)]
    )


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def _boyd_ascent(
    Af: RegularOperator,
    n_from: LatticeNorm,
    n_to: LatticeNorm,
    x0: LatticeVector,
    iters: int,
):
    """Alternating-duality-map ascent for ||A x||_to on the from-unit sphere."""
    nx = float(vector_norm(x0, n_from))
    if nx == 0.0:
        return 0.0, x0
    x = x0.scale(1.0 / nx)
    At = Af.transpose()
    best_val = float(vector_norm(Af.apply(x), n_to))
    best_x = x
    for _ in range(iters):
        y = Af.apply(x)
        if all(a == 0.0 for a in y.entries):
            break
        phi = norming_functional(y, n_to)
        r = At.apply(phi)
        x = norming_vector(r, n_from)
        val = float(vector_norm(Af.apply(x), n_to))
        if val > best_val:
            best_val, best_x = val, x
        else:
            break
    return best_val, best_x


def operator_norm(
    A: RegularOperator,
    n_from: LatticeNorm,
    n_to: LatticeNorm,
    seed: int = 0,
    starts: int = 8,
    iters: int = 40,
) -> NormResult:
    """Induced norm of A: (R^cols, n_from) -> (R^rows, n_to)."""
    exact_in = A.is_exact
    u = n_from.weight_list(A.cols, exact_in and n_from.exact_capable)

    if n_from.p == 1.0:
        # Unit-ball extreme points are +-e_j / u_j.
        values = [
            vector_norm(A.column(j), n_to) / u[j] for j in range(A.cols)
        ]
        best = max(range(A.cols), key=lambda j: values[j])
        witness = LatticeVector.unit(A.cols, best, FLOAT).scale(1.0 / float(u[best]))
        return NormResult(values[best], witness, True, "max_column")

    if n_to.p == INF:
        v = n_to.weight_list(A.rows, exact_in and n_to.exact_capable)
        values = [
            v[i] * dual_norm(A.row(i), n_from) for i in range(A.rows)
        ]
        best = max(range(A.rows), key=lambda i: values[i])
        witness = norming_vector(A.row(best), n_from).to_float()
        return NormResult(values[best], witness, True, "max_row_dual")

    if n_from.p == INF and A.is_positive(0.0 if exact_in else DEFAULT_TOLERANCE):
        # For positive A the sup over the unit ball sits at the positive
        # corner x_j = 1 / u_j (monotone to-norm, |A x| <= A corner).
        one = Fraction(1) if (exact_in and n_from.exact_capable) else 1.0
        corner = LatticeVector([one / w for w in u])
        operand = A if corner.mode == A.mode else A.to_float()
        value = vector_norm(operand.apply(corner), n_to)
        return NormResult(value, corner.to_float(), True, "positive_corner")

    if n_from.p == 2.0 and n_to.p == 2.0:
        arr = np.array(A.as_floats())
        u_np = n_from.np_weights(A.cols)
        v_np = n_to.np_weights(A.rows)
        scaled = np.sqrt(v_np)[:, None] * arr * (1.0 / np.sqrt(u_np))[None, :]
        svd_u, svd_s, svd_vt = np.linalg.svd(scaled)
        witness = LatticeVector(
            list(svd_vt[0] / np.sqrt(u_np))
        )
        return NormResult(float(svd_s[0]), witness, True, "svd")

    # Multistart generalized power iteration: certified lower bound only.
    Af = A.to_float()
    positive = A.is_positive()
    rng = np.random.default_rng(seed)
    starts_list = [LatticeVector([1.0] * A.cols)]
    starts_list += [
        LatticeVector.unit(A.cols, j, FLOAT) for j in range(min(A.cols, starts))
    ]
    for _ in range(starts):
        vec = rng.standard_normal(A.cols)
        starts_list.append(LatticeVector(list(vec)))
    best_val, best_x = 0.0, LatticeVector([1.0] * A.cols)
    for x0 in starts_list:
        if positive:
            x0 = abs(x0)
        val, x = _boyd_ascent(Af, n_from, n_to, x0, iters)
        if val > best_val:
            best_val, best_x = val, x
    return NormResult(best_val, best_x, False, "search")


def regular_norm(
    A: RegularOperator,
    n_from: LatticeNorm,
    n_to: LatticeNorm,
    seed: int = 0,
) -> NormResult:
    """||A||_r = operator norm of the entrywise modulus |A|."""
    return operator_norm(A.modulus_closed_form(), n_from, n_to, seed=seed)


# ---------------------------------------------------------------------------
# batched float norms (sampling back-end)
# ---------------------------------------------------------------------------


def _np_vector_norms(arr: np.ndarray, n: LatticeNorm) -> np.ndarray:
    """Norms of the rows of a (..., d) array."""
    w = n.np_weights(arr.shape[-1])
    if n.p == 1.0:
        return (w * np.abs(arr)).sum(axis=-1)
    if n.p == INF:
        return (w * np.abs(arr)).max(axis=-1)
    if n.p == 2.0:
        return np.sqrt((w * arr * arr).sum(axis=-1))
    return ((w * np.abs(arr) ** n.p).sum(axis=-1)) ** (1.0 / n.p)


def _np_dual_norms(arr: np.ndarray, n: LatticeNorm) -> np.ndarray:
    w = n.np_weights(arr.shape[-1])
    if n.p == 1.0:
        return (np.abs(arr) / w).max(axis=-1)
    if n.p == INF:
        return (np.abs(arr) / w).sum(axis=-1)
    q = n.conjugate_exponent()
    scaled = np.abs(arr) * w ** (-1.0 / n.p)
    return (scaled ** q).sum(axis=-1) ** (1.0 / q)


def batched_operator_norm(
    stack: np.ndarray,
    n_from: LatticeNorm,
    n_to: LatticeNorm,
    positive: bool = False,
) -> np.ndarray:
    """p -> q norms of a stack of matrices, shape (count, rows, cols).

    Vectorized for the closed-form norm pairs; falls back to per-matrix
    multistart ascent otherwise (slow path, small stacks only).
    """
    count, rows, cols = stack.shape
    if n_from.p == 1.0:
        u = n_from.np_weights(cols)
        col_norms = _np_vector_norms(
            np.swapaxes(stack, -1, -2), n_to
        )  # (count, cols)
        return (col_norms / u).max(axis=-1)
    if n_to.p == INF:
        v = n_to.np_weights(rows)
        duals = _np_dual_norms(stack, n_from)  # (count, rows)
        return (v * duals).max(axis=-1)
    if n_from.p == INF and positive:
        u = n_from.np_weights(cols)
        images = stack @ (1.0 / u)  # (count, rows)
        return _np_vector_norms(images, n_to)
    if n_from.p == 2.0 and n_to.p == 2.0:
        u = n_from.np_weights(cols)
        v = n_to.np_weights(rows)
        scaled = np.sqrt(v)[None, :, None] * stack * (1.0 / np.sqrt(u))[None, None, :]
        return np.linalg.svd(scaled, compute_uv=False)[:, 0]
    out = np.empty(count)
    for idx in range(count):
        op = RegularOperator(rows, cols, [float(a) for a in stack[idx].ravel()])
        out[idx] = operator_norm(op, n_from, n_to).value_float
    return out


#: Most floats in one sampled stack: the samples T_s, the partial products
#: A T_s and the images A T_s B each hold at most this many (128 MiB).
SAMPLE_STACK_CAP = 1 << 24


def check_sample_stack(samples: int, a_shape: tuple, b_shape: tuple):
    """Refuse a sampling run whose stacks would exceed ``SAMPLE_STACK_CAP``.

    ``a_shape`` = (z, y) and ``b_shape`` = (x, w) are the shapes of A and B,
    so a caller can check a run before it builds the factors.  A negative
    sample count raises ``ValueError``.
    """
    if samples < 0:
        raise ValueError(f"the sample count must be nonnegative, got {samples}")
    (z, y), (x, w) = a_shape, b_shape
    entries = max(y * x, z * x, z * w)
    if samples * entries > SAMPLE_STACK_CAP:
        raise EnumerationLimitError(
            f"{samples} samples of {entries} entries exceed sample stack cap "
            f"{SAMPLE_STACK_CAP}"
        )


def _largest_image(
    arr_A: np.ndarray,
    stack: np.ndarray,
    arr_B: np.ndarray,
    assignment: NormAssignment,
    positive: bool,
):
    """The largest norm (W -> Z) of the images A T B of a stack of T scaled
    to unit norm (X -> Y), formed as one batched product, and its T; None if
    every T of the stack is zero."""
    t_norms = batched_operator_norm(
        stack, assignment.n_X, assignment.n_Y, positive=positive
    )
    keep = t_norms > 0.0
    if not keep.any():
        return None
    normalized = stack[keep] / t_norms[keep][:, None, None]
    images = arr_A @ normalized @ arr_B
    values = batched_operator_norm(
        images, assignment.n_W, assignment.n_Z, positive=positive
    )
    idx = int(values.argmax())
    return float(values[idx]), normalized[idx]


# ---------------------------------------------------------------------------
# regular-norm multiplicativity
# ---------------------------------------------------------------------------


def _all_ones_1chain(assignment: NormAssignment) -> bool:
    return all(
        n.p == 1.0 and n.weights is None
        for n in (assignment.n_W, assignment.n_X, assignment.n_Y, assignment.n_Z)
    )


#: Most extreme points (y^x) that ``superop_regular_norm_1chain`` enumerates:
#: a 7 x 7 domain (823,543 points) is within it, an 8 x 8 one is not.
EXTREME_POINT_CAP = 1 << 20

#: Extreme points per chunk of the enumeration kernel, so that its
#: (points, z, x) and (points, z, w) intermediates stay bounded.
_KERNEL_CHUNK_POINTS = 1 << 10


def superop_regular_norm_1chain(A: RegularOperator, B: RegularOperator) -> Fraction:
    """Exact regular norm of T |-> ATB for the all-(l1 -> l1) assignment.

    The unit ball of the max-column-sum norm on y x x matrices has extreme
    points T_a with one signed unit per column (column j is e_{a_j}, up to
    sign); for the positive map M_{|A|,|B|} the supremum sits at a positive
    extreme point, so a finite enumeration over the y^x column assignments a
    computes the norm exactly.

    The enumeration runs as an integer kernel: |A| is scaled to integers
    over its common denominator D_A and |B| over D_B, and for each chunk of
    assignments the images |A| T_a |B| = |A|[:, a] |B| are formed as numpy
    object arrays of Python ints, which cannot overflow; the largest column
    sum over all of them, over D_A D_B, is the norm.  Exact operators only
    (``ScalarModeError`` otherwise); more than ``EXTREME_POINT_CAP`` extreme
    points raise ``EnumerationLimitError`` before any work is done.
    """
    if not (A.is_exact and B.is_exact):
        raise ScalarModeError("the extreme-point enumeration needs exact operators")
    y, x = A.cols, B.rows
    points = y**x
    if points > EXTREME_POINT_CAP:
        raise EnumerationLimitError(
            f"{y}^{x} = {points} extreme points exceed enumeration cap "
            f"{EXTREME_POINT_CAP}"
        )
    absA, D_A = scaled_array(A.modulus_closed_form().entries, (A.rows, y))
    absB, D_B = scaled_array(B.modulus_closed_form().entries, (x, B.cols))
    # Digit j of an assignment code (base y) is a_j; under the cap every y**j
    # fits in int64.  np.unravel_index would need x axes, and numpy has 64.
    radix = y ** np.arange(x, dtype=np.int64)
    best = 0
    for start in range(0, points, _KERNEL_CHUNK_POINTS):
        codes = np.arange(start, min(start + _KERNEL_CHUNK_POINTS, points))
        a = codes[:, None] // radix % y  # (N, x)
        images = absA.T[a].swapaxes(1, 2) @ absB  # |A| T_a |B|: (N, z, w)
        best = max(best, images.sum(axis=1).max())
    return Fraction(best, D_A * D_B)


def verify_cor23(
    A: RegularOperator,
    B: RegularOperator,
    assignment: NormAssignment,
    samples: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Regular-norm multiplicativity of T |-> ATB.

    Right side: the product of the factors' regular norms.  Left side,
    bounded from below by the rank-one witness family (T = x' (x) y with
    M(T) = (B'x') (x) (Ay), evaluated at the factors' norming data) and from
    above by sampling positive T of unit regular norm.  PASS iff the witness
    reaches the product within ``tol`` and no sample exceeds it by more than
    ``tol``; for the all-l1 assignment on exact inputs, the left side is
    additionally enumerated exactly and must equal the product on the nose
    (``EnumerationLimitError`` beyond ``EXTREME_POINT_CAP`` extreme points).
    More than ``SAMPLE_STACK_CAP`` floats in a sampled stack raise
    ``EnumerationLimitError`` before anything is drawn.
    """
    check_sample_stack(samples, A.shape, B.shape)
    n_W, n_X = assignment.n_W, assignment.n_X
    n_Y, n_Z = assignment.n_Y, assignment.n_Z
    absA = A.modulus_closed_form()
    absB = B.modulus_closed_form()
    rnA = operator_norm(absA, n_Y, n_Z, seed=seed)
    rnB = operator_norm(absB, n_W, n_X, seed=seed)
    product = rnA.value * rnB.value
    product_f = float(product)

    # Rank-one witness: y* norms |A|; x' norms |B| v* in X, so that
    # ||(|B|' x') (x) (|A| y*)||_r = ||B||_r ||A||_r.
    absA_f = absA.to_float()
    absB_f = absB.to_float()
    y_star = rnA.witness
    v_star = rnB.witness
    x_prime = norming_functional(absB_f.apply(v_star), n_X)
    u_prime = absB_f.transpose().apply(x_prime)
    witness_value = float(dual_norm(u_prime, n_W)) * float(
        vector_norm(absA_f.apply(y_star), n_Z)
    )
    witness_T = rank_one(x_prime, y_star)
    witness_shortfall = max(0.0, product_f - witness_value)

    # Sampled upper side: positive T of unit regular norm never push
    # ||  |A| T |B|  || above the product.
    rng = np.random.default_rng(seed)
    max_sample = 0.0
    if samples > 0:
        stack = rng.uniform(0.0, 1.0, size=(samples, A.cols, B.rows))
        arr_A, arr_B = np.array(absA.as_floats()), np.array(absB.as_floats())
        largest = _largest_image(arr_A, stack, arr_B, assignment, positive=True)
        if largest is not None:
            max_sample = largest[0]
    sample_excess = max(0.0, max_sample - product_f)

    # Exact closed form for the flagship assignment.
    exact_chain = _all_ones_1chain(assignment) and A.is_exact and B.is_exact
    closed_value = None
    closed_dev = None
    if exact_chain:
        closed_value = superop_regular_norm_1chain(A, B)
        closed_dev = abs(closed_value - product)

    float_ok = witness_shortfall <= tol and sample_excess <= tol
    if exact_chain:
        exact = True
        max_deviation = closed_dev
        status = "pass" if (closed_dev == 0 and float_ok) else "fail"
        if closed_dev == 0 and not float_ok:
            # The exact identity held but float-side sampling misbehaved;
            # report the float deviation honestly.
            exact = False
            max_deviation = max(witness_shortfall, sample_excess)
    else:
        exact = False
        max_deviation = max(witness_shortfall, sample_excess)
        status = "pass" if float_ok else "fail"

    inputs = {
        "A": A.to_json(),
        "B": B.to_json(),
        "assignment": assignment.to_json(),
        "samples": samples,
    }
    details = {
        "regular_norm_A": scalar_to_json(rnA.value),
        "regular_norm_B": scalar_to_json(rnB.value),
        "product": scalar_to_json(product),
        "witness_value": witness_value,
        "witness_shortfall": witness_shortfall,
        "max_sample": max_sample,
        "sample_excess": sample_excess,
        "closed_form_value": (
            None if closed_value is None else scalar_to_json(closed_value)
        ),
        "norm_methods": [rnA.method, rnB.method],
    }
    return make_report(
        claim_id="cor23",
        inputs=inputs,
        deviations=[max_deviation],
        exact=exact,
        witnesses=(
            {"role": "rank_one_T", **witness_T.to_json()},
            {"role": "y_star", **y_star.to_json()},
            {"role": "x_prime", **x_prime.to_json()},
        ),
        seed=seed,
        details=details,
        tol=tol,
        status=status,
    )


# ---------------------------------------------------------------------------
# operator-norm vs regular-norm gap
# ---------------------------------------------------------------------------


#: Most entries (4^m) of ``hadamard_tensor_power``: m <= 10.
HADAMARD_ENTRY_CAP = 1 << 20


def hadamard_order(m: int) -> int:
    """2^m, the side of H_2^{(x) m}, once m is checked.

    More than ``HADAMARD_ENTRY_CAP`` entries raise ``EnumerationLimitError``.
    """
    if m < 0:
        raise ValueError("tensor power must be nonnegative")
    if 4**m > HADAMARD_ENTRY_CAP:
        raise EnumerationLimitError(
            f"H_2^(x){m} has 4^{m} entries, above entry cap {HADAMARD_ENTRY_CAP}"
        )
    return 1 << m


def hadamard_tensor_power(m: int) -> RegularOperator:
    """H_2^{(x) m}: the 2^m x 2^m sign matrix with |H| = all-ones.

    More than ``HADAMARD_ENTRY_CAP`` entries raise ``EnumerationLimitError``
    before anything is built.
    """
    hadamard_order(m)
    H = RegularOperator.from_rows([[1, 1], [1, -1]])
    out = RegularOperator.identity(1)
    from .superop import kron

    for _ in range(m):
        out = kron(out, H)
    return out


def gap_report(
    A: RegularOperator,
    B: RegularOperator,
    assignment: NormAssignment,
    samples: int = 200,
    seed: int = 0,
) -> VerificationReport:
    """Ratio of the operator norm of T |-> ATB to the regular-norm product.

    The operator-norm side is a sampled lower bound over unit-operator-norm
    T (mixed signs), sharpened for 2 -> 2 norms by the singular-vector
    witness T = v_A u_B^T which attains ||A|| ||B||.  Reported as an
    exploration (status ``info``): the ratio can sink far below 1, e.g. at
    rate 2^-m along A = B = hadamard_tensor_power(m).  More than
    ``SAMPLE_STACK_CAP`` floats in a sampled stack raise
    ``EnumerationLimitError`` before anything is drawn.
    """
    check_sample_stack(samples, A.shape, B.shape)
    n_W, n_X = assignment.n_W, assignment.n_X
    n_Y, n_Z = assignment.n_Y, assignment.n_Z
    rnA = regular_norm(A, n_Y, n_Z, seed=seed)
    rnB = regular_norm(B, n_W, n_X, seed=seed)
    denom = rnA.value_float * rnB.value_float

    arr_A = np.array(A.as_floats())
    arr_B = np.array(B.as_floats())
    rng = np.random.default_rng(seed)
    candidates = []
    if samples > 0:
        candidates.append(
            rng.standard_normal(size=(samples, A.cols, B.rows))
        )
    witness_T = None
    if n_X.p == 2.0 and n_Y.p == 2.0 and n_X.weights is None and n_Y.weights is None:
        # T = v_A u_B^T maps B's top output direction onto A's top input
        # direction; for 2->2 norms it attains ||A|| ||B||.
        v_A = np.linalg.svd(arr_A)[2][0]
        u_B = np.linalg.svd(arr_B)[0][:, 0]
        witness_T = np.outer(v_A, u_B)
        candidates.append(witness_T[None, :, :])
    best = 0.0
    best_T = witness_T
    for stack in candidates:
        largest = _largest_image(arr_A, stack, arr_B, assignment, positive=False)
        if largest is not None and largest[0] > best:
            best, best_T = largest
    rho = best / denom if denom > 0.0 else 0.0

    inputs = {
        "A": A.to_json(),
        "B": B.to_json(),
        "assignment": assignment.to_json(),
        "samples": samples,
    }
    details = {
        "operator_side": best,
        "regular_side": denom,
        "rho": rho,
        "regular_norm_A": scalar_to_json(rnA.value),
        "regular_norm_B": scalar_to_json(rnB.value),
    }
    witnesses = ()
    if best_T is not None:
        flat = [float(a) for a in np.asarray(best_T).ravel()]
        witnesses = (
            {
                "role": "best_T",
                **RegularOperator(A.cols, B.rows, flat).to_json(),
            },
        )
    return make_report(
        claim_id="gap",
        inputs=inputs,
        deviations=[0.0],
        exact=False,
        witnesses=witnesses,
        seed=seed,
        details=details,
        status="info",
    )
