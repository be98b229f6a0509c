"""l^p norms, p -> q operator norms, and the regular norm.

A ``LatticeNorm`` is the l^p norm on a coordinate space; it is a lattice
norm (|x| <= |y| implies ||x|| <= ||y||) and, being finite-dimensional,
order continuous.  ``operator_norm`` computes the induced p -> q norm of a
matrix, using closed forms whenever one exists:

* from-norm p = 1:        max over columns of the to-norm;
* to-norm   q = inf:      max over rows of the dual from-norm;
* from-norm p = inf, A positive: the value at the all-ones corner;
* p = q = 2:              largest singular value;
* otherwise:              seeded multistart ascent (generalized power
                          iteration alternating the duality maps of the two
                          norms), reported as an uncertified lower bound;
                          more than ``SEARCH_WORK_CAP`` (2^24) of its work
                          raises ``EnumerationLimitError`` before any step.

Each closed form, the search, the l^p norm and the duality map is written
once, as an array kernel over a stack, on stored values over a
denominator: Python-int numerators (so exact values stay ``Fraction``) or
float64, sums taken by ``lattice._left_sum``.  A dual norm is the norm at
the conjugate exponent, a norming vector the duality map there.  At p not
in {1, inf} each vector is scaled by a power of two, its powers taken by
``np.power`` (last bits depending on numpy's CPU kernel, not on the
array's shape) and its norm scaled back: its largest power is at least
1, so no norm underflows; below p = 1024 a norm overflows only beyond the
float range; and 2^k A has 2^k times every norm of A but the 2 -> 2 SVD.
``operator_norm`` runs the kernel on a stack of one,
``batched_operator_norm`` on a whole stack by one method, and both give a
matrix the same bits at every exponent pair; at 2 -> 2 both take the
stack's thin SVD, whose top right singular vector is the witness.
``vector_norm``, ``dual_norm`` and ``norming_functional``: the kernel on one vector.

``regular_norm`` is the operator norm of the entrywise modulus.  The two
verifiers cover the regular-norm multiplicativity of two-sided
multiplications (``verify_cor23``: ||M_{A,B}||_r = ||A||_r ||B||_r) and
the gap between the operator norm and the regular norm of the same map
(``gap_report``), which collapses like 2^-m along the sign-matrix family
H_2^{(x) m}.  Both take one rank-one witness T = x' (x) y*, for which
M(T) = (B'x') (x) (Ay*) reaches the product of the factor norms:
``verify_cor23`` on |A| and |B|, ``gap_report`` on A and B themselves,
scaled by powers of two so that its ratio does not move with their scale.
A factor passed to ``gap_report`` as both A and B is scaled once, and
normed once when its two norm pairs agree.  Both write T as its factors,
the witnesses ``y_star`` and ``x_prime``: ``operators.rank_one(x_prime,
y_star)`` rebuilds it bit for bit.

Only ``verify_cor23`` samples, positive T for its upper side; no T beats
the witness in ``gap_report``, which draws nothing.  The samples are
drawn in stacks of ``lattice._chunk_size`` samples, each stack's images
A T_s B formed as one batched BLAS product ``A @ stack @ B``, so a run's
memory does not grow with its sample count.  A run of more than
``SAMPLE_STACK_CAP`` (2^24) sampled entries, or a norm search over the
samples, their images or the factors (and, for ``gap_report``, the signed
factors) beyond ``SEARCH_WORK_CAP``, raises ``EnumerationLimitError``
before any work (``check_sampling``), and so does a
``hadamard_tensor_power`` of more than ``superop.KRON_ENTRY_CAP`` (2^20)
entries, i.e. m > 10.

For the all-l1 assignment on exact factors, ``verify_cor23`` also computes
the left side exactly (``superop_regular_norm_1chain``) by enumerating the
y^x extreme points of the domain's unit ball in an integer kernel on the
stored numerators of |A| and |B|, first of all its work: only the column
sums of each image, on int64 when ``lattice._on_words`` proves they fit,
on Python ints otherwise.  A domain with more than ``EXTREME_POINT_CAP``
(2^20) extreme points raises ``EnumerationLimitError`` before the sampling
check, the norms and the samples, without forming y^x.

Norm values stay exact (``Fraction``) whenever the closed form involves no
roots and the inputs are exact; witness vectors are always float-mode unit
vectors (attainment is certified to 1e-9, not bitwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .lattice import (
    EnumerationLimitError,
    LatticeVector,
    _chunk_size,
    _left_sum,
    _matmul,
    _on_words,
    _product_den,
)
from .operators import RegularOperator
from .reports import VerificationReport, make_report
from .scalars import DEFAULT_TOLERANCE, ScalarModeError
from .superop import KRON_ENTRY_CAP, kron

INF = math.inf


@dataclass(frozen=True)
class LatticeNorm:
    """The l^p norm: ||x|| = (sum_j |x_j|^p)^(1/p), max_j |x_j| for p = inf."""

    p: float = 2.0

    def __post_init__(self):
        p = float(self.p)
        if not (p >= 1.0):
            raise ValueError(f"norm exponent must be >= 1, got {self.p}")
        object.__setattr__(self, "p", p)

    def conjugate_exponent(self) -> float:
        if self.p == 1.0:
            return INF
        if self.p == INF:
            return 1.0
        return self.p / (self.p - 1.0)

    def to_json(self) -> dict:
        return {"p": "inf" if self.p == INF else self.p}


@dataclass(frozen=True)
class NormAssignment:
    """One l^p norm per underlying space W, X, Y, Z."""

    n_W: LatticeNorm
    n_X: LatticeNorm
    n_Y: LatticeNorm
    n_Z: LatticeNorm

    @classmethod
    def uniform(cls, p) -> "NormAssignment":
        """The l^p norm on all four spaces."""
        norm = LatticeNorm(p=p)
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
    inputs, a float otherwise (2^k times as large for 2^k A, bit for bit,
    but by SVD).  ``witness`` is always a float-mode vector of from-norm at
    most 1 + 1e-12 (the unit all-ones for a zero matrix searched) with
    ||A witness|| <= value + 1e-9 (equality up to float rounding for
    certified methods).  ``certified`` is False only for search-based lower
    bounds.
    """

    value: object
    witness: LatticeVector
    method: str

    @property
    def certified(self) -> bool:
        return self.method != "search"

    @property
    def value_float(self) -> float:
        return float(self.value)


# ---------------------------------------------------------------------------
# the norm kernel: stacks over their last axis, stored values over a
# denominator (Python-int numerators, or float64 with den None)
# ---------------------------------------------------------------------------


def _floats(values, den):
    """Stored values as float64, each correctly rounded."""
    return values if den is None else (values / den).astype(np.float64)


def _value(x):
    """One kernel result as a scalar: a Fraction, or a Python float."""
    return x if isinstance(x, Fraction) else float(x)


def _binary_scaled_floats(values, axes=-1):
    """(2^-e values, e), each array over ``axes`` scaled exactly so that its
    largest modulus lies in [1, 2) as in ``_binary_scaled``, e with ``axes``
    kept as length 1.  Blue's scaled norm: the largest power of a scaled
    entry is at least 1, so it never underflows, nor overflows below 2^1024."""
    _, exps = np.frexp(np.abs(values).max(axis=axes, keepdims=True))
    return np.ldexp(values, 1 - exps), exps - 1


def _norms(values, den, p: float):
    """The l^p norms of the vectors on the last axis; a dual norm is the
    norm at the conjugate exponent.  Fractions for p in {1, inf} on exact
    data, floats otherwise.  Every other p takes one formula, on each vector
    scaled by ``_binary_scaled_floats`` and scaled back, so that 2^k x has the
    norm 2^k ||x|| bit for bit while both are in range."""
    if p not in (1.0, INF):
        mags, exps = _binary_scaled_floats(np.abs(_floats(values, den)))
        return np.ldexp(np.power(_left_sum(np.power(mags, p)), 1.0 / p), exps[..., 0])
    out = _left_sum(np.abs(values)) if p == 1.0 else np.abs(values).max(axis=-1)
    return out if den is None else out * Fraction(1, den)


def _norming(values, den, p: float):
    """For each vector f on the last axis, the dual-unit phi with
    phi . f = ||f||_p, phi_j = sign(f_j) (|f_j| / ||f||_p)^(p - 1); the unit
    x with f . x = the dual norm of f is phi at the conjugate exponent.
    Exact (an object array) for p in {1, inf} on exact data, floats
    otherwise, and the same for every 2^k f.  A zero f gets e_0."""
    dim = values.shape[-1]
    if p in (1.0, INF):
        # The extreme points: the vectors of signs, or +-e_j.
        units = np.ones(dim, dtype=values.dtype)
        signed = np.where(values < 0, -units, units)
        if p == 1.0:
            return signed
        best = np.abs(values).argmax(axis=-1)[..., None]
        out = np.zeros_like(signed)
        np.put_along_axis(out, best, np.take_along_axis(signed, best, -1), -1)
        return out
    mags, _ = _binary_scaled_floats(np.abs(_floats(values, den)))
    norm = _norms(mags, None, p)  # scaled by 2^0: max(mags) is in [1, 2)
    zero = norm == 0.0
    mags = np.power(mags / np.where(zero, 1.0, norm)[..., None], p - 1.0)
    e_0 = np.arange(dim) == 0
    return np.where(zero[..., None], e_0, np.where(values < 0, -mags, mags))


def vector_norm(x: LatticeVector, n: LatticeNorm):
    """The l^p norm of x; Fraction for p in {1, inf} on exact data."""
    return _value(_norms(x._values, x._den, n.p))


def dual_norm(f: LatticeVector, n: LatticeNorm):
    """Norm of the functional x |-> f . x on (R^d, n)."""
    return _value(_norms(f._values, f._den, n.conjugate_exponent()))


def norming_functional(x: LatticeVector, n: LatticeNorm) -> LatticeVector:
    """A dual-unit functional phi with phi . x = vector_norm(x, n).

    Exact for p in {1, inf} with exact data; float otherwise.  For x = 0 an
    arbitrary dual-unit functional is returned.
    """
    return LatticeVector(_norming(x._values, x._den, n.p).tolist())


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def _closed_form_method(n_from, n_to, positive: bool) -> Optional[str]:
    """The first closed form for the norms from ``n_from`` to ``n_to`` (of
    positive matrices if ``positive``), or None if they need a search."""
    if n_from.p == 1.0:
        return "max_column"
    if n_to.p == INF:
        return "max_row_dual"
    if n_from.p == INF and positive:
        return "positive_corner"
    if n_from.p == 2.0 and n_to.p == 2.0:
        return "svd"
    return None


def _closed_form(values, den, n_from, n_to, method: str):
    """The norms by ``method`` of a stack of matrices (count, rows, cols),
    stored as ``values`` over ``den``: (norms, witnesses), the witnesses
    (count, cols) float unit vectors attaining the norms.

    At 2 -> 2 one thin SVD of the stack gives each matrix sigma_max and its
    right singular vector, the same bits for a matrix alone or stacked.
    """
    count, _, cols = values.shape
    pick = np.arange(count)
    if method == "max_column":
        # Unit-ball extreme points are +-e_j.
        norms = _norms(np.swapaxes(values, -1, -2), den, n_to.p)
        best = norms.argmax(axis=-1)
        witness = np.zeros((count, cols))
        witness[pick, best] = 1.0
        return norms[pick, best], witness
    if method == "max_row_dual":
        dual = n_from.conjugate_exponent()
        norms = _norms(values, den, dual)
        best = norms.argmax(axis=-1)
        return norms[pick, best], _norming(values[pick, best], den, dual).astype(np.float64)
    if method == "positive_corner":
        # For positive A the sup over the unit ball sits at the all-ones
        # corner (monotone to-norm, |A x| <= A corner).
        corner = np.ones((cols, 1), dtype=values.dtype)
        norms = _norms(_matmul(values, corner)[..., 0], den, n_to.p)
        return norms, np.ones((count, cols))
    _, svd_s, svd_vt = np.linalg.svd(_floats(values, den), full_matrices=False)
    return svd_s[:, 0], svd_vt[:, 0]


#: The search runs SEARCH_ITERS ascent steps from each of all-ones, the first
#: SEARCH_STARTS unit vectors and SEARCH_STARTS random starts.
SEARCH_STARTS = 8
SEARCH_ITERS = 40

#: Most matrix entries times norm evaluations of one search (one matrix or
#: a stack); ``_check_search`` refuses more before the first ascent step.
#: So the search's copy of each matrix per start holds at most 2^24/41 floats.
SEARCH_WORK_CAP = 1 << 24


def _check_search(count: int, rows: int, cols: int):
    """Refuse a search over ``count`` matrices of shape (rows, cols) whose
    work exceeds ``SEARCH_WORK_CAP``."""
    starts = 1 + min(cols, SEARCH_STARTS) + SEARCH_STARTS
    work = count * starts * (SEARCH_ITERS + 1) * rows * cols
    if work > SEARCH_WORK_CAP:
        raise EnumerationLimitError(
            f"a norm search over {count} {rows}x{cols} matrices ({work} steps) "
            f"exceeds search work cap {SEARCH_WORK_CAP}"
        )


def _search(a, n_from, n_to, positive, seed: int):
    """The seeded multistart ascent on a float stack ``a`` (count, rows,
    cols): (norms, witnesses), uncertified lower bounds and unit vectors.

    Each (matrix, start) pair is a row of one array (a block of starts, as
    in Higham and Tisseur's estimator), iterated by alternating the duality
    maps of the two norms (Boyd's power method) until its first step that
    does not gain or whose image is zero.  Every matrix has the same starts,
    taken entrywise absolute for the ``positive`` ones, and gets the first
    start that reaches its largest value (a nan never wins), or 0.0 at the
    unit all-ones start when no start gives more.  The matrices are
    searched scaled by ``_binary_scaled_floats``, so 2^k A gets A's witness
    even where the ascent's products are subnormal."""
    a, exps = _binary_scaled_floats(a, (-2, -1))
    count, _, cols = a.shape
    rng = np.random.default_rng(seed)
    starts = np.concatenate([np.ones((1, cols)), np.eye(cols)[: min(cols, SEARCH_STARTS)],
                             rng.standard_normal((SEARCH_STARTS, cols))])
    per = len(starts)
    x = np.where(positive[:, None, None], np.abs(starts), starts).reshape(-1, cols)
    matrix = np.arange(count).repeat(per)
    dual = n_from.conjugate_exponent()
    x = (1.0 / _norms(x, None, n_from.p))[:, None] * x
    ones = x[0].copy()  # the unit all-ones start; best_x is x and moves in place
    # Products summed as ``RegularOperator.apply`` sums them.
    y = _matmul(a[matrix], x[..., None])[..., 0]
    best_val, best_x = _norms(y, None, n_to.p), x
    live = np.arange(len(x))
    for _ in range(SEARCH_ITERS):
        moving = y.any(axis=-1)
        live, y = live[moving], y[moving]
        if not live.size:
            break
        rows = a[matrix[live]]
        phi = _norming(y, None, n_to.p)
        x = _norming(_matmul(rows.swapaxes(-1, -2), phi[..., None])[..., 0], None, dual)
        y = _matmul(rows, x[..., None])[..., 0]
        val = _norms(y, None, n_to.p)
        gain = val > best_val[live]
        live, x, y = live[gain], x[gain], y[gain]
        best_val[live], best_x[live] = val[gain], x
    # 0.0 at the unit all-ones goes first, so a start must beat it to win.
    values = np.concatenate([np.zeros((count, 1)), best_val.reshape(count, per)], 1)
    x = np.concatenate([np.broadcast_to(ones, (count, 1, cols)),
                        best_x.reshape(count, per, cols)], 1)
    pick = np.arange(count), np.where(np.isnan(values), -INF, values).argmax(axis=-1)
    return np.ldexp(values[pick], exps[:, 0, 0]), x[pick]


def _operator_norms(values, den, n_from, n_to, seed: int = 0):
    """The norms of a stack of matrices (count, rows, cols) stored as
    ``values`` over ``den``: (method, norms, witnesses), by the first closed
    form that fits the whole stack or else by ``_search`` (method "search"),
    refused over ``SEARCH_WORK_CAP`` before its first step.

    Only the positive corner (from p = inf, if every matrix is positive) and
    the search starts depend on signs, read on the exact stored values (-0.0
    counts as positive), so not on the scale of the entries.  A positive
    matrix searched from p = inf gets the corner's bits (its first start).
    """
    method = _closed_form_method(n_from, n_to, positive=False)
    if method is None:
        positive = (values >= 0).reshape(len(values), -1).all(axis=-1)
        method = _closed_form_method(n_from, n_to, bool(positive.all()))
    if method is not None:
        return method, *_closed_form(values, den, n_from, n_to, method)
    _check_search(*values.shape)
    return "search", *_search(_floats(values, den), n_from, n_to, positive, seed)


def operator_norm(
    A: RegularOperator, n_from: LatticeNorm, n_to: LatticeNorm, seed: int = 0
) -> NormResult:
    """Induced norm of A: (R^cols, n_from) -> (R^rows, n_to); the kernel on
    a stack of one."""
    method, norms, witnesses = _operator_norms(A._values[None], A._den, n_from, n_to, seed=seed)
    witness = LatticeVector._of(witnesses[0], None)
    return NormResult(_value(norms[0]), witness, method)


def regular_norm(
    A: RegularOperator,
    n_from: LatticeNorm,
    n_to: LatticeNorm,
    seed: int = 0,
) -> NormResult:
    """||A||_r = operator norm of the entrywise modulus |A|."""
    return operator_norm(A.modulus_closed_form(), n_from, n_to, seed=seed)


def batched_operator_norm(
    stack: np.ndarray, n_from: LatticeNorm, n_to: LatticeNorm
) -> np.ndarray:
    """p -> q norms of a float stack of matrices, shape (count, rows, cols).

    One kernel call, closed form or search, that gives each matrix bit for
    bit the value ``operator_norm`` gives it at seed 0, at every exponent
    pair; a search over more than ``SEARCH_WORK_CAP`` is refused before its
    first step.
    """
    return _operator_norms(stack, None, n_from, n_to)[1]


#: Most entries a sampling run draws or forms: over the whole run, its
#: samples T_s, their partial products A T_s and their images A T_s B each
#: number at most this many, which bounds the run's work.  The samples are
#: drawn and evaluated ``lattice._chunk_size`` at a time, so the run's memory
#: stays bounded whatever this allows.
SAMPLE_STACK_CAP = 1 << 24


def _sample_entries(a_shape: tuple, b_shape: tuple) -> int:
    """The most entries of one sample's T (y x x), A T (z x x) or A T B
    (z x w), for A of shape (z, y) and B of shape (x, w)."""
    (z, y), (x, w) = a_shape, b_shape
    return max(y * x, z * x, z * w)


def check_sampling(
    samples: int,
    a_shape: tuple,
    b_shape: tuple,
    assignment,
    factor_signs: Optional[tuple] = None,
):
    """Refuse a run before anything is built or drawn: a negative sample
    count (``ValueError``), sampled entries beyond ``SAMPLE_STACK_CAP`` or a
    norm search beyond ``SEARCH_WORK_CAP`` (``EnumerationLimitError``) over
    the positive y x x samples (X -> Y), their z x w images (W -> Z) or the
    factors' moduli |A| (Y -> Z) and |B| (W -> X).  ``a_shape`` = (z, y) and
    ``b_shape`` = (x, w) are the shapes of A and B.  A gap run passes zero
    samples and ``factor_signs``, whether A and B are positive, as it norms
    them too."""
    if samples < 0:
        raise ValueError(f"the sample count must be nonnegative, got {samples}")
    entries = _sample_entries(a_shape, b_shape)
    if samples * entries > SAMPLE_STACK_CAP:
        raise EnumerationLimitError(
            f"{samples} samples of {entries} entries exceed sample stack cap "
            f"{SAMPLE_STACK_CAP}"
        )
    (z, y), (x, w) = a_shape, b_shape
    a = assignment
    factors = [(a.n_Y, a.n_Z, 1, (z, y)), (a.n_W, a.n_X, 1, (x, w))]
    checks = [(a.n_X, a.n_Y, samples, (y, x), True), (a.n_W, a.n_Z, samples, (z, w), True)]
    checks += [(*factor, True) for factor in factors]
    checks += [(*factor, signs) for factor, signs in zip(factors, factor_signs or ())]
    for n_from, n_to, count, shape, signs in checks:
        if _closed_form_method(n_from, n_to, signs) is None:
            _check_search(count, *shape)


def _draws(rng, samples: int, A: RegularOperator, B: RegularOperator):
    """``samples`` T (A.cols x B.rows) uniform on [0, 1) from ``rng``, in
    stacks of ``lattice._chunk_size`` samples of ``_sample_entries`` each (the
    entries ``check_sampling`` counts, so that A T is bounded too).  numpy's
    generators give one call's stream split across calls, so the stacks hold
    the same numbers in the same order as one draw of every sample."""
    step = _chunk_size(_sample_entries(A.shape, B.shape))
    for start in range(0, samples, step):
        # rng.uniform(0.0, 1.0, shape) bit for bit: 0 + 1 * u is u.
        yield rng.random((min(step, samples - start), A.cols, B.rows))


def _largest_image(
    arr_A: np.ndarray, stacks, arr_B: np.ndarray, assignment: NormAssignment
) -> float:
    """The largest norm (W -> Z) of the images A T B of the T of ``stacks``
    (an iterable of stacks) scaled to unit norm (X -> Y), each stack's images
    formed as one batched product, as ``max`` over all of them in one stack
    would give it (nan if any is nan); 0.0 if every T is zero."""
    best = 0.0
    for stack in stacks:
        t_norms = batched_operator_norm(stack, assignment.n_X, assignment.n_Y)
        keep = t_norms > 0.0
        if not keep.any():
            continue
        if not keep.all():  # a copy only to drop a zero T
            stack, t_norms = stack[keep], t_norms[keep]
        images = arr_A @ (stack / t_norms[:, None, None]) @ arr_B
        values = batched_operator_norm(images, assignment.n_W, assignment.n_Z)
        best = np.maximum(best, values.max())
    return float(best)


# ---------------------------------------------------------------------------
# regular-norm multiplicativity
# ---------------------------------------------------------------------------


def _all_ones_1chain(assignment: NormAssignment) -> bool:
    return all(
        n.p == 1.0
        for n in (assignment.n_W, assignment.n_X, assignment.n_Y, assignment.n_Z)
    )


#: Most extreme points (y^x) that ``superop_regular_norm_1chain`` enumerates:
#: a 7 x 7 domain (823,543 points) is within it, an 8 x 8 one is not.
EXTREME_POINT_CAP = 1 << 20


def _check_extreme_points(y: int, x: int) -> int:
    """The y^x extreme points of a y x x domain's unit ball; more than
    ``EXTREME_POINT_CAP`` raise ``EnumerationLimitError``, y^x unformed: for
    y >= 2 already y^21 is past the cap."""
    points = y ** min(x, EXTREME_POINT_CAP.bit_length())
    if points > EXTREME_POINT_CAP:
        raise EnumerationLimitError(
            f"{y}^{x} extreme points exceed enumeration cap {EXTREME_POINT_CAP}"
        )
    return points


def superop_regular_norm_1chain(A: RegularOperator, B: RegularOperator) -> Fraction:
    """Exact regular norm of T |-> ATB for the all-(l1 -> l1) assignment.

    The unit ball of the max-column-sum norm on y x x matrices has extreme
    points T_a with one signed unit per column (column j is e_{a_j}, up to
    sign); for the positive map M_{|A|,|B|} the supremum sits at a positive
    extreme point, so a finite enumeration over the y^x column assignments a
    computes the norm exactly.

    The enumeration runs as an integer kernel on the numerators of |A| and
    |B|: for each chunk of assignments (``lattice._chunk_size`` of them, so
    that its intermediates stay bounded) it forms the column sums of the
    images |A| T_a |B|, 1'|A| T_a |B| = (1'|A|)[a] |B|, and never the images;
    the largest of them over all chunks is the norm.  The kernel runs on
    int64 when ``lattice._on_words`` proves that x (1'|A|) |B| fits, on the
    Python ints of the numerators otherwise.  Exact operators only
    (``ScalarModeError`` otherwise); more than ``EXTREME_POINT_CAP`` extreme
    points raise ``EnumerationLimitError`` before any work is done.
    """
    if not (A.is_exact and B.is_exact):
        raise ScalarModeError("the extreme-point enumeration needs exact operators")
    y, x = A.cols, B.rows
    points = _check_extreme_points(y, x)
    modA, modB = A.modulus_closed_form(), B.modulus_closed_form()
    col_sums = modA._values.sum(axis=0)
    col_sums, absB = _on_words((col_sums, modB._values), (x, col_sums, modB._values))
    # Digit j of an assignment code (base y) is a_j; under the cap every y**j
    # is below 2^20.  np.unravel_index would need x axes, and numpy has 64.
    radix = y ** np.arange(x)
    step = _chunk_size(x + B.cols)  # the (N, x) and (N, w) intermediates
    best = 0
    for start in range(0, points, step):
        codes = np.arange(start, min(start + step, points))
        a = codes[:, None] // radix % y  # (N, x)
        best = max(best, int((col_sums[a] @ absB).max()))  # 1'|A| T_a |B|: (N, w)
    return Fraction(best, _product_den(modA._den, modB._den))


def _rank_one_witness(A, B, norm_A: NormResult, norm_B: NormResult, assignment):
    """(value, x') for T = x' (x) y*, y* the witness of ``norm_A`` and x'
    norming B v* in X for the witness v* of ``norm_B``: M(T) = (B'x') (x) (Ay*)
    has norm ``value`` = ||B'x'||_{W*} ||Ay*||_Z >= ``norm_A norm_B`` up to
    rounding.  T itself is not formed, and a factor passed as both A and B
    is converted to floats once."""
    A_f = A.to_float()
    B_f = A_f if B is A else B.to_float()
    x_prime = norming_functional(B_f.apply(norm_B.witness), assignment.n_X)
    image = vector_norm(A_f.apply(norm_A.witness), assignment.n_Z)
    value = float(dual_norm(B_f.transpose().apply(x_prime), assignment.n_W)) * float(image)
    return value, x_prime


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
    reaches the product within ``tol`` max(1, product) (``tol`` alone for a
    product beyond the float range) and no sample exceeds it by more than
    that; for the all-l1 assignment on exact inputs, the left side is
    additionally enumerated exactly and must equal the product on the nose.
    A run to enumerate beyond ``EXTREME_POINT_CAP`` extreme points
    (``EnumerationLimitError``), and then one that ``check_sampling``
    refuses, raises before any work.
    """
    enumerate_points = _all_ones_1chain(assignment) and A.is_exact and B.is_exact
    if enumerate_points:
        _check_extreme_points(A.cols, B.rows)
    check_sampling(samples, A.shape, B.shape, assignment)
    closed_value = superop_regular_norm_1chain(A, B) if enumerate_points else None
    absA, absB = A.modulus_closed_form(), B.modulus_closed_form()
    rnA = operator_norm(absA, assignment.n_Y, assignment.n_Z, seed=seed)
    rnB = operator_norm(absB, assignment.n_W, assignment.n_X, seed=seed)
    product = rnA.value * rnB.value
    product_f = float(product)
    # The float sides round in proportion to the product: an SVD value
    # against a long sum, sampled images against it.
    tol = tol * max(1.0, product_f) if math.isfinite(product_f) else tol

    # Rank-one witness: y* norms |A|; x' norms |B| v* in X, so that
    # ||(|B|' x') (x) (|A| y*)||_r = ||B||_r ||A||_r.
    witness_value, x_prime = _rank_one_witness(absA, absB, rnA, rnB, assignment)
    witness_shortfall = max(0.0, product_f - witness_value)

    # Sampled upper side: positive T of unit regular norm never push
    # ||  |A| T |B|  || above the product.
    rng = np.random.default_rng(seed)
    stacks = _draws(rng, samples, A, B)
    # In C order: BLAS rounds the images of a transposed (Fortran-ordered)
    # factor differently.
    arr_A, arr_B = (np.ascontiguousarray(M.to_float()._values) for M in (absA, absB))
    max_sample = _largest_image(arr_A, stacks, arr_B, assignment)
    sample_excess = max(0.0, max_sample - product_f)

    # The exact closed form's deviation decides, unless the exact identity
    # held but float-side sampling misbehaved: then the report gives the
    # float deviation.
    dev = max(witness_shortfall, sample_excess)
    if closed_value is not None:
        closed_dev = abs(closed_value - product)
        if closed_dev or dev <= tol:
            dev = closed_dev
    return make_report(
        claim_id="cor23",
        inputs={"A": A, "B": B, "assignment": assignment, "samples": samples},
        deviations=[dev],
        witnesses={"y_star": rnA.witness, "x_prime": x_prime},
        seed=seed,
        details={
            "regular_norm_A": rnA.value,
            "regular_norm_B": rnB.value,
            "product": product,
            "witness_value": witness_value,
            "witness_shortfall": witness_shortfall,
            "max_sample": max_sample,
            "sample_excess": sample_excess,
            "closed_form_value": closed_value,
            "norm_methods": [rnA.method, rnB.method],
        },
        tol=tol,
    )


# ---------------------------------------------------------------------------
# operator-norm vs regular-norm gap
# ---------------------------------------------------------------------------


def hadamard_order(m: int) -> int:
    """2^m, the side of H_2^{(x) m}, once m is checked.

    More than ``KRON_ENTRY_CAP`` entries (the last ``kron`` of
    ``hadamard_tensor_power``), i.e. m > 10, raise ``EnumerationLimitError``.
    """
    if m < 0:
        raise ValueError("tensor power must be nonnegative")
    if 4**m > KRON_ENTRY_CAP:
        raise EnumerationLimitError(
            f"H_2^(x){m} has 4^{m} entries, above entry cap {KRON_ENTRY_CAP}"
        )
    return 1 << m


def hadamard_tensor_power(m: int) -> RegularOperator:
    """H_2^{(x) m}: the 2^m x 2^m sign matrix with |H| = all-ones.

    m > 10 raises ``EnumerationLimitError`` before anything is built.
    """
    hadamard_order(m)
    H = RegularOperator.from_rows([[1, 1], [1, -1]])
    out = RegularOperator.identity(1)
    for _ in range(m):
        out = kron(out, H)
    return out


def _binary_scaled(M: RegularOperator):
    """(2^-e M, e) for the power of two 2^e that brings the largest entry of
    M into [1, 2), scaled exactly; M itself when e = 0."""
    shift = int(np.frexp(np.abs(M.to_float()._values).max(initial=0.0))[1]) - 1
    if shift:
        exact = M.is_exact
        M = M.scale(Fraction(2) ** -shift) if exact else M._of(np.ldexp(M._values, -shift), None)
    return M, shift


def _scaled_back(value, shift: int):
    """2^shift value, exactly for a Fraction; None beyond the float range."""
    if isinstance(value, Fraction):
        return value * Fraction(2) ** shift
    try:
        return math.ldexp(value, shift)
    except OverflowError:
        return None


def gap_report(
    A: RegularOperator,
    B: RegularOperator,
    assignment: NormAssignment,
    seed: int = 0,
) -> VerificationReport:
    """Ratio of the operator norm of T |-> ATB to the regular-norm product.

    The operator norm is ||A|| ||B|| (Y -> Z and W -> X), attained at the
    rank-one witness T = x' (x) y*: y* attains ||A||, and x' norms B w* in X
    for the w* that attains ||B||, as in ``verify_cor23``, and written as
    those factors, ``y_star`` and ``x_prime``.  ``operator_side`` is its
    image's norm ||B'x'||_{W*} ||Ay*||_Z; nothing is drawn.  When both
    factor norms are closed forms, that is the supremum up to rounding, and
    ``operator_side_certified`` is set unless it is zero while neither
    factor is; when either is searched, it is a lower bound.
    A searched regular norm is the larger of its search and its factor's
    norm at the witness's moduli, so that ``rho`` stays at most 1.  All is
    computed on A and B scaled by the powers of two that bring their largest
    entries into [1, 2) (+-1 entries stay), so that no product leaves the
    float range; the sides and regular norms are scaled back, a float
    beyond the float range to None (JSON null), while ``rho`` stays.
    Reported as an exploration (status ``info``): the ratio can sink far
    below 1, e.g. at rate 2^-m along A = B = hadamard_tensor_power(m).  A run
    that ``check_sampling`` refuses raises before any work.
    """
    # Signs read on the exact stored values, as ``_operator_norms`` reads them.
    signs = tuple(bool((M._values >= 0).all()) for M in (A, B))
    check_sampling(0, A.shape, B.shape, assignment, factor_signs=signs)
    n_W, n_X = assignment.n_W, assignment.n_X
    n_Y, n_Z = assignment.n_Y, assignment.n_Z
    # A factor passed as both A and B (``gap --m``) is scaled once, and
    # normed once if its two norm pairs agree: the same calls give the same bits.
    A_s, shift_A = _binary_scaled(A)
    rnA = regular_norm(A_s, n_Y, n_Z, seed=seed)
    norm_A = operator_norm(A_s, n_Y, n_Z, seed=seed)
    B_s, shift_B = (A_s, shift_A) if B is A else _binary_scaled(B)
    if B is A and (n_W, n_X) == (n_Y, n_Z):
        rnB, norm_B = rnA, norm_A
    else:
        rnB = regular_norm(B_s, n_W, n_X, seed=seed)
        norm_B = operator_norm(B_s, n_W, n_X, seed=seed)
    # ||A T B|| = ||B'x'|| ||A y*|| >= ||A|| x'(B w*) = ||A|| ||B||.
    side, x_prime = _rank_one_witness(A_s, B_s, norm_A, norm_B, assignment)
    # A searched regular norm is a lower bound, as is || |A| |y*| ||_Z or
    # || |B|'|x'| ||_{W*}: the larger keeps rho <= 1, as |A y*| <= |A| |y*|.
    if rnA.method == "search":
        image = abs(A_s.to_float()).apply(abs(norm_A.witness))
        rnA = replace(rnA, value=max(rnA.value, float(vector_norm(image, n_Z))))
    if rnB.method == "search":
        image = abs(B_s.to_float()).transpose().apply(abs(x_prime))
        rnB = replace(rnB, value=max(rnB.value, float(dual_norm(image, n_W))))
    denom = rnA.value_float * rnB.value_float
    rho = side / denom if denom > 0.0 else 0.0
    # A zero image of nonzero factors is float underflow, not the supremum.
    certified = (norm_A.certified and norm_B.certified
                 and (side > 0.0 or not (norm_A.value and norm_B.value)))

    return make_report(
        claim_id="gap",
        inputs={"A": A, "B": B, "assignment": assignment},
        deviations=[0.0],
        witnesses={"y_star": norm_A.witness, "x_prime": x_prime},
        seed=seed,
        details={
            "operator_side": _scaled_back(side, shift_A + shift_B),
            "operator_side_certified": certified,
            "regular_side": _scaled_back(denom, shift_A + shift_B),
            "rho": rho,
            "regular_norm_A": _scaled_back(rnA.value, shift_A),
            "regular_norm_B": _scaled_back(rnB.value, shift_B),
        },
        status="info",
    )
