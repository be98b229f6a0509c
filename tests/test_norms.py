import itertools
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszops import norms, superop
from rieszops.corpus import random_matrix
from rieszops.lattice import EnumerationLimitError
from rieszops.scalars import ScalarModeError
from rieszops import (
    LatticeNorm,
    LatticeVector,
    NormAssignment,
    RegularOperator,
    batched_operator_norm,
    dual_norm,
    gap_report,
    hadamard_tensor_power,
    norming_functional,
    norming_vector,
    operator_norm,
    regular_norm,
    superop_regular_norm_1chain,
    vector_norm,
    verify_cor23,
)

from conftest import matrices, vectors


def _np(M: RegularOperator) -> np.ndarray:
    return np.array(M.to_lists(), dtype=float)


floats_st = st.floats(min_value=-4, max_value=4, allow_nan=False, width=32)
p_values = (1.0, 2.0, 3.5, math.inf)


@st.composite
def float_vectors(draw, dim=None, nonzero=False):
    n = draw(st.integers(min_value=1, max_value=4)) if dim is None else dim
    entries = [float(draw(floats_st)) for _ in range(n)]
    if nonzero and all(abs(e) < 1e-6 for e in entries):
        entries[0] = 1.0
    return LatticeVector(entries)


def _np_weighted_norm(x: np.ndarray, p: float, u: np.ndarray) -> float:
    # package convention: (sum u |x|^p)^(1/p) for finite p (weights act as a
    # measure), max u |x| at p = inf
    if p == math.inf:
        return float((u * np.abs(x)).max())
    return float((u * np.abs(x) ** p).sum() ** (1.0 / p))


# ---------------------------------------------------------------------------
# vector norms and duality, with numpy as the oracle
# ---------------------------------------------------------------------------


@given(float_vectors())
def test_vector_norm_matches_numpy_unweighted(x):
    arr = np.array(x.as_floats())
    u = np.ones(x.dim)
    for p in p_values:
        ours = float(vector_norm(x, LatticeNorm(p=p)))
        assert ours == pytest.approx(_np_weighted_norm(arr, p, u), abs=1e-9)


@given(float_vectors(dim=3))
def test_vector_norm_matches_numpy_weighted(x):
    weights = LatticeVector([0.5, 2.0, 1.25])
    u = np.array(weights.as_floats())
    arr = np.array(x.as_floats())
    for p in p_values:
        ours = float(vector_norm(x, LatticeNorm(p=p, weights=weights)))
        assert ours == pytest.approx(_np_weighted_norm(arr, p, u), abs=1e-9)


def test_exact_norms_stay_exact():
    x = LatticeVector([Fraction(3, 4), Fraction(-1, 2)])
    one = vector_norm(x, LatticeNorm(p=1.0))
    assert isinstance(one, Fraction) and one == Fraction(5, 4)
    sup = vector_norm(x, LatticeNorm(p=math.inf))
    assert isinstance(sup, Fraction) and sup == Fraction(3, 4)


@given(float_vectors(nonzero=True))
def test_norming_vector_attains_dual_norm(f):
    for p in p_values:
        n = LatticeNorm(p=p)
        x = norming_vector(f, n)
        assert float(vector_norm(x, n)) == pytest.approx(1.0, abs=1e-9)
        attained = sum(a * b for a, b in zip(f.entries, x.entries))
        assert attained == pytest.approx(float(dual_norm(f, n)), abs=1e-8)


@given(float_vectors(nonzero=True))
def test_norming_functional_attains_norm(x):
    for p in p_values:
        n = LatticeNorm(p=p)
        phi = norming_functional(x, n)
        assert float(dual_norm(phi, n)) == pytest.approx(1.0, abs=1e-8)
        attained = sum(a * b for a, b in zip(phi.entries, x.entries))
        assert attained == pytest.approx(float(vector_norm(x, n)), abs=1e-8)


@given(float_vectors(dim=3, nonzero=True))
def test_dual_norm_is_support_function(f):
    # dual norm = sup over unit ball; sampled points never exceed it
    rng = np.random.default_rng(0)
    arr = np.array(f.as_floats())
    for p in (1.0, 2.0, math.inf):
        n = LatticeNorm(p=p)
        d = float(dual_norm(f, n))
        pts = rng.normal(size=(200, 3))
        norms = np.array(
            [_np_weighted_norm(v, p, np.ones(3)) for v in pts]
        )
        pts = pts[norms > 0] / norms[norms > 0][:, None]
        assert (pts @ arr).max() <= d + 1e-9


# ---------------------------------------------------------------------------
# operator norms: closed forms against numpy oracles
# ---------------------------------------------------------------------------


@given(matrices())
def test_operator_norm_1_to_1_is_max_column_sum(A):
    res = operator_norm(A, LatticeNorm(p=1.0), LatticeNorm(p=1.0))
    oracle = np.abs(_np(A)).sum(axis=0).max()
    assert res.certified and res.method == "max_column"
    assert float(res.value) == pytest.approx(oracle, abs=1e-12)


@given(matrices())
def test_operator_norm_inf_to_inf_is_max_row_sum(A):
    res = operator_norm(A, LatticeNorm(p=math.inf), LatticeNorm(p=math.inf))
    oracle = np.abs(_np(A)).sum(axis=1).max()
    assert res.certified
    assert float(res.value) == pytest.approx(oracle, abs=1e-12)


@given(matrices())
def test_operator_norm_1_to_inf_is_max_entry(A):
    res = operator_norm(A, LatticeNorm(p=1.0), LatticeNorm(p=math.inf))
    oracle = np.abs(_np(A)).max()
    assert res.certified
    assert float(res.value) == pytest.approx(oracle, abs=1e-12)


@given(matrices())
def test_operator_norm_2_to_2_is_top_singular_value(A):
    res = operator_norm(A, LatticeNorm(p=2.0), LatticeNorm(p=2.0))
    oracle = np.linalg.svd(_np(A), compute_uv=False)[0]
    assert res.certified and res.method == "svd"
    assert float(res.value) == pytest.approx(oracle, abs=1e-9)


@given(matrices(positive=True))
def test_operator_norm_from_inf_positive_corner(A):
    res = operator_norm(A, LatticeNorm(p=math.inf), LatticeNorm(p=2.0))
    oracle = float(np.linalg.norm(_np(A).sum(axis=1), ord=2))
    assert res.certified and res.method == "positive_corner"
    assert float(res.value) == pytest.approx(oracle, abs=1e-9)


@given(matrices())
def test_operator_norm_witness_is_feasible_and_attaining(A):
    for p_from, p_to in ((1.0, 1.0), (2.0, 2.0), (1.0, math.inf)):
        n_from, n_to = LatticeNorm(p=p_from), LatticeNorm(p=p_to)
        res = operator_norm(A, n_from, n_to)
        if float(res.value) == 0.0:
            continue
        assert float(vector_norm(res.witness, n_from)) == pytest.approx(1.0, abs=1e-9)
        achieved = float(vector_norm(A.to_float().apply(res.witness), n_to))
        assert achieved == pytest.approx(float(res.value), abs=1e-8)


@given(matrices())
@settings(max_examples=20)
def test_search_path_brackets_true_norm(A):
    # an exponent pair with no closed form: certified=False, but the value
    # must dominate every sampled ratio and be attained by its witness
    n_from, n_to = LatticeNorm(p=3.5), LatticeNorm(p=2.0)
    res = operator_norm(A, n_from, n_to, seed=5, starts=6, iters=30)
    assert not res.certified and res.method == "search"
    arr = _np(A)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(300, A.cols))
    norms = (np.abs(pts) ** 3.5).sum(axis=1) ** (1 / 3.5)
    pts = pts[norms > 0] / norms[norms > 0][:, None]
    sampled = np.sqrt(((pts @ arr.T) ** 2).sum(axis=1)).max() if pts.size else 0.0
    assert float(res.value) >= sampled - 1e-8
    achieved = float(vector_norm(A.to_float().apply(res.witness), n_to))
    assert achieved == pytest.approx(float(res.value), abs=1e-8)


def test_weighted_operator_norm_scaling_consistency():
    # weighted 2->2 norm via the diagonal isometry: ||A||_{u,v} equals the
    # unweighted norm of  diag(sqrt(v)) A diag(1/sqrt(u))
    A = RegularOperator.from_rows([[1.0, -2.0], [3.0, 0.5]])
    u = LatticeVector([2.0, 0.5])
    v = LatticeVector([1.5, 4.0])
    res = operator_norm(A, LatticeNorm(p=2.0, weights=u), LatticeNorm(p=2.0, weights=v))
    scaled = np.diag(np.sqrt(v.as_floats())) @ _np(A) @ np.diag(
        1.0 / np.sqrt(np.array(u.as_floats()))
    )
    oracle = np.linalg.svd(scaled, compute_uv=False)[0]
    assert float(res.value) == pytest.approx(oracle, abs=1e-9)


@given(matrices())
def test_regular_norm_dominates_operator_norm(A):
    for p in (1.0, 2.0, math.inf):
        n = LatticeNorm(p=p)
        op = operator_norm(A, n, n)
        reg = regular_norm(A, n, n)
        assert float(reg.value) >= float(op.value) - 1e-9


@given(st.integers(min_value=1, max_value=40))
def test_batched_operator_norm_matches_scalar_path(k):
    rng = np.random.default_rng(k)
    stack = rng.normal(size=(5, 3, 2))
    for p_from, p_to in ((1.0, 1.0), (2.0, 2.0), (1.0, math.inf), (math.inf, 2.0)):
        n_from, n_to = LatticeNorm(p=p_from), LatticeNorm(p=p_to)
        arr = np.abs(stack) if p_from == math.inf else stack
        batched = batched_operator_norm(arr, n_from, n_to, positive=(p_from == math.inf))
        singles = [
            float(
                operator_norm(
                    RegularOperator(3, 2, [float(x) for x in m.flatten()]),
                    n_from,
                    n_to,
                ).value
            )
            for m in arr
        ]
        assert np.allclose(batched, singles, atol=1e-9)


# ---------------------------------------------------------------------------
# the multiplicativity identity
# ---------------------------------------------------------------------------


@given(matrices(), matrices())
def test_1chain_enumeration_equals_product(A, B):
    lhs = superop_regular_norm_1chain(A, B)
    n1 = LatticeNorm(p=1.0)
    rhs = operator_norm(abs(A), n1, n1).value * operator_norm(abs(B), n1, n1).value
    assert lhs == rhs


def _reference_1chain(A: RegularOperator, B: RegularOperator):
    """The per-extreme-point Fraction loop: build every positive extreme point
    T_a of the domain's unit ball, compose |A| T_a |B| and take the largest
    max column sum."""
    absA = A.modulus_closed_form()
    absB = B.modulus_closed_form()
    y, x = A.cols, B.rows
    best = None
    for assignment in itertools.product(range(y), repeat=x):
        T = RegularOperator(
            y,
            x,
            [
                Fraction(1) if i == assignment[j] else Fraction(0)
                for i in range(y)
                for j in range(x)
            ],
        )
        M = absA @ T @ absB
        value = max(
            sum(abs(M.entry(i, j)) for i in range(M.rows)) for j in range(M.cols)
        )
        if best is None or value > best:
            best = value
    return best


def _chain_pair(rng: Random, w: int, x: int, y: int, z: int):
    """A (z x y) and B (x x w) with seeded rational entries of mixed sign."""
    return random_matrix(rng, z, y), random_matrix(rng, x, w)


def _assert_kernel_matches_reference(A, B):
    value = superop_regular_norm_1chain(A, B)
    reference = _reference_1chain(A, B)
    assert type(value) is Fraction
    assert type(reference) is Fraction
    assert value == reference


def test_1chain_kernel_matches_reference_every_small_shape():
    rng = Random(2301)
    for w, x, y, z in itertools.product((1, 2, 3), repeat=4):
        _assert_kernel_matches_reference(*_chain_pair(rng, w, x, y, z))


@pytest.mark.parametrize("dims", [(2, 3, 4, 3), (3, 4, 3, 4), (4, 4, 4, 4)])
def test_1chain_kernel_matches_reference_larger_shapes(dims):
    _assert_kernel_matches_reference(*_chain_pair(Random(2302), *dims))


def test_1chain_kernel_all_zero_A():
    A = RegularOperator(3, 2, [Fraction(0)] * 6)
    B = random_matrix(Random(2303), 3, 2)
    _assert_kernel_matches_reference(A, B)
    assert superop_regular_norm_1chain(A, B) == 0


def test_1chain_kernel_scaled_entries():
    scale = Fraction(10**12, 7)
    A, B = _chain_pair(Random(2304), 3, 3, 3, 3)
    _assert_kernel_matches_reference(A.scale(scale), B)
    _assert_kernel_matches_reference(A.scale(scale), B.scale(scale))


def test_1chain_kernel_spans_several_chunks():
    # 3^7 = 2187 extreme points: three chunks, the last one partial.
    dims = (2, 7, 3, 2)
    assert 2 * norms._KERNEL_CHUNK_POINTS < 3**7 < 3 * norms._KERNEL_CHUNK_POINTS
    _assert_kernel_matches_reference(*_chain_pair(Random(2305), *dims))


def test_1chain_kernel_one_row_domain_with_many_columns():
    # y = 1: a single extreme point, with more columns than numpy has axes.
    _assert_kernel_matches_reference(*_chain_pair(Random(2306), 2, 70, 1, 2))


def test_1chain_rejects_float_operators():
    A = RegularOperator.from_rows([[0.5, 1.0], [2.0, 0.0]])
    B = RegularOperator.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ScalarModeError):
        superop_regular_norm_1chain(A, B)
    with pytest.raises(ScalarModeError):
        superop_regular_norm_1chain(B, A)


def test_1chain_over_cap_raises_before_any_work(monkeypatch):
    def no_work(self):
        raise AssertionError("the cap must be checked before any work")

    # The kernel's first step takes the moduli whose numerators it reads.
    monkeypatch.setattr(RegularOperator, "modulus_closed_form", no_work)
    A, B = _chain_pair(Random(2307), 8, 8, 8, 8)
    assert 8**8 > norms.EXTREME_POINT_CAP
    with pytest.raises(EnumerationLimitError, match="enumeration cap"):
        superop_regular_norm_1chain(A, B)
    # Exactly at the cap (2^20 extreme points) the check passes and the
    # work begins.
    A, B = _chain_pair(Random(2307), 1, 20, 2, 1)
    assert 2**20 == norms.EXTREME_POINT_CAP
    with pytest.raises(AssertionError, match="before any work"):
        superop_regular_norm_1chain(A, B)


@given(matrices(rows=2, cols=2), matrices(rows=2, cols=2))
@settings(max_examples=20)
def test_verify_cor23_exact_chain(A, B):
    report = verify_cor23(A, B, NormAssignment.uniform(1.0), samples=50, seed=1)
    assert report.status == "pass"
    assert report.exact
    assert report.max_deviation == 0
    assert report.details["closed_form_value"] is not None


def test_verify_cor23_float_inputs():
    A = RegularOperator.from_rows([[0.3, -1.7], [2.1, 0.0]])
    B = RegularOperator.from_rows([[1.1, 0.4], [-0.6, 0.9]])
    report = verify_cor23(A, B, NormAssignment.uniform(1.0), samples=100, seed=2)
    assert report.status == "pass"
    assert not report.exact
    assert float(report.max_deviation) <= 1e-9


@given(matrices(rows=2, cols=2), matrices(rows=2, cols=2))
@settings(max_examples=15)
def test_verify_cor23_spectral_assignment(A, B):
    report = verify_cor23(A, B, NormAssignment.uniform(2.0), samples=100, seed=3)
    assert report.status == "pass"
    assert not report.exact  # no exact closed form away from the l1 chain


def test_verify_cor23_mixed_assignment():
    A = RegularOperator.from_rows([[1, -2], [3, 4]])
    B = RegularOperator.from_rows([[2, 0], [1, -1]])
    assignment = NormAssignment(
        n_W=LatticeNorm(p=1.0),
        n_X=LatticeNorm(p=2.0),
        n_Y=LatticeNorm(p=2.0),
        n_Z=LatticeNorm(p=math.inf),
    )
    report = verify_cor23(A, B, assignment, samples=200, seed=4)
    assert report.status == "pass"
    assert report.details["witness_shortfall"] <= 1e-9


def _reference_max_sample(A, B, assignment, samples, seed):
    """Redraw verify_cor23's seeded positive stack and contract it with the
    three-operand einsum, independently of the batched matmul."""
    rng = np.random.default_rng(seed)
    stack = rng.uniform(0.0, 1.0, size=(samples, A.cols, B.rows))
    t_norms = batched_operator_norm(stack, assignment.n_X, assignment.n_Y, positive=True)
    stack = stack / t_norms[:, None, None]
    images = np.einsum("ij,sjk,kl->sil", _np(abs(A)), stack, _np(abs(B)))
    return float(
        batched_operator_norm(images, assignment.n_W, assignment.n_Z, positive=True).max()
    )


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 4, 3), (3, 4, 3, 4)])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_verify_cor23_sampled_images_match_einsum(dims, p):
    A, B = _chain_pair(Random(2308), *dims)
    assignment = NormAssignment.uniform(p)
    report = verify_cor23(A, B, assignment, samples=300, seed=5)
    reference = _reference_max_sample(A, B, assignment, 300, 5)
    assert report.details["max_sample"] == pytest.approx(reference, rel=1e-13)


def _refuse_draws(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("no draw")

    monkeypatch.setattr(norms.np.random, "default_rng", no_draw)


def test_sample_stack_cap_raises_before_drawing(monkeypatch):
    _refuse_draws(monkeypatch)
    A = RegularOperator.from_rows([[1, -2], [3, 4]])
    samples = norms.SAMPLE_STACK_CAP // 4 + 1
    with pytest.raises(EnumerationLimitError, match="sample stack cap"):
        verify_cor23(A, A, NormAssignment.uniform(1.0), samples=samples)
    with pytest.raises(EnumerationLimitError, match="sample stack cap"):
        gap_report(A, A, NormAssignment.uniform(2.0), samples=samples)
    # Exactly at the cap the run goes on to the draw.
    with pytest.raises(AssertionError, match="no draw"):
        gap_report(A, A, NormAssignment.uniform(2.0), samples=samples - 1)


def test_sample_stack_cap_counts_the_partial_products(monkeypatch):
    # A is 64 x 1 and B is 64 x 1: T and A T B have 64 entries, A T has 4096.
    _refuse_draws(monkeypatch)
    A = RegularOperator(64, 1, [Fraction(1)] * 64)
    B = RegularOperator(64, 1, [Fraction(1)] * 64)
    samples = norms.SAMPLE_STACK_CAP // 4096 + 1
    assert samples * 64 <= norms.SAMPLE_STACK_CAP
    with pytest.raises(EnumerationLimitError, match="sample stack cap"):
        gap_report(A, B, NormAssignment.uniform(2.0), samples=samples)


# ---------------------------------------------------------------------------
# gap exploration
# ---------------------------------------------------------------------------


def test_hadamard_tensor_power_cap_raises_before_building(monkeypatch):
    def no_kron(*args):
        raise AssertionError("the cap must be checked before any kron")

    monkeypatch.setattr(superop, "kron", no_kron)
    assert 4**10 <= norms.HADAMARD_ENTRY_CAP < 4**11
    for m in (11, 30):
        with pytest.raises(EnumerationLimitError, match="entry cap"):
            hadamard_tensor_power(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_gap_report_hadamard_witness_properties(m, seed):
    # H^T H = 2^m I, so every unit T attains ||H T H||_2 = 2^m: best_T is one
    # of many tied maximisers, checked by its properties rather than its bytes.
    H = hadamard_tensor_power(m)
    report = gap_report(H, H, NormAssignment.uniform(2.0), samples=200, seed=seed)
    operator_side = report.details["operator_side"]
    assert operator_side == pytest.approx(2.0**m, rel=1e-12)
    (witness,) = report.witnesses
    assert witness["role"] == "best_T"
    T = np.array(witness["entries"], dtype=float).reshape(witness["rows"], witness["cols"])
    assert np.linalg.norm(T, 2) == pytest.approx(1.0, abs=1e-12)
    H_np = _np(H)
    image = np.einsum("ij,jk,kl->il", H_np, T, H_np)
    assert np.linalg.norm(image, 2) == pytest.approx(operator_side, rel=1e-12)


def test_hadamard_tensor_power_orthogonality():
    for m in range(4):
        H = hadamard_tensor_power(m)
        n = 2**m
        assert H.shape == (n, n)
        product = H @ H.transpose()
        expected = RegularOperator.identity(n).scale(Fraction(n))
        assert product.eq(expected)
        assert abs(H).eq(RegularOperator(n, n, [Fraction(1)] * (n * n)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gap_report_ratio_decays(m):
    H = hadamard_tensor_power(m)
    report = gap_report(H, H, NormAssignment.uniform(2.0), samples=100, seed=0)
    assert report.status == "info"
    rho = report.details["rho"]
    assert rho <= 2.0**-m + 1e-6
    assert rho >= 2.0**-m - 1e-6  # the SVD witness attains it
    assert report.details["regular_side"] == pytest.approx(4.0**m, abs=1e-6)


def test_gap_report_no_gap_for_positive_factors():
    A = RegularOperator.from_rows([[1, 2], [0, 1]])
    report = gap_report(A, A, NormAssignment.uniform(2.0), samples=100, seed=0)
    assert report.details["rho"] == pytest.approx(1.0, abs=1e-9)
