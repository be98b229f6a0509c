import itertools
import math
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from rieszops import lattice, norms, superop
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
    operator_norm,
    rank_one,
    regular_norm,
    superop_regular_norm_1chain,
    vector_norm,
    verify_cor23,
)

import norm_reference
from conftest import matrices, vectors


def _np(M: RegularOperator) -> np.ndarray:
    return np.array(M.to_lists(), dtype=float)


def _rank_one_T(report) -> RegularOperator:
    """The witness T = x' (x) y* rebuilt from the factors a report writes."""
    y_star, x_prime = report.witnesses
    assert (y_star["role"], x_prime["role"]) == ("y_star", "x_prime")
    return rank_one(LatticeVector.from_json(x_prime), LatticeVector.from_json(y_star))


@contextmanager
def _traced(peaks: list):
    """Append the traced peak of the block, in bytes, to ``peaks``."""
    tracemalloc.start()
    try:
        yield
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


floats_st = st.floats(min_value=-4, max_value=4, allow_nan=False, width=32)
p_values = (1.0, 2.0, 3.5, math.inf)


@st.composite
def float_vectors(draw, dim=None, nonzero=False):
    n = draw(st.integers(min_value=1, max_value=4)) if dim is None else dim
    entries = [float(draw(floats_st)) for _ in range(n)]
    if nonzero and all(abs(e) < 1e-6 for e in entries):
        entries[0] = 1.0
    return LatticeVector(entries)


def _np_norm(x: np.ndarray, p: float) -> float:
    return float(np.linalg.norm(x, ord=p))


# ---------------------------------------------------------------------------
# vector norms and duality, with numpy as the oracle
# ---------------------------------------------------------------------------


@given(float_vectors())
def test_vector_norm_matches_numpy_unweighted(x):
    arr = np.array(x.as_floats())
    for p in p_values:
        ours = float(vector_norm(x, LatticeNorm(p=p)))
        assert ours == pytest.approx(_np_norm(arr, p), abs=1e-9)


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
        x = LatticeVector(norms._norming(f._values, f._den, n.conjugate_exponent()).tolist())
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
        norms = np.array([_np_norm(v, p) for v in pts])
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


def test_the_positive_corner_is_chosen_on_exact_signs():
    # A tiny negative entry is still negative: rescaling a matrix must not
    # move it onto the positive corner, whose value is then wrong (0 here).
    n_from, n_to = LatticeNorm(p=math.inf), LatticeNorm(p=1.0)
    big, tiny = (
        operator_norm(RegularOperator(1, 2, [s, -s]), n_from, n_to)
        for s in (1.0, 1e-12)
    )
    assert big.method == tiny.method == "search"
    assert big.value == 2.0
    assert tiny.value == pytest.approx(2e-12, rel=1e-12)
    signed_zero = operator_norm(RegularOperator(1, 2, [1.0, -0.0]), n_from, n_to)
    assert signed_zero.method == "positive_corner" and signed_zero.value == 1.0


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
    res = operator_norm(A, n_from, n_to, seed=5)
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


@given(matrices())
def test_regular_norm_dominates_operator_norm(A):
    for p in (1.0, 2.0, math.inf):
        n = LatticeNorm(p=p)
        op = operator_norm(A, n, n)
        reg = regular_norm(A, n, n)
        assert float(reg.value) >= float(op.value) - 1e-9


#: One pair per closed form, each giving a stack bit for bit what it gives
#: one matrix: max column (1 -> *), max row dual (* -> inf), positive
#: corner, and the thin SVD (2 -> 2).
STACK_PAIRS = (
    (1.0, 1.0), (1.0, math.inf), (math.inf, math.inf), (2.0, math.inf),
    (1.0, 3.5), (math.inf, 2.0), (2.0, 2.0),
)


def _singles(stack, n_from, n_to):
    return [
        operator_norm(RegularOperator(*m.shape, [float(x) for x in m.ravel()]), n_from, n_to).value
        for m in stack
    ]


@given(st.integers(min_value=1, max_value=40), st.sampled_from([(3, 2), (9, 9)]))
def test_batched_operator_norm_matches_scalar_path(k, shape):
    rng = np.random.default_rng(k)
    stack = rng.normal(size=(5, *shape))
    for p_from, p_to in STACK_PAIRS:
        n_from, n_to = LatticeNorm(p=p_from), LatticeNorm(p=p_to)
        positive = p_from == math.inf
        arr = np.abs(stack) if positive else stack
        batched = batched_operator_norm(arr, n_from, n_to)
        assert [float.hex(float(b)) for b in batched] == [
            float.hex(s) for s in _singles(arr, n_from, n_to)
        ]


#: Scales of the 2 -> 2 stacks: a Gram matrix of entries at 1e+-200
#: overflows or underflows, so these reach the SVD's own scaling.
SVD_SCALES = (1.0, 1e150, 1e-150, 2.0**500, 2.0**-500, 1e200, 1e-200)


@st.composite
def svd_stacks(draw):
    """A float stack of 1 to 3 matrices of one shape (1 x 1 to 64 x 64, wide
    or tall), each of full rank, of a lower rank or zero, at its own scale."""
    rows, cols = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = []
    for kind in draw(st.lists(st.sampled_from(["full", "deficient", "zero"]),
                              min_size=1, max_size=3)):
        rank = {"full": min(rows, cols), "zero": 0,
                "deficient": draw(st.integers(1, max(1, min(rows, cols) - 1)))}[kind]
        m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        matrices.append(m * draw(st.sampled_from(SVD_SCALES)))
    return np.stack(matrices)


@given(svd_stacks())
@settings(max_examples=60, deadline=None)
def test_batched_2_to_2_norms_are_the_top_singular_values(stack):
    # Each stacked value has the bits the matrix gets alone, and lies within
    # 8 max(rows, cols) units of roundoff relative of LAPACK's singular value
    # (0 for a zero matrix).
    n2 = LatticeNorm(p=2.0)
    got = batched_operator_norm(stack, n2, n2)
    assert [float.hex(float(g)) for g in got] == [
        float.hex(s) for s in _singles(stack, n2, n2)
    ]
    want = np.linalg.svd(stack, compute_uv=False)[:, 0]
    bound = 8 * max(stack.shape[1:]) * np.finfo(float).eps / 2
    assert np.all(np.abs(got - want) <= bound * want), (got, want)


@pytest.mark.parametrize("shape", [(4000, 1), (1, 4000)])
def test_a_tall_or_wide_2_to_2_norm_takes_bounded_memory(shape):
    # The thin SVD forms no 4000 x 4000 factor (122 MiB) for the one vector.
    stack = np.random.default_rng(0).normal(size=(1, *shape))
    A = RegularOperator(*shape, [float(x) for x in stack.ravel()])
    n2 = LatticeNorm(p=2.0)
    tracemalloc.start()
    try:
        value = operator_norm(A, n2, n2).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert float.hex(value) == float.hex(float(batched_operator_norm(stack, n2, n2)[0]))


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_gap_report_ratio_does_not_depend_on_the_scale(scale):
    # The ratio is formed on H scaled by a power of two, so 1e-100 H and
    # 1e100 H give the ratio of H.
    H = hadamard_tensor_power(2).to_float().scale(scale)
    report = gap_report(H, H, NormAssignment.uniform(2.0), seed=0)
    assert abs(report.details["rho"] - 0.25) <= 1e-12


@pytest.mark.parametrize("p_from, p_to", [(math.inf, 3.5), (3.5, 2.0)])
def test_batched_search_pairs_match_scalar_path(p_from, p_to):
    # No closed form: a matrix searched within a stack gets the same bits as
    # on its own.  The mixed stack is searched whole, and its positive matrix
    # gets the bits of the positive corner it takes on its own.
    stack = np.random.default_rng(5).normal(size=(3, 3, 2))
    stack[1] = np.abs(stack[1])
    n_from, n_to = LatticeNorm(p=p_from), LatticeNorm(p=p_to)
    batched = batched_operator_norm(stack, n_from, n_to)
    assert [float.hex(float(b)) for b in batched] == [
        float.hex(s) for s in _singles(stack, n_from, n_to)
    ]


@st.composite
def search_stacks(draw):
    """A float stack of 1 to 4 matrices of one shape (1 x 1 to 6 x 6), each
    positive, mixed, zero or -0.0, with entries scaled by 10^-5, 1 or 10^5."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    matrices = []
    for kind in draw(st.lists(st.sampled_from(["positive", "mixed", "zero", "-0.0"]),
                              min_size=1, max_size=4)):
        scale = draw(st.sampled_from([1e-5, 1.0, 1e5]))
        entries = draw(st.lists(floats_st, min_size=rows * cols, max_size=rows * cols))
        m = np.array(entries, dtype=float).reshape(rows, cols) * scale
        matrices.append({"positive": np.abs(m), "mixed": m, "zero": np.zeros_like(m),
                         "-0.0": np.full_like(m, -0.0)}[kind])
    return np.stack(matrices)


@given(search_stacks(), st.sampled_from([(math.inf, 3.5), (3.5, 2.0), (1.5, 4.0), (3.0, 1.0)]))
@settings(max_examples=40, deadline=None)
def test_batched_search_pairs_match_the_reference(stack, pair):
    # No closed form but the positive corner (from inf, for a stack whose
    # matrices are all positive or -0.0): the stacked search against the
    # per-entry reference loop, one matrix at a time, at seed 0.  A mixed
    # stack is searched whole, and its positive matrices get the bits of the
    # positive corner the reference takes for each of them.
    n_from, n_to = LatticeNorm(p=pair[0]), LatticeNorm(p=pair[1])
    _, values, witnesses = norms._operator_norms(stack, None, n_from, n_to)
    batched = batched_operator_norm(stack, n_from, n_to)
    for m, value, witness, b in zip(stack, values, witnesses, batched):
        A = RegularOperator(*m.shape, [float(x) for x in m.ravel()])
        ref_value, ref_witness, _, _ = norm_reference.operator_norm(A, n_from, n_to)
        assert float.hex(float(value)) == float.hex(float(b)) == float.hex(float(ref_value))
        assert [float.hex(float(x)) for x in witness] == [
            float.hex(x) for x in ref_witness.as_floats()
        ]


def test_a_zero_matrix_gets_the_unit_all_ones_witness():
    # No start gains on a zero matrix: its witness is the all-ones start,
    # normalized as every start is.
    n_from, n_to = LatticeNorm(p=1.5), LatticeNorm(p=4.0)
    res = operator_norm(RegularOperator(2, 3, [0.0] * 6), n_from, n_to)
    assert (res.method, res.value) == ("search", 0.0)
    assert abs(float(vector_norm(res.witness, n_from)) - 1.0) <= 1e-12
    assert len(set(res.witness.as_floats())) == 1


# ---------------------------------------------------------------------------
# scaling by 2^k scales every norm by exactly 2^k, and no map
# ---------------------------------------------------------------------------

#: The extreme-point exponents, 2, three whose powers numpy may round
#: otherwise than Python's float power, and 1500, whose power of a largest
#: entry scaled below 1 would underflow.
KERNEL_P = (1.0, 1.5, 2.0, 3.0, 3.5, 1500.0, math.inf)

#: Zero or at least 2^-20 in modulus: scaled by up to 2^+-900 such an entry
#: stays a normal float, so its scaling is exact.
scalable_st = st.tuples(
    st.booleans(), st.just(0.0) | st.floats(min_value=2.0**-20, max_value=4, width=32)
).map(lambda signed: -signed[1] if signed[0] else signed[1])


def _hex(values) -> list:
    return [float.hex(float(v)) for v in np.ravel(values)]


@contextmanager
def _in_range():
    """Reject an example whose powers overflow: at p = 1500 a scaled largest
    entry above 2^(1024/1500) does, whatever the scale of the input."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError:
            reject()


@given(st.lists(scalable_st, min_size=1, max_size=6), st.sampled_from(KERNEL_P),
       st.integers(-900, 900))
@settings(max_examples=300)
def test_kernel_norms_and_maps_of_2_to_the_k_x(entries, p, k):
    x = np.array(entries)
    big = np.ldexp(x, k)
    with _in_range():
        assert _hex(norms._norms(big, None, p)) == _hex(np.ldexp(norms._norms(x, None, p), k))
        assert _hex(norms._norming(big, None, p)) == _hex(norms._norming(x, None, p))


@given(st.integers(1, 4), st.integers(1, 6), st.sampled_from(KERNEL_P), st.integers(-900, 900),
       st.data())
@settings(max_examples=200)
def test_a_vector_gets_the_bits_of_row_0_of_a_stack(count, dim, p, k, data):
    # numpy takes a power of one value and of an array by one kernel.
    entries = data.draw(st.lists(scalable_st, min_size=count * dim, max_size=count * dim))
    stack = np.ldexp(np.array(entries).reshape(count, dim), k)
    with _in_range():
        assert _hex(norms._norms(stack[0], None, p)) == _hex(norms._norms(stack, None, p)[0])
        assert _hex(norms._norming(stack[0], None, p)) == _hex(norms._norming(stack, None, p)[0])


@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(KERNEL_P),
       st.sampled_from(KERNEL_P), st.integers(-600, 600), st.data())
@settings(max_examples=200, deadline=None)
def test_operator_norms_of_2_to_the_k_a(rows, cols, p_from, p_to, k, data):
    # Every method but the 2 -> 2 SVD: the value scales by 2^k, the witness
    # stays.
    assume((p_from, p_to) != (2.0, 2.0))
    entries = data.draw(st.lists(scalable_st, min_size=rows * cols, max_size=rows * cols))
    A = RegularOperator(rows, cols, entries)
    big = RegularOperator(rows, cols, [math.ldexp(e, k) for e in entries])
    n_from, n_to = LatticeNorm(p=p_from), LatticeNorm(p=p_to)
    for norm in (operator_norm, regular_norm):
        with _in_range():
            ours, scaled = norm(A, n_from, n_to), norm(big, n_from, n_to)
        assert scaled.method == ours.method
        assert float.hex(scaled.value) == float.hex(math.ldexp(ours.value, k))
        assert _hex(scaled.witness.as_floats()) == _hex(ours.witness.as_floats())


def test_a_search_through_subnormal_products_is_2_homogeneous():
    # The ascent on 2^-37 A forms A^T phi with entries near 2^-1049, which
    # round otherwise than 2^-37 times those for A unless A is scaled first.
    entries = [0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 2.0, 2.0, 0.0, 2.0**-20, 0.0, 0.0]
    A = RegularOperator(3, 4, entries)
    small = RegularOperator(3, 4, [math.ldexp(e, -37) for e in entries])
    n = LatticeNorm(p=3.5)
    ours, scaled = operator_norm(A, n, n), operator_norm(small, n, n)
    assert ours.method == "search"
    assert float.hex(scaled.value) == float.hex(math.ldexp(ours.value, -37))
    assert _hex(scaled.witness.as_floats()) == _hex(ours.witness.as_floats())


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


def test_1chain_kernel_spans_several_chunks(monkeypatch):
    # 3^7 = 2187 extreme points of 7 + 2 intermediate entries each (an
    # assignment and its image's column sums), 1000 per chunk: three chunks,
    # the last one partial.
    dims = (2, 7, 3, 2)
    monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", 1000 * (7 + 2))
    _assert_kernel_matches_reference(*_chain_pair(Random(2305), *dims))


def test_1chain_kernel_memory_does_not_grow_with_the_codomain():
    # 4^5 = 1024 extreme points whose images |A| T_a |B| are 32 x 32: all
    # of them at once would hold a million entries, and the kernel forms
    # only their column sums, a chunk at a time.
    A = RegularOperator(32, 4, [1] * 128)
    B = RegularOperator(5, 32, [1] * 160)
    tracemalloc.start()
    try:
        assert superop_regular_norm_1chain(A, B) == 32 * 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * lattice._KERNEL_CHUNK_ENTRIES


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


def test_1chain_over_cap_domain_is_refused_without_forming_y_to_the_x():
    # 20000^20000 has 86,000 digits: formed and formatted in the refusal, it
    # ran into Python's int-to-str limit instead of the enumeration cap.
    A = RegularOperator(1, 20000, [1] * 20000)
    B = RegularOperator(20000, 1, [1] * 20000)
    with pytest.raises(EnumerationLimitError,
                       match=r"^20000\^20000 extreme points exceed enumeration cap"):
        superop_regular_norm_1chain(A, B)
    # Past x = 21 every y >= 2 is over the cap, and y = 1 is one point.
    assert norms._check_extreme_points(1, 10**6) == 1
    assert norms._check_extreme_points(2, 20) == norms.EXTREME_POINT_CAP
    for y, x in ((2, 21), (2, 22), (2, 10**6), (1025, 2)):
        with pytest.raises(EnumerationLimitError, match=f"^{y}\\^{x} extreme"):
            norms._check_extreme_points(y, x)


def test_cor23_refuses_the_extreme_point_cap_before_the_norms(monkeypatch):
    def no_norm(*args, **kwargs):
        raise AssertionError("the extreme-point cap must be checked first")

    monkeypatch.setattr(norms, "operator_norm", no_norm)
    A, B = _chain_pair(Random(2307), 8, 8, 8, 8)
    with pytest.raises(EnumerationLimitError, match="enumeration cap"):
        norms.verify_cor23(A, B, norms.NormAssignment.uniform(1), samples=200000)


def test_cor23_refuses_only_the_over_cap_domain_of_a_1_x_20000_by_20000_x_1_pair(monkeypatch):
    # An all-l1 exact run is refused by the cap on what it enumerates; every
    # other run writes its 20000 x 20000 witness T as two 20000-entry factors.
    def no_norm(*args, **kwargs):
        raise AssertionError("the caps must be checked before any norm")

    A = RegularOperator(1, 20000, [1] * 20000)
    B = RegularOperator(20000, 1, [1] * 20000)
    with monkeypatch.context() as patched:
        patched.setattr(norms, "operator_norm", no_norm)
        with pytest.raises(EnumerationLimitError, match="enumeration cap"):
            verify_cor23(A, B, NormAssignment.uniform(1.0), samples=0)
    peaks = []
    for A_, B_, p in ((A, B, 2.0), (A.to_float(), B.to_float(), 1.0)):
        with _traced(peaks):
            report = verify_cor23(A_, B_, NormAssignment.uniform(p), samples=0)
        # At all-2 the shortfall, 5.2e-9 of 20000, is over the absolute
        # tolerance 1e-9, so the verdict is left to the scale-free check.
        details = report.details
        assert details["witness_value"] == pytest.approx(details["product"], rel=1e-12)
        assert [w["dim"] for w in report.witnesses] == [20000, 20000]
    assert max(peaks) < 16 * 2**20


# ---------------------------------------------------------------------------
# the enumeration on machine words
# ---------------------------------------------------------------------------


def _word_dtypes(monkeypatch) -> list:
    """The dtypes the kernel's ``_on_words`` calls return, as they happen."""
    dtypes = []

    def spy(a, b, terms):
        out = lattice._on_words(a, b, terms)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(norms, "_on_words", spy)
    return dtypes


def _pair_at_bound(rng: Random, bound: int, x: int, b_top: int, z: int, y: int, w: int):
    """Signed integer A (z x y) and B (x x w) with max|B| = ``b_top`` and
    largest column sum of |A| bound / (x b_top), so that the word bound
    x max(1'|A|) max|B| is ``bound``, with a zero row and a zero column in
    each factor that has two of them."""
    a_top = bound // (x * b_top)
    assert x * a_top * b_top == bound

    def signed(v):
        return v if rng.random() < 0.5 else -v

    A = [[0] * y for _ in range(z)]
    zero_row = rng.randrange(z) if z > 1 else None
    rows = [i for i in range(z) if i != zero_row]
    top = rng.randrange(y)
    cuts = sorted(rng.randint(0, a_top) for _ in rows[1:])
    for i, low, high in zip(rows, [0, *cuts], [*cuts, a_top]):
        A[i][top] = signed(high - low)
    spare = [j for j in range(y) if j != top][1:]  # the first one stays zero
    for j in spare:
        for i in rows:
            A[i][j] = signed(rng.randint(0, a_top // len(rows)))
    B = [[0] * w for _ in range(x)]
    zero_col = rng.randrange(w) if w > 1 else None
    cols = [k for k in range(w) if k != zero_col]
    zero_row = rng.randrange(x) if x > 1 else None
    live = [j for j in range(x) if j != zero_row]
    for j in live:
        for k in cols:
            B[j][k] = signed(rng.randint(0, b_top))
    B[live[0]][cols[0]] = signed(b_top)
    return RegularOperator.from_rows(A), RegularOperator.from_rows(B)


#: (bound, x, max|B|): the word bound x max(1'|A|) max|B| at 2^31, 2^62,
#: 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657 and 2^63.
WORD_BOUNDS = [
    (2**31, 1, 2**10), (2**31, 4, 2**10), (2**62, 2, 2**30),
    (2**63 - 1, 1, 73 * 127), (2**63 - 1, 7, 73 * 127), (2**63, 2, 2**31),
]


@pytest.mark.parametrize("bound, x, b_top, z, y, w", [
    (*case, *shape) for case in WORD_BOUNDS
    # (1, 4, 3): A is 1 x n; (4, 1, 1): A and B (w = 1) are n x 1.  At most
    # 3^7 extreme points, for the Fraction reference loop.
    for shape in [(3, 3, 2), (1, 4, 3), (4, 1, 1), (2, 3, 1)] if shape[1] ** case[1] <= 3**7
])
def test_1chain_word_path_at_its_bound_matches_reference(bound, x, b_top, z, y, w, monkeypatch):
    dtypes = _word_dtypes(monkeypatch)
    A, B = _pair_at_bound(Random(bound % 1000 + 100 * x + 10 * y + w), bound, x, b_top, z, y, w)
    modA, modB = A.modulus_closed_form(), B.modulus_closed_form()
    assert x * modA._values.sum(axis=0).max() * modB._values.max() == bound
    _assert_kernel_matches_reference(A, B)
    assert dtypes == [np.dtype(np.int64) if bound < 2**63 else np.dtype(object)]


def test_1chain_word_path_keeps_denominators():
    # The numerators run on words, over the product of the denominators.
    A, B = _pair_at_bound(Random(2310), 2**63 - 1, 7, 73 * 127, 2, 2, 2)
    _assert_kernel_matches_reference(A.scale(Fraction(1, 3)), B.scale(Fraction(5, 7)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_1chain_word_path_equals_the_object_path(data):
    # Magnitudes around 2^31, 2^62 and 2^63: the word path, where the bound
    # lets it run, gives the object path's value.
    z, y, x, w = (data.draw(st.integers(1, 3)) for _ in range(4))
    bits = data.draw(st.sampled_from([29, 30, 31, 32, 60, 61, 62, 63]))
    entries = st.integers(-(2**bits), 2**bits)
    A = RegularOperator(z, y, [data.draw(entries) for _ in range(z * y)])
    B = RegularOperator(x, w, [data.draw(entries) for _ in range(x * w)])
    value = superop_regular_norm_1chain(A, B)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "_on_words", lambda a, b, terms: (a, b))
        assert superop_regular_norm_1chain(A, B) == value


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
    t_norms = batched_operator_norm(stack, assignment.n_X, assignment.n_Y)
    stack = stack / t_norms[:, None, None]
    images = np.einsum("ij,sjk,kl->sil", _np(abs(A)), stack, _np(abs(B)))
    return float(
        batched_operator_norm(images, assignment.n_W, assignment.n_Z).max()
    )


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 4, 3), (3, 4, 3, 4)])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_verify_cor23_sampled_images_match_einsum(dims, p):
    A, B = _chain_pair(Random(2308), *dims)
    assignment = NormAssignment.uniform(p)
    report = verify_cor23(A, B, assignment, samples=300, seed=5)
    reference = _reference_max_sample(A, B, assignment, 300, 5)
    assert report.details["max_sample"] == pytest.approx(reference, rel=1e-13)


def _chunked(monkeypatch, entries, run):
    """The report of ``run()`` with ``lattice._KERNEL_CHUNK_ENTRIES`` set to
    ``entries``, and the sizes of the sampled stacks it drew."""
    sizes, draws = [], norms._draws

    def spy(*args):
        for stack in draws(*args):
            sizes.append(len(stack))
            yield stack

    monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", entries)
    monkeypatch.setattr(norms, "_draws", spy)
    try:
        return run().to_json(), sizes
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("run", [
    lambda: verify_cor23(*_chain_pair(Random(2309), 3, 3, 3, 3),
                         NormAssignment.uniform(2.0), samples=300, seed=5),
    lambda: verify_cor23(*_chain_pair(Random(2310), 2, 3, 4, 3),
                         NormAssignment.uniform(1.0), samples=300, seed=6),
], ids=["cor23-l2", "cor23-l1"])
def test_sampling_in_chunks_gives_the_report_of_one_stack(monkeypatch, run):
    whole, (samples,) = _chunked(monkeypatch, 1 << 30, run)
    chunked, sizes = _chunked(monkeypatch, 500, run)
    assert len(sizes) > 2 and len(set(sizes)) == 2 and sum(sizes) == samples
    assert chunked == whole


def test_largest_image_folds_uneven_stacks_as_one_stack():
    # T and -T tie bit for bit (same norms, negated images), and a smaller S
    # goes first: folded over uneven stacks, the largest value is the one
    # of all of them in one stack.
    rng = np.random.default_rng(24)
    A, B, T = rng.standard_normal((3, 3, 3))
    S = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    stacks = [np.stack(s) for s in ([S, S], [-T, T], [T, -T, T], [S], [T])]
    assignment = NormAssignment.uniform(2.0)
    whole = np.concatenate(stacks)
    t_norms = batched_operator_norm(whole, assignment.n_X, assignment.n_Y)
    values = batched_operator_norm(A @ (whole / t_norms[:, None, None]) @ B,
                                   assignment.n_W, assignment.n_Z)
    assert len(set(values[2:].tolist()) - set(values[[0, 1, 7]].tolist())) == 1
    assert values[0] < values[2]
    folded = norms._largest_image(A, stacks, B, assignment)
    single = norms._largest_image(A, [whole], B, assignment)
    assert folded == single == values[2]
    assert norms._largest_image(A, [0 * S[None]], B, assignment) == 0.0


def test_sampling_memory_does_not_grow_with_the_samples():
    # 20000 samples of 8 x 8 are 10 MiB of floats, a chunk of them 512 KiB.
    A = RegularOperator(8, 8, [float(k % 5) - 2.0 for k in range(64)])
    peaks = []
    for samples in (2000, 20000):
        tracemalloc.start()
        try:
            verify_cor23(A, A, NormAssignment.uniform(2.0), samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 64 * lattice._KERNEL_CHUNK_ENTRIES
    assert peaks[1] < 1.25 * peaks[0]


def _no_draw(*args, **kwargs):
    raise AssertionError("no draw")


def _refuse_draws(monkeypatch):
    monkeypatch.setattr(norms.np.random, "default_rng", _no_draw)


def test_sample_stack_cap_raises_before_drawing(monkeypatch):
    _refuse_draws(monkeypatch)
    A = RegularOperator.from_rows([[1, -2], [3, 4]])
    samples = norms.SAMPLE_STACK_CAP // 4 + 1
    with pytest.raises(EnumerationLimitError, match="sample stack cap"):
        verify_cor23(A, A, NormAssignment.uniform(1.0), samples=samples)


def test_sample_stack_cap_counts_the_partial_products(monkeypatch):
    # A is 64 x 1 and B is 64 x 1: T and A T B have 64 entries, A T has 4096.
    _refuse_draws(monkeypatch)
    A = RegularOperator(64, 1, [Fraction(1)] * 64)
    B = RegularOperator(64, 1, [Fraction(1)] * 64)
    samples = norms.SAMPLE_STACK_CAP // 4096 + 1
    assert samples * 64 <= norms.SAMPLE_STACK_CAP
    with pytest.raises(EnumerationLimitError, match="sample stack cap"):
        verify_cor23(A, B, NormAssignment.uniform(1.0), samples=samples)


def test_the_rank_one_witness_is_written_as_its_factors_under_no_cap():
    # gap and cor23 write T = x' (x) y*, A.cols x B.rows, as x' and y*: a
    # 20000 x 20000 T, a 2.98 GiB request when it was formed, is two
    # 20000-entry vectors, and T has no cap of its own.
    A = RegularOperator(1, 20000, [1] * 20000)
    B = RegularOperator(20000, 1, [1] * 20000)
    peaks = []
    for assignment in (NormAssignment.uniform(1.0), NormAssignment.uniform(2.0)):
        with _traced(peaks):
            report = gap_report(A, B, assignment)
        assert report.details["operator_side_certified"] is True
        assert [w["dim"] for w in report.witnesses] == [20000, 20000]
    assert max(peaks) < 16 * 2**20
    uniform = NormAssignment.uniform(2.0)
    for n in (1024, 4097, 20000):
        norms.check_sampling(0, (1, n), (n, 1), uniform)


def test_factor_searches_are_checked_before_any_work(monkeypatch):
    def no_work(self):
        raise AssertionError("no work")

    # Both verifiers start by taking the factors' moduli.
    monkeypatch.setattr(RegularOperator, "modulus_closed_form", no_work)
    big = RegularOperator(200, 200, [1.0] * 40000)  # |A| from Y to Z: 3.5 -> 2
    n2 = LatticeNorm(p=2.0)
    assignment = NormAssignment(n_W=n2, n_X=n2, n_Y=LatticeNorm(p=3.5), n_Z=n2)
    for verifier, samples in ((verify_cor23, {"samples": 0}), (gap_report, {})):
        with pytest.raises(EnumerationLimitError, match="search over 1 200x200"):
            verifier(big, RegularOperator.identity(2), assignment, **samples)


def test_signed_factor_searches_are_checked_before_any_work(monkeypatch):
    def no_work(self):
        raise AssertionError("no work")

    # From l^inf, |A| takes the positive corner but a signed A itself is
    # searched; gap norms both, so it refuses the search before the moduli.
    monkeypatch.setattr(RegularOperator, "modulus_closed_form", no_work)
    signed = RegularOperator(200, 200, [(-1.0) ** k for k in range(40000)])
    small = RegularOperator.identity(2)
    n2, inf = LatticeNorm(p=2.0), LatticeNorm(p=math.inf)
    for A, B, assignment in ((signed, small, NormAssignment(n2, n2, inf, n2)),
                             (small, signed, NormAssignment(inf, n2, n2, n2))):
        with pytest.raises(EnumerationLimitError, match="search over 1 200x200"):
            gap_report(A, B, assignment)
        # A positive factor of the same size takes the positive corner.
        with pytest.raises(AssertionError, match="no work"):
            gap_report(abs(A), abs(B), assignment)


def test_search_work_cap_raises_before_any_ascent_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("no ascent step")

    monkeypatch.setattr(norms, "_search", no_step)
    n35, n2 = LatticeNorm(p=3.5), LatticeNorm(p=2.0)  # no closed form
    per_matrix = (1 + 2 + 8) * 41 * 4  # starts x evaluations x entries, 2 x 2
    count = norms.SEARCH_WORK_CAP // per_matrix + 1
    with pytest.raises(EnumerationLimitError, match="search work cap"):
        batched_operator_norm(np.ones((count, 2, 2)), n35, n2)
    big = RegularOperator(200, 200, [1.0] * 40000)  # 17 x 41 x 40000 > 2^24
    with pytest.raises(EnumerationLimitError, match="search work cap"):
        operator_norm(big, n35, n2)
    # A closed form is never refused, whatever a search would cost.
    assert batched_operator_norm(np.ones((count, 2, 2)), LatticeNorm(p=1.0), n2).shape == (count,)
    # Exactly at the cap the search begins.
    monkeypatch.setattr(norms, "SEARCH_WORK_CAP", 3 * per_matrix)
    with pytest.raises(AssertionError, match="no ascent step"):
        batched_operator_norm(np.ones((3, 2, 2)), n35, n2)


# ---------------------------------------------------------------------------
# gap exploration
# ---------------------------------------------------------------------------


def test_hadamard_tensor_power_cap_raises_before_building(monkeypatch):
    def no_kron(*args):
        raise AssertionError("the cap must be checked before any kron")

    # hadamard_tensor_power calls the kron that norms imported.
    monkeypatch.setattr(norms, "kron", no_kron)
    assert 4**10 <= superop.KRON_ENTRY_CAP < 4**11
    for m in (11, 30):
        with pytest.raises(EnumerationLimitError, match="entry cap"):
            hadamard_tensor_power(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_gap_report_hadamard_witness_properties(m, seed):
    # H^T H = 2^m I, so every unit T attains ||H T H||_2 = 2^m: the witness
    # T = x' (x) y* is one of many tied maximisers, checked by its
    # properties rather than its bytes.
    H = hadamard_tensor_power(m)
    report = gap_report(H, H, NormAssignment.uniform(2.0), seed=seed)
    operator_side = report.details["operator_side"]
    assert operator_side == pytest.approx(2.0**m, rel=1e-12)
    T = _np(_rank_one_T(report))
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
    report = gap_report(H, H, NormAssignment.uniform(2.0), seed=0)
    assert report.status == "info"
    rho = report.details["rho"]
    assert rho <= 2.0**-m + 1e-6
    assert rho >= 2.0**-m - 1e-6  # the SVD witness attains it
    assert report.details["regular_side"] == pytest.approx(4.0**m, abs=1e-6)


def test_gap_report_no_gap_for_positive_factors():
    A = RegularOperator.from_rows([[1, 2], [0, 1]])
    report = gap_report(A, A, NormAssignment.uniform(2.0), seed=0)
    assert report.details["rho"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("ps", [(2.0,) * 4, (1.0,) * 4, (1.0, 2.0, 2.0, math.inf)],
                         ids=["all-2", "all-1", "1-2-2-inf"])
def test_certified_gap_draws_nothing(monkeypatch, ps):
    # Both factor norms are closed forms: the rank-one witness is the only
    # candidate, and it attains ||A|| ||B||.
    _refuse_draws(monkeypatch)
    A = RegularOperator.from_rows([[1, -2, 0], [3, 4, -1]])
    B = RegularOperator.from_rows([[2, -1], [0, 1], [-3, 1]])
    a = NormAssignment(*[LatticeNorm(p=p) for p in ps])
    report = gap_report(A, B, a, seed=5)
    product = operator_norm(A, a.n_Y, a.n_Z).value_float * operator_norm(B, a.n_W, a.n_X).value_float
    assert report.details["operator_side_certified"] is True
    assert report.details["operator_side"] == pytest.approx(product, rel=1e-14)


@pytest.mark.parametrize("scale", [1e-170, 1e170])
@pytest.mark.parametrize("p", [2.0, 1.0])
def test_certified_gap_does_not_depend_on_the_scale(p, scale):
    # At 2 -> 2, B w* = (0, sqrt(2) scale), whose square under- or overflows
    # unless it is scaled before it is normed.  B is positive and A = I, so
    # the ratio is 1.
    A = RegularOperator.from_rows([[1.0, 0.0], [0.0, 1.0]])
    B = RegularOperator.from_rows([[0.0, 0.0], [scale, scale]])
    report = gap_report(A, B, NormAssignment.uniform(p))
    norm_B = operator_norm(B, LatticeNorm(p=p), LatticeNorm(p=p)).value_float
    assert report.details["operator_side_certified"] is True
    assert report.details["operator_side"] == pytest.approx(norm_B, rel=1e-14)
    assert report.details["rho"] == pytest.approx(1.0, rel=1e-14)


def test_gap_of_factors_whose_product_underflows():
    # ||A|| ||B|| = 1.4e-340 is below the float range, so both sides scale
    # back to 0; formed at the factors' powers of two, their ratio is the
    # true one, 1 (B is positive and A a multiple of I).
    A = RegularOperator.from_rows([[1e-170, 0.0], [0.0, 1e-170]])
    B = RegularOperator.from_rows([[0.0, 0.0], [1e-170, 1e-170]])
    report = gap_report(A, B, NormAssignment.uniform(2.0))
    assert report.details["operator_side"] == report.details["regular_side"] == 0.0
    assert report.details["operator_side_certified"] is True
    assert report.details["rho"] == pytest.approx(1.0, rel=1e-14)


def test_gap_witness_image_underflow_is_not_certified(monkeypatch):
    # The factors' scaling keeps the witness image away from underflow; the
    # guard behind it still refuses a zero image of nonzero factors.
    witness = norms._rank_one_witness

    def zero_side(*args):
        _, x_prime = witness(*args)
        return 0.0, x_prime

    monkeypatch.setattr(norms, "_rank_one_witness", zero_side)
    A = RegularOperator.from_rows([[1, -2], [3, 4]])
    report = gap_report(A, A, NormAssignment.uniform(2.0))
    assert report.details["operator_side"] == 0.0
    assert report.details["operator_side_certified"] is False


def _closed(n_from, n_to):
    return norms._closed_form_method(n_from, n_to, positive=False) is not None


def _assignments(exponents):
    return [NormAssignment(*[LatticeNorm(p=p) for p in ps])
            for ps in itertools.product(exponents, repeat=4)]


#: Every assignment over l^1, l^2, l^3 and l^inf whose factor norms are
#: closed forms for signed factors.
CERTIFIED = [
    a for a in _assignments((1.0, 2.0, 3.0, math.inf))
    if _closed(a.n_Y, a.n_Z) and _closed(a.n_W, a.n_X)
]

#: Every assignment over l^1, l^1.5, l^2, l^3, l^4 and l^inf with a factor
#: norm that signed factors need a search for.
SEARCHED = [
    a for a in _assignments((1.0, 1.5, 2.0, 3.0, 4.0, math.inf))
    if not (_closed(a.n_Y, a.n_Z) and _closed(a.n_W, a.n_X))
]


@st.composite
def gap_factors(draw, rows, cols):
    """A rows x cols factor, exact or float, with up to two rows and two
    columns zeroed and its entries scaled by 10^-5, 1 or 10^5."""
    m = np.array(draw(st.lists(floats_st, min_size=rows * cols, max_size=rows * cols)),
                 dtype=float).reshape(rows, cols)
    m[draw(st.lists(st.integers(0, rows - 1), max_size=2))] = 0.0
    m[:, draw(st.lists(st.integers(0, cols - 1), max_size=2))] = 0.0
    k = draw(st.sampled_from([-5, 0, 5]))
    if draw(st.booleans()):
        return RegularOperator(rows, cols, [Fraction(e) * Fraction(10) ** k for e in m.ravel()])
    return RegularOperator(rows, cols, [float(e) * 10.0**k for e in m.ravel()])


@st.composite
def gap_cases(draw):
    z, y, x, w = (draw(st.integers(1, 6)) for _ in range(4))
    assignment = draw(st.sampled_from(CERTIFIED) | st.sampled_from(SEARCHED))
    return draw(gap_factors(z, y)), draw(gap_factors(x, w)), assignment


def _found_product(A, B, a, seed):
    """The product of the factor norms as ``gap_report`` finds them, on the
    factors at their powers of two, scaled back."""
    (A_s, shift_A), (B_s, shift_B) = norms._binary_scaled(A), norms._binary_scaled(B)
    found = (operator_norm(A_s, a.n_Y, a.n_Z, seed=seed).value_float
             * operator_norm(B_s, a.n_W, a.n_X, seed=seed).value_float)
    return math.ldexp(found, shift_A + shift_B)


@given(gap_cases())
@example((  # B's searched 2 -> 3 norm fell below its witness's, so rho > 1
    RegularOperator.from_rows([[1e-5]]),
    RegularOperator.from_rows([[0.0, 0.0, 0.0, 1e-5], [5e-6, 0.0, 7.5e-6, 3.75e-6]]),
    NormAssignment(*(LatticeNorm(p=p) for p in (2.0, 3.0, 1.0, 1.0))),
))
@settings(max_examples=60, deadline=None)
def test_certified_gap_attains_the_product_of_the_factor_norms(case):
    A, B, a = case
    report = gap_report(A, B, a, seed=2)
    (z, y), (x, w) = A.shape, B.shape
    rounding = 8 * (z + y + x + w) * np.finfo(float).eps
    side = report.details["operator_side"]
    if a in CERTIFIED:
        product = (operator_norm(A, a.n_Y, a.n_Z).value_float
                   * operator_norm(B, a.n_W, a.n_X).value_float)
        assert report.details["operator_side_certified"] is True
        assert abs(side - product) <= rounding * product
    else:
        # A searched factor norm is a lower bound; the witness reaches it.
        product = _found_product(A, B, a, seed=2)
        assert side >= product * (1.0 - rounding)
    assert report.details["rho"] <= 1.0 + rounding
    T = _rank_one_T(report)
    assert abs(operator_norm(T, a.n_X, a.n_Y).value_float - 1.0) <= rounding
    # No sample stack, drawn here directly, beats the witness.
    stack = np.random.default_rng(3).standard_normal((50, y, x))
    drawn = norms._largest_image(np.array(A.as_floats()), [stack],
                                 np.array(B.as_floats()), a)
    assert drawn <= side + rounding * product


@pytest.mark.parametrize("ps", [(2.0,) * 4, (3.0, 2.0, 2.0, 2.0), (1.5, 4.0, math.inf, 3.0)],
                         ids=["all-2", "searched-W-to-X", "searched-both"])
def test_gap_never_draws_samples(monkeypatch, ps):
    monkeypatch.setattr(norms, "_draws", _no_draw)
    A = RegularOperator.from_rows([[1, -2, 0], [3, 4, -1]])
    B = RegularOperator.from_rows([[2, -1], [0, 1], [-3, 1]])
    report = gap_report(A, B, NormAssignment(*[LatticeNorm(p=p) for p in ps]))
    assert report.details["operator_side"] > 0.0


# ---------------------------------------------------------------------------
# work shared, bits kept: one factor as A and B, draws, the scaled tolerance
# ---------------------------------------------------------------------------


GAP_SHARING = {
    "all-1": NormAssignment.uniform(1.0),
    "all-2": NormAssignment.uniform(2.0),
    "all-inf": NormAssignment.uniform(math.inf),
    "p-in-3": NormAssignment(LatticeNorm(3.0), *[LatticeNorm(2.0)] * 3),
}


@pytest.mark.parametrize("name", GAP_SHARING)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_gap_of_one_factor_is_the_gap_of_its_copy(m, name):
    a = GAP_SHARING[name]
    H = hadamard_tensor_power(m)
    shared = gap_report(H, H, a, seed=3).to_json()
    assert shared == gap_report(H, hadamard_tensor_power(m), a, seed=3).to_json()


def _counted(monkeypatch, target, name):
    """A list that grows by one entry per call of ``target.name``."""
    calls, inner = [], getattr(target, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(target, name, spy)
    return calls


def test_gap_norms_one_factor_passed_as_both_once(monkeypatch):
    svds = _counted(monkeypatch, np.linalg, "svd")
    H = hadamard_tensor_power(3)
    gap_report(H, H, NormAssignment.uniform(2.0))
    assert len(svds) == 2  # |H| and H, each once
    gap_report(H, hadamard_tensor_power(3), NormAssignment.uniform(2.0))
    assert len(svds) == 2 + 4


@pytest.mark.parametrize("a", [GAP_SHARING["p-in-3"],
                               NormAssignment(*[LatticeNorm(p) for p in (2.0, 1.0, 2.0, 2.0)])],
                         ids=["p-in-3", "p-mid1-1"])
def test_gap_shares_no_norm_when_the_norm_pairs_differ(monkeypatch, a):
    norm_calls = _counted(monkeypatch, norms, "_operator_norms")
    rows = [[1, -2, 0], [3, 4, -1], [0, 1, 1]]
    A = RegularOperator.from_rows(rows)
    shared = gap_report(A, A, a).to_json()
    assert len(norm_calls) == 4
    assert shared == gap_report(A, RegularOperator.from_rows(rows), a).to_json()


@pytest.mark.parametrize("samples", [0, 1, 5, 23, 40])
def test_draws_are_the_uniform_stacks_bit_for_bit(monkeypatch, samples):
    # 3 x 3 samples of 9 entries, 5 to a chunk: stacks of 5, ..., 5, rest.
    monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", 45)
    A = RegularOperator.from_rows([[1, 2, 3]] * 2)
    B = RegularOperator.from_rows([[1], [2], [3]])
    stacks = list(norms._draws(np.random.default_rng(11), samples, A, B))
    assert [len(s) for s in stacks] == [min(5, samples - k) for k in range(0, samples, 5)]
    old = np.random.default_rng(11)
    for stack in stacks:
        assert stack.tobytes() == old.uniform(0.0, 1.0, stack.shape).tobytes()
    whole = np.random.default_rng(11).uniform(0.0, 1.0, (samples, 3, 3))
    assert np.concatenate([whole[:0], *stacks]).tobytes() == whole.tobytes()


def _wide_pair():
    A = RegularOperator(1, 20000, [1] * 20000)
    return A, A.transpose()


def test_cor23_tolerance_scales_with_a_large_product():
    # The SVD value and the 20000-term sum of the witness differ by 5.2e-9,
    # 2.6e-13 of the product 20000.
    report = verify_cor23(*_wide_pair(), NormAssignment.uniform(2.0), samples=0)
    assert report.details["product"] == 20000.0
    assert 1e-9 < report.details["witness_shortfall"] < 1e-12 * 20000.0
    assert report.status == "pass"


def test_cor23_witness_short_in_relative_terms_still_fails(monkeypatch):
    witness = norms._rank_one_witness

    def short(*args):
        value, x_prime = witness(*args)
        return value * (1.0 - 1e-8), x_prime

    monkeypatch.setattr(norms, "_rank_one_witness", short)
    report = verify_cor23(*_wide_pair(), NormAssignment.uniform(2.0), samples=0)
    assert report.details["witness_shortfall"] > 1e-9 * 20000.0
    assert report.status == "fail"


def test_cor23_samples_a_transposed_factor_as_its_copy():
    # A transposed factor is stored in Fortran order; at these sizes BLAS
    # gives its batched images other last bits than a C-ordered copy's, and
    # with OpenBLAS on x86-64 the largest sample at seed 2 shows them.
    rng = np.random.default_rng(32)
    A_t = RegularOperator(30, 20, rng.random(600).tolist())
    B = RegularOperator(25, 10, rng.random(250).tolist())
    A = RegularOperator.from_rows(A_t.transpose().as_floats())
    a = NormAssignment.uniform(math.inf)
    report = verify_cor23(A_t.transpose(), B, a, samples=50, seed=2)
    assert report.to_json() == verify_cor23(A, B, a, samples=50, seed=2).to_json()
