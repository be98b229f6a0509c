import itertools
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszops import (
    LatticeVector,
    RegularOperator,
    Superoperator,
    atomic_operator_partition,
    kron,
    random_operator_partition,
    trivial_operator_partition,
    operator_partition_sup,
    unvec,
    vec,
    verify_cor22,
    verify_prop21,
    verify_synnatzschke_a,
)
from rieszops import lattice, norms, superop
from rieszops.lattice import EnumerationLimitError

from conftest import fractions_st, matrices, positive_fractions_st, superop_quadruple_dims


def _np(M: RegularOperator) -> np.ndarray:
    return np.array(M.to_lists(), dtype=float)


@st.composite
def superop_case(draw, positive_A=False, positive_B=False, positive_T=False):
    w, x, y, z = draw(superop_quadruple_dims())
    A = draw(matrices(rows=z, cols=y, positive=positive_A))
    B = draw(matrices(rows=x, cols=w, positive=positive_B))
    T = draw(matrices(rows=y, cols=x, positive=positive_T))
    return A, B, T


# ---------------------------------------------------------------------------
# kron / vec plumbing, checked against numpy
# ---------------------------------------------------------------------------


@given(matrices(), matrices())
def test_kron_matches_numpy(P, Q):
    ours = _np(kron(P, Q))
    theirs = np.kron(_np(P), _np(Q))
    assert np.allclose(ours, theirs)


@given(matrices())
def test_vec_unvec_roundtrip(T):
    assert unvec(vec(T), T.rows, T.cols).eq(T)


@given(matrices())
def test_vec_is_column_major(T):
    ours = np.array(vec(T).as_floats())
    theirs = _np(T).flatten(order="F")
    assert np.allclose(ours, theirs)


# ---------------------------------------------------------------------------
# the two-sided multiplication superoperator
# ---------------------------------------------------------------------------


@given(superop_case())
def test_rep_agrees_with_direct_product(case):
    A, B, T = case
    M = Superoperator.build(A, B)
    direct = (A @ T) @ B
    assert M.apply(T).eq(direct)


@given(superop_case())
def test_rep_matches_numpy_kron(case):
    A, B, T = case
    M = Superoperator.build(A, B)
    theirs = np.kron(_np(B).T, _np(A))
    assert np.allclose(_np(M.rep), theirs)


def test_identity_superoperator():
    eye = RegularOperator.identity(3)
    M = Superoperator.build(eye, eye)
    T = RegularOperator.from_rows([[1, 2, 0], [3, 4, -1], [5, 6, 2]])
    assert M.apply(T).eq(T)


@given(superop_case())
def test_lattice_operations_on_rep(case):
    A, B, T = case
    M = Superoperator.build(A, B)
    assert M.modulus().rep.eq(abs(M.rep))


# ---------------------------------------------------------------------------
# the modulus identity and corner decomposition
# ---------------------------------------------------------------------------


@given(superop_case())
def test_modulus_factorizes(case):
    A, B, _ = case
    M_abs = Superoperator.build(abs(A), abs(B))
    assert Superoperator.build(A, B).modulus().rep.eq(M_abs.rep)


@given(superop_case())
def test_corner_decomposition(case):
    A, B, _ = case
    M = Superoperator.build(A, B)
    corners = [
        Superoperator.build(A.pos_part(), B.pos_part()),
        Superoperator.build(A.pos_part(), B.neg_part()),
        Superoperator.build(A.neg_part(), B.pos_part()),
        Superoperator.build(A.neg_part(), B.neg_part()),
    ]
    # pairwise disjoint positive superoperators
    for i in range(4):
        for j in range(i + 1, 4):
            assert corners[i].rep.meet_closed_form(corners[j].rep).is_zero()
    # signed expansion reconstructs M
    expanded = (
        corners[0].rep - corners[1].rep - corners[2].rep + corners[3].rep
    )
    assert expanded.eq(M.rep)
    # and the modulus is the plain sum
    total = corners[0].rep + corners[1].rep + corners[2].rep + corners[3].rep
    assert total.eq(M.modulus().rep)


# ---------------------------------------------------------------------------
# partition suprema over operator splits
# ---------------------------------------------------------------------------


@given(superop_case(positive_A=True, positive_T=True))
@settings(max_examples=25)
def test_atomic_partition_sup_attains(case):
    A0, B, T = case
    w = LatticeVector.ones(B.cols)
    sup = operator_partition_sup(A0, B, T, w, [atomic_operator_partition(T)])
    rhs = (A0 @ T @ abs(B)).apply(w)
    assert sup.eq(rhs)


@given(superop_case(positive_A=True, positive_T=True))
@settings(max_examples=25)
def test_singleton_partition_sup_is_dominated(case):
    A0, B, T = case
    w = LatticeVector.ones(B.cols)
    single = operator_partition_sup(
        A0, B, T, w, [trivial_operator_partition(T)]
    )
    rhs = (A0 @ T @ abs(B)).apply(w)
    assert single.le(rhs)


def test_partition_sup_input_validation():
    A0 = RegularOperator.from_rows([[1, 0], [0, 1]])
    B = RegularOperator.from_rows([[1, -1], [2, 0]])
    T = RegularOperator.from_rows([[1, 1], [1, 1]])
    w = LatticeVector.ones(2)
    with pytest.raises(ValueError):
        operator_partition_sup(-A0, B, T, w)
    with pytest.raises(ValueError):
        operator_partition_sup(A0, B, T - T - T, w)
    with pytest.raises(ValueError):
        operator_partition_sup(A0, B, T, -w)
    with pytest.raises(ValueError):
        operator_partition_sup(A0, B, T, w, [])
    other = atomic_operator_partition(T + T)
    with pytest.raises(ValueError):
        operator_partition_sup(A0, B, T, w, [atomic_operator_partition(T), other])


def _partition_superop_sum(A0, B, partition):
    """sum_j |A0 T_j B| for one operator partition of T, one operator at a
    time (the loop ``operator_partition_sup`` replaced)."""
    total = RegularOperator.zero(A0.rows, B.cols, A0.mode)
    for piece in partition.pieces:
        total = total + (A0 @ piece @ B).modulus_closed_form()
    return total


def _reference_partition_sup(A0, B, T, w, partitions):
    """The supremum as the Fraction (or float) loop over
    ``_partition_superop_sum``, the reference for the kernel."""
    best = None
    for partition in partitions:
        value = _partition_superop_sum(A0, B, partition).apply(w)
        best = value if best is None else best.join(value)
    return best


def _kernel_strategies(T, seed):
    """Atomic, singleton and 4 seeded signed random partitions of T, alone
    and combined."""
    atomic = [atomic_operator_partition(T)]
    singleton = [trivial_operator_partition(T)]
    rng = Random(seed)
    signed = [random_operator_partition(T, 3, rng) for _ in range(4)]
    return (atomic, singleton, signed, atomic + singleton + signed)


def _seeded_case(rng, dims, scale=1, zero_share=0.0):
    w, x, y, z = dims

    def entries(count, positive):
        low = 0 if positive else -9
        return [
            0 if rng.random() < zero_share
            else scale * Fraction(rng.randint(low, 9), rng.randint(1, 7))
            for _ in range(count)
        ]

    A0 = RegularOperator(z, y, entries(z * y, True))
    B = RegularOperator(x, w, entries(x * w, False))
    T = RegularOperator(y, x, entries(y * x, True))
    v = LatticeVector(entries(w, True))
    return A0, B, T, v


def _assert_kernel_matches(A0, B, T, v, schemes):
    got = operator_partition_sup(A0, B, T, v, schemes)
    want = _reference_partition_sup(A0, B, T, v, schemes)
    assert got.entries == want.entries, (A0, B, T, v, schemes)
    assert all(type(e) is Fraction for e in got.entries)


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("x", [1, 2, 3])
def test_partition_sup_kernel_matches_reference_loop(w, x):
    rng = Random(10 * w + x)
    for y, z in itertools.product((1, 2, 3), repeat=2):
        case = _seeded_case(rng, (w, x, y, z), zero_share=0.25)
        for schemes in _kernel_strategies(case[2], seed=y * z):
            _assert_kernel_matches(*case, schemes)


def test_partition_sup_kernel_on_4x4x4x4_and_special_inputs():
    rng = Random(4)
    for kind in range(4):
        case = _seeded_case(rng, (4, 4, 4, 4))
        _assert_kernel_matches(*case, _kernel_strategies(case[2], seed=4)[kind])
        # An all-zero T: the atomic partition falls back to the partition [T].
        A0, B, _, v = _seeded_case(rng, (3, 2, 3, 2))
        zero = RegularOperator.zero(3, 2)
        _assert_kernel_matches(A0, B, zero, v, _kernel_strategies(zero, seed=4)[kind])
        for scale in (Fraction(10**12, 7), Fraction(10**12, 7) ** 2):
            case = _seeded_case(rng, (3, 4, 3, 4), scale)
            _assert_kernel_matches(*case, _kernel_strategies(case[2], seed=4)[kind])


def test_partition_sup_kernel_chunks_agree(monkeypatch):
    rng = Random(5)
    A0, B, T, v = _seeded_case(rng, (4, 4, 4, 4), zero_share=0.2)
    schemes = _kernel_strategies(T, seed=5)[-1]
    whole = operator_partition_sup(A0, B, T, v, schemes)
    # 16 image entries per piece: one piece per chunk, so every partition of
    # more than one piece has its sum carried across chunks.
    monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", 1)
    chunked = operator_partition_sup(A0, B, T, v, schemes)
    assert chunked.entries == whole.entries
    assert chunked.entries == _reference_partition_sup(A0, B, T, v, schemes).entries


def test_partition_sup_float_mode_runs_the_loop():
    A0 = RegularOperator.from_rows([[0.5, 1.25], [2.0, 0.0]])
    B = RegularOperator.from_rows([[1.5, -0.5], [-0.5, 1.0]])
    T = RegularOperator.from_rows([[0.1, 0.0], [0.3, 0.7]])
    v = LatticeVector([0.2, 1.1])
    for schemes in _kernel_strategies(T, seed=6):
        got = operator_partition_sup(A0, B, T, v, schemes)
        assert got.entries == _reference_partition_sup(A0, B, T, v, schemes).entries
        assert all(type(e) is float for e in got.entries)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_partition_sup_float_kernel_matches_the_loop_bit_for_bit():
    rng = Random(12)
    special = [0.0, -0.0, 1e300, 1e-300, 2.5, 0.1]  # all count as positive

    def floats(count, positive, pool=special):
        low = 0.0 if positive else -1.0
        return [rng.choice(pool) if rng.random() < 0.4 else rng.uniform(low, 1.0)
                for _ in range(count)]

    for dims in [(2, 2, 2, 2), (3, 2, 3, 2), (2, 4, 3, 3)]:
        w, x, y, z = dims

        A0 = RegularOperator(z, y, floats(z * y, True))
        B = RegularOperator(x, w, floats(x * w, False))
        # Split pieces of a 1e300 entry miss their sum by more than the
        # absolute partition tolerance, so T keeps to the other values.
        T = RegularOperator(y, x, floats(y * x, True, special[:2] + special[3:]))
        v = LatticeVector(floats(w, True))
        for schemes in _kernel_strategies(T, seed=dims[1]):
            got = operator_partition_sup(A0, B, T, v, schemes).entries
            want = _reference_partition_sup(A0, B, T, v, schemes).entries
            assert [a.hex() for a in got] == [b.hex() for b in want]


def test_kron_cap_raises_before_any_product(monkeypatch):
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError("the cap must be checked before any product")

    # kron's first numpy call is its product of the two arrays.
    monkeypatch.setattr(superop, "np", NoArrays())
    assert superop.KRON_ENTRY_CAP >= norms.HADAMARD_ENTRY_CAP
    column = RegularOperator(1024, 1, [Fraction(1)] * 1024)
    taller = RegularOperator(1025, 1, [Fraction(1)] * 1025)
    with pytest.raises(EnumerationLimitError, match="kron entry cap"):
        kron(taller, column)
    # Exactly at the cap the check passes and the products begin.
    assert 1024 * 1024 == superop.KRON_ENTRY_CAP
    with pytest.raises(AssertionError, match="before any product"):
        kron(column, column)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


@given(superop_case())
@settings(max_examples=25)
def test_verify_cor22_passes_exactly(case):
    A, B, _ = case
    report = verify_cor22(A, B)
    assert report.status == "pass"
    assert report.exact
    assert report.max_deviation == 0


@given(superop_case(positive_A=True, positive_T=True))
@settings(max_examples=20)
def test_verify_prop21_passes_exactly(case):
    A0, B, T = case
    D = -B
    w = LatticeVector.ones(B.cols)
    report = verify_prop21(A0, B, D, T, w)
    assert report.status == "pass"
    assert report.exact
    assert report.max_deviation == 0


def test_verify_prop21_builds_two_reps(monkeypatch):
    built = []
    build = Superoperator.build.__func__

    def counted_build(cls, A, B):
        built.append((A, B))
        return build(cls, A, B)

    monkeypatch.setattr(Superoperator, "build", classmethod(counted_build))
    A0 = RegularOperator.from_rows([[1, 2], [0, 3]])
    B = RegularOperator.from_rows([[1, -1], [2, 0]])
    D = RegularOperator.from_rows([[0, 1], [-1, 1]])
    T = RegularOperator.from_rows([[1, 0], [2, 1]])
    report = verify_prop21(A0, B, D, T, LatticeVector.ones(2), seed=1)
    assert report.status == "pass"
    # M_{A0,B} and M_{A0,D} only: A0 T |B| and A0 T (B v D) come from the
    # factors directly.
    assert built == [(A0, B), (A0, D)]


@given(superop_case(positive_B=True))
@settings(max_examples=20)
def test_verify_synnatzschke_a_passes_exactly(case):
    A, B0, _ = case
    C = -A + RegularOperator.identity(A.rows) @ A  # a second factor, same shape
    report = verify_synnatzschke_a(A, C, B0)
    assert report.status == "pass"
    assert report.exact
    assert report.max_deviation == 0


def test_verify_synnatzschke_a_rejects_signed_right_factor():
    A = RegularOperator.from_rows([[1, -1], [0, 2]])
    B = RegularOperator.from_rows([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        verify_synnatzschke_a(A, A, B)


def test_float_mode_superoperator():
    A = RegularOperator.from_rows([[0.5, -1.25], [2.0, 0.0]])
    B = RegularOperator.from_rows([[1.5, 0.5], [-0.5, 1.0]])
    M = Superoperator.build(A, B)
    T = RegularOperator.from_rows([[1.0, 0.0], [0.0, 1.0]])
    assert M.apply(T).eq(A @ T @ B)
    report = verify_cor22(A, B)
    assert report.status == "pass"
    assert not report.exact
