from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rieszops import (
    CoordinateFunctional,
    LatticeVector,
    Partition,
    RegularOperator,
    build_B,
    counterexample_report,
    disjoint_partitions,
    identity_meet_B,
    inf_G_double_prime,
    meet_superoperator,
    meet_via_components,
    single_support_check,
)
from rieszops import counterexample
from rieszops.counterexample import (
    _e_partitions,
    _positive_splits,
    admissible_components,
    contrast_table,
    g_double_prime_term,
)
from rieszops.scalars import ScalarModeError

from conftest import positive_fractions_st


@st.composite
def functionals(draw, max_dim=4):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    return CoordinateFunctional(n, k)


@st.composite
def positive_matrices_for(draw, f):
    n = f.dim
    return RegularOperator(
        n, n, [draw(positive_fractions_st) for _ in range(n * n)]
    )


# ---------------------------------------------------------------------------
# the rank-one factor B = f (x) e
# ---------------------------------------------------------------------------


def test_coordinate_functional_validation():
    with pytest.raises(ValueError):
        CoordinateFunctional(0, 0)
    with pytest.raises(IndexError):
        CoordinateFunctional(3, 3)
    f = CoordinateFunctional(3, 1)
    assert f(LatticeVector([5, 7, 9])) == Fraction(7)
    assert f.as_vector().entries == (Fraction(0), Fraction(1), Fraction(0))


@given(functionals())
def test_build_B_is_rank_one_onto_ones(f):
    B = build_B(f)
    e = LatticeVector.ones(f.dim)
    x = LatticeVector([Fraction(i + 1) for i in range(f.dim)])
    # B x = f(x) e
    assert B.apply(x).eq(e.scale(f(x)))
    assert B.is_positive()
    assert B.apply(e).eq(e)  # f(e) = 1: the normalization the chain needs


@given(functionals())
def test_identity_meet_B_is_matrix_unit(f):
    IB = identity_meet_B(f)
    expected = RegularOperator.matrix_unit(f.dim, f.dim, f.index, f.index)
    assert IB.eq(expected)
    assert not IB.is_zero()  # the finite world diverges from l_infinity here


# ---------------------------------------------------------------------------
# components and partitions of e
# ---------------------------------------------------------------------------


@given(functionals())
def test_admissible_components_count(f):
    comps = list(admissible_components(f))
    assert len(comps) == 2 ** (f.dim - 1)
    for x in comps:
        assert f(x) == 1
        e = LatticeVector.ones(f.dim)
        assert x.meet(e - x).is_zero()


@given(functionals())
def test_single_support_dichotomy(f):
    e = LatticeVector.ones(f.dim)
    for partition in disjoint_partitions(e):
        j0 = single_support_check(f, partition)
        assert f(partition.pieces[j0]) == 1
        for j, piece in enumerate(partition.pieces):
            if j != j0:
                assert f(piece) == 0


def test_single_support_check_rejects_non_disjoint():
    f = CoordinateFunctional(2, 0)
    e = LatticeVector.ones(2)
    halves = Partition(e, (e.scale(Fraction(1, 2)), e.scale(Fraction(1, 2))))
    with pytest.raises(ValueError):
        single_support_check(f, halves)


def test_single_support_check_rejects_wrong_target():
    f = CoordinateFunctional(2, 0)
    v = LatticeVector([2, 1])
    with pytest.raises(ValueError):
        single_support_check(f, Partition(v, (v,)))


# ---------------------------------------------------------------------------
# the component formula and the superoperator meet
# ---------------------------------------------------------------------------


@given(functionals())
@settings(max_examples=20)
def test_meet_picks_out_column_k(f):
    data = Random(99)
    T = RegularOperator(
        f.dim,
        f.dim,
        [Fraction(data.randint(0, 40), data.randint(1, 8)) for _ in range(f.dim**2)],
    )
    expected = T.column(f.index)
    assert meet_via_components(T, f).eq(expected)
    Lambda, M_II, M_IB = meet_superoperator(f)
    e = LatticeVector.ones(f.dim)
    assert Lambda.apply(T).apply(e).eq(expected)
    # Lambda(T) = T E_kk for every T, not just positive ones
    E = RegularOperator.matrix_unit(f.dim, f.dim, f.index, f.index)
    assert Lambda.apply(T).eq(T @ E)


def test_meet_via_components_rejects_signed_input():
    f = CoordinateFunctional(2, 0)
    T = RegularOperator.from_rows([[1, -1], [0, 1]])
    with pytest.raises(ValueError):
        meet_via_components(T, f)


@given(functionals(max_dim=3))
@settings(max_examples=10)
def test_double_partition_infimum_collapses(f):
    data = Random(5)
    T = RegularOperator(
        f.dim,
        f.dim,
        [Fraction(data.randint(0, 16), data.randint(1, 4)) for _ in range(f.dim**2)],
    )
    g = inf_G_double_prime(T, f, partition_budget=20, operator_split_samples=8, seed=3)
    assert g.eq(meet_via_components(T, f))


def test_double_partition_infimum_on_B_is_e():
    f = CoordinateFunctional(3, 1)
    B = build_B(f)
    e = LatticeVector.ones(3)
    assert inf_G_double_prime(B, f).eq(e)
    assert meet_via_components(B, f).eq(e)


def _reference_inf_G(T, f, partition_budget, operator_split_samples, seed):
    """The double-partition infimum as a Fraction loop over
    ``g_double_prime_term``, the reference for the integer kernel."""
    n = f.dim
    partitions = _e_partitions(f, partition_budget)
    best = None
    for split in _positive_splits(T, operator_split_samples, seed):
        pieces_cols = [[piece.column(c) for c in range(n)] for piece in split.pieces]
        pieces_Te = []
        for cols in pieces_cols:
            Te = LatticeVector.zero(n)
            for col in cols:
                Te = Te + col
            pieces_Te.append(Te)
        for partition in partitions:
            value = g_double_prime_term(pieces_cols, pieces_Te, partition, f)
            best = value if best is None else best.meet(value)
    return best


def _random_positive(rng, n, scale=1):
    return RegularOperator(
        n,
        n,
        [scale * Fraction(rng.randint(0, 20), rng.randint(1, 9)) for _ in range(n * n)],
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_integer_kernel_matches_reference_loop(n):
    rng = Random(n)
    for k in range(n):
        f = CoordinateFunctional(n, k)
        for T in (build_B(f), _random_positive(rng, n)):
            for budget in (1, 6, 10, 40):
                for samples in (1, 2, 12):
                    got = inf_G_double_prime(T, f, budget, samples, seed=k)
                    want = _reference_inf_G(T, f, budget, samples, k)
                    assert got.entries == want.entries, (k, T, budget, samples)
                    assert all(type(v) is Fraction for v in got.entries)


@pytest.mark.parametrize("scale", [Fraction(10**12, 7), Fraction(10**12, 7) ** 2])
def test_integer_kernel_on_large_integers(scale):
    f = CoordinateFunctional(4, 2)
    T = _random_positive(Random(11), 4, scale)
    got = inf_G_double_prime(T, f, partition_budget=15, operator_split_samples=12)
    assert got.entries == _reference_inf_G(T, f, 15, 12, 0).entries
    assert got.eq(meet_via_components(T, f))


def test_integer_kernel_chunks_agree(monkeypatch):
    f = CoordinateFunctional(5, 1)
    T = _random_positive(Random(3), 5)
    whole = inf_G_double_prime(T, f, partition_budget=52, operator_split_samples=6)
    # One partition per chunk: the running minimum over chunks is the same.
    monkeypatch.setattr(counterexample, "_KERNEL_CHUNK_ENTRIES", 1)
    chunked = inf_G_double_prime(T, f, partition_budget=52, operator_split_samples=6)
    assert chunked.entries == whole.entries


def test_double_partition_infimum_rejects_float_operator():
    f = CoordinateFunctional(2, 0)
    with pytest.raises(ScalarModeError):
        inf_G_double_prime(build_B(f).to_float(), f)


# ---------------------------------------------------------------------------
# the assembled report
# ---------------------------------------------------------------------------


def test_counterexample_report_passes_exactly():
    report = counterexample_report(n=3, k=2, seed=0, t_samples=4)
    assert report.status == "pass"
    assert report.exact
    assert report.max_deviation == 0
    assert report.details["splits_sampled"] > 0
    table = report.details["contrast_table"]
    assert len(table) == 3
    for row in table:
        assert set(row) == {"quantity", "finite_value", "linf_value", "citation"}
    # first divergence: finitely I ^ B is nonzero, in l_infinity it is 0
    assert table[0]["linf_value"] == "0"
    assert "nonzero" in table[0]["finite_value"]


def test_counterexample_report_validates_inputs():
    with pytest.raises(ValueError):
        counterexample_report(n=1, k=1)
    with pytest.raises(ValueError):
        counterexample_report(n=3, k=0)
    with pytest.raises(ValueError):
        counterexample_report(n=3, k=4)


def test_contrast_table_uses_one_based_coordinates():
    table = contrast_table(CoordinateFunctional(4, 2))
    assert "E_{3,3}" in table[0]["finite_value"]


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (4, 3)])
def test_counterexample_report_all_coordinates(n, k):
    report = counterexample_report(n=n, k=k, seed=1, t_samples=2)
    assert report.status == "pass"
    assert report.max_deviation == 0
