from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rieszops import (
    CoordinateFunctional,
    LatticeVector,
    Partition,
    RegularOperator,
    Superoperator,
    build_B,
    counterexample_report,
    disjoint_partitions,
    enumerate_components,
    identity_meet_B,
    inf_G_double_prime,
    meet_superoperator,
    meet_via_components,
    single_support_check,
)
from rieszops import counterexample, lattice
from rieszops.counterexample import (
    _e_partitions,
    _positive_splits,
    contrast_table,
    g_double_prime_term,
)
from rieszops.lattice import EnumerationLimitError
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


def admissible_components(f):
    """Components x of e = ones with f(x) = 1 (subsets containing k)."""
    e = LatticeVector.ones(f.dim)
    for component in enumerate_components(e):
        if component.piece.entries[f.index] == 1:
            yield component.piece


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
    Lambda = meet_superoperator(f)
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


def test_meet_via_components_rejects_float_operator():
    f = CoordinateFunctional(3, 1)
    with pytest.raises(ScalarModeError):
        meet_via_components(build_B(f).to_float(), f)


def _reference_meet_via_components(T, f):
    """The component infimum as a Fraction loop: T applied to every
    admissible component, met entrywise; the reference for the kernel."""
    best = None
    for x in admissible_components(f):
        value = T.apply(x)
        best = value if best is None else best.meet(value)
    return best


def _lab_operators(rng, n):
    """Positive test operators: random, with zero rows, scaled, zero."""
    T = _random_positive(rng, n)
    rows = [list(T.entries[i * n : (i + 1) * n]) for i in range(n)]
    for i in range(0, n, 3):
        rows[i] = [0] * n
    big = Fraction(10**12, 7)
    return [
        T,
        RegularOperator.from_rows(rows),
        _random_positive(rng, n, big),
        _random_positive(rng, n, big**2),
        RegularOperator.zero(n, n),
    ]


@pytest.mark.parametrize("n", range(2, 11))
def test_component_kernel_matches_reference_loop(n):
    rng = Random(100 + n)
    for k in range(n):
        f = CoordinateFunctional(n, k)
        for T in [build_B(f)] + _lab_operators(rng, n):
            got = meet_via_components(T, f)
            assert got.entries == _reference_meet_via_components(T, f).entries
            assert all(type(v) is Fraction for v in got.entries)


def test_component_kernel_chunks_agree(monkeypatch):
    # One component per chunk: the running minimum over chunks is the same.
    monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", 1)
    rng = Random(8)
    for k in (0, 3, 6):
        f = CoordinateFunctional(7, k)
        for T in _lab_operators(rng, 7):
            got = meet_via_components(T, f)
            assert got.entries == _reference_meet_via_components(T, f).entries


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
    monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", 1)
    chunked = inf_G_double_prime(T, f, partition_budget=52, operator_split_samples=6)
    assert chunked.entries == whole.entries


def test_double_partition_infimum_rejects_float_operator():
    f = CoordinateFunctional(2, 0)
    with pytest.raises(ScalarModeError):
        inf_G_double_prime(build_B(f).to_float(), f)


@pytest.mark.parametrize("budget", [0, -3])
def test_nonpositive_partition_budget_is_rejected(budget):
    f = CoordinateFunctional(3, 0)
    with pytest.raises(ValueError, match="partition_budget"):
        inf_G_double_prime(build_B(f), f, partition_budget=budget)
    with pytest.raises(ValueError, match="partition_budget"):
        counterexample_report(n=3, k=1, partition_budget=budget)


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


@pytest.mark.parametrize("g_samples", [-1, -3])
def test_negative_g_samples_are_rejected(g_samples):
    with pytest.raises(ValueError, match="g_samples must be nonnegative"):
        counterexample_report(n=3, k=1, t_samples=5, g_samples=g_samples)


def test_zero_g_samples_check_B_only():
    report = counterexample_report(n=3, k=1, t_samples=5, g_samples=0)
    assert report.status == "pass"
    assert report.details["g_checks"] == 1


def test_contrast_table_uses_one_based_coordinates():
    table = contrast_table(CoordinateFunctional(4, 2))
    assert "E_{3,3}" in table[0]["finite_value"]


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (4, 3)])
def test_counterexample_report_all_coordinates(n, k):
    report = counterexample_report(n=n, k=k, seed=1, t_samples=2)
    assert report.status == "pass"
    assert report.max_deviation == 0


def test_counterexample_report_enumerates_each_list_once(monkeypatch):
    calls = {"partitions": 0, "splits": []}

    def counted_partitions(f, budget):
        calls["partitions"] += 1
        return _e_partitions(f, budget)

    def counted_splits(T, samples, seed):
        calls["splits"].append(T)
        return _positive_splits(T, samples, seed)

    monkeypatch.setattr(counterexample, "_e_partitions", counted_partitions)
    monkeypatch.setattr(counterexample, "_positive_splits", counted_splits)
    report = counterexample_report(n=4, k=2, seed=3, t_samples=4)
    assert report.status == "pass"
    # One e-partition list for the report; one split list per g-check
    # operator, B first.
    assert calls["partitions"] == 1
    assert len(calls["splits"]) == report.details["g_checks"] == 3
    assert calls["splits"][0] == build_B(CoordinateFunctional(4, 1))


def test_counterexample_report_computes_each_lab_quantity_once(monkeypatch):
    applied, component_calls = [], []
    superop_apply = Superoperator.apply

    def counted_apply(self, T):
        applied.append(T)
        return superop_apply(self, T)

    def counted_components(T, f):
        component_calls.append(T)
        return meet_via_components(T, f)

    monkeypatch.setattr(Superoperator, "apply", counted_apply)
    monkeypatch.setattr(counterexample, "meet_via_components", counted_components)
    report = counterexample_report(n=4, k=3, seed=5, t_samples=3)
    assert report.status == "pass"
    # B, I and three random operators: one meet image and one component
    # infimum each, reused by the g-checks and the report details.
    assert len(applied) == len(component_calls) == 5
    assert applied == component_calls
    assert len(set(map(id, applied))) == 5


def test_lab_work_cap_is_checked_before_any_work(monkeypatch):
    def no_build(A, B):
        raise AssertionError("the work cap must be checked before any build")

    monkeypatch.setattr(Superoperator, "build", no_build)
    with pytest.raises(EnumerationLimitError, match="cap"):
        counterexample_report(n=20, k=1)
    with pytest.raises(EnumerationLimitError, match="cap"):
        counterexample_report(n=12, k=1, partition_budget=10**8)
    monkeypatch.setattr(counterexample, "LAB_WORK_CAP", 1000)
    with pytest.raises(EnumerationLimitError, match="cap"):
        counterexample_report(n=3, k=1)

