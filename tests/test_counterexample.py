import re
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszops import (
    CoordinateFunctional,
    LatticeVector,
    Partition,
    RegularOperator,
    atomic_partition,
    build_B,
    counterexample_report,
    identity_meet_B,
    meet_via_components,
    random_convex_partition,
    single_support_check,
    trivial_partition,
    unvec,
    vec,
)
from rieszops import counterexample, lattice
from rieszops.counterexample import (
    _e_partitions,
    _positive_splits,
    contrast_table,
)
from rieszops.lattice import EnumerationLimitError, _disjoint, _on_words, _partition_stack
from rieszops.scalars import ScalarModeError

import partition_reference as ref
from cases import enumerate_components
from conftest import positive_fractions_st, stack_pieces, zeros
from partition_reference import g_double_prime_term


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
    expected = RegularOperator.diagonal(LatticeVector.unit(f.dim, f.index))
    assert IB.eq(expected)
    # Nonzero: the finite world diverges from l_infinity here.
    assert not IB.eq(zeros("exact", f.dim, f.dim))


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
        assert not x.meet(e - x).support()


@given(functionals())
def test_single_support_dichotomy(f):
    e = LatticeVector.ones(f.dim)
    # Every disjoint partition of e: each a stack of one, all of them one
    # stack, and the lab's own stack.
    family = [Partition(e, pieces) for pieces in ref.disjoint_partitions(e)]
    stacks = [_partition_stack([p]) for p in family]
    stacks += [_partition_stack(family), _e_partitions(f, len(family))]
    for stack in stacks:
        j0s = single_support_check(f, stack)
        assert len(j0s) == len(stack[1]) - 1
        for j0, pieces in zip(j0s, stack_pieces(stack)):
            assert f(pieces[j0]) == 1
            for j, piece in enumerate(pieces):
                if j != j0:
                    assert f(piece) == 0


def test_single_support_check_rejects_non_disjoint():
    f = CoordinateFunctional(2, 0)
    e = LatticeVector.ones(2)
    halves = Partition(e, (e.scale(Fraction(1, 2)), e.scale(Fraction(1, 2))))
    with pytest.raises(ValueError):
        single_support_check(f, _partition_stack([halves]))


@pytest.mark.parametrize("values, hits", [([[2, 0], [0, 1]], [0]), ([[0, 0], [0, 1]], [])])
def test_single_support_check_names_the_hits_of_a_broken_partition(values, hits, monkeypatch):
    # Disjoint pieces whose coordinate 0 is not one piece at 1: pieces >= 0
    # that sum to e and are disjoint cannot be such, so only a stack past the
    # partition checks can be one.
    f = CoordinateFunctional(2, 0)
    broken = (np.array(values, dtype=object), [0, 2], 1)
    assert _disjoint(broken).all()
    monkeypatch.setattr(counterexample, "_check_partitions_of_e", lambda f, stack: None)
    with pytest.raises(RuntimeError, match=re.escape(f"at positions {hits}")):
        single_support_check(f, broken)


def test_single_support_check_rejects_wrong_target():
    f = CoordinateFunctional(2, 0)
    v = LatticeVector([2, 1])
    with pytest.raises(ValueError):
        single_support_check(f, _partition_stack([Partition(v, (v,))]))


@pytest.mark.parametrize("n", range(1, 8))
def test_e_partitions_are_the_set_partitions_cut_at_the_budget(n):
    e = LatticeVector.ones(n)
    every = ref.disjoint_partitions(e)
    atomic = ref.atomic_partition(e)
    for budget in sorted({1, 2, 6, 10, 40, len(every), len(every) + 3}):
        values, bounds, D = stack = _e_partitions(CoordinateFunctional(n, n - 1), budget)
        want = every[:budget] + ([atomic] if budget < len(every) else [])
        assert stack_pieces(stack) == want, (n, budget)
        assert D == 1 and values.dtype == object
        assert {type(v) for v in values.flat} == {int}


# A valid first partition (the atomic one, over D = 2), then one that breaks
# the named check and passes the checks run before it; two pieces at f != 0
# also overlap, so that case stubs the disjointness check out.
BROKEN_STACKS = {
    "negative piece": ([[2, 0], [0, 2], [2, -2], [0, 4]], ValueError, "must be positive"),
    "wrong sum": ([[2, 0], [0, 2], [2, 0], [0, 4]], ValueError, "order unit e = ones"),
    "overlapping blocks": ([[2, 0], [0, 2], [2, 1], [0, 1]], ValueError, "disjoint"),
    "two pieces with f != 0": (
        [[2, 0], [0, 2], [1, 2], [1, 0]],
        RuntimeError,
        "violated on disjoint partition 1 of e: pieces with f != 0 at positions [0, 1]",
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN_STACKS))
def test_single_support_check_refuses_each_broken_stack(name, monkeypatch):
    values, error, message = BROKEN_STACKS[name]
    stack = (np.array(values, dtype=object), [0, 2, 4], 2)
    f = CoordinateFunctional(2, 0)
    if error is RuntimeError:
        # Pieces >= 0 summing to e with two pieces at f != 0 overlap at
        # coordinate 0: past the disjointness check, the dichotomy names them.
        with pytest.raises(ValueError, match="disjoint"):
            single_support_check(f, stack)
        monkeypatch.setattr(counterexample, "_disjoint", lambda stack: np.ones(2, bool))
    with pytest.raises(error, match=re.escape(message)):
        single_support_check(f, stack)


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
    expected = LatticeVector(T.transpose().to_lists()[f.index])
    assert meet_via_components(T, f).eq(expected)
    # Lambda = M_{I,I} ^ M_{I,B} as the lab's report writes its rep.
    report = counterexample_report(n=f.dim, k=f.index + 1, t_samples=0)
    (witness,) = [w for w in report.witnesses if w["role"] == "meet_rep"]
    Lambda = RegularOperator.from_json(witness)
    image = unvec(Lambda.apply(vec(T)), f.dim, f.dim)
    assert image.apply(LatticeVector.ones(f.dim)).eq(expected)
    # Lambda(T) = T E_kk for every T, not just positive ones
    E = RegularOperator.diagonal(LatticeVector.unit(f.dim, f.index))
    assert image.eq(T @ E)


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
        zeros("exact", n, n),
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


def _inf_G(T, f, partition_budget=40, operator_split_samples=24, seed=0):
    """The double-partition infimum by the kernel ``counterexample_report`` runs."""
    return counterexample._double_partition_inf(
        f,
        _e_partitions(f, partition_budget),
        _positive_splits(T, operator_split_samples, seed),
    )


@given(functionals(max_dim=3))
@settings(max_examples=10)
def test_double_partition_infimum_collapses(f):
    data = Random(5)
    T = RegularOperator(
        f.dim,
        f.dim,
        [Fraction(data.randint(0, 16), data.randint(1, 4)) for _ in range(f.dim**2)],
    )
    g = _inf_G(T, f, partition_budget=20, operator_split_samples=8, seed=3)
    assert g.eq(meet_via_components(T, f))


def test_double_partition_infimum_on_B_is_e():
    f = CoordinateFunctional(3, 1)
    B = build_B(f)
    e = LatticeVector.ones(3)
    assert _inf_G(B, f).eq(e)
    assert meet_via_components(B, f).eq(e)


def _reference_inf_G(T, f, partition_budget, operator_split_samples, seed):
    """The double-partition infimum as a Fraction loop over
    ``g_double_prime_term``, the reference for the integer kernel."""
    n = f.dim
    partitions = _e_partitions(f, partition_budget)
    best = None
    splits = _positive_splits(T, operator_split_samples, seed)
    for split in stack_pieces(splits, RegularOperator):
        pieces_cols = [
            [LatticeVector(col) for col in piece.transpose().to_lists()]
            for piece in split
        ]
        pieces_Te = []
        for cols in pieces_cols:
            Te = zeros("exact", n)
            for col in cols:
                Te = Te + col
            pieces_Te.append(Te)
        for blocks in stack_pieces(partitions):
            value = g_double_prime_term(pieces_cols, pieces_Te, blocks, f)
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
                    got = _inf_G(T, f, budget, samples, seed=k)
                    want = _reference_inf_G(T, f, budget, samples, k)
                    assert got.entries == want.entries, (k, T, budget, samples)
                    assert all(type(v) is Fraction for v in got.entries)


@pytest.mark.parametrize("scale", [Fraction(10**12, 7), Fraction(10**12, 7) ** 2])
def test_integer_kernel_on_large_integers(scale):
    f = CoordinateFunctional(4, 2)
    T = _random_positive(Random(11), 4, scale)
    got = _inf_G(T, f, partition_budget=15, operator_split_samples=12)
    assert got.entries == _reference_inf_G(T, f, 15, 12, 0).entries
    assert got.eq(meet_via_components(T, f))


def test_integer_kernel_chunks_agree(monkeypatch):
    f = CoordinateFunctional(5, 1)
    T = _random_positive(Random(3), 5)
    whole = _inf_G(T, f, partition_budget=52, operator_split_samples=6)
    # One partition per chunk: the running minimum over chunks is the same.
    monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", 1)
    chunked = _inf_G(T, f, partition_budget=52, operator_split_samples=6)
    assert chunked.entries == whole.entries


@pytest.mark.parametrize("n, on_words", [(7, True), (8, False)])
def test_integer_kernel_at_the_word_bound(n, on_words, monkeypatch):
    # The singleton split alone is one piece, so the kernel's bound is
    # terms * max|P| * max|X| with terms = n * 1 * n and max|X| = 1: at
    # n = 7 it is 2^63 - 1 (49 divides it), the largest that runs on words;
    # at n = 8 it is 2^63, which runs on Python ints.
    top = ((1 << 63) - on_words) // (n * n)
    assert n * n * top == (1 << 63) - on_words
    rng = Random(n)
    T = RegularOperator(n, n, [top] + [rng.randint(0, top) for _ in range(n * n - 1)])
    made = []

    def recorded(arrays, *products):
        words = _on_words(arrays, *products)
        made.append((*(terms for terms, *_ in products), *(v.dtype != object for v in words)))
        return words

    monkeypatch.setattr(counterexample, "_on_words", recorded)
    f = CoordinateFunctional(n, 2)
    got = _inf_G(T, f, partition_budget=10, operator_split_samples=1)
    assert got.entries == _reference_inf_G(T, f, 10, 1, 0).entries
    assert all(type(v) is Fraction for v in got.entries)
    assert made == [(n * n, on_words, on_words)]


@pytest.mark.parametrize("budget", [0, -3])
def test_nonpositive_partition_budget_is_rejected(budget):
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
    # One e-partition stack for the report; one split stack per g-check
    # operator, B first.
    assert calls["partitions"] == 1
    assert len(calls["splits"]) == report.details["g_checks"] == 3
    assert calls["splits"][0] == build_B(CoordinateFunctional(4, 1))


def test_counterexample_report_computes_each_lab_quantity_once(monkeypatch):
    krons, component_calls = [], []
    kron = counterexample._kron

    def counted_kron(P, Q, *args, **kwargs):
        krons.append((P, Q))
        return kron(P, Q, *args, **kwargs)

    def counted_components(T, f):
        component_calls.append(T)
        return meet_via_components(T, f)

    monkeypatch.setattr(counterexample, "_kron", counted_kron)
    monkeypatch.setattr(counterexample, "meet_via_components", counted_components)
    report = counterexample_report(n=4, k=3, seed=5, t_samples=3)
    assert report.status == "pass"
    # The three reps M_{I,I}, M_{I,B} and M_{I,I^B} in one stacked product.
    f = CoordinateFunctional(4, 2)
    eye = RegularOperator.identity(4)
    assert krons == [
        ([eye, build_B(f).transpose(), identity_meet_B(f).transpose()], [eye])
    ]
    # B, I and three random operators: one component infimum each, reused by
    # the g-checks and the report details.
    assert len(component_calls) == 5
    assert component_calls[:2] == [build_B(f), eye]
    assert len(set(map(id, component_calls))) == 5


def test_lab_work_cap_is_checked_before_any_work(monkeypatch):
    def no_kron(P, Q, *args, **kwargs):
        raise AssertionError("the work cap must be checked before any product")

    monkeypatch.setattr(counterexample, "_kron", no_kron)
    with pytest.raises(EnumerationLimitError, match="cap"):
        counterexample_report(n=20, k=1)
    with pytest.raises(EnumerationLimitError, match="cap"):
        counterexample_report(n=12, k=1, partition_budget=10**8)
    monkeypatch.setattr(counterexample, "LAB_WORK_CAP", 1000)
    with pytest.raises(EnumerationLimitError, match="cap"):
        counterexample_report(n=3, k=1)



def test_lab_runs_at_its_work_cap_and_is_refused_one_below(monkeypatch):
    # n = 3, one random operator (so B and it get the g-check), 2 split
    # samples, budget 3: the cap at exactly its work bound admits the lab.
    lab = dict(n=3, k=2, t_samples=1, operator_split_samples=2, partition_budget=3)
    work = counterexample._lab_work(3, 3, 2, 2, 3)
    monkeypatch.setattr(counterexample, "LAB_WORK_CAP", work)
    report = counterexample_report(**lab)
    assert report.status == "pass" and report.details["g_checks"] == 2
    monkeypatch.setattr(counterexample, "LAB_WORK_CAP", work - 1)
    with pytest.raises(EnumerationLimitError, match=f"up to {work} integer operations"):
        counterexample_report(**lab)


@pytest.mark.parametrize("samples", range(13))
def test_positive_splits_are_the_public_builders_stack(samples):
    # The stack _positive_splits checks once is the public builders' list,
    # drawn in the same order, stacked: values, bounds and denominator.
    rng = Random(samples)
    T = _random_positive(rng, 3)
    seed = rng.randint(0, 100)
    partitions = [trivial_partition(T)]
    if samples > 1:
        partitions.append(atomic_partition(T))
    draws = Random(seed)
    while len(partitions) < samples:
        partitions.append(random_convex_partition(T, draws.randint(2, 4), draws))
    got, want = _positive_splits(T, samples, seed), _partition_stack(partitions)
    assert got[1:] == want[1:]
    assert got[0].shape == want[0].shape and (got[0] == want[0]).all()
