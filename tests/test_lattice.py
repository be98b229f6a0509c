from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rieszops import (
    CoordinateFunctional,
    DimensionMismatchError,
    LatticeVector,
    Partition,
    RegularOperator,
    atomic_partition,
    dyadic_partition,
    halves_partition,
    refinement_chain,
    trivial_partition,
)
from rieszops.counterexample import _e_partitions
from rieszops.lattice import _disjoint, _on_words, _partition_stack, random_convex_partition
from rieszops.scalars import ScalarModeError

from cases import enumerate_components
from conftest import fractions_st, pieces_of, vectors, zeros


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def test_construction_coerces_to_exact():
    v = LatticeVector([1, "1/2", Fraction(3, 4)])
    assert v.is_exact
    assert v.entries == (Fraction(1), Fraction(1, 2), Fraction(3, 4))


def test_float_contagion():
    v = LatticeVector([1, 0.5])
    assert not v.is_exact
    assert v.mode == "float"


def test_json_roundtrip():
    v = LatticeVector([Fraction(-3, 7), Fraction(2)])
    assert LatticeVector.from_json(v.to_json()).eq(v)
    w = LatticeVector([0.25, -1.5])
    assert LatticeVector.from_json(w.to_json()).eq(w)


def test_mode_mixing_raises():
    with pytest.raises(ScalarModeError):
        LatticeVector([Fraction(1)]) + LatticeVector([0.5])


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        LatticeVector([1, 2]) + LatticeVector([1, 2, 3])


@given(vectors(), vectors())
def test_lattice_identities(x, y):
    if x.dim != y.dim:
        x = LatticeVector(list(x.entries) + [Fraction(0)] * max(0, y.dim - x.dim))
        y = LatticeVector(list(y.entries) + [Fraction(0)] * max(0, x.dim - y.dim))
    # x + y = x v y + x ^ y
    assert (x + y).eq(x.join(y) + x.meet(y))
    # |x| = x v (-x) and |x| = x+ + x-
    assert abs(x).eq(x.join(-x))
    assert abs(x).eq(x.pos_part() + x.neg_part())
    # x = x+ - x-, disjointness of parts
    assert x.eq(x.pos_part() - x.neg_part())
    assert not x.pos_part().meet(x.neg_part()).support()


@given(vectors())
def test_order_is_reflexive_and_absolute_bound(x):
    assert x.le(x)
    assert x.le(abs(x))
    assert (-x).le(abs(x))


@given(vectors(positive=True), st.fractions(min_value=0, max_value=4, max_denominator=6))
def test_positive_scaling_preserves_order(x, c):
    assert x.scale(c).is_positive()
    assert x.scale(c).eq(x * c)


def test_support_and_restrict():
    v = LatticeVector([0, 3, 0, -2])
    assert v.support() == (1, 3)
    assert LatticeVector([0, 1e-10, 0, -2.0]).support() == (3,)


# ---------------------------------------------------------------------------
# the entrywise core shared by vectors and operators
# ---------------------------------------------------------------------------

#: kind -> (make from 4 entries, make with another shape, meet name, join name)
CONTAINERS = {
    "vector": (LatticeVector, lambda e: LatticeVector(e[:3]), "meet", "join"),
    "operator": (
        lambda e: RegularOperator(2, 2, e),
        lambda e: RegularOperator(4, 1, e),
        "meet_closed_form",
        "join_closed_form",
    ),
}


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_entrywise_core_contract(kind):
    make, make_other_shape, meet, join = CONTAINERS[kind]
    exact, exact2 = make([1, "-1/2", 0, "7/3"]), make(["2", -3, "1/5", 0])
    flt, flt2 = make([1.0, -0.5, 0.0, 2.5]), make([0.25, 3.0, -1.0, 0.0])
    binary = (
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: getattr(x, meet)(y),
        lambda x, y: getattr(x, join)(y),
        lambda x, y: x.le(y),
        lambda x, y: x.eq(y),
    )
    for op in binary:
        with pytest.raises(ScalarModeError):
            op(exact, flt)
        with pytest.raises(DimensionMismatchError):
            op(exact, make_other_shape([1, 2, 3, 4]))
    with pytest.raises(ScalarModeError):
        exact.scale(0.5)
    for x, y, scalar_type in ((exact, exact2, Fraction), (flt, flt2, float)):
        results = [
            x + y,
            x - y,
            -x,
            abs(x),
            x.pos_part(),
            x.neg_part(),
            getattr(x, meet)(y),
            getattr(x, join)(y),
            x.scale(3),
            Fraction(1, 3) * x,
            x * np.int64(2),
        ]
        for result in results:
            assert type(result) is type(x) and result.shape == x.shape
            assert {type(e) for e in result.entries} == {scalar_type}
        assert (x + y).entries == tuple(a + b for a, b in zip(x.entries, y.entries))
        assert {type(e) for e in x.to_float().entries} == {float}


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


def test_components_of_ones_are_all_subsets():
    e = LatticeVector.ones(3)
    comps = list(enumerate_components(e))
    assert len(comps) == 8
    for c in comps:
        residual = c.base - c.piece
        assert c.piece.is_positive() and residual.is_positive()
        # x ^ (e - x) = 0 by definition of a component
        assert not c.piece.meet(e - c.piece).support()
    assert not comps[0].piece.support()
    assert comps[-1].piece.eq(e)


def test_components_respect_support():
    v = LatticeVector([2, 0, 5])
    comps = list(enumerate_components(v))
    assert len(comps) == 4  # subsets of the 2-point support
    for c in comps:
        assert not c.piece.meet(v - c.piece).support()


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@given(vectors(positive=True))
def test_builtin_partitions_sum_to_target(w):
    for p in (
        trivial_partition(w),
        atomic_partition(w),
        halves_partition(w),
        dyadic_partition(w),
    ):
        total = zeros(w.mode, w.dim)
        for piece in pieces_of(p):
            assert piece.is_positive()
            total = total + piece
        assert total.eq(w)


def test_partition_rejects_bad_pieces():
    w = LatticeVector([1, 1])
    with pytest.raises(ValueError):
        Partition(w, [LatticeVector([2, 2])])  # does not sum to target
    with pytest.raises(ValueError):
        Partition(w, [LatticeVector([2, 2]), LatticeVector([-1, -1])])  # negative


@pytest.mark.parametrize(
    "build",
    [
        trivial_partition,
        atomic_partition,
        dyadic_partition,
        lambda w: random_convex_partition(w, 3, Random(0)),
        lambda w: random_convex_partition(w, 3, Random(0), signed=True),
    ],
)
def test_builders_refuse_a_target_that_is_not_positive(build):
    # [1.0, -1.5e-9] is below DEFAULT_TOLERANCE, but its halves are not.
    targets = (
        LatticeVector([1, -1]),
        LatticeVector([1.0, -1.5e-9]),
        RegularOperator.from_rows([[1], [-1]]),
    )
    for w in targets:
        with pytest.raises(ValueError, match="positive"):
            build(w)


def test_atomic_partition_is_disjoint():
    w = LatticeVector([3, 0, 7])
    p = atomic_partition(w)
    assert _disjoint(_partition_stack([p])).tolist() == [True]
    assert len(p) == 2  # zero coordinates contribute no piece


def test_disjoint_partitions_count_is_bell_number():
    stack = _e_partitions(CoordinateFunctional(3, 0), 10)
    assert len(stack[1]) - 1 == 5  # Bell(3)
    assert _disjoint(stack).tolist() == [True] * 5


def test_random_convex_partition_is_exact():
    w = LatticeVector([Fraction(3), Fraction(1, 2)])
    p = random_convex_partition(w, parts=3, rng=Random(0))
    total = zeros("exact", 2)
    for piece in pieces_of(p):
        assert piece.is_exact
        total = total + piece
    assert total.eq(w)


def test_vector_partitions_schemes():
    w = LatticeVector([2, 3])
    for make in (trivial_partition, atomic_partition, halves_partition):
        assert make(w).target == w
    rng = Random(1)
    rand = [random_convex_partition(w, 3, rng) for _ in range(4)]
    assert len(rand) == 4


@given(vectors(positive=True))
def test_refinement_chain_targets(w):
    for p in refinement_chain(w):
        assert p.target.eq(w)


# ---------------------------------------------------------------------------
# the word bound
# ---------------------------------------------------------------------------


def _objects(*values):
    return np.array(values, dtype=object)


@pytest.mark.parametrize("a, b, terms, words", [
    # terms * max|a| * max|b| at 2^63 - 1 (= 7 * 7 * 188232082384791343) and 2^63.
    ((7, -3), (188232082384791343, 0), 7, True),
    ((-7, 3), (188232082384791343, 0), 7, True),
    ((8, 3), (2**59, 0), 2, False),
    ((2**31, 5), (2**31,), 1, True),
    ((2**31, 5), (2**31,), 2, False),
    # A zero factor keeps every product zero, but counts as 1: it cannot
    # vouch for the other, which must fit times terms.
    ((0, 0), (2**63 - 1,), 5, False),
    ((0, 0), (2**63,), 5, False),
    ((-(2**63),), (0,), 1, False),
    ((0, 0), (2**63 - 1,), 1, True),
    ((0,), (0,), 2**63 - 1, True),
    ((0,), (0,), 2**63, False),
])
def test_on_words_takes_int64_only_below_2_to_the_63(a, b, terms, words):
    a, b = _objects(*a), _objects(*b)
    out_a, out_b = _on_words((a, b), (terms, a, b))
    dtype = np.dtype(np.int64) if words else np.dtype(object)
    assert out_a.dtype == out_b.dtype == dtype
    assert out_a.tolist() == a.tolist() and out_b.tolist() == b.tolist()
