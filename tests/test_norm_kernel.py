"""The norm kernel of ``norms`` against the per-entry reference routines of
``norm_reference``.

``vector_norm``, ``dual_norm``, ``_norming``, ``norming_functional``
and ``operator_norm`` must give what the per-entry routines give, in both
scalar modes: exact values equal and still ``Fraction``, float values and
witnesses equal bit for bit by ``float.hex``, the same ``method`` and
``certified``.  The stacked search against the reference is in ``test_norms.py``.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import norm_reference as ref
import rieszops.norms
from rieszops import (
    LatticeNorm,
    LatticeVector,
    RegularOperator,
    dual_norm,
    norming_functional,
    operator_norm,
    vector_norm,
)

P_VALUES = (1.0, 2.0, 3.5, math.inf)

#: A few search starts and iterations, so that the reference search stays
#: quick on 9 x 9 matrices; ours reads them from its module constants.
SEARCH = {"starts": 3, "iters": 8}

exact_entries = st.fractions(min_value=-5, max_value=5, max_denominator=7)
float_entries = st.floats(min_value=-4, max_value=4, allow_nan=False)


def _same_scalar(ours, theirs):
    if isinstance(theirs, Fraction):
        assert type(ours) is Fraction and ours == theirs
    else:
        assert type(ours) is float and float.hex(ours) == float.hex(theirs)


def _same_vector(ours: LatticeVector, theirs: LatticeVector):
    assert ours.mode == theirs.mode
    if theirs.is_exact:
        assert ours == theirs
    else:
        assert [float.hex(a) for a in ours.as_floats()] == [
            float.hex(a) for a in theirs.as_floats()
        ]


def _norming_vector(f: LatticeVector, n: LatticeNorm) -> LatticeVector:
    """A unit x with f . x = dual_norm(f, n), by the kernel on one vector."""
    return LatticeVector(rieszops.norms._norming(f._values, f._den, n.conjugate_exponent()).tolist())


@st.composite
def entries(draw, count, exact, positive=False):
    values = [draw(exact_entries if exact else float_entries) for _ in range(count)]
    return [abs(v) for v in values] if positive else values


def norms():
    """A LatticeNorm with p from P_VALUES."""
    return st.sampled_from(P_VALUES).map(lambda p: LatticeNorm(p=p))


@st.composite
def vector_cases(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    exact = draw(st.booleans())
    x = LatticeVector(draw(entries(dim, exact)))
    return x, draw(norms())


@st.composite
def matrix_cases(draw, shapes=st.integers(min_value=1, max_value=4)):
    rows, cols = draw(shapes), draw(shapes)
    exact = draw(st.booleans())
    positive = draw(st.booleans())
    A = RegularOperator(rows, cols, draw(entries(rows * cols, exact, positive)))
    return A, draw(norms()), draw(norms())


def _assert_operator_norm_matches(A, n_from, n_to):
    with mock.patch.multiple(rieszops.norms, SEARCH_STARTS=SEARCH["starts"],
                             SEARCH_ITERS=SEARCH["iters"]):
        ours = operator_norm(A, n_from, n_to, seed=3)
    value, witness, certified, method = ref.operator_norm(A, n_from, n_to, seed=3, **SEARCH)
    assert (ours.method, ours.certified) == (method, certified)
    _same_scalar(ours.value, value)
    _same_vector(ours.witness, witness)


@given(vector_cases())
def test_vector_and_dual_norms_match_the_reference(case):
    x, n = case
    _same_scalar(vector_norm(x, n), ref.vector_norm(x, n))
    _same_scalar(dual_norm(x, n), ref.dual_norm(x, n))


@given(vector_cases())
def test_norming_vectors_and_functionals_match_the_reference(case):
    x, n = case
    _same_vector(_norming_vector(x, n), ref.norming_vector(x, n))
    _same_vector(norming_functional(x, n), ref.norming_functional(x, n))


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("exact", [True, False])
def test_norming_of_a_zero_vector_matches_the_reference(p, exact):
    zero = LatticeVector([Fraction(0)] * 3 if exact else [-0.0, 0.0, -0.0])
    n = LatticeNorm(p=p)
    _same_vector(_norming_vector(zero, n), ref.norming_vector(zero, n))
    _same_vector(norming_functional(zero, n), ref.norming_functional(zero, n))


@given(matrix_cases())
def test_operator_norm_matches_the_reference(case):
    _assert_operator_norm_matches(*case)


@given(matrix_cases(shapes=st.just(9)))
@settings(max_examples=15)
def test_operator_norm_matches_the_reference_on_9x9(case):
    _assert_operator_norm_matches(*case)


@pytest.mark.parametrize("p_from", P_VALUES)
@pytest.mark.parametrize("p_to", P_VALUES)
def test_every_exponent_pair_matches_the_reference_in_both_modes(p_from, p_to):
    rows = [[Fraction(3, 2), Fraction(-1, 3), 2], [0, Fraction(5, 7), Fraction(-4, 5)]]
    for A in (RegularOperator.from_rows(rows), abs(RegularOperator.from_rows(rows))):
        for B in (A, A.to_float()):
            _assert_operator_norm_matches(B, LatticeNorm(p=p_from), LatticeNorm(p=p_to))


@pytest.mark.parametrize("p_from, p_to", [(math.inf, 3.5), (3.5, 2.0), (1.5, 4.0), (3.0, 1.0)])
@pytest.mark.parametrize("rows", [
    # -1/10^400 is -0.0 as a float: the signs are read on the exact values,
    # so this matrix is not positive (no corner, no absolute starts).
    [[Fraction(-1, 10**400), 2], [1, 3]],
    # Some starts reach inf, others nan: a nan never wins.
    [[math.inf, 0.0], [0.0, 1.0]],
    # Every start gives nan: 0.0 at all-ones.
    [[math.nan, 1.0], [2.0, 3.0]],
])
def test_signs_and_non_finite_values_match_the_reference(rows, p_from, p_to):
    with np.errstate(all="ignore"):
        _assert_operator_norm_matches(
            RegularOperator.from_rows(rows), LatticeNorm(p=p_from), LatticeNorm(p=p_to)
        )
