"""Shared strategies, hypothesis configuration, and the test-side
builders of values the package does not build for its own use: a zero
container, the pieces of a partition as containers, and the partitions of
a stack as tuples of vectors."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from rieszops import LatticeVector, RegularOperator

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("default")


#: Small rationals: the grid every exact-identity test draws from.
fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=8)
positive_fractions_st = st.fractions(min_value=0, max_value=5, max_denominator=8)
dims_st = st.integers(min_value=1, max_value=3)


@st.composite
def vectors(draw, dim=None, positive=False):
    n = draw(dims_st) if dim is None else dim
    src = positive_fractions_st if positive else fractions_st
    return LatticeVector([draw(src) for _ in range(n)])


@st.composite
def matrices(draw, rows=None, cols=None, positive=False):
    r = draw(dims_st) if rows is None else rows
    c = draw(dims_st) if cols is None else cols
    src = positive_fractions_st if positive else fractions_st
    return RegularOperator(r, c, [draw(src) for _ in range(r * c)])


@st.composite
def matrix_pairs_same_shape(draw):
    r, c = draw(dims_st), draw(dims_st)
    return draw(matrices(rows=r, cols=c)), draw(matrices(rows=r, cols=c))


@st.composite
def superop_quadruple_dims(draw):
    """(w, x, y, z) with A: z x y, B: x x w, T: y x x."""
    return tuple(draw(dims_st) for _ in range(4))


def zeros(mode, *shape):
    """The zero vector (one dimension given) or matrix (two) of a scalar
    mode."""
    zero = Fraction(0) if mode == "exact" else 0.0
    if len(shape) == 1:
        return LatticeVector([zero] * shape[0])
    rows, cols = shape
    return RegularOperator(rows, cols, [zero] * (rows * cols))


def pieces_of(partition) -> tuple:
    """The pieces of a partition as containers of its target's class."""
    return tuple(partition.target._of(row, partition._den) for row in partition._values)


def stack_pieces(stack) -> list:
    """The partitions of a stack (values, bounds, D) of vector pieces, each
    as the tuple of its pieces."""
    values, bounds, D = stack
    return [
        tuple(LatticeVector._of(row, D) for row in values[start:stop])
        for start, stop in zip(bounds, bounds[1:])
    ]


@pytest.fixture
def rng_seed():
    return 12345


#: Lines registered by the acceptance suite, echoed after the run so the
#: per-criterion verdicts stay visible even under output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
