"""The float sums of ``lattice`` against the per-term loops of
``sum_reference``: ``_left_sum``, ``_matmul`` and the float branch of
``_partition_sums`` must give the same bits (``float.hex`` and the sign
bit, so -0.0 counts) on results just below, at and above
``_ACCUMULATE_ENTRIES``, where ``_left_sum`` switches from one
``np.add.accumulate`` to one add per term, and must overflow exactly
when the loops do under ``np.errstate(over="raise")``.  The partition
sums are also checked on families that mix 1-, 3- and n^2-piece
partitions, at chunk bounds small enough to split a chunk into several
padded batches, none of which may pass the bound.

The sign of a nan is left out: IEEE 754 leaves it open, and numpy's array
add and Python's float add already return different operands of nan + nan
(the per-term loop these kernels replaced kept numpy's)."""

import math
import sys
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import partition_reference
import sum_reference as ref
from conftest import pieces_of
from rieszops import (
    LatticeVector,
    RegularOperator,
    atomic_partition,
    default_partitions,
    lattice,
    meet_oracle,
    random_convex_partition,
    trivial_partition,
)
from rieszops.lattice import (
    _ACCUMULATE_ENTRIES,
    _KERNEL_CHUNK_ENTRIES,
    Partition,
    _left_sum,
    _matmul,
    _partition_sums,
)

LANES = _ACCUMULATE_ENTRIES

#: Result sizes on both sides of the switch, and a few small ones.
SIZES = (1, 2, 3, LANES - 1, LANES, LANES + 1)

SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
    1.0, -1.0, 0.1, 1e308, -1e308, math.inf, -math.inf, math.nan,
)
elements = st.one_of(st.sampled_from(SPECIALS), st.floats(-1, 1), st.floats(width=64))


def floats(shape):
    return hnp.arrays(np.float64, shape, elements=elements)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def outcome(f, *args, over):
    """f(*args) under ``np.errstate(over=over)``, or FloatingPointError if
    it raised one."""
    with np.errstate(over=over, invalid="ignore"):
        try:
            return f(*args)
        except FloatingPointError:
            return FloatingPointError


def assert_agrees(kernel, reference, *args):
    """The same bits with overflow ignored, and the same overflow raised."""
    assert_same_bits(outcome(kernel, *args, over="ignore"),
                     outcome(reference, *args, over="ignore"))
    raised = outcome(kernel, *args, over="raise") is FloatingPointError
    assert raised == (outcome(reference, *args, over="raise") is FloatingPointError)


@st.composite
def sum_cases(draw):
    """(terms, axis): a result of one of SIZES entries, on either side of
    the summed axis."""
    entries, count = draw(st.sampled_from(SIZES)), draw(st.integers(1, 6))
    axis = draw(st.sampled_from((-1, -2)))
    shape = (entries, count) if axis == -1 else (count, entries)
    return draw(floats(shape)), axis


@settings(max_examples=120)
@given(sum_cases())
def test_left_sum_matches_the_loop(case):
    terms, axis = case
    assert_agrees(lambda t: _left_sum(t, axis=axis), lambda t: ref.sums_along(t, axis), terms)


@settings(max_examples=60)
@given(sum_cases(), st.data())
def test_left_sum_of_a_product_matches_the_loop(case, data):
    terms, axis = case
    factor = data.draw(floats((terms.shape[axis],)))
    factor = factor[:, None] if axis == -2 else factor
    assert_agrees(lambda t, f: _left_sum(t, f, axis=axis),
                  lambda t, f: ref.sums_along(t * f, axis), terms, factor)


@st.composite
def matmul_cases(draw):
    """(a, b) whose product has one of SIZES entries, as a column, a row or
    a batch of 1 x 1 products."""
    entries, inner = draw(st.sampled_from(SIZES)), draw(st.integers(1, 5))
    layout = draw(st.sampled_from(("column", "row", "batch")))
    if layout == "column":
        shapes = (entries, inner), (inner, 1)
    elif layout == "row":
        shapes = (1, inner), (inner, entries)
    else:
        shapes = (1, inner), (entries, inner, 1)
    return draw(floats(shapes[0])), draw(floats(shapes[1]))


@settings(max_examples=120)
@given(matmul_cases())
def test_matmul_matches_the_loop(case):
    assert_agrees(_matmul, ref.matmul, *case)


def _partitions(runs):
    """Float partitions of one target with ``runs[p]`` pieces each."""
    target = LatticeVector([1.0, 1.0])
    return [Partition(target, np.full((run, 2), 1.0 / run)) for run in runs]


def _table_images(table):
    """An image map that hands out the rows of ``table`` in order, one
    chunk of pieces at a time, whatever the pieces hold."""
    taken = 0

    def image(pieces):
        nonlocal taken
        rows = table[taken : taken + len(pieces)]
        taken += len(pieces)
        return rows

    return image


@st.composite
def partition_cases(draw):
    """(runs, table, image_entries): pieces per partition, the images of
    all the pieces, and an ``image_entries`` that makes the kernel take 1,
    2, 3 or all of the pieces per chunk."""
    runs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    entries = draw(st.sampled_from((1, 3, 43) + SIZES[3:]))
    table = draw(floats((sum(runs), entries)))
    step = draw(st.sampled_from((1, 2, 3, sum(runs))))
    return runs, table, _KERNEL_CHUNK_ENTRIES // step


@settings(max_examples=120)
@given(partition_cases())
def test_partition_sums_match_the_loop(case):
    runs, table, image_entries = case

    def kernel(table):
        sums, D = _partition_sums(_partitions(runs), _table_images(table), image_entries)
        assert D is None
        return sums

    assert_agrees(kernel, lambda t: ref.partition_sums(t, runs), table)


@pytest.mark.parametrize("entries", SIZES)
def test_runs_of_negative_zeros_sum_to_positive_zero(entries):
    zeros = np.full((entries, 3), -0.0)
    assert_same_bits(_left_sum(zeros), np.zeros(entries))
    assert_same_bits(_matmul(zeros, np.ones((3, 1))), np.zeros((entries, 1)))
    sums, _ = _partition_sums(_partitions([3]), _table_images(zeros.T.copy()), entries)
    assert_same_bits(sums, np.zeros((1, entries)))


def _mixed_family(n):
    """Float signed partitions of an n x n target: seeded 3-piece splits
    between atomic (n^2 pieces) and trivial (1 piece) ones."""
    T = RegularOperator(n, n, [float(k + 1) for k in range(n * n)])
    rng = Random(n)
    splits = [random_convex_partition(T, 3, rng, signed=True) for _ in range(4)]
    atomic, trivial = atomic_partition(T), trivial_partition(T)
    return [splits[0], atomic, trivial, splits[1], splits[2], atomic, splits[3], trivial]


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("bound", (None, 24, 12))
def test_padded_partition_sums_of_mixed_families_match_the_loop(n, bound, monkeypatch):
    # The float branch pads each batch of partitions to its longest run with
    # +0.0 terms; the images hold -0.0, signed zeros and overflowing values.
    family = _mixed_family(n)
    runs = [len(p) for p in family]
    assert {1, 3, n * n} <= set(runs)
    image_entries = 3
    table = np.random.default_rng(n).choice(np.array(SPECIALS), (sum(runs), image_entries))
    assert np.signbit(table[table == 0]).any()
    if bound is not None:
        monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", bound)
    step = lattice._chunk_size(image_entries)
    padded = []

    def recording(terms, factor=None, axis=-1):
        if sys._getframe(1).f_code.co_name == "_segment_sums":
            padded.append(terms.shape)
        return _left_sum(terms, factor, axis)

    monkeypatch.setattr(lattice, "_left_sum", recording)

    def kernel(table):
        padded.clear()
        sums, D = _partition_sums(family, _table_images(table), image_entries)
        assert D is None
        return sums

    assert_agrees(kernel, lambda t: ref.partition_sums(t, runs), table)
    # No padded tensor passes the chunk bound, and at a small bound some
    # chunk splits into several padded batches.
    assert all(math.prod(shape) <= lattice._KERNEL_CHUNK_ENTRIES for shape in padded)
    chunks = -(-sum(runs) // step)
    assert (len(padded) > chunks) is (bound is not None)


@pytest.mark.parametrize("bound", (None, 24, 12))
def test_meet_oracle_with_negative_entries_matches_the_loop_at_any_bound(bound, monkeypatch):
    w = LatticeVector([1.0, 0.0, 2.5, 0.5])
    S = RegularOperator(2, 4, [-1.0, -0.0, 3.0, -2.0, 0.1, -1e-300, -7.5, 2.0])
    T = RegularOperator(2, 4, [0.0, -1.0, -3.0, 1.0, -0.1, 5e-324, -7.5, -2.0])
    family = default_partitions(w)
    if bound is not None:
        monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", bound)
    got = meet_oracle(S, T, w, family)
    value, tried, _ = partition_reference.meet_oracle(
        S, T, w, [pieces_of(p) for p in family]
    )
    assert_same_bits(got.value.entries, value.entries)
    assert got.partitions_tried == tried
