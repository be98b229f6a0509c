"""The array storage of ``lattice._Entrywise`` against the per-entry tuple
loops it replaced.

Every entrywise operation, ``transpose``, ``kron``, ``vec``, ``unvec`` and
``deviation`` is checked against the Fraction/float loop it ran before the
storage became one array over one denominator: exactly in exact mode
(including entries scaled by 10^12/7), bit for bit by ``float.hex`` in float
mode (including signed-zero ties and 1e+-300).  Equal values reached by
different paths must compare and hash equal.
"""

import math
from fractions import Fraction
from operator import truediv
from random import Random

import numpy as np
import pytest

from rieszops import LatticeVector, RegularOperator, kron, unvec, vec
from rieszops.lattice import (
    SPLIT_DENOMINATOR,
    _entrywise_best,
    _partition_stack,
    atomic_partition,
)
from rieszops.scalars import DEFAULT_TOLERANCE, zero_of
from rieszops.superop import _partition_values, deviation

# ---------------------------------------------------------------------------
# references: the tuple loops
# ---------------------------------------------------------------------------


def le(a, b):
    """The tuple loops' scalar <=: exact, or with DEFAULT_TOLERANCE slack
    for floats."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a <= b
    return float(a) <= float(b) + DEFAULT_TOLERANCE


def eq(a, b):
    """The tuple loops' scalar equality: exact, or within DEFAULT_TOLERANCE
    for floats."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(float(a) - float(b)) <= DEFAULT_TOLERANCE


def is_zero(a):
    return eq(a, Fraction(0) if isinstance(a, Fraction) else 0.0)


def _ref_scale(x, c):
    c = Fraction(c) if x.is_exact else float(c)
    return [c * a for a in x.entries]


def _ref_pos_part(x):
    zero = zero_of(x.mode)
    return [max(a, zero) for a in x.entries]


def _ref_neg_part(x):
    zero = zero_of(x.mode)
    return [max(-a, zero) for a in x.entries]


def _ref_to_float(x):
    return [float(a) for a in x.entries]


def _ref_atoms(x):
    zero = zero_of(x.mode)
    pieces = []
    for index, a in enumerate(x.entries):
        if not is_zero(a):
            entries = [zero] * len(x.entries)
            entries[index] = a
            pieces.append(entries)
    return pieces or [list(x.entries)]


def _integer_composition(rng, total, parts):
    """Random composition of ``total`` into ``parts`` nonnegative integers."""
    cuts = [0] + sorted(rng.randint(0, total) for _ in range(parts - 1)) + [total]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def _ref_convex_split(x, parts, rng, signed):
    ratio = Fraction if x.is_exact else truediv
    grids = []
    for a in x.entries:
        weights = _integer_composition(rng, SPLIT_DENOMINATOR, parts)
        shares = [a * ratio(c, SPLIT_DENOMINATOR) for c in weights]
        if signed:
            shares = [s if rng.random() < 0.5 else -s for s in shares]
        grids.append(shares)
    pieces = [list(column) for column in zip(*grids)]
    kept = [p for p in pieces if any(a != 0 for a in p)]
    return kept or [list(x.entries)]


def _ref_transpose(T):
    return [T.entries[i * T.cols + j] for j in range(T.cols) for i in range(T.rows)]


def _ref_kron(P, Q):
    out = []
    for pr in range(P.rows):
        for qr in range(Q.rows):
            for pc in range(P.cols):
                for qc in range(Q.cols):
                    out.append(P.entries[pr * P.cols + pc] * Q.entries[qr * Q.cols + qc])
    return out


def _ref_vec(T):
    return [T.entries[i * T.cols + j] for j in range(T.cols) for i in range(T.rows)]


def _ref_unvec(v, rows, cols):
    return [v.entries[j * rows + i] for i in range(rows) for j in range(cols)]


def _ref_deviation(X, Y):
    return max(abs(a - b) for a, b in zip(X.entries, Y.entries))


ENTRYWISE = {
    "add": (lambda x, y: x + y, lambda x, y: [a + b for a, b in zip(x.entries, y.entries)]),
    "sub": (lambda x, y: x - y, lambda x, y: [a - b for a, b in zip(x.entries, y.entries)]),
    "min": (lambda x, y: x._min(y), lambda x, y: [min(a, b) for a, b in zip(x.entries, y.entries)]),
    "max": (lambda x, y: x._max(y), lambda x, y: [max(a, b) for a, b in zip(x.entries, y.entries)]),
}

UNARY = {
    "neg": (lambda x: -x, lambda x: [-a for a in x.entries]),
    "abs": (abs, lambda x: [abs(a) for a in x.entries]),
    "pos_part": (lambda x: x.pos_part(), _ref_pos_part),
    "neg_part": (lambda x: x.neg_part(), _ref_neg_part),
    "scale": (lambda x: x.scale(Fraction(-7, 3)), lambda x: _ref_scale(x, Fraction(-7, 3))),
    "scale_int": (lambda x: 3 * x, lambda x: _ref_scale(x, 3)),
    "to_float": (lambda x: x.to_float(), _ref_to_float),
}

PREDICATES = {
    "le": (lambda x, y: x.le(y), lambda x, y: all(le(a, b) for a, b in zip(x.entries, y.entries))),
    "eq": (lambda x, y: x.eq(y), lambda x, y: all(eq(a, b) for a, b in zip(x.entries, y.entries))),
    "is_positive": (
        lambda x, y: x.is_positive(),
        lambda x, y: all(le(zero_of(x.mode), a) for a in x.entries),
    ),
}

# ---------------------------------------------------------------------------
# operands
# ---------------------------------------------------------------------------

BIG = Fraction(10**12, 7)

#: Float entries with ties on signed zeros, huge and tiny magnitudes.
SPECIAL_FLOATS = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.5, -2.25, 1e-10]


def _exact_entries(rng, count, scale):
    return [scale * Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(count)]


def _float_entries(rng, count):
    return [
        rng.choice(SPECIAL_FLOATS) if rng.random() < 0.6 else rng.uniform(-3.0, 3.0)
        for _ in range(count)
    ]


def _shapes():
    return [(1,), (3,), (5,), (1, 1), (2, 3), (3, 2), (4, 4)]


def _make(shape, entries):
    if len(shape) == 1:
        return LatticeVector(entries)
    return RegularOperator(shape[0], shape[1], entries)


def _pairs(exact):
    rng = Random(1009 if exact else 1013)
    for shape in _shapes():
        size = math.prod(shape)
        for round_ in range(12):
            if exact:
                scale_x = BIG if round_ % 3 == 1 else 1
                scale_y = BIG if round_ % 3 == 2 else 1
                x = _make(shape, _exact_entries(rng, size, scale_x))
                y = _make(shape, _exact_entries(rng, size, scale_y))
            else:
                x = _make(shape, _float_entries(rng, size))
                y = _make(shape, _float_entries(rng, size))
            yield x, y
    if not exact:
        # Both orders of every signed-zero tie, entry by entry.
        zeros = LatticeVector([0.0, -0.0, 0.0, -0.0])
        crossed = LatticeVector([-0.0, 0.0, 0.0, -0.0])
        yield zeros, crossed
        yield crossed, zeros


def _assert_same(got, want, exact):
    got = list(got)
    if exact:
        assert got == want
        assert all(type(a) is Fraction for a in got)
    else:
        assert [float.hex(a) for a in got] == [float.hex(a) for a in want]
        assert all(type(a) is float for a in got)


MODES = [pytest.param(True, id="exact"), pytest.param(False, id="float")]
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)

# ---------------------------------------------------------------------------
# entrywise operations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("name", sorted(ENTRYWISE))
def test_binary_ops_match_the_tuple_loop(name, exact):
    op, ref = ENTRYWISE[name]
    for x, y in _pairs(exact):
        result = op(x, y)
        assert type(result) is type(x) and result.shape == x.shape
        _assert_same(result.entries, ref(x, y), exact)


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_ops_match_the_tuple_loop(name, exact):
    op, ref = UNARY[name]
    for x, _ in _pairs(exact):
        result = op(x)
        assert type(result) is type(x) and result.shape == x.shape
        _assert_same(result.entries, ref(x), exact and name != "to_float")


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_order_tests_match_the_tuple_loop(name, exact):
    op, ref = PREDICATES[name]
    for x, y in _pairs(exact):
        for a, b in ((x, y), (x, x), (abs(x), x), (x - x, y)):
            assert op(a, b) is ref(a, b)


def _pieces(x, values, den):
    """A splitter's stacked pieces (values over den) as containers."""
    assert values.shape[1:] == x.shape
    return [x._of(row, den) for row in values]


@pytest.mark.parametrize("exact", MODES)
def test_splitters_match_the_tuple_loop(exact):
    for x, _ in _pairs(exact):
        x = abs(x)
        assert [p.entries for p in _pieces(x, *x._atoms())] == [
            tuple(p) for p in _ref_atoms(x)
        ]
        for parts, signed in ((2, False), (3, True), (4, True)):
            values, _, den = x._convex_split(parts, Random(parts), signed)
            got = _pieces(x, values, den)
            want = _ref_convex_split(x, parts, Random(parts), signed)
            assert len(got) == len(want)
            for piece, reference in zip(got, want):
                _assert_same(piece.entries, reference, exact)


# ---------------------------------------------------------------------------
# transpose, kron, vec, unvec, deviation
# ---------------------------------------------------------------------------


def _operators(exact):
    return [x for x, _ in _pairs(exact) if isinstance(x, RegularOperator)]


@pytest.mark.parametrize("exact", MODES)
def test_transpose_vec_unvec_match_the_tuple_loop(exact):
    for T in _operators(exact):
        _assert_same(T.transpose().entries, _ref_transpose(T), exact)
        assert T.transpose().shape == (T.cols, T.rows)
        v = vec(T)
        _assert_same(v.entries, _ref_vec(T), exact)
        _assert_same(unvec(v, T.rows, T.cols).entries, _ref_unvec(v, T.rows, T.cols), exact)
        assert unvec(v, T.rows, T.cols) == T


@pytest.mark.parametrize("exact", MODES)
def test_kron_matches_the_tuple_loop(exact):
    ops = _operators(exact)
    for P, Q in zip(ops, ops[3:] + ops[:3]):
        got = kron(P, Q)
        assert got.shape == (P.rows * Q.rows, P.cols * Q.cols)
        _assert_same(got.entries, _ref_kron(P, Q), exact)


@pytest.mark.parametrize("exact", MODES)
def test_deviation_matches_the_tuple_loop(exact):
    for x, y in _pairs(exact):
        got = deviation(x, y)
        want = _ref_deviation(x, y)
        if exact:
            assert type(got) is Fraction and got == want
        else:
            assert type(got) is float and float.hex(got) == float.hex(want)


# ---------------------------------------------------------------------------
# one storage per value
# ---------------------------------------------------------------------------


def _lowest_terms(x):
    return x._den is None or math.gcd(x._den, *x._values.flat) == 1


def test_equal_values_by_different_paths_compare_and_hash_equal():
    half = LatticeVector(["2/4", "1"])
    paths = [
        LatticeVector([Fraction(1, 2), 1]),
        LatticeVector(["1/4", "1/2"]).scale(2),
        LatticeVector(["5/6", "1/3"]) - LatticeVector(["1/3", "-2/3"]),
        LatticeVector(["1/2", "7/5"])._min(LatticeVector(["3/2", "1"])),
        RegularOperator(2, 2, ["1/4", "0", "0", "1/2"]).apply(LatticeVector(["2", "2"])),
    ]
    for x in paths:
        assert _lowest_terms(x)
        assert x == half and hash(x) == hash(half)
    # A kernel's result, formed over the product of four denominators.
    A0 = RegularOperator(2, 2, ["1/3", "2/9", "0", "5/6"])
    B = RegularOperator(2, 2, ["3/4", "-1/2", "1/6", "1"])
    T = RegularOperator(2, 2, ["2/5", "1/10", "3", "0"])
    w = LatticeVector(["1/7", "2/7"])
    stack = _partition_stack([atomic_partition(T)])
    got = _entrywise_best(*_partition_values(A0, B, w, stack), np.greater)
    same = LatticeVector([str(a) for a in got.entries])
    assert _lowest_terms(got)
    assert got == same and hash(got) == hash(same)
    assert got._den == same._den


def test_float_equality_follows_float_comparison():
    assert LatticeVector([0.0, 1.0]) == LatticeVector([-0.0, 1.0])
    assert hash(LatticeVector([0.0, 1.0])) == hash(LatticeVector([-0.0, 1.0]))
    assert LatticeVector([1.0]) != LatticeVector([1.0 + 2**-52])


def test_modes_and_shapes_never_compare_equal():
    assert LatticeVector([1, 2]) != LatticeVector([1.0, 2.0])
    assert RegularOperator(1, 2, [1, 2]) != RegularOperator(2, 1, [1, 2])
    assert RegularOperator(1, 2, [1, 2]) != LatticeVector([1, 2])


def test_storage_is_immutable():
    x = LatticeVector(["1/2"])
    with pytest.raises(AttributeError):
        x._den = 4
    with pytest.raises(AttributeError):
        x.extra = 1


def test_exact_entries_are_numerators_over_one_denominator():
    x = RegularOperator(2, 2, ["1/6", "-3/4", "2", "0"])
    assert x._values.dtype == object
    assert x._den == 12
    assert x._values.tolist() == [[2, -9], [24, 0]]
    assert all(type(v) is int for v in x._values.flat)
    assert x.entries == (Fraction(1, 6), Fraction(-3, 4), Fraction(2), Fraction(0))
    assert RegularOperator(1, 1, [0.5])._den is None
    assert np.asarray(RegularOperator(1, 1, [0.5])._values).dtype == np.float64
