"""The stacked partitions and the segment-sum kernel against the per-piece
reference loops of ``partition_reference``.

Every builder must give the pieces the tuple-based builder gave, from the
same seeded draws; ``lattice._disjoint`` must agree with the pairwise test
on every partition of a stack; and
``modulus_oracle``, ``meet_oracle`` (value, partitions tried,
attainment), ``refinement_sums``, prop21's ``_partition_values`` and
the lab's ``_double_partition_inf`` must equal the loops one piece at a
time: exactly in exact mode, bit for bit by ``float.hex`` in float mode.
"""

from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import partition_reference as ref
from rieszops import (
    CoordinateFunctional,
    LatticeVector,
    Partition,
    RegularOperator,
    atomic_partition,
    default_partitions,
    dyadic_partition,
    halves_partition,
    meet_oracle,
    modulus_oracle,
    random_convex_partition,
    refinement_chain,
    refinement_sums,
    trivial_partition,
    verify_prop21,
)
from rieszops import lattice, operators
from rieszops.counterexample import _double_partition_inf, _e_partitions, _positive_splits
from rieszops.lattice import _disjoint, _partition_stack
from rieszops.superop import _partition_values

from conftest import fractions_st, pieces_of, positive_fractions_st, stack_pieces

MODES = ("exact", "float")

#: Float entries: small values, signed zeros, subnormals and near-tolerance
#: values next to ordinary ones.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e-10, 2e-9, 0.1, 2.5]
floats_st = st.one_of(
    st.sampled_from(SPECIAL_FLOATS + [-v for v in SPECIAL_FLOATS]),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
positive_floats_st = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(min_value=0, max_value=5, allow_nan=False),
)


def _entries(draw, count, mode, positive):
    if mode == "exact":
        src = positive_fractions_st if positive else fractions_st
    else:
        src = positive_floats_st if positive else floats_st
    return [draw(src) for _ in range(count)]


@st.composite
def vectors(draw, mode, dim=None, positive=False):
    n = draw(st.integers(1, 4)) if dim is None else dim
    return LatticeVector(_entries(draw, n, mode, positive))


@st.composite
def matrices(draw, mode, rows=None, cols=None, positive=False):
    r = draw(st.integers(1, 4)) if rows is None else rows
    c = draw(st.integers(1, 4)) if cols is None else cols
    return RegularOperator(r, c, _entries(draw, r * c, mode, positive))


def _same(got, want):
    """Equal entries: exactly, or bit for bit for floats."""
    got, want = list(got.entries), list(want.entries)
    if got and isinstance(got[0], float):
        return [a.hex() for a in got] == [b.hex() for b in want]
    return got == want


def _same_pieces(partition, pieces):
    assert len(partition) == len(pieces)
    got = pieces_of(partition)
    assert all(type(p) is type(q) for p, q in zip(got, pieces))
    assert all(_same(p, q) for p, q in zip(got, pieces))


def _same_split(build, target, pieces, signed=False):
    """``build()`` gives the reference pieces, or refuses them with
    ``ValueError`` exactly when the check one piece at a time does."""
    if ref.is_partition(target, pieces, signed):
        _same_pieces(build(), pieces)
    else:
        with pytest.raises(ValueError, match="sum to the target"):
            build()


def _same_family(build, w, families):
    """``build()`` gives the reference families, or refuses when one of
    them fails the check one piece at a time."""
    if all(ref.is_partition(w, pieces) for pieces in families):
        got = build()
        assert len(got) == len(families)
        for partition, pieces in zip(got, families):
            _same_pieces(partition, pieces)
        return got
    with pytest.raises(ValueError, match="sum to the target"):
        build()
    return None


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_vector_builders_give_the_reference_pieces(mode, data):
    w = data.draw(vectors(mode, positive=True))
    seed = data.draw(st.integers(0, 1000))
    _same_pieces(trivial_partition(w), ref.trivial_partition(w))
    _same_pieces(halves_partition(w), ref.halves_partition(w))
    _same_pieces(atomic_partition(w), ref.atomic_partition(w))
    _same_pieces(dyadic_partition(w), ref.dyadic_partition(w))
    for parts in (1, 2, 3, 5):
        _same_split(
            lambda: random_convex_partition(w, parts, Random(seed)),
            w,
            ref.random_convex_partition(w, parts, Random(seed)),
        )
    for got, want in zip(refinement_chain(w), ref.refinement_chain(w)):
        _same_pieces(got, want)
    _same_family(lambda: default_partitions(w), w, ref.default_partitions(w))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_operator_splits_give_the_reference_pieces(mode, data):
    T = data.draw(matrices(mode, positive=True))
    seed = data.draw(st.integers(0, 1000))
    _same_pieces(trivial_partition(T), ref.trivial_partition(T))
    _same_pieces(atomic_partition(T), ref.atomic_partition(T))
    for parts, signed in ((1, True), (2, False), (3, True), (4, True)):
        got_rng, want_rng = Random(seed), Random(seed)
        for _ in range(3):  # consecutive draws from one generator
            _same_split(
                lambda: random_convex_partition(T, parts, got_rng, signed),
                T,
                ref.random_convex_partition(T, parts, want_rng, signed),
                signed,
            )
        assert got_rng.random() == want_rng.random()


def test_a_float_convex_split_of_tiny_entries_keeps_its_pieces():
    # Pieces whose entries all lie within DEFAULT_TOLERANCE of zero are not
    # zero: dropping them left the rest short of the target.
    w = LatticeVector([2e-9, 2e-9])
    partition = random_convex_partition(w, 3, Random(0))
    want = ref.random_convex_partition(w, 3, Random(0))
    assert ref.is_partition(w, want) and len(want) == 3
    _same_pieces(partition, want)
    S = RegularOperator(2, 2, [1.0, -2.0, 0.5, 3.0])
    family = default_partitions(w)
    result = modulus_oracle(S, w)
    _assert_same_result(result, ref.modulus_oracle(S, w, [pieces_of(p) for p in family]))
    assert result.attained


def test_split_cuts_are_drawn_as_cpython_randint_draws_them():
    # _convex_split draws each cut from getrandbits, as Random.randint(0, 16)
    # does inside; the reference keeps rng.randint, so a change to randrange
    # or _randbelow fails here instead of moving report bytes.
    for size in range(1, 65):
        ones = LatticeVector([1] * size)
        for parts in range(1, 6):
            for signed in (False, True):
                for seed in range(200):
                    got_rng, want_rng = Random(seed), Random(seed)
                    values, _, den = ones._convex_split(parts, got_rng, signed)
                    grid = [
                        [-c if negated else c for c, negated in weights]
                        for weights in ref.signed_weights(want_rng, size, parts, signed)
                    ]
                    assert values.tolist() == [list(col) for col in zip(*grid) if any(col)]
                    assert den == lattice.SPLIT_DENOMINATOR
                    assert got_rng.getstate() == want_rng.getstate()


def test_builders_check_each_partition_and_the_families_check_once(monkeypatch):
    checks, built = [], []
    check, init = lattice._check_stack, Partition.__init__

    def counting_check(target, stack, positive=None):
        checks.append((type(target).__name__, len(stack[1]) - 1))
        return check(target, stack, positive)

    def counting_init(self, *args, **kwargs):
        built.append(type(args[0]).__name__)
        init(self, *args, **kwargs)

    for module in (lattice, operators):
        monkeypatch.setattr(module, "_check_stack", counting_check)
    monkeypatch.setattr(Partition, "__init__", counting_init)
    w = LatticeVector([1, 2, 0, 3])
    T = RegularOperator(2, 2, [1, 0, 2, 3])
    # Each public builder returns Partitions, each checked as a stack of one.
    for build, count in (
        (lambda: default_partitions(w), 9),
        (lambda: refinement_chain(w), 4),
        (lambda: [trivial_partition(T)], 1),
        (lambda: [atomic_partition(T)], 1),
        (lambda: [halves_partition(w), dyadic_partition(w)], 2),
        (lambda: [random_convex_partition(T, 3, Random(0), signed=True)], 1),
    ):
        checks.clear()
        partitions = build()
        assert all(type(p) is Partition for p in partitions)
        assert len(partitions) == count
        assert checks == [(type(partitions[0].target).__name__, 1)] * count
    # prop21's splits of T, and the default family and the refinement chain
    # of the oracles: one check of the whole stack each, and no Partition.
    A0, B = RegularOperator(2, 2, [1, 2, 0, 1]), RegularOperator(2, 2, [1, -1, 2, 0])
    S = RegularOperator(2, 4, [1, -2, 3, 0, -1, 1, 1, -4])
    for run, want in (
        (lambda: verify_prop21(A0, B, B, T, LatticeVector([1, 2]), seed=3), ("RegularOperator", 7)),
        (lambda: modulus_oracle(S, w), ("LatticeVector", 9)),
        (lambda: meet_oracle(S, -S, w), ("LatticeVector", 9)),
        (lambda: refinement_sums(S, w), ("LatticeVector", 4)),
    ):
        checks.clear()
        built.clear()
        run()
        assert checks == [want]
        assert built == []


# ---------------------------------------------------------------------------
# the stacked families
# ---------------------------------------------------------------------------


@st.composite
def targets(draw, mode, shape):
    """A positive vector (one dimension) or matrix (two) of ``shape``, with
    zero entries at times and all zero at others."""
    count = int(np.prod(shape))
    if draw(st.integers(0, 4)) == 0:
        entries = [Fraction(0) if mode == "exact" else 0.0] * count
    else:
        entries = _entries(draw, count, mode, positive=True)
    if len(shape) == 1:
        return LatticeVector(entries)
    return RegularOperator(*shape, entries)


def _same_stack(got, want):
    """Two stacks (values, bounds, D) bit for bit: Python ints, or float64 bytes."""
    (values, bounds, D), (want_values, want_bounds, want_D) = got, want
    assert bounds == want_bounds and all(type(b) is int for b in bounds)
    assert D == want_D and type(D) is type(want_D)
    assert values.dtype == want_values.dtype and values.shape == want_values.shape
    if values.dtype == object:
        assert values.tolist() == want_values.tolist()
        assert all(type(v) is int for v in values.flat)
    else:
        assert values.tobytes() == want_values.tobytes()


def _built_or_refused(build):
    """(the value, None) of ``build()``, or (None, its ValueError message)."""
    try:
        return build(), None
    except ValueError as error:
        return None, str(error)


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data(), size=st.integers(1, 6))
@settings(max_examples=60)
def test_the_default_family_is_the_public_builders_list(mode, data, size):
    w = data.draw(targets(mode, (size,)))

    def builders():
        rng = Random(0)
        chain = [trivial_partition(w), halves_partition(w), atomic_partition(w),
                 dyadic_partition(w)]
        return chain + [random_convex_partition(w, 3, rng) for _ in range(5)]

    # The public builders' list as one stack, or the message of the first
    # partition they refuse.
    want, refused = _built_or_refused(lambda: _partition_stack(builders()))
    got, message = _built_or_refused(
        lambda: lattice._check_stack(w, lattice._join(lattice._default_family(w)))
    )
    assert message == refused
    if want is None:
        return
    _same_stack(got, want)
    chain = lattice._check_stack(w, lattice._join(lattice._chain(w)))
    _same_stack(chain, _partition_stack(builders()[:4]))
    assert default_partitions(w) == builders()
    assert refinement_chain(w) == builders()[:4]


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4),
       seed=st.integers(0, 1 << 16))
@settings(max_examples=60)
def test_prop21s_splits_are_the_public_builders_list(mode, data, rows, cols, seed):
    T = data.draw(targets(mode, (rows, cols)))
    want_rng, got_rng = Random(seed), Random(seed)

    def builders():
        splits = [random_convex_partition(T, 3, want_rng, signed=True) for _ in range(5)]
        return [atomic_partition(T), trivial_partition(T)] + splits

    want, refused = _built_or_refused(lambda: _partition_stack(builders()))
    got, message = _built_or_refused(lambda: lattice._signed_splits(T, got_rng))
    assert message == refused
    if want is not None:
        _same_stack(got, want)
        assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data(), size=st.integers(1, 6), parts=st.integers(1, 4),
       signed=st.booleans(), count=st.integers(1, 5), seed=st.integers(0, 1 << 16))
def test_a_convex_split_of_count_k_is_k_splits_in_a_row(mode, data, size, parts, signed,
                                                         count, seed):
    x = data.draw(targets(mode, (size,)))
    got_rng, want_rng = Random(seed), Random(seed)
    got = x._convex_split(parts, got_rng, signed, count)
    splits = [x._convex_split(parts, want_rng, signed) for _ in range(count)]
    assert all(bounds == [0, len(values)] for values, bounds, _ in splits)
    _same_stack(got, lattice._join(splits))
    assert got_rng.getstate() == want_rng.getstate()


def _broken(stack, row, value):
    """A copy of ``stack`` with the first nonzero entry of piece ``row`` (or
    its first entry) set to ``value``, a number of the stack's mode."""
    values, bounds, D = stack
    values = values.copy()
    piece = values[row].reshape(-1)
    nonzero = np.flatnonzero(piece != 0)
    piece[nonzero[0] if len(nonzero) else 0] = value if D is None else value * D
    return values, bounds, D


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data(), size=st.integers(1, 6), seed=st.integers(0, 1 << 16))
@settings(max_examples=40)
def test_the_one_check_refuses_each_broken_family_as_partition_does(mode, data, size, seed):
    T = data.draw(targets(mode, (2, size)))
    w = data.draw(targets(mode, (size,)))
    default = lattice._join(lattice._default_family(w))
    splits = lattice._join([
        lattice._one(*T._atoms()),
        lattice._one(*lattice._trivial(T)),
        T._convex_split(3, Random(seed), signed=True, count=5),
    ])
    p = data.draw(st.integers(0, 8))
    q = data.draw(st.integers(2, 6))  # a signed split of prop21's family
    one = Fraction(1) if mode == "exact" else 1.0
    cases = [
        # A negative piece, and a piece one too large, in a positive partition.
        (w, _broken(default, default[1][p], -1), None, p,
         "partition pieces must be positive"),
        (w, _broken(default, default[1][p], 7), None, p,
         "partition pieces do not sum to the target"),
        # A signed piece whose modulus is too large.
        (T, _broken(splits, splits[1][q], 7), 2, q,
         "moduli of the pieces do not sum to the target"),
        # A target below zero: the pieces of w, or of T, no longer sum to
        # it; a signed split of T, or float pieces, refuse it first.
        (w.scale(-1) - LatticeVector([one] * size), default, None, 0,
         "partitions target a positive element" if mode == "float"
         else "partition pieces do not sum to the target"),
        (-T - RegularOperator(2, size, [one] * 2 * size), splits, 2, q,
         "partitions target a positive element"),
    ]
    for target, stack, positive, partition, message in cases:
        with pytest.raises(ValueError) as stacked:
            lattice._check_stack(target, stack, positive)
        assert str(stacked.value) == message
        # The partition alone, as Partition checks it.
        values, bounds, D = stack
        alone = values[bounds[partition]:bounds[partition + 1]]
        signed = positive is not None and partition >= positive
        with pytest.raises(ValueError) as single:
            Partition(target, alone, D, signed)
        assert str(single.value) == message


# ---------------------------------------------------------------------------
# disjointness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_is_disjoint_is_the_pairwise_test(mode, data):
    w = data.draw(vectors(mode, positive=True))
    seed = data.draw(st.integers(0, 1000))
    families = [
        trivial_partition(w),
        halves_partition(w),
        atomic_partition(w),
        dyadic_partition(w),
        *(Partition(w, pieces) for pieces in ref.disjoint_partitions(w)),
    ]
    if ref.is_partition(w, ref.random_convex_partition(w, 3, Random(seed))):
        families.append(random_convex_partition(w, 3, Random(seed)))
    want = [ref.is_disjoint(pieces_of(partition)) for partition in families]
    # Each partition as a stack of one, and the whole family as one stack.
    for partition, disjoint in zip(families, want):
        assert bool(_disjoint(_partition_stack([partition]))[0]) is disjoint
    assert _disjoint(_partition_stack(families)).tolist() == want


@pytest.mark.parametrize("mode", MODES)
def test_is_disjoint_at_the_tolerance(mode):
    def vector(entries):
        v = LatticeVector(entries)
        return v if mode == "exact" else v.to_float()

    w = vector([1, 1])
    tiny = Fraction(1, 10**12)
    overlap = Partition(w, [vector([1 - tiny, 0]), vector([tiny, 1])])
    disjoint = bool(_disjoint(_partition_stack([overlap]))[0])
    assert disjoint is ref.is_disjoint(pieces_of(overlap)) is (mode == "float")
    split = Partition(w, [vector([Fraction(1, 2), 0]), vector([Fraction(1, 2), 1])])
    assert not _disjoint(_partition_stack([split]))[0]
    assert not ref.is_disjoint(pieces_of(split))


# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------


def _oracle_case(data, mode):
    w = data.draw(vectors(mode, positive=True))
    S = data.draw(matrices(mode, cols=w.dim))
    T = data.draw(matrices(mode, rows=S.rows, cols=w.dim))
    return S, T, w


def _assert_same_result(result, want):
    """``result`` agrees with the reference (value, partitions tried,
    attained)."""
    value, tried, attained = want
    assert _same(result.value, value)
    assert result.partitions_tried == tried
    assert result.attained is attained


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_oracles_equal_the_per_piece_loops(mode, data):
    S, T, w = _oracle_case(data, mode)
    family = _same_family(lambda: default_partitions(w), w, ref.default_partitions(w))
    if family is None:  # the default family of w is refused: so is the oracle
        with pytest.raises(ValueError, match="sum to the target"):
            modulus_oracle(S, w)
        return
    pieces = [pieces_of(p) for p in family]
    _assert_same_result(modulus_oracle(S, w), ref.modulus_oracle(S, w, pieces))
    _assert_same_result(modulus_oracle(S, w, family), ref.modulus_oracle(S, w, pieces))
    _assert_same_result(meet_oracle(S, T, w, family), ref.meet_oracle(S, T, w, pieces))
    # A stream of many small partitions, given in reverse.
    family = [Partition(w, pieces) for pieces in ref.disjoint_partitions(w)][::-1]
    pieces = [pieces_of(p) for p in family]
    _assert_same_result(modulus_oracle(S, w, family), ref.modulus_oracle(S, w, pieces))
    _assert_same_result(meet_oracle(S, T, w, family), ref.meet_oracle(S, T, w, pieces))


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_refinement_sums_equal_the_per_piece_loop(mode, data):
    S, _, w = _oracle_case(data, mode)
    got = refinement_sums(S, w)
    want = ref.refinement_sums(S, w)
    assert len(got) == len(want)
    assert all(_same(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("mode", MODES)
def test_oracles_keep_the_first_attainer_across_kernel_chunks(mode, monkeypatch):
    w = LatticeVector([1, 2, 0, 3])
    S = RegularOperator(2, 4, [1, -2, 3, 0, -1, 1, 1, -4])
    T = RegularOperator(2, 4, [0, 1, -1, 2, 2, 2, -1, 1])
    if mode == "float":
        w, S, T = w.to_float(), S.to_float(), T.to_float()
    family = default_partitions(w) + [atomic_partition(w)]
    pieces = [pieces_of(p) for p in family]
    monkeypatch.setattr(lattice, "_KERNEL_CHUNK_ENTRIES", 1)
    for got, want in (
        (modulus_oracle(S, w, family), ref.modulus_oracle(S, w, pieces)),
        (meet_oracle(S, T, w, family), ref.meet_oracle(S, T, w, pieces)),
    ):
        _assert_same_result(got, want)


# ---------------------------------------------------------------------------
# the operator-partition supremum and the lab's double-partition infimum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data(), seed=st.integers(0, 1000))
@settings(max_examples=30)
def test_operator_partition_sup_equals_the_per_piece_loop(mode, data, seed):
    dims = [data.draw(st.integers(1, 3)) for _ in range(4)]
    w_dim, x, y, z = dims
    A0 = data.draw(matrices(mode, z, y, positive=True))
    B = data.draw(matrices(mode, x, w_dim))
    T = data.draw(matrices(mode, y, x, positive=True))
    v = data.draw(vectors(mode, w_dim, positive=True))
    rng = Random(seed)
    families = [atomic_partition(T), trivial_partition(T)] + [
        random_convex_partition(T, 3, rng, signed=True) for _ in range(3)
    ]
    stack = _partition_stack(families)
    got = lattice._entrywise_best(*_partition_values(A0, B, v, stack), np.greater)
    want = ref.operator_partition_sup(A0, B, v, [pieces_of(p) for p in families])
    assert _same(got, want)


@given(
    n=st.integers(2, 4),
    data=st.data(),
    budget=st.integers(1, 15),
    samples=st.integers(1, 5),
    seed=st.integers(0, 100),
)
@settings(max_examples=30)
def test_double_partition_inf_equals_the_per_piece_loop(n, data, budget, samples, seed):
    f = CoordinateFunctional(n, data.draw(st.integers(0, n - 1)))
    T = data.draw(matrices("exact", n, n, positive=True))
    partitions = _e_partitions(f, budget)
    splits = _positive_splits(T, samples, seed)
    got = _double_partition_inf(f, partitions, splits)
    want = ref.double_partition_inf(f, stack_pieces(partitions), [pieces_of(s) for s in splits])
    assert got.entries == want.entries
    assert all(type(e) is Fraction for e in got.entries)


# ---------------------------------------------------------------------------
# the stacked partition itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_stacked_partition_round_trips_its_pieces(mode):
    w = LatticeVector([Fraction(1, 3), 2, 0])
    w = w if mode == "exact" else w.to_float()
    pieces = ref.dyadic_partition(w)
    partition = Partition(w, pieces)
    _same_pieces(partition, pieces)
    assert partition == dyadic_partition(w)
    assert partition != atomic_partition(w)
    assert partition._values.shape == (len(pieces), w.dim)
    assert isinstance(partition._values, np.ndarray)
    with pytest.raises(AttributeError):
        partition.target = w


def test_signed_partitions_check_the_moduli():
    T = RegularOperator.from_rows([[1, 2], [0, 3]])
    half = T.scale(Fraction(1, 2))
    assert len(Partition(T, [half, -half], signed=True)) == 2
    with pytest.raises(ValueError, match="moduli"):
        Partition(T, [half, half.scale(Fraction(1, 2))], signed=True)
    with pytest.raises(ValueError, match="positive"):
        Partition(-T, [-T], signed=True)
    with pytest.raises(ValueError, match="positive"):
        Partition(T, [half + T, -half])  # a positive partition refuses -half


# ---------------------------------------------------------------------------
# float sums within their rounding bound
# ---------------------------------------------------------------------------

BIG = 123456789.123


def test_float_splits_of_a_large_entry_pass_their_own_check():
    # The shares a * (c / 16) of a = 123456789.123, added left to right,
    # miss a by more than DEFAULT_TOLERANCE but within gamma_3 * sum |p_i|.
    result = modulus_oracle(RegularOperator(1, 2, [1.0, -1.0]), LatticeVector([BIG, 1.0]))
    assert result.partitions_tried == 9 and result.attained
    I = RegularOperator.identity(2).to_float()
    T = RegularOperator(2, 2, [BIG, 1.0, 0.5, 2.0])
    report = verify_prop21(I, I, I, T, LatticeVector([1.0, 1.0]))
    assert report.status == "pass" and not report.exact


def test_a_float_piece_beyond_the_rounding_bound_is_refused():
    w = LatticeVector([BIG, 1.0])
    values, bounds, D = w._convex_split(3, Random(0))
    # The pieces' left-to-right sum of the first entry, and how far the
    # rounding bound lets it miss the target.
    total = np.add.accumulate(values[:, 0])[-1]
    bound = 1e-9 + 3 * 2.0**-53 / (1 - 3 * 2.0**-53) * np.abs(values[:, 0]).sum()
    assert bound > 1e-9 and abs(total - BIG) <= bound
    lattice._check_stack(w, (values, bounds, D))
    # One piece moved by twice the bound: the sum misses beyond it.
    broken = values.copy()
    broken[0, 0] += 2 * bound
    with pytest.raises(ValueError, match="partition pieces do not sum to the target"):
        lattice._check_stack(w, (broken, bounds, D))
    with pytest.raises(ValueError, match="partition pieces do not sum to the target"):
        Partition(w, broken, D)
