from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from rieszops import (
    LatticeVector,
    RegularOperator,
    atomic_partition,
    meet_oracle,
    modulus_oracle,
    random_convex_partition,
    rank_one,
    refinement_sums,
    trivial_partition,
)
from rieszops.lattice import (
    DimensionMismatchError,
    Partition,
    default_partitions,
    refinement_chain,
)

from conftest import matrices, matrix_pairs_same_shape, pieces_of, vectors, zeros


def dot(x, y):
    return sum(a * b for a, b in zip(x.entries, y.entries))


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------


def test_identity_and_apply():
    I = RegularOperator.identity(3)
    v = LatticeVector([1, -2, 3])
    assert I.apply(v).eq(v)


def _reference_apply(A, v):
    """A v as the per-entry loop over A's scalars (the pre-integer code)."""
    out = []
    for i in range(A.rows):
        base = i * A.cols
        out.append(sum(A.entries[base + j] * v.entries[j] for j in range(A.cols)))
    return out


def _apply_cases():
    rng = Random(21)
    big = Fraction(10**12, 7)
    shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)] + [(1, 70), (70, 1)]
    for rows, cols in shapes:
        for scale in (1, big, big**2):
            entries = [
                scale * Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                for _ in range(rows * cols)
            ]
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cols)]
            yield RegularOperator(rows, cols, entries), LatticeVector(v)
        yield RegularOperator(rows, cols, entries), zeros("exact", cols)


def test_exact_apply_matches_fraction_loop():
    for A, v in _apply_cases():
        got = A.apply(v)
        assert got.entries == tuple(_reference_apply(A, v))
        assert all(type(x) is Fraction for x in got.entries)


def test_float_apply_keeps_the_loop_bit_for_bit():
    for A, v in _apply_cases():
        Af, vf = A.to_float(), v.to_float()
        got = Af.apply(vf)
        assert got.entries == tuple(_reference_apply(Af, vf))
        assert all(type(x) is float for x in got.entries)


def test_from_rows_and_entry_layout():
    A = RegularOperator.from_rows([[1, 2], [3, 4]])
    assert A.entry(0, 1) == Fraction(2)
    assert A.entry(1, 0) == Fraction(3)
    assert A.to_lists() == [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert A.transpose().to_lists()[0] == [Fraction(1), Fraction(3)]


def test_json_roundtrip():
    A = RegularOperator.from_rows([[Fraction(1, 3), -2], [0, Fraction(7, 2)]])
    assert RegularOperator.from_json(A.to_json()).eq(A)


def _reference_compose(A, B):
    """A @ B as the Fraction/float triple loop over entry() (the code that
    ``compose`` ran before it shared ``apply``'s product)."""
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            out.append(sum(A.entry(i, k) * B.entry(k, j) for k in range(A.cols)))
    return out


def _compose_cases():
    rng = Random(22)
    big = Fraction(10**12, 7)
    shapes = [(r, k, c) for r in range(1, 5) for k in range(1, 5) for c in range(1, 5)]
    for rows, inner, cols in shapes + [(1, 70, 1)]:
        for scale in (1, big):
            A = [scale * Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                 for _ in range(rows * inner)]
            B = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(inner * cols)]
            yield RegularOperator(rows, inner, A), RegularOperator(inner, cols, B)


def test_exact_compose_matches_the_reference_loop():
    for A, B in _compose_cases():
        got = A @ B
        assert got.shape == (A.rows, B.cols)
        assert got.entries == tuple(_reference_compose(A, B))
        assert all(type(x) is Fraction for x in got.entries)


def test_float_compose_keeps_the_loop_bit_for_bit():
    signed_zeros = RegularOperator(2, 2, [0.0, -0.0, -0.0, -0.0])
    cases = [(A.to_float(), B.to_float()) for A, B in _compose_cases()]
    cases += [(signed_zeros, signed_zeros), (signed_zeros, -signed_zeros)]
    for A, B in cases:
        got = (A @ B).entries
        want = _reference_compose(A, B)
        assert [x.hex() for x in got] == [x.hex() for x in want]
    # 1e300 * 1e300 overflows to inf, as in the loop, and numpy says so.
    A, B = RegularOperator(1, 2, [1e300, -1e300]), RegularOperator(2, 1, [1e300, 1e-300])
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = (A @ B).entries
    assert [x.hex() for x in got] == [x.hex() for x in _reference_compose(A, B)]


@given(matrices(rows=2, cols=3), matrices(rows=3, cols=2), vectors(dim=2))
def test_compose_matches_sequential_apply(A, B, v):
    assert (A @ B).apply(v).eq(A.apply(B.apply(v)))


def test_transpose_involution_and_adjoint():
    A = RegularOperator.from_rows([[1, 2, 3], [4, 5, 6]])
    assert A.transpose().transpose().eq(A)
    x = LatticeVector([1, -1])
    y = LatticeVector([2, 0, 1])
    assert dot(A.apply(y), x) == dot(A.transpose().apply(x), y)


# ---------------------------------------------------------------------------
# lattice structure (closed forms)
# ---------------------------------------------------------------------------


@given(matrix_pairs_same_shape())
def test_closed_form_lattice_identities(pair):
    A, B = pair
    assert (A + B).eq(A.join_closed_form(B) + A.meet_closed_form(B))
    assert abs(A).eq(A.join_closed_form(-A))
    assert abs(A).eq(A.pos_part() + A.neg_part())
    assert A.pos_part().meet_closed_form(A.neg_part()).eq(A - A)
    # modulus dominates +-A
    assert A.le(abs(A)) and (-A).le(abs(A))


@given(matrix_pairs_same_shape())
def test_modulus_is_least_upper_bound(pair):
    A, P = pair
    P = abs(P) + abs(A)  # any dominator of A and -A
    assert A.le(P) and (-A).le(P)
    assert abs(A).le(P)


# ---------------------------------------------------------------------------
# Riesz-Kantorovich oracles
# ---------------------------------------------------------------------------


@given(matrices(), vectors(positive=True))
def test_modulus_oracle_attains_closed_form(A, w):
    if w.dim != A.cols:
        w = LatticeVector.ones(A.cols)
    result = modulus_oracle(A, w)
    assert result.attained
    assert result.value.eq(A.modulus_closed_form().apply(w))
    assert result.partitions_tried >= 3


@given(matrix_pairs_same_shape())
def test_meet_oracle_attains_closed_form(pair):
    S, T = pair
    w = LatticeVector.ones(S.cols)
    result = meet_oracle(S, T, w)
    assert result.attained
    assert result.value.eq(S.meet_closed_form(T).apply(w))


@given(matrices())
def test_refinement_sums_monotone(A):
    w = LatticeVector.ones(A.cols)
    sums = refinement_sums(A, w)
    assert len(sums) >= 2
    for lo, hi in zip(sums, sums[1:]):
        assert lo.le(hi)
    # final refinement sits at the closed form
    assert sums[-1].eq(A.modulus_closed_form().apply(w))


def test_modulus_oracle_rejects_bad_input():
    A = RegularOperator.from_rows([[1, -1]])
    with pytest.raises(ValueError):
        modulus_oracle(A, LatticeVector([-1, 1]))
    with pytest.raises(DimensionMismatchError):
        modulus_oracle(A, LatticeVector([1]))


def test_oracles_try_the_partitions_they_are_given():
    S = RegularOperator.from_rows([[1, -2, 0], [3, 1, -1]])
    T = RegularOperator.from_rows([[0, 1, 2], [-1, 1, 0]])
    w = LatticeVector([1, 2, 3])
    family = default_partitions(w)
    assert len(family) == 9
    for run in (lambda p: modulus_oracle(S, w, p), lambda p: meet_oracle(S, T, w, p)):
        by_default, given = run(None), run(family)
        assert by_default.partitions_tried == given.partitions_tried == 9
        assert by_default.value == given.value
        # A builder of partitions of w, the default one among them.
        assert run(default_partitions) == by_default
        chain = run(refinement_chain)
        assert chain == run(family[:4]) and chain.partitions_tried == 4
        only_atomic = run([atomic_partition(w)])
        assert only_atomic.attained and only_atomic.partitions_tried == 1
        with pytest.raises(ValueError):
            run([])
        with pytest.raises(ValueError):
            run([atomic_partition(LatticeVector([1, 1, 1]))])


# ---------------------------------------------------------------------------
# rank-one operators
# ---------------------------------------------------------------------------


@given(vectors(dim=3), vectors(dim=2), vectors(dim=3))
def test_rank_one_action(functional, value, x):
    F = rank_one(functional, value)
    assert F.shape == (2, 3)
    assert F.apply(x).eq(value.scale(dot(functional, x)))


# ---------------------------------------------------------------------------
# partitions of a positive matrix
# ---------------------------------------------------------------------------


@given(matrices(positive=True))
def test_operator_partition_validation(T):
    p = trivial_partition(T)
    assert len(pieces_of(p)) == 1
    a = atomic_partition(T)
    total = zeros("exact", T.rows, T.cols)
    for piece in pieces_of(a):
        total = total + abs(piece)
    assert total.eq(T)


def test_operator_partition_rejects_wrong_sum():
    T = RegularOperator.from_rows([[1, 1], [1, 1]])
    bad = RegularOperator.from_rows([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        Partition(T, (bad,), signed=True)


@given(matrices(positive=True), st.integers(min_value=2, max_value=4))
def test_random_operator_partition_modulus_sum(T, parts):
    rng = Random(7)
    signed = random_convex_partition(T, parts, rng, signed=True)
    positive = random_convex_partition(T, parts, rng)
    for p in (signed, positive):
        total = zeros("exact", T.rows, T.cols)
        for piece in pieces_of(p):
            total = total + abs(piece)
        assert total.eq(T)
    for piece in pieces_of(positive):
        assert piece.is_positive()


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("seed", range(5))
def test_vector_and_operator_splitters_agree_on_one_column(mode, seed):
    # One builder splits a vector and the one-column matrix of its entries.
    w = LatticeVector([3, 0, Fraction(5, 2), 1])
    w = w if mode == "exact" else w.to_float()
    T = RegularOperator(w.dim, 1, w.entries)
    pairs = [(build(w), build(T)) for build in (trivial_partition, atomic_partition)]
    for parts in (1, 2, 3, 5):
        for signed in (False, True):
            pairs.append(
                tuple(random_convex_partition(x, parts, Random(seed), signed) for x in (w, T))
            )
    for vector_split, operator_split in pairs:
        assert [p.entries for p in pieces_of(vector_split)] == [
            p.entries for p in pieces_of(operator_split)
        ]
    zero, Z = zeros("exact", 3), zeros("exact", 3, 1)
    for x in (zero, Z):
        assert pieces_of(random_convex_partition(x, 3, Random(seed))) == (x,)
        assert pieces_of(atomic_partition(x)) == (x,)


def test_operator_partitions_schemes():
    T = RegularOperator.from_rows([[1, 2], [0, 3]])
    assert pieces_of(trivial_partition(T)) == (T,)
    atoms = atomic_partition(T)
    assert len(atoms) == 3  # one per nonzero entry
    rng = Random(2)
    rands = [random_convex_partition(T, 3, rng, signed=True) for _ in range(3)]
    assert all(p.target == T for p in rands)
