"""Reference implementations of the partition machinery: the tuple-based
builders, the pairwise disjointness test and the per-piece loops that the
stacked ``lattice.Partition`` and the segment-sum kernel
``lattice._partition_sums`` replaced.

Every builder here returns its pieces as a tuple of containers, built one
piece at a time from container operations, and every oracle walks the
pieces one ``apply`` at a time, summing from zero.  They take the pieces
themselves (tuples), never a ``Partition``, so the comparison in
``test_partition_kernel.py`` does not rest on the code under test.
"""

from fractions import Fraction
from random import Random

from rieszops import LatticeVector, RegularOperator
from rieszops.lattice import SPLIT_DENOMINATOR
from rieszops.scalars import DEFAULT_TOLERANCE

from conftest import zeros

# ---------------------------------------------------------------------------
# builders: tuples of pieces
# ---------------------------------------------------------------------------


def _like(x, entries):
    """A container of x's class and shape holding ``entries``."""
    if isinstance(x, LatticeVector):
        return LatticeVector(entries)
    return RegularOperator(x.rows, x.cols, entries)


def _zero(x):
    return Fraction(0) if x.is_exact else 0.0


def _is_zero(a):
    return a == 0 if isinstance(a, Fraction) else abs(a) <= DEFAULT_TOLERANCE


def restrict(v: LatticeVector, indices) -> LatticeVector:
    """v with every entry outside ``indices`` set to zero."""
    keep, zero = set(indices), _zero(v)
    return LatticeVector([a if i in keep else zero for i, a in enumerate(v.entries)])


def atoms(x) -> tuple:
    """One piece per nonzero entry, holding that entry alone; (x,) if none."""
    entries = x.entries
    pieces = []
    for index, a in enumerate(entries):
        if not _is_zero(a):
            row = [_zero(x)] * len(entries)
            row[index] = a
            pieces.append(_like(x, row))
    return tuple(pieces) or (x,)


def signed_weights(rng: Random, entries: int, parts: int, signed: bool) -> list:
    """The draws of a convex split, entry by entry: ``parts - 1`` cuts
    ``rng.randint(0, 16)``, whose sorted gaps are the weights c, then (when
    ``signed``) one ``rng.random()`` per weight; per entry, (c, negated)
    pairs."""
    randint, random = rng.randint, rng.random
    rows = []
    for _ in range(entries):
        cuts = sorted([randint(0, SPLIT_DENOMINATOR) for _ in range(parts - 1)])
        cuts = [0, *cuts, SPLIT_DENOMINATOR]
        rows.append([(b - a, signed and not random() < 0.5) for a, b in zip(cuts, cuts[1:])])
    return rows


def convex_split(x, parts: int, rng: Random, signed: bool = False) -> tuple:
    """Each entry over ``parts`` pieces with weights c/16 (``signed_weights``);
    exactly zero pieces dropped, (x,) if none is left."""
    unit = 1 if x.is_exact else 1 / SPLIT_DENOMINATOR
    entries = x.entries
    grids = []
    for a, weights in zip(entries, signed_weights(rng, len(entries), parts, signed)):
        shares = []
        for c, negated in weights:
            share = a * Fraction(c, SPLIT_DENOMINATOR) if x.is_exact else a * (c * unit)
            shares.append(-share if negated else share)
        grids.append(shares)
    pieces = [_like(x, list(column)) for column in zip(*grids)]
    return tuple(p for p in pieces if any(p.entries)) or (x,)


def trivial_partition(w) -> tuple:
    return (w,)


def halves_partition(w: LatticeVector) -> tuple:
    support = w.support()
    if len(support) < 2:
        return (w,)
    cut = len(support) // 2
    return (restrict(w, support[:cut]), restrict(w, support[cut:]))


def atomic_partition(w) -> tuple:
    return atoms(w)


def dyadic_partition(w: LatticeVector) -> tuple:
    half = Fraction(1, 2) if w.is_exact else 0.5
    return tuple(atom.scale(half) for atom in atoms(w) for _ in range(2))


def random_convex_partition(w, parts: int, rng: Random, signed: bool = False) -> tuple:
    return convex_split(w, parts, rng, signed)


def refinement_chain(w: LatticeVector) -> list:
    return [
        trivial_partition(w),
        halves_partition(w),
        atomic_partition(w),
        dyadic_partition(w),
    ]


def default_partitions(w: LatticeVector) -> list:
    rng = Random(0)
    return refinement_chain(w) + [random_convex_partition(w, 3, rng) for _ in range(5)]


def _set_partitions(items):
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for sub in _set_partitions(tail):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]
        yield sub + [[head]]


def disjoint_partitions(e: LatticeVector) -> list:
    support = e.support()
    if not support:
        return [(e,)]
    return [
        tuple(restrict(e, block) for block in sorted(blocks, key=min))
        for blocks in _set_partitions(tuple(support))
    ]


def is_partition(target, pieces, signed=False) -> bool:
    """The check one piece at a time: pieces >= 0 that sum to the target,
    or (signed) a positive target that the moduli of the pieces sum to."""
    if signed:
        if not target.is_positive():
            return False
        pieces = [abs(p) for p in pieces]
    elif not all(p.is_positive() for p in pieces):
        return False
    return sum(pieces[1:], pieces[0]).eq(target)


def is_disjoint(pieces) -> bool:
    """Pairwise: every two pieces meet in zero."""
    return all(
        not x.meet(y).support()
        for i, x in enumerate(pieces)
        for y in pieces[i + 1 :]
    )


# ---------------------------------------------------------------------------
# oracles: one apply per piece
# ---------------------------------------------------------------------------


def partition_modulus_sum(A: RegularOperator, pieces) -> LatticeVector:
    """sum_i |A w_i| for one positive partition of w."""
    total = zeros(A.mode, A.rows)
    for piece in pieces:
        total = total + abs(A.apply(piece))
    return total


def partition_meet_sum(S: RegularOperator, T: RegularOperator, pieces) -> LatticeVector:
    """sum_i min(S w_i, T w_i) for one positive partition of w."""
    total = zeros(S.mode, S.rows)
    for piece in pieces:
        total = total + S.apply(piece).meet(T.apply(piece))
    return total


def best_over_partitions(families, evaluate, improve, closed):
    """(value, partitions tried, attained): ``improve`` (join or meet)
    folded over the values of the families."""
    best = None
    for pieces in families:
        value = evaluate(pieces)
        best = value if best is None else improve(best, value)
    return best, len(families), best.eq(closed)


def modulus_oracle(A, w, families):
    return best_over_partitions(
        families,
        lambda pieces: partition_modulus_sum(A, pieces),
        LatticeVector.join,
        A.modulus_closed_form().apply(w),
    )


def meet_oracle(S, T, w, families):
    return best_over_partitions(
        families,
        lambda pieces: partition_meet_sum(S, T, pieces),
        LatticeVector.meet,
        S.meet_closed_form(T).apply(w),
    )


def refinement_sums(A, w) -> list:
    return [partition_modulus_sum(A, pieces) for pieces in refinement_chain(w)]


def operator_partition_sup(A0, B, w, families) -> LatticeVector:
    """max over the families of (sum_j |A0 T_j B|) w, each sum one operator
    at a time."""
    best = None
    for pieces in families:
        total = zeros(A0.mode, A0.rows, B.cols)
        for piece in pieces:
            total = total + abs(A0 @ piece @ B)
        value = total.apply(w)
        best = value if best is None else best.join(value)
    return best


def double_partition_inf(f, partitions, splits) -> LatticeVector:
    """min over the splits (T_i) and the e-partitions (x_j) of
    sum_i sum_j (T_i x_j ^ f(x_j) T_i e)."""
    e = LatticeVector.ones(f.dim)
    best = None
    for pieces in splits:
        for blocks in partitions:
            total = zeros("exact", f.dim)
            for T_i in pieces:
                Te = T_i.apply(e)
                for x_j in blocks:
                    total = total + T_i.apply(x_j).meet(Te.scale(f(x_j)))
            best = total if best is None else best.meet(total)
    return best


def g_double_prime_term(pieces_cols, pieces_Te, blocks, f) -> LatticeVector:
    """sum_i sum_j (T_i x_j ^ f(x_j) T_i e) for one split (the columns and
    the row sums T_i e of its pieces) and the blocks x_j of one partition
    of e."""
    n = f.dim
    total = zeros("exact", n)
    for cols, Te in zip(pieces_cols, pieces_Te):
        for x_j in blocks:
            image = zeros("exact", n)
            for c in x_j.support():
                image = image + cols[c].scale(x_j.entry(c))
            cap = Te.scale(f(x_j))
            total = total + image.meet(cap)
    return total
