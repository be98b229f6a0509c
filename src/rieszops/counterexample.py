"""Finite transcription of the meet-of-superoperators derivation chain.

The infinite-dimensional story needs a *singular* Riesz homomorphism f on
l_infinity (an ultrafilter-limit functional) to make I ^ (f (x) e) = 0 while
M_{I,I} ^ M_{I,f(x)e} stays nonzero.  No singular functional exists on a
finite-dimensional space, so this module substitutes the only finite
normalization available — the coordinate functional f(x) = x_k, which is an
*order continuous* Riesz homomorphism with f(e) = 1 — and mechanically
verifies every step of the derivation that does not depend on singularity:

* B = f (x) e is the positive rank-one matrix whose column k is all ones;
* every disjoint partition of e feeds exactly one piece with f = 1 to the
  infimum (``single_support_check``, once over the lab's whole stack of
  partitions of e);
* the double-partition infimum over  sum_i sum_j (T_i x_j ^ f(x_j) T_i e)
  (``_double_partition_inf``) collapses to the component formula
  inf { T x : x a component of e, f(x) = 1 }  (``meet_via_components``),
  which in turn equals the superoperator meet  (M_{I,I} ^ M_{I,B})(T)
  evaluated at e — so  (M_{I,I} ^ M_{I,B})(B)(e) = e,  a nonzero meet;
* the two steps that *do* depend on singularity invert here, and the
  report tabulates the contrast: finitely I ^ B = E_kk (not 0), and the
  identity  M_{I,I} ^ M_{I,B} = M_{I,I^B}  is restored exactly (order
  continuity of f), whereas with a singular f the left side is nonzero
  while the right side vanishes.

All arithmetic is exact; nothing here pretends to simulate a singular
functional.  The component infimum and the double-partition infimum are
exact-only integer kernels on the stored numerators; the tests check them
against Fraction loops.  The lab runs on stacks and builds no
``Superoperator`` or ``Partition``: one ``superop._kron`` forms rep(M_{I,I}),
rep(M_{I,B}) and rep(M_{I,I^B}), the meet Lambda is ``lattice._lesser`` of
the first two, and Lambda acts on every test operator's column-major vec(T)
in one batched product, compared by ``lattice._gap`` on arrays.  The
partitions of e are one stack (``lattice._partition_stack``'s form): the 0/1
blocks of the first ``partition_budget`` set partitions and the atomic
partition, built as one array and checked once; each g-check's splits of T
(``_positive_splits``) are another, checked once by ``lattice._check_stack``.
The double-partition kernel runs on machine words when ``lattice._on_words``
proves its sums fit, on Python ints otherwise.  ``counterexample_report``
refuses a request whose work bound exceeds ``LAB_WORK_CAP`` before it does
any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from random import Random
from typing import Optional

import numpy as np

from .corpus import random_matrix
from .lattice import (
    ENUMERATION_CAP,
    EnumerationLimitError,
    LatticeVector,
    _all,
    _check_stack,
    _chunk_size,
    _disjoint,
    _gap,
    _join,
    _lesser,
    _matmul,
    _on_words,
    _one,
    _product_den,
    _segment_sums,
    _set_partitions,
    _stack,
    _trivial,
)
from .operators import RegularOperator, rank_one
from .reports import VerificationReport, make_report
from .scalars import ScalarModeError
from .superop import _kron, deviation

#: Most integer operations (``_lab_work``) one lab report may need, and the
#: least that one test operator or split piece counts for.
LAB_WORK_CAP = 1 << 26
_OBJECT_WORK = 1 << 12


@dataclass(frozen=True)
class CoordinateFunctional:
    """f(x) = x_k on R^n: the finite stand-in for the l_infinity functional.

    It is a Riesz homomorphism (f(x v y) = f(x) v f(y)) with f(e) = 1 —
    exactly the normalization the derivation needs — but it is order
    continuous, which no admissible functional on l_infinity supplying the
    divergence can be.  ``index`` is 0-based.
    """

    dim: int
    index: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not 0 <= self.index < self.dim:
            raise IndexError(
                f"coordinate index {self.index} out of range for dim {self.dim}"
            )

    def __call__(self, x: LatticeVector):
        if x.dim != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {x.dim}")
        return x.entry(self.index)

    def as_vector(self) -> LatticeVector:
        """The representing vector e_k (so f(x) = <e_k, x>)."""
        return LatticeVector.unit(self.dim, self.index)


def build_B(f: CoordinateFunctional) -> RegularOperator:
    """The rank-one operator f (x) e:  B w = w_k * e  (column k all ones)."""
    return rank_one(f.as_vector(), LatticeVector.ones(f.dim))


def identity_meet_B(f: CoordinateFunctional) -> RegularOperator:
    """I ^ B = E_kk: a matrix unit, *not* zero — the first finite divergence."""
    eye = RegularOperator.identity(f.dim)
    return eye.meet_closed_form(build_B(f))


def meet_via_components(
    T: RegularOperator, f: CoordinateFunctional
) -> LatticeVector:
    """inf { T x : 0 <= x <= e, x ^ (e - x) = 0, f(x) = 1 }, componentwise.

    For positive T the infimum is attained simultaneously in every
    coordinate at the minimal admissible component x = e_k, i.e. it equals
    column k of T; the kernel checks that rather than assuming it.  Exact
    only: on the numerators of T, each T x is a column sum over one of the
    2^(n-1) admissible components (subsets containing k).  A table, built
    by doubling, holds the sums over the low coordinates, as many as fit
    one kernel chunk (``lattice._chunk_size``); each chunk adds its high
    columns.
    """
    if T.shape != (f.dim, f.dim):
        raise ValueError(f"expected a {f.dim}x{f.dim} operator, got {T.shape}")
    if not T.is_exact:
        raise ScalarModeError("the component infimum needs an exact operator")
    if not T.is_positive():
        raise ValueError("the component formula applies to positive operators")
    n, k = f.dim, f.index
    P = T._values
    others = [j for j in range(n) if j != k]
    low = min(len(others), _chunk_size(n).bit_length() - 1)
    table = P[:, [k]]
    for j in others[:low]:
        table = np.concatenate([table, table + P[:, [j]]], axis=1)
    high = others[low:]
    best = None
    for code in range(1 << len(high)):
        base = P[:, [j for bit, j in enumerate(high) if code >> bit & 1]].sum(axis=1)
        chunk_min = (table + base[:, None]).min(axis=1)
        best = chunk_min if best is None else np.minimum(best, chunk_min)
    return LatticeVector._of(best, T._den)


def _check_partitions_of_e(f: CoordinateFunctional, stack: tuple):
    """Each partition of an exact stack (values, bounds, D) is one of e into
    pairwise disjoint pieces: pieces >= 0, each partition summing to e
    (D on the numerators), then disjointness."""
    values, bounds, D = stack
    if values.shape[1:] != (f.dim,):
        raise ValueError(f"expected pieces of dimension {f.dim}")
    if not _all(values >= 0):
        raise ValueError("partition pieces must be positive")
    if not _all(np.add.reduceat(values, bounds[:-1], axis=0) == D):
        raise ValueError("expected partitions of the order unit e = ones")
    if not _all(_disjoint(stack)):
        raise ValueError("expected disjoint partitions")


def single_support_check(f: CoordinateFunctional, stack: tuple) -> list:
    """Per partition of a stack (values, bounds, D) of disjoint partitions
    of e (``lattice._partition_stack``'s form), the index j0 of its unique
    piece with f = 1.

    A Riesz homomorphism with f(e) = 1 sends exactly one piece of any
    disjoint partition of e to 1 and the rest to 0.  Every check runs once
    over the whole stack: a stack that is not one of disjoint partitions of
    e raises ``ValueError``; a violated dichotomy is an internal-consistency
    failure, not a data error (``RuntimeError``), and names the pieces of
    the first partition that violates it.
    """
    _check_partitions_of_e(f, stack)
    values, bounds, D = stack
    column = values[:, f.index]  # f of the pieces, over their denominator
    hits = np.flatnonzero(column != 0)
    owners = np.searchsorted(bounds, hits, "right") - 1
    ones = np.bincount(owners, minlength=len(bounds) - 1) == 1
    broken = np.flatnonzero(~ones | (np.add.reduceat(column, bounds[:-1]) != D))
    if broken.size:
        start, stop = bounds[broken[0]], bounds[broken[0] + 1]
        raise RuntimeError(
            f"Riesz-homomorphism dichotomy violated on disjoint partition {broken[0]} "
            f"of e: pieces with f != 0 at positions "
            f"{np.flatnonzero(column[start:stop] != 0).tolist()}"
        )
    return (hits - bounds[:-1]).tolist()


# ---------------------------------------------------------------------------
# the double-partition infimum
# ---------------------------------------------------------------------------


def _e_partitions(f: CoordinateFunctional, partition_budget: int) -> tuple:
    """The first ``partition_budget`` disjoint partitions of e, in
    ``lattice._set_partitions`` order with blocks ordered by their smallest
    index, then the atomic partition unless it is among them: one stack
    (values, bounds, 1), the 0/1 indicator rows of the blocks."""
    n = f.dim
    partitions = [
        sorted(partition, key=min)
        for partition in islice(_set_partitions(tuple(range(n))), partition_budget)
    ]
    if max(map(len, partitions)) < n:
        partitions.append([[i] for i in range(n)])
    blocks = [block for partition in partitions for block in partition]
    values = np.zeros((len(blocks), n), dtype=object)
    rows = [row for row, block in enumerate(blocks) for _ in block]
    values[rows, [i for block in blocks for i in block]] = 1
    return values, [0, *accumulate(map(len, partitions))], 1


def _positive_splits(T: RegularOperator, split_samples: int, seed: int) -> tuple:
    """Positive decompositions sum_i T_i = T as one stack (values, bounds,
    D), checked once: the singleton, the atomic (for more than one sample),
    then random convex splits into 2 to 4 pieces drawn from one
    ``Random(seed)``, up to ``split_samples`` splits."""
    splits = [_one(*_trivial(T))]
    if split_samples > 1:
        splits.append(_one(*T._atoms()))
    rng = Random(seed)
    while len(splits) < split_samples:
        splits.append(T._convex_split(rng.randint(2, 4), rng))
    return _check_stack(T, _join(splits))


def _double_partition_inf(
    f: CoordinateFunctional, stack: tuple, splits: tuple
) -> LatticeVector:
    """Minimum of the double-partition sums at e, over a stack (values,
    bounds, D) of disjoint partitions (x_j) of e, checked by
    ``single_support_check``, and a stack of positive splits sum_i T_i = T
    of an exact n x n T (``_positive_splits``'s, checked there).

    With the singleton split and the atomic partition among them, the
    minimum equals ``meet_via_components(T, f)`` exactly.  An integer kernel
    on the numerators P_i of the split pieces and X_j of the partition
    blocks: each term  T_i x_j ^ f(x_j) T_i e  is  min(P_i X_j,
    rowsum(P_i) X_j[k])  over their denominators.  A partition has at most
    n blocks, so each sum is bounded by n * pieces * n products P X: on
    int64 when ``_on_words`` proves that bound fits.
    """
    n, k = f.dim, f.index
    # P[i] = D_T T_i as an n x n integer matrix, the pieces of every split in
    # order; P e = its row sums.
    P, split_bounds, D_T = splits
    values, bounds, D_X = stack
    P, values = _on_words((P, values), (n * len(P) * n, P, values))
    Pe = P.sum(axis=2)[:, :, None]

    def per_split(X):
        """For blocks X[j] = D_X x_j: sum_i (T_i x_j ^ f(x_j) T_i e) per
        split, as a (blocks, splits, n) array."""
        terms = np.minimum(P @ X.T, Pe * X[:, k])  # (pieces, n, blocks)
        return np.add.reduceat(terms, split_bounds[:-1], axis=0).transpose(2, 0, 1)

    sums = _segment_sums((values, bounds, D_X), per_split, len(P) * n)
    best = np.minimum.reduce(sums, axis=(0, 1)).astype(object)  # Python ints
    return LatticeVector._of(best, _product_den(D_T, D_X))


# ---------------------------------------------------------------------------
# the assembled transcription
# ---------------------------------------------------------------------------


def contrast_table(f: CoordinateFunctional) -> list:
    """Finite-model values next to the l_infinity values they diverge from.

    The l_infinity column reports what happens when f is a *singular* Riesz
    homomorphism (an ultrafilter-limit functional); those rows are
    documentation, not computations — no finite model can exhibit them.
    """
    k = f.index + 1  # 1-based in prose
    return [
        {
            "quantity": "I ^ B",
            "finite_value": f"matrix unit E_{{{k},{k}}} (nonzero, trace 1)",
            "linf_value": "0",
            "citation": (
                "entrywise meet keeps the (k,k) entry when f is the "
                "coordinate functional; for singular f no positive "
                "operator sits below both I and f (x) e"
            ),
        },
        {
            "quantity": "(M_{I,I} ^ M_{I,B})(B) at e",
            "finite_value": "e (the all-ones vector)",
            "linf_value": "e",
            "citation": (
                "both worlds: every admissible component x has B x = "
                "f(x) e = e, so the partition infima collapse to e and "
                "the superoperator meet is nonzero"
            ),
        },
        {
            "quantity": "M_{I,I} ^ M_{I,B} vs M_{I,I^B}",
            "finite_value": "equal (both map T to T E_{kk})",
            "linf_value": (
                "unequal: the left side is nonzero while I ^ B = 0 forces "
                "M_{I,I^B} = 0"
            ),
            "citation": (
                "order continuity of the coordinate functional restores "
                "the factorized meet; singularity of f breaks it"
            ),
        },
    ]


def _lab_work(
    n: int, test_ops: int, g_checks: int, split_samples: int, partition_budget: int
) -> int:
    """Upper bound on the lab's integer operations: per test operator its
    2^(n-1) component sums of n^2 and the rep mat-vec, the rep's n^4
    entries, per g-check pieces x n^2 x blocks (at most n blocks per
    e-partition), and per e-partition its blocks of n entries (at most
    n x n), which are rows of one stacked array; each Python object (a test
    operator or a split piece) counts at least ``_OBJECT_WORK``.  An
    operation on machine words counts as one on Python ints, so what the
    cap refuses does not depend on which the kernel runs on."""
    pieces = 1 + (n * n if split_samples > 1 else 0) + 4 * max(0, split_samples - 2)
    bell = [1]  # a row of the Bell triangle; e has bell[-1] disjoint partitions
    for _ in range(n - 1):
        bell = list(accumulate(bell, initial=bell[-1]))
    partitions = min(partition_budget, bell[-1]) + 1
    objects = test_ops + g_checks * pieces
    kernel = g_checks * pieces * n**3 * partitions
    per_test_op = (1 << (n - 1)) * n * n + n**4
    return (
        test_ops * per_test_op + n**4 + kernel + partitions * n * n
        + objects * _OBJECT_WORK
    )


def counterexample_report(
    n: int,
    k: int,
    seed: int = 0,
    t_samples: int = 5,
    partition_budget: int = 40,
    operator_split_samples: int = 12,
    g_samples: Optional[int] = None,
) -> VerificationReport:
    """Run the whole finite derivation chain for f(x) = x_k on R^n.

    ``k`` is 1-based (1 <= k <= n).  All checks are exact; the report's
    details carry the contrast table against the l_infinity world.
    ``g_samples`` bounds how many random operators get the (expensive)
    double-partition infimum treatment besides B (0 checks B only); the
    default scales with ``t_samples``, and a negative count raises
    ``ValueError``.
    """
    if n < 2:
        raise ValueError("the construction needs n >= 2")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got {k}")
    if n > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"dimension {n} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    if t_samples < 0 or operator_split_samples < 0:
        raise ValueError(
            "t_samples and operator_split_samples must be nonnegative, got "
            f"{t_samples} and {operator_split_samples}"
        )
    if partition_budget < 1:
        raise ValueError(f"partition_budget must be at least 1, got {partition_budget}")
    if g_samples is None:
        g_samples = max(1, t_samples // 2)
    if g_samples < 0:
        raise ValueError(f"g_samples must be nonnegative, got {g_samples}")
    g_indices = [0, *range(2 + t_samples)[2 : 2 + g_samples]]  # B, then T_1, ...
    work = _lab_work(
        n, 2 + t_samples, len(g_indices), operator_split_samples, partition_budget
    )
    if work > LAB_WORK_CAP:
        raise EnumerationLimitError(
            f"the lab needs up to {work} integer operations, over the lab "
            f"work cap {LAB_WORK_CAP}"
        )
    f = CoordinateFunctional(n, k - 1)
    e = LatticeVector.ones(n)
    B = build_B(f)
    IB = identity_meet_B(f)
    eye = RegularOperator.identity(n)
    # rep(M_{I,I}), rep(M_{I,B}) and rep(M_{I,I^B}) in one stacked product;
    # the meet Lambda = M_{I,I} ^ M_{I,B} is entrywise on the first two.
    reps, den = _kron([eye, B.transpose(), IB.transpose()], [eye])
    M_II, M_IB, restored = reps[0]
    Lambda = _lesser(M_II, M_IB)

    # Lambda applied to every test operator in one batched product of their
    # column-major vec(T), each image summed along its rows to its value at
    # e; and one component infimum per test operator.
    rng = Random(seed)
    test_ops = [B, eye] + [
        random_matrix(rng, n, n, "rational", "positive") for _ in range(t_samples)
    ]
    vecs, den_T = _stack(test_ops)
    images = _matmul(vecs.transpose(0, 2, 1).reshape(len(test_ops), n * n), Lambda.T)
    images = images.reshape(-1, n, n).sum(axis=1)
    image_den = _product_den(den, den_T)
    component_infs = [meet_via_components(T, f) for T in test_ops]

    def gap_to(image, x):
        return _gap((image, image_den), (x._values, x._den))

    deviations = []
    # The meet evaluated at B and then at e comes out to e itself.
    deviations.append(gap_to(images[0], e))
    # Finite restoration of the factorized meet.
    deviations.append(_gap((Lambda, den), (restored, den)))
    # At the identity the meet picks out column k.
    deviations.append(gap_to(images[1], f.as_vector()))
    # The component formula agrees with the superoperator meet on random
    # positive operators, and the double-partition infimum agrees with both.
    for component_inf, image in zip(component_infs, images):
        deviations.append(gap_to(image, component_inf))
    # The homomorphism dichotomy on every enumerated disjoint partition, one
    # check of the whole stack, before the kernel relies on its blocks.
    partitions = _e_partitions(f, partition_budget)
    single_support_check(f, partitions)
    g_splits = [
        _positive_splits(test_ops[i], operator_split_samples, seed) for i in g_indices
    ]
    for i, splits in zip(g_indices, g_splits):
        g_inf = _double_partition_inf(f, partitions, splits)
        deviations.append(deviation(g_inf, component_infs[i]))

    return make_report(
        claim_id="counterexample",
        inputs={"n": n, "k": k, "t_samples": t_samples},
        deviations=deviations,
        witnesses={"B": B, "meet_rep": RegularOperator._of(Lambda, den)},
        seed=seed,
        details={
            "identity_meet_B": IB,
            "lambda_B_at_e": LatticeVector._of(images[0], image_den),
            "lambda_at_identity": LatticeVector._of(images[1], image_den),
            "contrast_table": contrast_table(f),
            "partition_budget": partition_budget,
            "operator_split_samples": operator_split_samples,
            "g_checks": len(g_indices),
            "splits_sampled": len(g_indices) * (len(g_splits[0][1]) - 1),
            "partitions_per_split": len(partitions[1]) - 1,
        },
    )
