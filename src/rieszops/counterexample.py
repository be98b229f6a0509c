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
  infimum (``single_support_check``);
* the double-partition infimum over  sum_i sum_j (T_i x_j ^ f(x_j) T_i e)
  (``inf_G_double_prime``) collapses to the component formula
  inf { T x : x a component of e, f(x) = 1 }  (``meet_via_components``),
  which in turn equals the superoperator meet  (M_{I,I} ^ M_{I,B})(T)
  evaluated at e — so  (M_{I,I} ^ M_{I,B})(B)(e) = e,  a nonzero meet;
* the two steps that *do* depend on singularity invert here, and the
  report tabulates the contrast: finitely I ^ B = E_kk (not 0), and the
  identity  M_{I,I} ^ M_{I,B} = M_{I,I^B}  is restored exactly (order
  continuity of f), whereas with a singular f the left side is nonzero
  while the right side vanishes.

All arithmetic is exact; nothing here pretends to simulate a singular
functional.  The double-partition infimum is computed by an integer kernel
(every split piece and every partition block scaled to Python ints over a
common denominator, evaluated as numpy object-array expressions), and the
tests check it against ``g_double_prime_term``, the term-by-term Fraction
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .lattice import (
    ENUMERATION_CAP,
    EnumerationLimitError,
    LatticeVector,
    Partition,
    atomic_partition,
    disjoint_partitions,
    enumerate_components,
)
from .operators import (
    OperatorPartition,
    RegularOperator,
    atomic_operator_partition,
    random_operator_partition,
    trivial_operator_partition,
)
from .reports import VerificationReport, make_report
from .scalars import ScalarModeError, scalar_to_json
from .superop import Superoperator, matrix_deviation, vector_deviation


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
        return x.entries[self.index]

    def as_vector(self, mode: str = "exact") -> LatticeVector:
        """The representing vector e_k (so f(x) = <e_k, x>)."""
        return LatticeVector.unit(self.dim, self.index, mode)


def build_B(f: CoordinateFunctional) -> RegularOperator:
    """The rank-one operator f (x) e:  B w = w_k * e  (column k all ones)."""
    one = Fraction(1)
    zero = Fraction(0)
    n = f.dim
    return RegularOperator(
        n, n, [one if j == f.index else zero for _ in range(n) for j in range(n)]
    )


def identity_meet_B(f: CoordinateFunctional) -> RegularOperator:
    """I ^ B = E_kk: a matrix unit, *not* zero — the first finite divergence."""
    eye = RegularOperator.identity(f.dim)
    return eye.meet_closed_form(build_B(f))


def admissible_components(f: CoordinateFunctional) -> Iterator[LatticeVector]:
    """Components x of e = ones with f(x) = 1 (subsets containing k)."""
    e = LatticeVector.ones(f.dim)
    one = Fraction(1)
    for component in enumerate_components(e):
        if component.piece.entries[f.index] == one:
            yield component.piece


def meet_via_components(
    T: RegularOperator, f: CoordinateFunctional
) -> LatticeVector:
    """inf { T x : 0 <= x <= e, x ^ (e - x) = 0, f(x) = 1 }, componentwise.

    For positive T the infimum is attained simultaneously in every
    coordinate at the minimal admissible component x = e_k, i.e. it equals
    column k of T; the enumeration checks that rather than assuming it.
    """
    if T.shape != (f.dim, f.dim):
        raise ValueError(f"expected a {f.dim}x{f.dim} operator, got {T.shape}")
    if not T.is_positive():
        raise ValueError("the component formula applies to positive operators")
    best: Optional[LatticeVector] = None
    for x in admissible_components(f):
        value = T.apply(x)
        best = value if best is None else best.meet(value)
    assert best is not None  # x = e is always admissible
    return best


def single_support_check(f: CoordinateFunctional, partition: Partition) -> int:
    """The unique piece index j0 of a disjoint partition of e with f = 1.

    A Riesz homomorphism with f(e) = 1 sends exactly one piece of any
    disjoint partition of e to 1 and the rest to 0; violations are
    internal-consistency failures, not data errors.
    """
    e = LatticeVector.ones(f.dim)
    if not partition.target.eq(e):
        raise ValueError("expected a partition of the order unit e = ones")
    if not partition.is_disjoint():
        raise ValueError("expected a disjoint partition")
    hits = [
        j
        for j, piece in enumerate(partition.pieces)
        if f(piece) != 0
    ]
    if len(hits) != 1 or f(partition.pieces[hits[0]]) != 1:
        raise RuntimeError(
            "Riesz-homomorphism dichotomy violated on a disjoint partition "
            f"of e: pieces with f != 0 at positions {hits}"
        )
    return hits[0]


# ---------------------------------------------------------------------------
# the double-partition infimum
# ---------------------------------------------------------------------------

#: Entries of the kernel's (pieces, n, blocks) intermediates per chunk of
#: partitions, so its memory stays bounded whatever the partition budget.
_KERNEL_CHUNK_ENTRIES = 1 << 16


def _e_partitions(
    f: CoordinateFunctional, partition_budget: int
) -> List[Partition]:
    """Disjoint partitions of e, capped at the budget, atomic always kept."""
    e = LatticeVector.ones(f.dim)
    collected: List[Partition] = []
    for partition in disjoint_partitions(e, max_parts=f.dim):
        collected.append(partition)
        if len(collected) >= partition_budget:
            break
    if not any(len(p) == f.dim for p in collected):
        collected.append(atomic_partition(e))
    return collected


def _positive_splits(
    T: RegularOperator, split_samples: int, seed: int
) -> List[OperatorPartition]:
    """Positive decompositions sum_i T_i = T: singleton, atomic, random."""
    splits = [trivial_operator_partition(T)]
    if split_samples > 1:
        splits.append(atomic_operator_partition(T))
    rng = Random(seed)
    while len(splits) < split_samples:
        splits.append(
            random_operator_partition(
                T, parts=rng.randint(2, 4), rng=rng, signed=False
            )
        )
    return splits


def g_double_prime_term(
    pieces_cols: Sequence[Sequence[LatticeVector]],
    pieces_Te: Sequence[LatticeVector],
    partition: Partition,
    f: CoordinateFunctional,
) -> LatticeVector:
    """sum_i sum_j (T_i x_j ^ f(x_j) T_i e) for one split and one partition."""
    n = f.dim
    total = LatticeVector.zero(n)
    for cols, Te in zip(pieces_cols, pieces_Te):
        for x_j in partition.pieces:
            image = LatticeVector.zero(n)
            for c in x_j.support():
                image = image + cols[c].scale(x_j.entries[c])
            cap = Te.scale(f(x_j))
            total = total + image.meet(cap)
    return total


def _scaled_integers(values, denominator: int) -> list:
    """The integers v * denominator for Fractions v whose denominators divide it."""
    return [v.numerator * (denominator // v.denominator) for v in values]


def _partition_chunks(partitions: Sequence[Partition], max_blocks: int):
    """Consecutive runs of whole partitions with at most ``max_blocks`` blocks
    each (a single larger partition gets a run of its own)."""
    chunk: List[Partition] = []
    blocks = 0
    for partition in partitions:
        if chunk and blocks + len(partition) > max_blocks:
            yield chunk
            chunk, blocks = [], 0
        chunk.append(partition)
        blocks += len(partition)
    if chunk:
        yield chunk


def inf_G_double_prime(
    T: RegularOperator,
    f: CoordinateFunctional,
    partition_budget: int = 40,
    operator_split_samples: int = 24,
    seed: int = 0,
) -> LatticeVector:
    """Minimum of the double-partition sums, evaluated at e.

    Quantifies over all disjoint partitions (x_j) of e within the budget and
    over sampled positive operator splits sum_i T_i = T (singleton, atomic,
    seeded random convex).  Every member dominates the component-formula
    infimum; the combination (singleton split, atomic partition) attains it,
    so the returned vector equals ``meet_via_components(T, f)`` exactly.

    The sums are evaluated by an integer kernel: every split piece is scaled
    by the common denominator D_T of all pieces and every partition block by
    the common denominator D_X of all blocks, so each term
    T_i x_j ^ f(x_j) T_i e  is  min(P_i X_j, rowsum(P_i) X_j[k]) / (D_T D_X)
    over numpy object arrays of Python ints, which cannot overflow.  The
    result equals the minimum of ``g_double_prime_term`` over the same splits
    and partitions exactly.
    """
    if T.shape != (f.dim, f.dim):
        raise ValueError(f"expected a {f.dim}x{f.dim} operator, got {T.shape}")
    if not T.is_exact:
        raise ScalarModeError("the double-partition infimum needs an exact operator")
    if not T.is_positive():
        raise ValueError("the partition infimum applies to positive operators")
    if f.dim > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"dimension {f.dim} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    partitions = _e_partitions(f, partition_budget)
    splits = _positive_splits(T, operator_split_samples, seed)
    n, k = f.dim, f.index
    pieces = [piece for split in splits for piece in split.pieces]
    D_T = math.lcm(*(v.denominator for piece in pieces for v in piece.entries))
    D_X = math.lcm(
        *(v.denominator for p in partitions for x in p.pieces for v in x.entries)
    )
    # P[i] = D_T T_i as an n x n integer matrix; P e = its row sums.
    P = np.array(
        [_scaled_integers(piece.entries, D_T) for piece in pieces], dtype=object
    ).reshape(len(pieces), n, n)
    Pe = P.sum(axis=2)[:, :, None]
    split_starts = np.cumsum([0] + [len(split) for split in splits[:-1]])
    max_blocks = max(1, _KERNEL_CHUNK_ENTRIES // (len(pieces) * n))
    best = None
    for chunk in _partition_chunks(partitions, max_blocks):
        # X[j] = D_X x_j for every block of every partition in the chunk.
        X = np.array(
            [_scaled_integers(x.entries, D_X) for p in chunk for x in p.pieces],
            dtype=object,
        )
        terms = np.minimum(P @ X.T, Pe * X[:, k])  # (pieces, n, blocks)
        per_split = np.add.reduceat(terms, split_starts, axis=0)
        block_starts = np.cumsum([0] + [len(p) for p in chunk[:-1]])
        sums = np.add.reduceat(per_split, block_starts, axis=2)
        low = np.minimum.reduce(sums, axis=(0, 2))
        best = low if best is None else np.minimum(best, low)
    assert best is not None
    D = D_T * D_X
    return LatticeVector([Fraction(v, D) for v in best])


# ---------------------------------------------------------------------------
# the assembled transcription
# ---------------------------------------------------------------------------


def meet_superoperator(f: CoordinateFunctional):
    """(M_{I,I} ^ M_{I,B}, M_{I,I}, M_{I,B}) for B = f (x) e."""
    eye = RegularOperator.identity(f.dim)
    M_II = Superoperator.build(eye, eye)
    M_IB = Superoperator.build(eye, build_B(f))
    return M_II.meet(M_IB), M_II, M_IB


def _random_positive_matrix(rng: Random, n: int) -> RegularOperator:
    entries = []
    for _ in range(n * n):
        den = rng.randint(1, 8)
        num = rng.randint(0, 5 * den)
        entries.append(Fraction(num, den))
    return RegularOperator(n, n, entries)


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
    double-partition infimum treatment; default scales with ``t_samples``.
    """
    if n < 2:
        raise ValueError("the construction needs n >= 2")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got {k}")
    if n > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"dimension {n} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    f = CoordinateFunctional(n, k - 1)
    e = LatticeVector.ones(n)
    B = build_B(f)
    IB = identity_meet_B(f)
    Lambda, M_II, M_IB = meet_superoperator(f)
    eye = RegularOperator.identity(n)

    deviations = []
    # The meet evaluated at B and then at e comes out to e itself.
    lambda_B_e = Lambda.apply(B).apply(e)
    deviations.append(vector_deviation(lambda_B_e, e))
    # Finite restoration of the factorized meet.
    restored = Superoperator.build(eye, IB)
    deviations.append(matrix_deviation(Lambda.rep, restored.rep))
    # At the identity the meet picks out column k.
    deviations.append(
        vector_deviation(Lambda.apply(eye).apply(e), f.as_vector())
    )
    # The component formula agrees with the superoperator meet on random
    # positive operators, and the double-partition infimum agrees with both.
    rng = Random(seed)
    test_ops = [B, eye] + [_random_positive_matrix(rng, n) for _ in range(t_samples)]
    for T in test_ops:
        component_inf = meet_via_components(T, f)
        deviations.append(vector_deviation(component_inf, Lambda.apply(T).apply(e)))
    if g_samples is None:
        g_samples = max(1, t_samples // 2)
    g_checks = [B] + test_ops[2 : 2 + g_samples]
    splits_per_check = len(
        _positive_splits(B, operator_split_samples, seed)
    )
    partitions_per_split = len(_e_partitions(f, partition_budget))
    for T in g_checks:
        g_inf = inf_G_double_prime(
            T,
            f,
            partition_budget=partition_budget,
            operator_split_samples=operator_split_samples,
            seed=seed,
        )
        deviations.append(vector_deviation(g_inf, meet_via_components(T, f)))
    # The homomorphism dichotomy on every enumerated disjoint partition.
    for partition in _e_partitions(f, partition_budget):
        single_support_check(f, partition)

    inputs = {"n": n, "k": k, "t_samples": t_samples}
    details = {
        "identity_meet_B": IB.to_json(),
        "lambda_B_at_e": lambda_B_e.to_json(),
        "lambda_at_identity": Lambda.apply(eye).apply(e).to_json(),
        "contrast_table": contrast_table(f),
        "partition_budget": partition_budget,
        "operator_split_samples": operator_split_samples,
        "g_checks": len(g_checks),
        "splits_sampled": len(g_checks) * splits_per_check,
        "partitions_per_split": partitions_per_split,
    }
    return make_report(
        claim_id="counterexample",
        inputs=inputs,
        deviations=deviations,
        exact=True,
        witnesses=(
            {"role": "B", **B.to_json()},
            {"role": "meet_rep", **Lambda.rep.to_json()},
        ),
        seed=seed,
        details=details,
    )
