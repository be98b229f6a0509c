"""Seeded case generators that only the tests draw from: mixed-dimension
(A, B) pairs, positive-left-factor bundles and square-matrix bundles, built
on the corpus's ``random_matrix`` and ``random_vector``; and the stream of
the components of a positive element."""

from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence

from rieszops.corpus import random_matrix, random_vector
from rieszops.lattice import ENUMERATION_CAP, EnumerationLimitError, LatticeVector
from rieszops.scalars import zero_of


def mixed_dims_pairs(
    seed: int, count: int, dim_choices: Sequence[int] = (1, 2, 3)
) -> Iterator[tuple]:
    """(dims, A, B) with each of w, x, y, z drawn from ``dim_choices``."""
    rng = Random(seed)
    for _ in range(count):
        w, x, y, z = (rng.choice(dim_choices) for _ in range(4))
        A = random_matrix(rng, z, y)
        B = random_matrix(rng, x, w)
        yield (w, x, y, z), A, B


def mixed_dims_prop21_cases(
    seed: int,
    count: int,
    dim_choices: Sequence[int] = (1, 2, 3),
    vectors_per_case: int = 3,
) -> Iterator[dict]:
    """Positive-left-factor bundles with dims drawn per case."""
    rng = Random(seed)
    for _ in range(count):
        w, x, y, z = (rng.choice(dim_choices) for _ in range(4))
        yield {
            "dims": (w, x, y, z),
            "A0": random_matrix(rng, z, y, sign_mode="positive"),
            "B": random_matrix(rng, x, w),
            "D": random_matrix(rng, x, w),
            "T": random_matrix(rng, y, x, sign_mode="positive"),
            "ws": [
                random_vector(rng, w, sign_mode="positive")
                for _ in range(vectors_per_case)
            ],
        }


def square_matrix_cases(
    seed: int,
    size: int,
    count: int,
    vectors_per_matrix: int = 20,
    sign_mode: str = "mixed",
) -> Iterator[dict]:
    """(B, [w...]) bundles of one square matrix and positive test vectors."""
    rng = Random(seed)
    for _ in range(count):
        yield {
            "B": random_matrix(rng, size, size, sign_mode=sign_mode),
            "ws": [
                random_vector(rng, size, sign_mode="positive")
                for _ in range(vectors_per_matrix)
            ],
        }


@dataclass(frozen=True)
class Component:
    """A piece x of a positive base e with x ^ (e - x) = 0.

    In the coordinate model these are exactly the restrictions of e to
    subsets of its support.
    """

    base: LatticeVector
    piece: LatticeVector


def restrict(v: LatticeVector, indices) -> LatticeVector:
    """v with every entry outside ``indices`` set to zero."""
    keep, zero = set(indices), zero_of(v.mode)
    return LatticeVector([a if i in keep else zero for i, a in enumerate(v.entries)])


def enumerate_components(
    e: LatticeVector, cap: int = ENUMERATION_CAP
) -> Iterator[Component]:
    """Stream the 2^s components of a positive element e, s = |support(e)|.

    Deterministic order: subsets of the sorted support by binary counter,
    so the zero component comes first and e itself last.
    """
    if not e.is_positive():
        raise ValueError("components are only defined for positive elements")
    support = e.support()
    if len(support) > cap:
        raise EnumerationLimitError(
            f"support size {len(support)} exceeds enumeration cap {cap}"
        )
    for mask in range(1 << len(support)):
        subset = [support[i] for i in range(len(support)) if mask >> i & 1]
        yield Component(base=e, piece=restrict(e, subset))
