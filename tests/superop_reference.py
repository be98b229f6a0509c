"""Reference verifiers: ``verify_prop21``, ``verify_cor22`` and
``verify_synnatzschke_a`` as chains of containers, one
``Superoperator.build`` per rep and one ``RegularOperator`` per lattice
operation on the reps (the entrywise closed forms, ``-`` and ``+``), each
normalised over its own denominator.

The package's verifiers form the reps they compare in one stacked product
per verifier and compare them as arrays; these chains are what they must
agree with, report byte for byte, in exact and in float mode.  The
operator-partition values of prop21 are a chain of containers too: the
splits of T from the tuple builders of ``partition_reference``, and per
split (sum_j |A0 T_j B|) w, the pieces' images added one at a time in
piece order; no code of the package's partition kernel, splits or word
bound runs here.
"""

from itertools import combinations
from random import Random

import partition_reference as ref
from conftest import zeros
from rieszops.reports import make_report
from rieszops.scalars import DEFAULT_TOLERANCE
from rieszops.superop import Superoperator, deviation, one_sided_excess


def partition_values(A0, B, w, T, seed) -> list:
    """(sum_j |A0 T_j B|) w for prop21's splits of T in order: the atomic,
    the trivial and 5 signed random splits into 3 pieces from one
    ``Random(seed or 0)``."""
    rng = Random(seed or 0)
    splits = [ref.atomic_partition(T), ref.trivial_partition(T)] + [
        ref.random_convex_partition(T, 3, rng, signed=True) for _ in range(5)
    ]
    values = []
    for pieces in splits:
        total = zeros(A0.mode, A0.rows, B.cols)
        for piece in pieces:
            total = total + abs(A0 @ piece @ B)
        values.append(total.apply(w))
    return values


def verify_prop21(A0, B, D, T, w, seed=None, tol=DEFAULT_TOLERANCE):
    if not A0.is_positive():
        raise ValueError("the left factor A0 must be positive")
    if not T.is_positive():
        raise ValueError("the argument T must be positive")
    if not w.is_positive():
        raise ValueError("the vector w must be positive")
    M_B = Superoperator.build(A0, B)
    M_D = Superoperator.build(A0, D)

    modulus_at_T = A0 @ T @ abs(B)
    dev_modulus = deviation(M_B.modulus().apply(T), modulus_at_T)
    M_join = Superoperator(M_B.dims, M_B.rep.join_closed_form(M_D.rep))
    dev_join = deviation(M_join.apply(T), A0 @ T @ B.join_closed_form(D))

    rhs_at_w = modulus_at_T.apply(w)
    atomic_value, *coarse = partition_values(A0, B, w, T, seed)
    dev_atomic = deviation(atomic_value, rhs_at_w)
    best = coarse[0]
    for value in coarse[1:]:
        best = best.join(value)
    dev_coarse = one_sided_excess(best, rhs_at_w)

    return make_report(
        claim_id="prop21",
        inputs={"A0": A0, "B": B, "D": D, "T": T, "w": w},
        deviations=[dev_modulus, dev_join, dev_atomic, dev_coarse],
        witnesses={"modulus_at_T": modulus_at_T, "partition_sup_at_w": atomic_value},
        seed=seed,
        details={
            "modulus_identity_deviation": dev_modulus,
            "join_identity_deviation": dev_join,
            "atomic_attainment_deviation": dev_atomic,
            "coarse_strategy_excess": dev_coarse,
        },
        tol=tol,
    )


def verify_cor22(A, B, seed=None, tol=DEFAULT_TOLERANCE):
    M = Superoperator.build(A, B)
    M_abs = Superoperator.build(A.modulus_closed_form(), B.modulus_closed_form())
    modulus = M.modulus()
    dev_modulus = deviation(modulus.rep, M_abs.rep)

    Ap, An = A.pos_part(), A.neg_part()
    Bp, Bn = B.pos_part(), B.neg_part()
    corners = (
        Superoperator.build(Ap, Bp),
        Superoperator.build(Ap, Bn),
        Superoperator.build(An, Bp),
        Superoperator.build(An, Bn),
    )
    dev_disjoint = max(
        abs(P.rep.meet_closed_form(Q.rep)).max_entry()
        for P, Q in combinations(corners, 2)
    )

    signed = corners[0].rep - corners[1].rep - corners[2].rep + corners[3].rep
    dev_expansion = deviation(signed, M.rep)

    return make_report(
        claim_id="cor22",
        inputs={"A": A, "B": B},
        deviations=[dev_modulus, dev_disjoint, dev_expansion],
        witnesses={"modulus_rep": modulus.rep},
        seed=seed,
        details={
            "modulus_rep_deviation": dev_modulus,
            "corner_disjointness_deviation": dev_disjoint,
            "signed_expansion_deviation": dev_expansion,
        },
        tol=tol,
    )


def verify_synnatzschke_a(A, C, B0, seed=None, tol=DEFAULT_TOLERANCE):
    if not B0.is_positive():
        raise ValueError("the right factor B0 must be positive")
    M_A = Superoperator.build(A, B0)
    M_C = Superoperator.build(C, B0)
    dev_modulus = deviation(
        M_A.modulus().rep, Superoperator.build(A.modulus_closed_form(), B0).rep
    )
    join = M_A.rep.join_closed_form(M_C.rep)
    dev_join = deviation(join, Superoperator.build(A.join_closed_form(C), B0).rep)
    return make_report(
        claim_id="synnatzschke_a",
        inputs={"A": A, "C": C, "B0": B0},
        deviations=[dev_modulus, dev_join],
        witnesses={"join_rep": join},
        seed=seed,
        details={"modulus_rep_deviation": dev_modulus, "join_rep_deviation": dev_join},
        tol=tol,
    )


#: The reference chain of each claim.
REFERENCE = {
    "prop21": verify_prop21,
    "cor22": verify_cor22,
    "synnatzschke_a": verify_synnatzschke_a,
}
