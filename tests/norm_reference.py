"""Reference implementations of the norm closed forms: the per-entry Python
routines that the array kernel of ``norms`` replaced.

Every routine walks ``.entries`` one scalar at a time, with ``Fraction``
arithmetic on exact data and Python float arithmetic otherwise, and sums
from 0 left to right (``_lsum``, which is what ``sum`` does for floats up
to Python 3.11).  Powers are numpy's ``np.power`` on arrays of entries
scaled by a power of two, as the kernel takes them, and every duality map
is the one dual-unit map ``_dual_unit`` at p or at its conjugate.
``operator_norm`` tries the same closed forms in the same order, then the
same seeded multistart ascent, built from container operations
(``apply``, ``transpose``, ``scale``).  The comparison in
``test_norm_kernel.py`` therefore does not rest on the code under test.
"""

import math
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np

from rieszops import LatticeVector

INF = math.inf


def _lsum(items):
    """Sum from the int 0, left to right."""
    return reduce(add, items, 0)


def _norm(entries, p):
    """The l^p norm: exact sums and maxima at p in {1, inf}; otherwise the
    entries' moduli scaled by the power of two 2^-e that brings the largest
    into [1, 2), np.power on them, and 2^e times the p-th root."""
    if p == 1.0:
        return _lsum(abs(a) for a in entries)
    if p == INF:
        return max(abs(a) for a in entries)
    mags = [abs(float(a)) for a in entries]
    e = math.frexp(max(mags))[1] - 1
    scaled = np.array([math.ldexp(m, -e) for m in mags])
    return math.ldexp(float(np.power(_lsum(np.power(scaled, p)), 1.0 / p)), e)


def vector_norm(x, n):
    return _norm(x.entries, n.p)


def dual_norm(f, n):
    return _norm(f.entries, n.conjugate_exponent())


def _sign(a):
    return -1 if a < 0 else 1


def _unit(dim: int, j: int, one, sign=1) -> LatticeVector:
    entries = [one * 0] * dim
    entries[j] = sign * one
    return LatticeVector(entries)


def _dual_unit(f, p):
    """The dual-unit phi with phi . f = ||f||_p: the signs at p = 1, the
    signed unit at the first largest |f_j| at p = inf, otherwise
    sign(f_j) (|f_j| / ||f||_p)^(p - 1) on the scaled moduli; e_0 for a
    zero f."""
    one = Fraction(1) if f.is_exact else 1.0
    entries = f.entries
    if p == 1.0:
        return LatticeVector([_sign(a) * one for a in entries])
    if p == INF:
        best = max(range(f.dim), key=lambda j: abs(entries[j]))
        return _unit(f.dim, best, one, _sign(entries[best]))
    mags = [abs(float(a)) for a in entries]
    e = math.frexp(max(mags))[1] - 1
    scaled = [math.ldexp(m, -e) for m in mags]
    norm = _norm(scaled, p)
    if norm == 0.0:
        return _unit(f.dim, 0, 1.0)
    powers = np.power(np.array(scaled) / norm, p - 1.0)
    return LatticeVector([_sign(a) * float(m) for a, m in zip(entries, powers)])


def norming_vector(f, n):
    """A unit x with f . x = dual_norm(f, n): phi at the conjugate exponent."""
    return _dual_unit(f, n.conjugate_exponent())


def norming_functional(x, n):
    return _dual_unit(x, n.p)


def _boyd_ascent(Af, n_from, n_to, x0, iters):
    nx = float(vector_norm(x0, n_from))
    if nx == 0.0:
        return 0.0, x0
    x = x0.scale(1.0 / nx)
    At = Af.transpose()
    best_val = float(vector_norm(Af.apply(x), n_to))
    best_x = x
    for _ in range(iters):
        y = Af.apply(x)
        if all(a == 0.0 for a in y.entries):
            break
        phi = norming_functional(y, n_to)
        r = At.apply(phi)
        x = norming_vector(r, n_from)
        val = float(vector_norm(Af.apply(x), n_to))
        if val > best_val:
            best_val, best_x = val, x
        else:
            break
    return best_val, best_x


def _rows(A) -> list:
    """The rows of a matrix as vectors."""
    return [LatticeVector(row) for row in A.to_lists()]


def operator_norm(A, n_from, n_to, seed=0, starts=8, iters=40):
    """(value, witness, certified, method), as ``norms.NormResult`` holds
    them."""
    # The closed form for positive matrices is chosen on the exact signs.
    positive = all(a >= 0 for a in A.entries)

    if n_from.p == 1.0:
        values = [vector_norm(column, n_to) for column in _rows(A.transpose())]
        best = max(range(A.cols), key=lambda j: values[j])
        return values[best], LatticeVector.unit(A.cols, best).to_float(), True, "max_column"

    if n_to.p == INF:
        rows = _rows(A)
        values = [dual_norm(row, n_from) for row in rows]
        best = max(range(A.rows), key=lambda i: values[i])
        witness = norming_vector(rows[best], n_from).to_float()
        return values[best], witness, True, "max_row_dual"

    if n_from.p == INF and positive:
        corner = LatticeVector([Fraction(1) if A.is_exact else 1.0] * A.cols)
        value = vector_norm(A.apply(corner), n_to)
        return value, corner.to_float(), True, "positive_corner"

    if n_from.p == 2.0 and n_to.p == 2.0:
        _, svd_s, svd_vt = np.linalg.svd(np.array(A.as_floats()), full_matrices=False)
        return float(svd_s[0]), LatticeVector(list(svd_vt[0])), True, "svd"

    Af = A.to_float()
    rng = np.random.default_rng(seed)
    starts_list = [LatticeVector([1.0] * A.cols)]
    starts_list += [
        LatticeVector.unit(A.cols, j).to_float() for j in range(min(A.cols, starts))
    ]
    for _ in range(starts):
        starts_list.append(LatticeVector(list(rng.standard_normal(A.cols))))
    ones = starts_list[0]
    best_val, best_x = 0.0, ones.scale(1.0 / float(vector_norm(ones, n_from)))
    for x0 in starts_list:
        if positive:
            x0 = abs(x0)
        val, x = _boyd_ascent(Af, n_from, n_to, x0, iters)
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x, False, "search"
