"""Reference implementations of the norm closed forms: the per-entry Python
routines that the array kernel of ``norms`` replaced.

Every routine walks ``.entries`` one scalar at a time, with ``Fraction``
arithmetic on exact data and Python float arithmetic otherwise, and sums
from 0 left to right (``_lsum``, which is what ``sum`` does for floats up
to Python 3.11).  ``operator_norm`` tries the same closed forms in the same
order, then the same seeded multistart ascent, built from container
operations (``apply``, ``transpose``, ``scale``).  The comparison in
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


def vector_norm(x, n):
    if n.p == 1.0:
        return _lsum(abs(a) for a in x.entries)
    if n.p == INF:
        return max(abs(a) for a in x.entries)
    if n.p == 2.0:
        return math.sqrt(_lsum(float(a) * float(a) for a in x.entries))
    return _lsum(abs(float(a)) ** n.p for a in x.entries) ** (1.0 / n.p)


def dual_norm(f, n):
    if n.p == 1.0:
        return max(abs(a) for a in f.entries)
    if n.p == INF:
        return _lsum(abs(a) for a in f.entries)
    q = n.conjugate_exponent()
    scaled = [abs(float(a)) for a in f.entries]
    if q == 2.0:
        return math.sqrt(_lsum(s * s for s in scaled))
    return _lsum(s ** q for s in scaled) ** (1.0 / q)


def _sign(a):
    return -1 if a < 0 else 1


def _unit(dim: int, j: int, one, sign=1) -> LatticeVector:
    entries = [one * 0] * dim
    entries[j] = sign * one
    return LatticeVector(entries)


def norming_vector(f, n):
    one = Fraction(1) if f.is_exact else 1.0
    f_entries = f.entries
    if n.p == 1.0:
        if not any(f_entries):
            return _unit(f.dim, 0, one)
        best = max(range(f.dim), key=lambda j: abs(f_entries[j]))
        return _unit(f.dim, best, one, _sign(f_entries[best]))
    if n.p == INF:
        return LatticeVector([_sign(a) * one for a in f_entries])
    rho = [float(a) for a in f_entries]
    q = n.conjugate_exponent()
    mags = [abs(r) ** (q - 1.0) for r in rho]
    scale = _lsum(m ** n.p * 1.0 for m in mags)
    if scale == 0.0:
        return _unit(f.dim, 0, 1.0)
    scale = scale ** (1.0 / n.p)
    return LatticeVector([_sign(r) * m / scale for r, m in zip(rho, mags)])


def norming_functional(x, n):
    one = Fraction(1) if x.is_exact else 1.0
    x_entries = x.entries
    if n.p == 1.0:
        return LatticeVector([_sign(a) * one for a in x_entries])
    if n.p == INF:
        best = max(range(x.dim), key=lambda j: abs(x_entries[j]))
        return _unit(x.dim, best, one, _sign(x_entries[best]))
    xi = [float(a) for a in x_entries]
    norm_xi = _lsum(abs(s) ** n.p for s in xi) ** (1.0 / n.p)
    if norm_xi == 0.0:
        return _unit(x.dim, 0, 1.0)
    return LatticeVector([_sign(s) * (abs(s) / norm_xi) ** (n.p - 1.0) for s in xi])


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
        _, svd_s, svd_vt = np.linalg.svd(np.array(A.as_floats()))
        return float(svd_s[0]), LatticeVector(list(svd_vt[0])), True, "svd"

    Af = A.to_float()
    rng = np.random.default_rng(seed)
    starts_list = [LatticeVector([1.0] * A.cols)]
    starts_list += [
        LatticeVector.unit(A.cols, j).to_float() for j in range(min(A.cols, starts))
    ]
    for _ in range(starts):
        starts_list.append(LatticeVector(list(rng.standard_normal(A.cols))))
    best_val, best_x = 0.0, LatticeVector([1.0] * A.cols)
    for x0 in starts_list:
        if positive:
            x0 = abs(x0)
        val, x = _boyd_ascent(Af, n_from, n_to, x0, iters)
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x, False, "search"
