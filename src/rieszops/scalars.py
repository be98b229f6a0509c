"""Scalar arithmetic shared by the coordinate-lattice types.

Two scalar modes coexist and never mix inside one computation:

* ``exact``  -- ``fractions.Fraction``; every lattice and ring operation is
  closed and exact, so identity checks have a sharp pass/fail line.
* ``float``  -- binary floats; comparisons allow the absolute
  ``DEFAULT_TOLERANCE``, a rule written once in ``lattice`` (a verifier's
  verdict uses its own ``tol``, which ``--tolerance`` sets).  Float input
  files and corpora run every identity verifier in this mode, and norms
  with p-th roots are float whatever their inputs.

Construction coerces: ints and ``"p/q"`` strings become Fractions, any float
entry drags the whole container to float mode; how a container stores them
is decided in ``lattice``.  Binary operations between an exact and a float
container raise ``ScalarModeError``.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

DEFAULT_TOLERANCE = 1e-9

EXACT = "exact"
FLOAT = "float"


class ScalarModeError(TypeError):
    """Operands live in different scalar modes (exact vs float)."""


def parse_scalar(value):
    """Parse a JSON-ish scalar: 'p/q' string, int, or float.

    A zero denominator ("1/0") raises ``ValueError``, like any other
    malformed scalar string.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {value!r}") from None
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def coerce_entries(values):
    """Normalize a sequence of scalars to a (tuple, mode) pair.

    All-exact input yields Fractions; the presence of any float converts
    everything to float.  Input that is already all ``Fraction`` or all
    ``float`` (exact types, no subclasses) is returned without re-parsing.
    """
    values = tuple(values)
    types = set(map(type, values))
    if types == {Fraction}:
        return values, EXACT
    if types == {float}:
        return values, FLOAT
    parsed = [parse_scalar(v) for v in values]
    if any(isinstance(v, float) for v in parsed):
        return tuple(float(v) for v in parsed), FLOAT
    return tuple(parsed), EXACT


def scalar_to_json(x):
    """Serialize: Fractions as 'p/q' strings (exact), floats as numbers."""
    if isinstance(x, Fraction):
        return str(x)
    return float(x)


def zero_of(mode: str):
    return Fraction(0) if mode == EXACT else 0.0


def one_of(mode: str):
    return Fraction(1) if mode == EXACT else 1.0
