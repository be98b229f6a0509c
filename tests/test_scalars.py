from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rieszops.scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    coerce_entries,
    eq,
    is_zero,
    le,
    one_of,
    parse_scalar,
    scalar_to_json,
    zero_of,
)


def test_parse_scalar_fraction_string():
    assert parse_scalar("3/7") == Fraction(3, 7)
    assert parse_scalar("-2/5") == Fraction(-2, 5)
    assert parse_scalar("4") == Fraction(4)


def test_parse_scalar_int_and_float():
    assert parse_scalar(3) == Fraction(3)
    assert isinstance(parse_scalar(3), Fraction)
    assert parse_scalar(0.5) == 0.5
    assert isinstance(parse_scalar(0.5), float)


def test_parse_scalar_rejects_bool_and_junk():
    with pytest.raises(TypeError):
        parse_scalar(True)
    with pytest.raises(TypeError):
        parse_scalar(object())
    with pytest.raises(ValueError):
        parse_scalar("not a number")


def test_coerce_all_exact():
    entries, mode = coerce_entries([1, "1/2", Fraction(3)])
    assert mode == EXACT
    assert entries == (Fraction(1), Fraction(1, 2), Fraction(3))


def test_coerce_float_contagion():
    entries, mode = coerce_entries([1, 0.5, "1/3"])
    assert mode == FLOAT
    assert all(isinstance(e, float) for e in entries)
    assert entries[0] == 1.0


def test_coerce_already_typed_input():
    fractions = [Fraction(1, 2), Fraction(-3)]
    assert coerce_entries(fractions) == (tuple(fractions), EXACT)
    assert coerce_entries(iter([0.5, -2.0])) == ((0.5, -2.0), FLOAT)
    assert coerce_entries([]) == ((), EXACT)


def test_coerce_rejects_bool_among_fractions():
    with pytest.raises(TypeError):
        coerce_entries([Fraction(1), True, Fraction(2)])


def test_coerce_mixed_fraction_float_gives_float():
    entries, mode = coerce_entries([Fraction(1, 2), 0.25])
    assert mode == FLOAT
    assert entries == (0.5, 0.25)
    assert all(type(e) is float for e in entries)


def test_coerce_numpy_and_subclass_entries_are_normalized():
    entries, mode = coerce_entries([np.float64(0.5), np.float64(1.5)])
    assert mode == FLOAT
    assert all(type(e) is float for e in entries)

    class Half(Fraction):
        pass

    entries, mode = coerce_entries([Half(1, 2), Fraction(1)])
    assert mode == EXACT
    assert all(type(e) is Fraction for e in entries)


def test_scalar_to_json_roundtrip():
    assert scalar_to_json(Fraction(3, 7)) == "3/7"
    assert parse_scalar(scalar_to_json(Fraction(-5, 2))) == Fraction(-5, 2)
    assert scalar_to_json(0.25) == 0.25


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_exact_comparisons_are_sharp(a, b):
    assert eq(a, b) == (a == b)
    assert le(a, b) == (a <= b)


def test_float_comparisons_have_slack():
    assert eq(1.0, 1.0 + DEFAULT_TOLERANCE / 2)
    assert not eq(1.0, 1.0 + 10 * DEFAULT_TOLERANCE)
    assert le(1.0 + DEFAULT_TOLERANCE / 2, 1.0)
    assert not le(1.0 + 10 * DEFAULT_TOLERANCE, 1.0)


def test_is_zero_modes():
    assert is_zero(Fraction(0))
    assert not is_zero(Fraction(1, 10**9))  # exact mode has no slack
    assert is_zero(1e-12)
    assert not is_zero(1e-3)


def test_mode_constants():
    assert zero_of(EXACT) == Fraction(0) and isinstance(zero_of(EXACT), Fraction)
    assert zero_of(FLOAT) == 0.0 and isinstance(zero_of(FLOAT), float)
    assert one_of(EXACT) == Fraction(1)
    assert one_of(FLOAT) == 1.0
