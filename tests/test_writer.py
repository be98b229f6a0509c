"""The JSON writer of the entrywise containers and the list path of
``canonical_json``, against the per-entry path they replace.

``to_json`` writes exact entries as "p"/"p/q" strings straight from the
stored numerators and denominator, and float entries from the array;
``canonical_json`` writes a list of strings in one ``json.dumps``.  The
reference is the old path: one ``Fraction`` (or float) per entry through
``scalar_to_json``, then ``_canon_scalar`` on each item.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rieszops import LatticeVector, RegularOperator, kron, vec
from rieszops import lattice
from rieszops.reports import ReportError, _canon_scalar, canonical_json
from rieszops.scalars import scalar_to_json

BIG = 10**40


def _ref_entries(x):
    return [scalar_to_json(a) for a in x.entries]


def _ref_canonical_list(items):
    return "[" + ",".join(_canon_scalar(a) for a in items) + "]"


def _bits(items):
    return [a.hex() if isinstance(a, float) else (type(a), a) for a in items]


def _containers(entries):
    """The entries as a vector and as a one-row and a one-column operator."""
    n = len(entries)
    return [
        LatticeVector(entries),
        RegularOperator(1, n, entries),
        RegularOperator(n, 1, entries),
    ]


EXACT_CASES = {
    "zero": [0, 0, 0],
    "integers": [1, 7, 42, 3],
    "negative": [-1, "-3/7", 2, "-5"],
    "non_minimal": ["2/4", "6/8", "-10/4", 0],
    "mixed_denominators": ["1/2", "1/3", "5/6", 1, 0, "-7/12"],
    "big_numerators": [BIG + 1, f"-{BIG}/3", f"1/{BIG + 7}", f"{3 * BIG}/{BIG}"],
    "big_zero_and_one": [0, f"{BIG}/{BIG}", f"-{BIG}"],
}

FLOAT_CASES = {
    "signed_zeros": [-0.0, 0.0, -0.0],
    "subnormal": [5e-324, -5e-324, 2.5e-308],
    "huge": [1e300, -1e300, 1.7976931348623157e308],
    # values whose .17g text differs from repr
    "seventeen_digits": [0.1, 1 / 3, 2 / 3, 0.3, 1e22 / 3, -0.7],
    "integral": [1.0, -2.0, 1e16, 3.0],
}


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_exact_writer_matches_the_fraction_path(name):
    for x in _containers(EXACT_CASES[name]):
        ref = _ref_entries(x)
        new = x.to_json()["entries"]
        assert new == ref
        assert all(type(a) is str for a in new)
        assert canonical_json(x.to_json()["entries"]) == _ref_canonical_list(ref)


@pytest.mark.parametrize("name", sorted(FLOAT_CASES))
def test_float_writer_matches_the_float_path_bit_for_bit(name):
    for x in _containers(FLOAT_CASES[name]):
        ref = _ref_entries(x)
        new = x.to_json()["entries"]
        assert _bits(new) == _bits(ref)
        assert canonical_json(new) == _ref_canonical_list(ref)


def test_writer_on_kernel_results_over_large_denominators():
    A = RegularOperator.from_rows([["1/3", "-2/7"], ["5/11", 0]])
    B = RegularOperator.from_rows([["13/2", "1/13"], [f"1/{BIG}", "-4"]])
    column = vec(A - A.scale(3))
    for x in (kron(A, B), A.compose(A).scale(Fraction(7, 6)), column):
        assert x.to_json()["entries"] == _ref_entries(x)


@given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=12))
def test_exact_writer_matches_on_random_fractions(values):
    x = LatticeVector(values)
    assert x.to_json()["entries"] == _ref_entries(x)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
def test_float_writer_matches_on_random_floats(values):
    x = LatticeVector(values)
    assert _bits(x.to_json()["entries"]) == _bits(_ref_entries(x))


def test_exact_writer_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("to_json built a Fraction")

    x = RegularOperator.from_rows([["2/4", "-1/3"], [BIG, 0]])
    expected = _ref_entries(x)
    monkeypatch.setattr(lattice, "Fraction", no_fraction)
    assert x.to_json()["entries"] == expected
    assert vec(x.transpose()).to_json()["entries"] == expected


@pytest.mark.parametrize(
    "items",
    [
        ["1/2", "-3", "0"],
        ("a", "b"),
        ["café", "☃", 'quote"', "back\\slash", "new\nline", "\x00"],
        [""],
    ],
)
def test_canonical_string_list_matches_the_recursion(items):
    assert canonical_json(items) == _ref_canonical_list(items)
    assert canonical_json({"k": items}) == '{"k":' + _ref_canonical_list(items) + "}"


def test_canonical_mixed_and_empty_lists_keep_the_recursion():
    assert canonical_json([]) == "[]"
    assert canonical_json(["1", 2, 0.1, None]) == '["1",2,0.10000000000000001,null]'
    assert canonical_json([["1/2"], "x"]) == '[["1/2"],"x"]'
    with pytest.raises(ReportError):
        canonical_json(["1", float("nan")])
    with pytest.raises(ReportError):
        canonical_json([1.0, float("inf")])
