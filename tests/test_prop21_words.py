"""Exact ``verify_prop21`` on machine words against the container chain of
``superop_reference``.

Before any product, ``verify_prop21`` makes one word decision: one call of
``lattice._on_words`` on the products of all its integer work, the
partition kernel's (longest partition) * y * x * cols terms a0 p b w with
|p| <= 16 max|T|, which include the x * y terms of rep . vec(T), and the
split check's sums of pieces times D_T.  If both products are below 2^63,
the reps, T, its splits and the kernel run on int64 words, and otherwise on
Python ints.  These tests pin that decision at its bound, on inputs whose
products are known exactly, and compare the canonical report with the
reference's for numerators and denominators near 2^20, 2^31, 2^62 and 2^63,
with all-zero factors among them.  An overflow on words would change a
value, raise, or fail a split check, and the reports would differ.
"""

from fractions import Fraction

import numpy as np
import pytest

from rieszops import LatticeVector, RegularOperator, lattice
from rieszops.corpus import claim_cases, parse_corpus_spec
from rieszops.reports import canonical_json
from rieszops.superop import verify_prop21

from superop_reference import verify_prop21 as reference_prop21

WORDS, OBJECTS = np.dtype(np.int64), np.dtype(object)


def _decisions(monkeypatch) -> list:
    """The dtypes that the calls of ``_on_words`` return, as they happen."""
    dtypes = []
    on_words = lattice._on_words

    def spy(arrays, *products):
        out = on_words(arrays, *products)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(lattice, "_on_words", spy)
    return dtypes


def _report(verifier, args) -> str:
    """The canonical report of a call, or the error it raised."""
    try:
        return canonical_json(verifier(*args, seed=3).to_json())
    except Exception as error:  # the two must fail alike
        return f"{type(error).__name__}: {error}"


def _assert_reference_report(args):
    got = _report(verify_prop21, args)
    assert got == _report(reference_prop21, args)
    assert '"status":"pass"' in got, got


def _uniform(y, x, cols, a0, t, d_T, b, v):
    """A 1 x y A0 of entries a0, an x x cols B of entries +-b and D = -B, a
    y x x T of entries t / d_T and w of entries v: the kernel's product is
    max(y x, 3) y x cols 16 a0 t b v and the check's max(y x, 3) 16 t d_T,
    each max counted as at least 1."""
    B = RegularOperator(x, cols, [b * (-1) ** k for k in range(x * cols)])
    return (
        RegularOperator(1, y, [a0] * y),
        B,
        -B,
        RegularOperator(y, x, [Fraction(t, d_T)] * (y * x)),
        LatticeVector([v] * cols),
    )


# (label, inputs, dtype of the decision).  T is 1 x 4 unless said, so the
# longest partition has 4 pieces: the kernel's product is 2^8 cols a0 t b v
# and the check's 2^6 t d_T.
AT_THE_BOUND = [
    # The kernel's product at 2^63: every factor counts, 16 included.
    ("kernel at 2^63", _uniform(1, 4, 1, 2**14, 2**13, 1, 2**14, 2**14), OBJECTS),
    ("kernel at 2^63 - 2^49", _uniform(1, 4, 1, 2**14, 2**13, 1, 2**14, 2**14 - 1), WORDS),
    ("kernel at 2^63, 2 columns", _uniform(1, 4, 2, 2**14, 2**13, 1, 2**14, 2**13), OBJECTS),
    # T is 1 x 2, yet a random split has 3 pieces: 96 (2^57 - 1) >= 2^63.
    ("kernel over 2^63 by its 3 pieces", _uniform(1, 2, 1, 2**57 - 1, 1, 1, 1, 1), OBJECTS),
    # The check's product at 2^63: D_T counts, and so does T.
    ("check at 2^63", _uniform(1, 4, 1, 1, 1, 2**57, 1, 1), OBJECTS),
    ("check at 2^63 - 2^6", _uniform(1, 4, 1, 1, 1, 2**57 - 1, 1, 1), WORDS),
    ("check at 3 2^62", _uniform(1, 4, 1, 1, 3, 2**56, 1, 1), OBJECTS),
    # An all-zero w counts as 1: the kernel's product stays 2^63.
    ("zero w, kernel at 2^63", _uniform(1, 4, 1, 2**20, 2**17, 1, 2**18, 0), OBJECTS),
    ("zero w, kernel at 2^62", _uniform(1, 4, 1, 2**20, 2**16, 1, 2**18, 0), WORDS),
    # An all-zero A0 counts as 1 and cannot vouch for B's 2^63.
    ("zero A0, B at 2^63", _uniform(1, 4, 1, 0, 1, 1, 2**63, 1), OBJECTS),
]


@pytest.mark.parametrize("label, args, dtype", AT_THE_BOUND, ids=[c[0] for c in AT_THE_BOUND])
def test_one_word_decision_at_the_bound(label, args, dtype, monkeypatch):
    decisions = _decisions(monkeypatch)
    report = verify_prop21(*args, seed=3)
    assert decisions == [dtype], label
    assert report.status == "pass"
    assert _report(verify_prop21, args) == _report(reference_prop21, args)


def test_corpus_inputs_run_on_words_and_the_near_2_32_pair_does_not(monkeypatch):
    decisions = _decisions(monkeypatch)
    for spec in ("seed=1,dims=8x8x8x8,count=2", "seed=7,dims=4x4x4x4,count=3"):
        for case in claim_cases(parse_corpus_spec(spec), "prop21"):
            decisions.clear()
            assert verify_prop21(**case, seed=1).status == "pass"
            assert decisions == [WORDS], spec
    # The CLI's near-2^32 pair, with its defaults D = -B and all-ones T and w:
    # the kernel's product is about 2^75.
    A0 = RegularOperator(2, 2, [4294967296, 4294967295, 4294967291, 4294967279])
    B = RegularOperator(2, 2, [4294967296, -4294967295, 4294967291, 4294967279])
    args = (A0, B, -B, RegularOperator(2, 2, [1] * 4), LatticeVector.ones(2))
    decisions.clear()
    _assert_reference_report(args)
    assert decisions == [OBJECTS]


def _near(bits: int, k: int) -> int:
    """One of 2^bits - 1, 2^bits and 2^bits + 1, by k."""
    return 2**bits + k % 3 - 1


def _big(role, bits, den_bits):
    """prop21 inputs with small entries (numerators up to 5 over 1 or 3)
    but for one role, whose numerators are near 2^bits and its denominator
    near 2^den_bits (1 when den_bits is 0)."""

    def entries(name, count, signed):
        if name == role:
            den = _near(den_bits, 2) if den_bits else 1
            return [Fraction(_near(bits, k) * (-1 if signed and k % 2 else 1), den)
                    for k in range(count)]
        return [Fraction((k * 7 + len(name)) % 6 * (-1 if signed and k % 3 == 1 else 1),
                         1 + k % 2 * 2) for k in range(count)]

    A0 = RegularOperator(2, 3, entries("A0", 6, False))
    B = RegularOperator(2, 2, entries("B", 4, True))
    D = RegularOperator(2, 2, entries("D", 4, True))
    T = RegularOperator(3, 2, entries("T", 6, False))
    w = LatticeVector(entries("w", 2, False))
    return A0, B, D, T, w


MAGNITUDES = (20, 31, 54, 62, 63)


@pytest.mark.parametrize("role", ["A0", "B", "D", "T", "w"])
@pytest.mark.parametrize("bits", MAGNITUDES)
@pytest.mark.parametrize("den_bits", (0, *MAGNITUDES))
def test_one_large_role_gives_the_reference_report(role, bits, den_bits):
    _assert_reference_report(_big(role, bits, den_bits))


ZEROS = {
    "A0": lambda A0, B, D, T, w: (A0.scale(0), B, D, T, w),
    "B": lambda A0, B, D, T, w: (A0, B.scale(0), D, T, w),
    "D": lambda A0, B, D, T, w: (A0, B, D.scale(0), T, w),
    "T": lambda A0, B, D, T, w: (A0, B, D, T.scale(0), w),
    "w": lambda A0, B, D, T, w: (A0, B, D, T, w.scale(0)),
}


@pytest.mark.parametrize("zero, role", [
    (zero, role) for zero in sorted(ZEROS) for role in sorted(ZEROS) if zero != role
])
@pytest.mark.parametrize("bits, den_bits", [(20, 31), (31, 0), (54, 0), (62, 20), (63, 63)])
def test_all_zero_factors_give_the_reference_report(zero, role, bits, den_bits):
    _assert_reference_report(ZEROS[zero](*_big(role, bits, den_bits)))


@pytest.mark.parametrize("bits", (20, 31, 62, 63))
def test_large_factors_together_give_the_reference_report(bits):
    big = _near(bits, 0)
    A0 = RegularOperator(2, 2, [big, 1, 0, big])
    B = RegularOperator(2, 2, [big, -big, 3, 0])
    T = RegularOperator(2, 2, [Fraction(big, _near(bits, 2)), 0, 1, Fraction(1, big)])
    w = LatticeVector([big, Fraction(1, _near(bits, 1))])
    _assert_reference_report((A0, B, -B.scale(Fraction(1, big)), T, w))
