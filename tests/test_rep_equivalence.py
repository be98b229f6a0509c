"""The rep verifiers against their reference chains.

``verify_prop21``, ``verify_cor22`` and ``verify_synnatzschke_a`` form the
reps they compare in one stacked product each and compare them as arrays;
``superop_reference`` holds the same claims as chains of ``Superoperator``
containers.  On the same inputs the two must write the same canonical
report, byte for byte, or raise the same error: over exact and float
inputs at scales 1, 1e3 and 1e5, with +-0.0 entries, all-zero rows and
columns, rectangular dimensions, and second factors (B and D, A and C)
over other denominators than the first.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from rieszops import LatticeVector, RegularOperator
from rieszops.reports import canonical_json
from rieszops.superop import verify_cor22, verify_prop21, verify_synnatzschke_a

from superop_reference import REFERENCE

VERIFIERS = {
    "prop21": verify_prop21,
    "cor22": verify_cor22,
    "synnatzschke_a": verify_synnatzschke_a,
}

SCALES = (1, 1000, 100000)


@st.composite
def entries(draw, count, exact, scale, positive=False, den=1):
    """``count`` entries on a grid of small rationals over ``den``, scaled;
    float zeros of either sign."""
    low = 0 if positive else -5
    grid = st.fractions(min_value=low, max_value=5, max_denominator=8)
    values = [draw(grid) / den * scale for _ in range(count)]
    if exact:
        return values
    return [float(v) if v else draw(st.sampled_from([0.0, -0.0])) for v in values]


@st.composite
def operators(draw, rows, cols, exact, scale, positive=False, den=1):
    """A rows x cols operator, sometimes with an all-zero row or column."""
    values = draw(entries(rows * cols, exact, scale, positive, den))
    zero = Fraction(0) if exact else draw(st.sampled_from([0.0, -0.0]))
    line = draw(st.sampled_from(["none", "row", "column"]))
    if line == "row":
        i = draw(st.integers(0, rows - 1))
        values[i * cols:(i + 1) * cols] = [zero] * cols
    elif line == "column":
        j = draw(st.integers(0, cols - 1))
        values[j::cols] = [zero] * rows
    return RegularOperator(rows, cols, values)


@st.composite
def claim_inputs(draw):
    """(claim, positional inputs, seed): A is z x y, B x x w, T y x x, the
    second factor of a pair over a denominator of its own."""
    claim = draw(st.sampled_from(sorted(VERIFIERS)))
    exact = draw(st.booleans())
    scale = draw(st.sampled_from(SCALES))
    w, x, y, z = (draw(st.integers(1, 4)) for _ in range(4))
    other = draw(st.integers(1, 9))  # the second factor's extra denominator
    op = lambda rows, cols, positive=False, den=1: draw(  # noqa: E731
        operators(rows, cols, exact, scale, positive, den)
    )
    if claim == "cor22":
        args = (op(z, y), op(x, w))
    elif claim == "synnatzschke_a":
        args = (op(z, y), op(z, y, den=other), op(x, w, positive=True))
    else:
        vector = LatticeVector(draw(entries(w, exact, scale, positive=True)))
        args = (op(z, y, True), op(x, w), op(x, w, den=other), op(y, x, True), vector)
    return claim, args, draw(st.integers(0, 3))


def _outcome(verifier, args, seed):
    """The canonical report of a call, or the error it raised."""
    try:
        return canonical_json(verifier(*args, seed=seed).to_json())
    except Exception as error:  # the two must fail alike
        return type(error).__name__, str(error)


def _rectangular(claim, exact):
    """A 2 x 3 x 4 x 5 case: A is 5 x 4, B 3 x 2, T 4 x 3."""
    def op(rows, cols, start, positive=False):
        values = [Fraction((start + 3 * k) % 11 - (0 if positive else 5), 1 + k % 4)
                  for k in range(rows * cols)]
        return RegularOperator(rows, cols, values if exact else [float(v) for v in values])

    if claim == "cor22":
        return claim, (op(5, 4, 1), op(3, 2, 2)), 1
    if claim == "synnatzschke_a":
        return claim, (op(5, 4, 1), op(5, 4, 7), op(3, 2, 2, True)), 1
    w = LatticeVector([Fraction(1, 2), Fraction(3)] if exact else [0.5, 3.0])
    return claim, (op(5, 4, 1, True), op(3, 2, 2), op(3, 2, 5), op(4, 3, 3, True), w), 2


@given(claim_inputs())
@settings(max_examples=300)
@example(_rectangular("cor22", True))
@example(_rectangular("cor22", False))
@example(_rectangular("synnatzschke_a", True))
@example(_rectangular("synnatzschke_a", False))
@example(_rectangular("prop21", True))
@example(_rectangular("prop21", False))
def test_verifiers_write_the_reference_chains_reports(case):
    claim, args, seed = case
    assert _outcome(VERIFIERS[claim], args, seed) == _outcome(REFERENCE[claim], args, seed)


def test_verifiers_match_the_reference_chains_about_the_word_bound():
    # Products of entries near 2^31 pass the 2^63 bound of machine words by a
    # small factor: the stacked reps fall back to Python ints on one side of
    # it and stay int64 on the other, and the reports must not tell.
    for top in (2**29, 2**30 + 7, 2**31 - 1, 2**31 + 3, 2**40):
        for den in (1, 3):
            A = RegularOperator(2, 3, [Fraction(v, den) for v in (top, -top, 1, 0, -1, top - 2)])
            B = RegularOperator(2, 2, [Fraction(v, 5) for v in (-top, 3, top, 0)])
            B0, A0 = abs(B), abs(A)
            T = RegularOperator(3, 2, [top, 1, 0, 2, top - 1, 5])
            w = LatticeVector([1, top])
            cases = [
                ("cor22", (A, B)),
                ("synnatzschke_a", (A, -A, B0)),
                ("prop21", (A0, B, -B, T, w)),
            ]
            for claim, args in cases:
                got = _outcome(VERIFIERS[claim], args, 1)
                assert got == _outcome(REFERENCE[claim], args, 1), (claim, top, den)
                assert '"status":"pass"' in got
