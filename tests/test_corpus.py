import hashlib
import json
import os

import pytest

from rieszops import Corpus, claim_cases, corpus, generate_corpus, parse_corpus_spec
from rieszops.lattice import EnumerationLimitError
from rieszops.superop import KRON_ENTRY_CAP

from cases import mixed_dims_pairs, mixed_dims_prop21_cases, square_matrix_cases


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


def test_parse_corpus_spec_minimal():
    c = parse_corpus_spec("seed=7,dims=2x3x2x2,count=10")
    assert c.seed == 7
    assert c.dims == (2, 3, 2, 2)
    assert c.count == 10
    assert c.distribution == "rational"
    assert c.sign_mode == "mixed"


def test_parse_corpus_spec_full():
    c = parse_corpus_spec("seed=1,dims=1x1x1x1,count=2,distribution=float,sign=positive")
    assert c.distribution == "float"
    assert c.sign_mode == "positive"


def test_parse_corpus_spec_defaults():
    c = parse_corpus_spec("seed=7")
    assert (c.seed, c.dims, c.count) == (7, (2, 2, 2, 2), 10)


@pytest.mark.parametrize(
    "bad",
    [
        "seed=7,dims=2x2,count=3",  # wrong arity
        "seed=7,dims=2x2x2x2,count=0",  # empty corpus
        "seed=x,dims=2x2x2x2,count=3",  # non-integer
        "seed=7,dims=2x2x2x2,count=3,mystery=1",  # unknown field
        "seed=7,dims=2x2x2x2,count=3,distribution=gaussian",  # bad enum
        "seed",  # no key=value shape
    ],
)
def test_parse_corpus_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_corpus_spec(bad)


def test_corpus_refuses_a_factor_over_the_kron_cap():
    # A is z x y and B is x x w for dims (w, x, y, z); nothing is drawn yet.
    Corpus(seed=0, dims=(1, 1, 1, KRON_ENTRY_CAP), count=1)
    for dims in [(1, 1, 1, KRON_ENTRY_CAP + 1), (1, 1, 1025, 1024),
                 (KRON_ENTRY_CAP + 1, 1, 1, 1), (1025, 1024, 1, 1)]:
        with pytest.raises(EnumerationLimitError, match="KRON_ENTRY_CAP"):
            Corpus(seed=0, dims=dims, count=1)


def test_the_claims_that_build_a_rep_refuse_it_over_the_kron_cap_undrawn(monkeypatch):
    # kron(B', A) has z w y x entries: 2^20 is within the cap, 2^21 is not.
    monkeypatch.setattr(corpus, "random_scalar", lambda *args: pytest.fail("drew an entry"))
    at_cap = Corpus(seed=0, dims=(1, 1024, 1024, 1), count=1)
    over = Corpus(seed=0, dims=(1, 1024, 1024, 2), count=1)
    for claim in ("cor22", "prop21", "synnatzschke_a"):
        with pytest.raises(EnumerationLimitError, match="KRON_ENTRY_CAP"):
            next(claim_cases(over, claim))
        with pytest.raises(pytest.fail.Exception, match="drew an entry"):
            next(claim_cases(at_cap, claim))
    # cor23 forms no rep: it draws.
    with pytest.raises(pytest.fail.Exception, match="drew an entry"):
        next(claim_cases(over, "cor23"))


# ---------------------------------------------------------------------------
# generation determinism
# ---------------------------------------------------------------------------


def _pairs(corpus):
    """The corpus's (A, B) pairs: its cor22 cases, in order."""
    return [(case["A"], case["B"]) for case in claim_cases(corpus, "cor22")]


def test_same_seed_same_matrices():
    c = Corpus(seed=3, dims=(2, 2, 2, 2), count=5)
    first = [(A.entries, B.entries) for A, B in _pairs(c)]
    second = [(A.entries, B.entries) for A, B in _pairs(c)]
    assert first == second
    other = Corpus(seed=4, dims=(2, 2, 2, 2), count=5)
    third = [(A.entries, B.entries) for A, B in _pairs(other)]
    assert first != third


def test_corpus_shapes():
    w, x, y, z = 2, 3, 1, 2
    c = Corpus(seed=0, dims=(w, x, y, z), count=3)
    for A, B in _pairs(c):
        assert A.shape == (z, y)
        assert B.shape == (x, w)


def test_positive_sign_mode():
    c = Corpus(seed=0, dims=(2, 2, 2, 2), count=5, sign_mode="positive")
    for A, B in _pairs(c):
        assert A.is_positive() and B.is_positive()


def test_float_distribution():
    c = Corpus(seed=0, dims=(2, 2, 2, 2), count=2, distribution="float")
    for A, B in _pairs(c):
        assert not A.is_exact and not B.is_exact


# ---------------------------------------------------------------------------
# claim-specific cases
# ---------------------------------------------------------------------------


def test_claim_cases_prop21_constraints():
    c = Corpus(seed=2, dims=(2, 2, 2, 2), count=4)
    for case in claim_cases(c, "prop21"):
        assert case["A0"].is_positive()
        assert case["T"].is_positive()
        assert case["w"].is_positive()
        assert case["T"].shape == (case["A0"].cols, case["B"].rows)
        assert case["w"].dim == case["B"].cols


def test_claim_cases_synnatzschke_constraints():
    c = Corpus(seed=2, dims=(2, 3, 2, 2), count=4)
    for case in claim_cases(c, "synnatzschke_a"):
        assert case["B0"].is_positive()
        assert case["A"].shape == case["C"].shape


def test_claim_cases_rejects_unknown():
    c = Corpus(seed=2, dims=(2, 2, 2, 2), count=1)
    with pytest.raises(ValueError):
        list(claim_cases(c, "gap"))


def test_mixed_dims_generators():
    dims_seen = set()
    for dims, A, B in mixed_dims_pairs(seed=1, count=50, dim_choices=(1, 2, 3)):
        w, x, y, z = dims
        assert A.shape == (z, y) and B.shape == (x, w)
        dims_seen.add(dims)
    assert len(dims_seen) > 5  # actually mixes shapes
    for case in mixed_dims_prop21_cases(seed=1, count=10, vectors_per_case=2):
        assert case["A0"].is_positive() and case["T"].is_positive()
        assert len(case["ws"]) == 2
    for case in square_matrix_cases(seed=1, size=2, count=3, vectors_per_matrix=4):
        assert case["B"].shape == (2, 2)
        assert len(case["ws"]) == 4
        assert all(w.is_positive() for w in case["ws"])


# ---------------------------------------------------------------------------
# on-disk corpus
# ---------------------------------------------------------------------------


def test_generate_corpus_regenerates_bit_identically(tmp_path):
    c = Corpus(seed=9, dims=(2, 2, 2, 2), count=3)
    dir1 = os.path.join(tmp_path, "one")
    dir2 = os.path.join(tmp_path, "two")
    m1 = generate_corpus(c, dir1)
    m2 = generate_corpus(c, dir2)
    assert m1 == m2
    for entry in m1["files"]:
        with open(os.path.join(dir1, entry["name"]), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(dir2, entry["name"]), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2
        assert hashlib.sha256(b1).hexdigest() == entry["sha256"]


def test_generate_corpus_manifest_contents(tmp_path):
    c = Corpus(seed=9, dims=(2, 2, 2, 2), count=2)
    manifest = generate_corpus(c, tmp_path)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["params"]["seed"] == 9
    assert {entry["name"] for entry in manifest["files"]} == {
        "A_0000.json",
        "B_0000.json",
        "A_0001.json",
        "B_0001.json",
    }
