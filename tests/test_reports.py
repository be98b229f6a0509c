import hashlib
import json
import math
import os
from fractions import Fraction

import pytest

from rieszops import (
    VerificationReport,
    canonical_json,
    digest_inputs,
    emit_report,
    make_report,
    render_console,
)
from rieszops.reports import ReportError


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def test_canonical_json_sorted_and_minimal():
    text = canonical_json({"b": 1, "a": [True, None, "x"]})
    assert text == '{"a":[true,null,"x"],"b":1}'


def test_canonical_json_fractions_as_strings():
    assert canonical_json(Fraction(3, 7)) == '"3/7"'
    assert canonical_json({"v": Fraction(-1, 2)}) == '{"v":"-1/2"}'


def test_canonical_json_floats_17_digits():
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json(1.0) == "1"
    # round-trips through json.loads to the same float
    assert json.loads(canonical_json(1 / 3)) == 1 / 3


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ReportError):
        canonical_json(math.nan)
    with pytest.raises(ReportError):
        canonical_json({"v": math.inf})


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(ReportError):
        canonical_json({1: "x"})


def test_digest_is_stable_and_order_independent():
    d1 = digest_inputs({"a": 1, "b": Fraction(1, 3)})
    d2 = digest_inputs({"b": Fraction(1, 3), "a": 1})
    assert d1 == d2
    assert len(d1) == 16
    assert d1 != digest_inputs({"a": 2, "b": Fraction(1, 3)})
    # Pinned: how the inputs are written may change, their digests may not.
    assert d1 == "1da470f9c43b7d10"
    assert digest_inputs({"a": 2, "b": Fraction(1, 3)}) == "15d23d3d6c96de5e"


def test_digest_of_one_object_under_two_names_is_that_of_two_equal_objects():
    entries = {"rows": 2, "cols": 2, "entries": ["1", "-1/2", "3", "0"]}
    copy = json.loads(json.dumps(entries))
    shared = digest_inputs({"A": entries, "B": entries, "n": 3})
    assert shared == digest_inputs({"A": entries, "B": copy, "n": 3})
    assert shared == hashlib.sha256(
        canonical_json({"A": entries, "B": copy, "n": 3}).encode("ascii")
    ).hexdigest()[:16]
    with pytest.raises(ReportError):
        digest_inputs({1: entries})


def test_make_report_writes_an_input_under_two_names_once():
    class Input:
        written = 0

        def to_json(self):
            Input.written += 1
            return {"entries": [1.5, -2.0]}

    one, other = Input(), Input()
    shared = make_report("gap", {"A": one, "B": one}, [0.0], status="info")
    assert Input.written == 1
    assert shared.to_json() == make_report(
        "gap", {"A": one, "B": other}, [0.0], status="info"
    ).to_json()
    assert Input.written == 3


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------


def _report(**kw):
    base = dict(
        claim_id="cor22",
        status="pass",
        inputs_digest="0" * 16,
        max_deviation=Fraction(0),
        exact=True,
    )
    base.update(kw)
    return VerificationReport(**base)


def test_exact_pass_requires_zero_deviation():
    _report()  # fine
    with pytest.raises(ReportError):
        _report(max_deviation=Fraction(1, 100))
    with pytest.raises(ReportError):
        _report(status="fail")  # fail with zero deviation is inconsistent too
    _report(status="fail", max_deviation=Fraction(1))  # consistent


def test_info_status_is_exempt():
    _report(status="info", max_deviation=Fraction(1))


def test_unknown_claim_or_status_rejected():
    with pytest.raises(ReportError):
        _report(claim_id="nope")
    with pytest.raises(ReportError):
        _report(status="maybe")


def test_runtime_excluded_from_serialization():
    r = _report(runtime_ms=12.5)
    assert "runtime_ms" not in r.to_json()
    assert "12.5" in render_console(r)
    # two reports differing only in runtime serialize identically
    assert canonical_json(r.to_json()) == canonical_json(_report().to_json())


def test_make_report_status_auto():
    passing = make_report("cor22", {"x": 1}, [Fraction(0)])
    assert passing.status == "pass"
    failing = make_report("cor22", {"x": 1}, [Fraction(1, 7)])
    assert failing.status == "fail"
    float_pass = make_report("cor23", {"x": 1}, [1e-12])
    assert float_pass.status == "pass"
    float_fail = make_report("cor23", {"x": 1}, [1e-3])
    assert float_fail.status == "fail"


def test_make_report_forced_status():
    r = make_report("gap", {"x": 1}, [0.5], status="info")
    assert r.status == "info"


def test_emit_report_atomic_and_deterministic(tmp_path):
    r = make_report("cor22", {"x": 1}, [Fraction(0)], seed=7)
    path = os.path.join(tmp_path, "out", "report.json")
    text1 = emit_report(r, path)
    with open(path, "rb") as fh:
        bytes1 = fh.read()
    text2 = emit_report(r, path)
    with open(path, "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2
    assert text1 == text2
    assert bytes1.endswith(b"\n")
    assert json.loads(bytes1)["claim_id"] == "cor22"
    assert not os.path.exists(path + ".tmp")


def test_render_console_format():
    r = make_report("counterexample", {"n": 3}, [Fraction(0)], seed=3)
    line = render_console(r)
    assert line.startswith("[PASS] counterexample")
    assert "seed=3" in line
