import json
import os

import pytest

from rieszops.cli import main
from rieszops.reports import canonical_json


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


@pytest.fixture
def matrix_files(tmp_path):
    a = _write(tmp_path / "a.json", {"rows": 2, "cols": 2, "entries": ["1", "-2", "3", "4"]})
    b = _write(tmp_path / "b.json", {"rows": 2, "cols": 2, "entries": ["2", "0", "-1", "1"]})
    return a, b


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_cor22_files_pass(matrix_files, capsys):
    a, b = matrix_files
    assert main(["verify", "cor22", "--A", a, "--B", b]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["claim_id"] == "cor22"
    assert report["status"] == "pass"
    assert "[PASS]" in out.err


def test_verify_cor22_corpus_pass(capsys):
    code = main(["verify", "cor22", "--corpus", "seed=5,dims=2x2x2x2,count=8"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["details"]["cases"] == 8


def test_verify_prop21_with_defaults(matrix_files, capsys):
    a, b = matrix_files
    pos = _write(
        os.path.join(os.path.dirname(a), "pos.json"),
        {"rows": 2, "cols": 2, "entries": ["1", "2", "0", "3"]},
    )
    assert main(["verify", "prop21", "--A0", pos, "--B", b]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_verify_prop21_rejects_signed_A0(matrix_files, capsys):
    a, b = matrix_files  # a has negative entries
    assert main(["verify", "prop21", "--A0", a, "--B", b]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_synnatzschke_files(matrix_files, capsys):
    a, b = matrix_files
    pos = _write(
        os.path.join(os.path.dirname(a), "b0.json"),
        {"rows": 2, "cols": 2, "entries": ["1", "0", "2", "3"]},
    )
    assert main(["verify", "synnatzschke_a", "--A", a, "--C", b, "--B0", pos]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_verify_cor23_files(matrix_files, capsys):
    a, b = matrix_files
    code = main(["verify", "cor23", "--A", a, "--B", b, "--samples", "50"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact"] is True
    assert report["details"]["closed_form_value"] is not None


def test_verify_counterexample(capsys):
    assert main(["verify", "counterexample", "--n", "3", "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["claim_id"] == "counterexample"


def test_verify_cor23_corpus(capsys):
    assert main(["verify", "cor23", "--corpus", "seed=1,count=2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["claim_id"] == "cor23"
    assert report["status"] == "pass"
    assert report["details"]["cases"] == 2


def test_verify_gap_via_m(capsys):
    assert main(["verify", "gap", "--m", "1", "--samples", "20"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "info"
    assert report["details"]["rho"] == pytest.approx(0.5, abs=1e-6)


def test_failing_claim_exits_1(tmp_path, capsys):
    # float inputs with an impossible tolerance: an honest fail + exit 1
    a = _write(tmp_path / "fa.json", {"rows": 2, "cols": 2, "entries": [0.5, -1.5, 2.0, 1.0]})
    b = _write(tmp_path / "fb.json", {"rows": 2, "cols": 2, "entries": [1.0, 0.5, -0.25, 2.0]})
    code = main(
        ["verify", "cor23", "--A", a, "--B", b, "--samples", "20", "--tolerance", "-1"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"


# ---------------------------------------------------------------------------
# error handling: exit 2
# ---------------------------------------------------------------------------


def test_missing_file_exits_2(capsys):
    assert main(["verify", "cor22", "--A", "/nonexistent.json", "--B", "/also.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "cor22", "--A", str(bad), "--B", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_wrong_schema_exits_2(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", {"rows": 2})
    assert main(["verify", "cor22", "--A", bad, "--B", bad]) == 2
    assert "not a valid matrix file" in capsys.readouterr().err


def test_unknown_claim_exits_2():
    assert main(["verify", "bogus"]) == 2


def test_missing_required_inputs_exits_2(capsys):
    assert main(["verify", "cor22"]) == 2
    assert "needs" in capsys.readouterr().err


def test_bad_corpus_spec_exits_2(capsys):
    assert main(["verify", "cor22", "--corpus", "seed=7,mystery=1"]) == 2


def test_exact_flag_rejects_floats(tmp_path, capsys):
    a = _write(tmp_path / "fa.json", {"rows": 1, "cols": 1, "entries": [0.5]})
    assert main(["verify", "cor22", "--A", a, "--B", a, "--exact"]) == 2
    assert "float entries" in capsys.readouterr().err


def test_bad_norm_exponent_exits_2(matrix_files, capsys):
    a, b = matrix_files
    assert main(["verify", "cor23", "--A", a, "--B", b, "--p-in", "0.5"]) == 2


# ---------------------------------------------------------------------------
# report files and determinism
# ---------------------------------------------------------------------------


def test_json_flag_writes_report(tmp_path, matrix_files):
    a, b = matrix_files
    out = str(tmp_path / "report.json")
    assert main(["verify", "cor22", "--A", a, "--B", b, "--json", out]) == 0
    report = json.loads(open(out).read())
    assert report["claim_id"] == "cor22"
    assert "runtime_ms" not in report


def test_repeated_runs_are_byte_identical(tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    args = ["verify", "cor22", "--corpus", "seed=11,dims=2x2x2x2,count=5", "--seed", "3"]
    assert main(args + ["--json", out1]) == 0
    assert main(args + ["--json", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def test_corpus_subcommand(tmp_path, capsys):
    out = str(tmp_path / "corp")
    assert main(["corpus", "--out", out, "--count", "2", "--seed", "4"]) == 0
    assert sorted(os.listdir(out)) == [
        "A_0000.json",
        "A_0001.json",
        "B_0000.json",
        "B_0001.json",
        "manifest.json",
    ]


def test_norm_subcommand(matrix_files, capsys):
    a, _ = matrix_files
    assert main(["norm", "--A", a, "--p-from", "1", "--p-to", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # |A| column sums: |1|+|3| = 4, |-2|+|4| = 6
    assert payload["operator_norm"]["value"] == "6"
    assert payload["regular_norm"]["value"] == "6"
    assert payload["operator_norm"]["certified"] is True


def test_gap_subcommand(capsys):
    assert main(["gap", "--m", "2", "--samples", "30"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["details"]["rho"] == pytest.approx(0.25, abs=1e-6)


def test_counterexample_subcommand(tmp_path, capsys):
    out = str(tmp_path / "lab.json")
    assert main(["counterexample", "--n", "2", "--k", "2", "--json", out]) == 0
    report = json.loads(open(out).read())
    assert report["status"] == "pass"
    assert report["max_deviation"] == "0"


def test_counterexample_rejects_bad_k(capsys):
    assert main(["counterexample", "--n", "3", "--k", "9"]) == 2


def test_counterexample_over_enumeration_cap_exits_2(capsys):
    assert main(["counterexample", "--n", "21", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "enumeration cap" in err
    assert "Traceback" not in err


def test_usage_error_exits_2():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
