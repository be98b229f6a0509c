import gc
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from rieszops import cli
from rieszops.cli import main
from rieszops.reports import canonical_json

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    # float inputs whose rounding (2.2e-16) exceeds a zero tolerance: an
    # honest fail + exit 1
    a = _write(tmp_path / "fa.json", {"rows": 2, "cols": 2, "entries": [0.7, 0.5, 0.2, 0.5]})
    b = _write(tmp_path / "fb.json", {"rows": 2, "cols": 2, "entries": [0.0, -0.2, 0.6, -0.4]})
    code = main(["verify", "prop21", "--A0", a, "--B", b, "--tolerance", "0"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert report["max_deviation"] > 0


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


@pytest.mark.parametrize(
    "claim,flags",
    [
        ("cor22", "--A and --B"),
        ("prop21", "--A0 and --B"),
        ("synnatzschke_a", "--A and --B0"),
        ("cor23", "--A and --B"),
    ],
)
def test_required_flag_messages(claim, flags, capsys):
    assert main(["verify", claim]) == 2
    err = capsys.readouterr().err
    assert err == f"error: verify {claim} needs {flags} (or --corpus)\n"


def test_bad_corpus_spec_exits_2(capsys):
    assert main(["verify", "cor22", "--corpus", "seed=7,mystery=1"]) == 2


def test_exact_flag_rejects_floats(tmp_path, capsys):
    a = _write(tmp_path / "fa.json", {"rows": 1, "cols": 1, "entries": [0.5]})
    assert main(["verify", "cor22", "--A", a, "--B", a, "--exact"]) == 2
    assert "float entries" in capsys.readouterr().err


def _assert_usage_error(capsys, argv, needle):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert needle in err
    assert "Traceback" not in err


@pytest.fixture
def float_files(tmp_path):
    a = _write(tmp_path / "fa.json", {"rows": 2, "cols": 2, "entries": [0.5, 1.5, 2.0, 1.0]})
    b = _write(tmp_path / "fb.json", {"rows": 2, "cols": 2, "entries": [1.0, -0.5, 0.25, 2.0]})
    return a, b


def test_float_files_prop21_defaults_follow_B(float_files, capsys):
    a, b = float_files
    assert main(["verify", "prop21", "--A0", a, "--B", b]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["exact"] is False


@pytest.mark.parametrize(
    "claim,roles",
    [
        ("cor22", ["--A", "--B"]),
        ("synnatzschke_a", ["--A", "--B0"]),
        ("prop21", ["--A0", "--B"]),
    ],
)
def test_mixed_exact_and_float_files_exit_2(claim, roles, float_files, tmp_path, capsys):
    exact = _write(tmp_path / "pos.json", {"rows": 2, "cols": 2, "entries": ["1", "2", "0", "3"]})
    argv = ["verify", claim, roles[0], exact, roles[1], float_files[0]]
    _assert_usage_error(capsys, argv, "scalar mode mismatch")


@pytest.mark.parametrize("command", [["gap"], ["verify", "gap"]])
def test_exact_flag_checks_gap_files(command, float_files, capsys):
    a, b = float_files
    _assert_usage_error(capsys, command + ["--A", a, "--B", b, "--exact"], "float entries")


@pytest.fixture
def no_file_reads(monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} was opened before the flags were checked")

    monkeypatch.setattr(cli, "_load_json", refuse)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["verify", "cor22", "--A", "a.json", "--B", "b.json",
          "--T", "/nonexistent.json", "--w", "nothing.json"],
         "verify cor22 does not take --T, --w"),
        (["verify", "synnatzschke_a", "--A", "a.json", "--C", "c.json",
          "--B0", "b.json", "--B", "b.json"],
         "verify synnatzschke_a does not take --B"),
        (["verify", "cor23", "--A0", "a.json", "--B", "b.json"],
         "verify cor23 does not take --A0"),
    ],
)
def test_verify_refuses_flags_outside_the_claims_roles(argv, needle, no_file_reads, capsys):
    _assert_usage_error(capsys, argv, needle)


@pytest.mark.parametrize("claim", ["cor22", "prop21"])
def test_verify_refuses_file_flags_with_corpus(claim, no_file_reads, capsys):
    argv = ["verify", claim, "--corpus", "seed=1,count=2", "--B", "/nonexistent.json"]
    _assert_usage_error(capsys, argv, "--corpus cannot be combined with --B")


@pytest.mark.parametrize(
    "flags,needle",
    [
        (["--corpus", "junk"], "verify counterexample does not take --corpus"),
        (["--A", "a.json"], "verify counterexample does not take --A"),
    ],
)
def test_verify_counterexample_refuses_corpus_and_files(flags, needle, no_file_reads, capsys):
    argv = ["verify", "counterexample", "--n", "3", "--k", "1", *flags]
    _assert_usage_error(capsys, argv, needle)


@pytest.mark.parametrize(
    "flags,needle",
    [
        (["--corpus", "seed=1,count=2"], "verify gap does not take --corpus"),
        (["--A", "a.json", "--B", "b.json", "--T", "t.json"],
         "verify gap does not take --T"),
    ],
)
def test_verify_gap_refuses_corpus_and_other_roles(flags, needle, no_file_reads, capsys):
    _assert_usage_error(capsys, ["verify", "gap", *flags], needle)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["verify", "prop21", "--corpus", "seed=1,count=2", "--k", "4"],
         "verify prop21 does not take --k"),
        (["verify", "cor23", "--A", "a.json", "--B", "b.json", "--n", "3"],
         "verify cor23 does not take --n"),
        (["verify", "gap", "--m", "2", "--n", "3", "--k", "1"],
         "verify gap does not take --n, --k"),
    ],
)
def test_verify_refuses_lab_flags_outside_counterexample(argv, needle, no_file_reads, capsys):
    _assert_usage_error(capsys, argv, needle)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["verify", "cor23", "--corpus", "seed=1,count=2", "--m", "3"],
         "verify cor23 does not take --m"),
        (["verify", "counterexample", "--m", "2"],
         "verify counterexample does not take --m"),
    ],
)
def test_verify_refuses_m_outside_gap(argv, needle, no_file_reads, capsys):
    _assert_usage_error(capsys, argv, needle)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["verify", "cor22", "--corpus", "seed=1,count=2", "--m", "3", "--n", "9",
          "--samples", "5", "--p-in", "3"],
         "verify cor22 does not take --m, --n, --samples, --p-in"),
        (["verify", "synnatzschke_a", "--corpus", "seed=1,count=2", "--p-mid1", "2",
          "--p-mid2", "2", "--p-out", "1"],
         "verify synnatzschke_a does not take --p-mid1, --p-mid2, --p-out"),
        (["verify", "counterexample", "--samples", "10"],
         "verify counterexample does not take --samples"),
    ],
)
def test_verify_refuses_norm_flags_outside_cor23_and_gap(argv, needle, no_file_reads, capsys):
    _assert_usage_error(capsys, argv, needle)


@pytest.mark.parametrize(
    "bare,explicit",
    [
        (["verify", "counterexample"], ["--n", "3", "--k", "1"]),
        (["verify", "gap", "--m", "1"], ["--samples", "200"]),
        (["verify", "cor23", "--corpus", "seed=1,count=2"], ["--samples", "200"]),
        (["counterexample"], ["--n", "3", "--k", "1"]),
    ],
)
def test_verify_flag_defaults_resolve_per_claim(bare, explicit, capsys):
    assert main(bare) == 0
    default_bytes = capsys.readouterr().out
    assert main(bare + explicit) == 0
    assert capsys.readouterr().out == default_bytes


def test_exact_flag_refuses_a_float_corpus_before_any_verifier(monkeypatch, capsys):
    def no_verifier(*args, **kwargs):
        raise AssertionError("a verifier ran before --exact was checked")

    monkeypatch.setattr(cli, "verify_cor22", no_verifier)
    argv = ["verify", "cor22", "--corpus", "seed=1,count=2,distribution=float", "--exact"]
    _assert_usage_error(capsys, argv, "--exact was given but an input contains float entries")


@pytest.mark.parametrize("command", [["gap"], ["verify", "gap"]])
@pytest.mark.parametrize("files", [["--A", "a.json"], ["--A", "a.json", "--B", "b.json"]])
def test_gap_refuses_m_with_files(command, files, no_file_reads, capsys):
    argv = command + ["--m", "2", *files]
    _assert_usage_error(capsys, argv, "either --m or --A and --B, not both")


def test_exact_flag_checks_the_vector_file(tmp_path, matrix_files, capsys):
    _, b = matrix_files
    pos = _write(tmp_path / "pos.json", {"rows": 2, "cols": 2, "entries": ["1", "2", "0", "3"]})
    w = _write(tmp_path / "w.json", {"dim": 2, "entries": [1.0, 0.5]})
    argv = ["verify", "prop21", "--A0", pos, "--B", b, "--w", w, "--exact"]
    _assert_usage_error(capsys, argv, "float entries")


def test_zero_denominator_in_matrix_file_exits_2(tmp_path, matrix_files, capsys):
    a, _ = matrix_files
    bad = _write(tmp_path / "z.json", {"rows": 1, "cols": 2, "entries": ["1/0", "1"]})
    _assert_usage_error(capsys, ["verify", "cor22", "--A", bad, "--B", a], "zero denominator")


def test_zero_denominator_in_vector_file_exits_2(tmp_path, matrix_files, capsys):
    _, b = matrix_files
    pos = _write(tmp_path / "pos.json", {"rows": 2, "cols": 2, "entries": ["1", "2", "0", "3"]})
    w = _write(tmp_path / "w.json", {"dim": 2, "entries": ["1", "3/0"]})
    argv = ["verify", "prop21", "--A0", pos, "--B", b, "--w", w]
    _assert_usage_error(capsys, argv, "zero denominator")


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--m", "2", "--samples", "-5"],
        ["verify", "cor23", "--samples", "-3"],
        ["counterexample", "--n", "4", "--k", "1", "--t-samples", "-1"],
        ["counterexample", "--n", "4", "--k", "1", "--split-samples", "-2"],
    ],
)
def test_negative_sample_counts_exit_2(argv, matrix_files, capsys):
    if argv[0] == "verify":
        a, _ = matrix_files
        argv = argv + ["--A", a, "--B", a]
    _assert_usage_error(capsys, argv, "nonnegative")


def test_zero_samples_stay_valid(matrix_files, capsys):
    a, _ = matrix_files
    assert main(["gap", "--m", "2", "--samples", "0"]) == 0
    assert main(["verify", "cor23", "--A", a, "--B", a, "--samples", "0"]) == 0


def test_verify_cor23_over_extreme_point_cap_exits_2(tmp_path, capsys):
    # 8 x 8 exact factors: 8^8 extreme points, above the enumeration cap.
    entries = [str(i % 5 - 2) for i in range(64)]
    a = _write(tmp_path / "a8.json", {"rows": 8, "cols": 8, "entries": entries})
    b = _write(tmp_path / "b8.json", {"rows": 8, "cols": 8, "entries": entries})
    assert main(["verify", "cor23", "--A", a, "--B", b, "--samples", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "enumeration cap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["gap", "--m", "1", "--samples", "1000000000000"], "sample stack cap"),
        (["gap", "--m", "30"], "entry cap"),
        (["verify", "cor23", "--samples", "1000000000000"], "sample stack cap"),
    ],
)
def test_oversized_request_exits_2_at_once(argv, cap, matrix_files, capsys):
    if argv[0] == "verify":
        a, b = matrix_files
        argv = argv + ["--A", a, "--B", b]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert cap in err
    assert "Traceback" not in err


def test_gap_stack_cap_is_checked_before_building_H(monkeypatch, capsys):
    def no_hadamard(m):
        raise AssertionError("the stack cap must be checked before H is built")

    monkeypatch.setattr(cli, "hadamard_tensor_power", no_hadamard)
    assert main(["gap", "--m", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "sample stack cap" in err
    assert "Traceback" not in err


def test_verify_prop21_over_kron_cap_exits_2(tmp_path, capsys):
    # 40 x 40 factors: each rep would hold 1600 x 1600 Fractions.
    entries = [str(i % 7) for i in range(1600)]
    a = _write(tmp_path / "a40.json", {"rows": 40, "cols": 40, "entries": entries})
    t0 = time.perf_counter()
    assert main(["verify", "prop21", "--A0", a, "--B", a]) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "kron entry cap" in err
    assert "Traceback" not in err


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


def test_console_line_reports_runtime_but_json_does_not(tmp_path, capsys):
    outs = [str(tmp_path / "g1.json"), str(tmp_path / "g2.json")]
    for out in outs:
        assert main(["gap", "--m", "2", "--samples", "30", "--json", out]) == 0
        err = capsys.readouterr().err.strip()
        assert err.startswith("[INFO] gap")
        assert err.endswith(" ms)")
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
    assert "runtime_ms" not in json.loads(open(outs[0]).read())


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


@pytest.mark.parametrize("budget", ["-3", "0"])
def test_counterexample_nonpositive_partition_budget_exits_2(budget, capsys):
    argv = ["counterexample", "--n", "4", "--k", "1", "--partition-budget", budget]
    _assert_usage_error(capsys, argv, "partition_budget must be at least 1")


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--n", "20", "--k", "1"],
        ["counterexample", "--n", "12", "--k", "1", "--partition-budget", "100000000"],
    ],
)
def test_counterexample_over_lab_work_cap_exits_2_at_once(argv, capsys):
    t0 = time.perf_counter()
    _assert_usage_error(capsys, argv, "lab work cap")
    assert time.perf_counter() - t0 < 5.0


def test_counterexample_n16_lab_runs_under_the_cap(capsys):
    argv = ["counterexample", "--n", "16", "--k", "1", "--t-samples", "1",
            "--split-samples", "1", "--partition-budget", "4"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_usage_error_exits_2():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# tolerance and input-file schema
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_tolerance_must_be_finite_and_nonnegative(value, float_files, capsys):
    a, b = float_files
    assert main(["verify", "cor22", "--A", a, "--B", b, "--tolerance", value]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: argument --tolerance: must be finite and >= 0, got {value}" in out.err


def test_tolerance_zero_is_valid(matrix_files, capsys):
    a, b = matrix_files
    assert main(["verify", "cor22", "--A", a, "--B", b, "--tolerance", "0"]) == 0


@pytest.mark.parametrize(
    "field,value",
    [("rows", 2.7), ("rows", True), ("cols", 2.0), ("cols", "2"), ("rows", 0)],
)
def test_matrix_shape_fields_must_be_positive_ints(field, value, tmp_path, matrix_files, capsys):
    entries = {"rows": 2, "cols": 2, "entries": [0.5, 1.5, 2.0, 1.0]}
    bad = _write(tmp_path / "bad.json", {**entries, field: value})
    _assert_usage_error(
        capsys, ["verify", "cor22", "--A", bad, "--B", matrix_files[1]],
        f"not a valid matrix file: {field} must be an integer >= 1, got {value!r}",
    )


@pytest.mark.parametrize("value", [True, 2.0])
def test_vector_dim_must_be_a_positive_int(value, tmp_path, matrix_files, capsys):
    a, b = matrix_files
    pos = _write(tmp_path / "pos.json", {"rows": 2, "cols": 2, "entries": ["1", "2", "0", "3"]})
    w = _write(tmp_path / "w.json", {"dim": value, "entries": ["1"] * 2})
    _assert_usage_error(
        capsys, ["verify", "prop21", "--A0", pos, "--B", b, "--w", w],
        f"not a valid vector file: dim must be an integer >= 1, got {value!r}",
    )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("command", [["verify", "cor22"], ["gap"]])
def test_non_finite_entries_are_refused_on_load(value, command, tmp_path, matrix_files, capsys):
    bad = _write(tmp_path / "bad.json", {"rows": 2, "cols": 2, "entries": [0.5, value, 2.0, 1.0]})
    _assert_usage_error(
        capsys, command + ["--A", bad, "--B", bad],
        "not a valid matrix file: entries must be finite",
    )


@pytest.mark.parametrize("entries", ["1234", {"0": 1}])
def test_entries_must_be_a_list(entries, tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", {"rows": 2, "cols": 2, "entries": entries})
    _assert_usage_error(
        capsys, ["verify", "cor22", "--A", bad, "--B", bad],
        f"not a valid matrix file: entries must be a list, got {entries!r}",
    )


def test_non_finite_vector_entry_is_refused_on_load(tmp_path, float_files, capsys):
    a, b = float_files
    w = _write(tmp_path / "w.json", {"entries": [1.0, float("nan")]})
    _assert_usage_error(
        capsys, ["verify", "prop21", "--A0", a, "--B", b, "--w", w],
        "not a valid vector file: entries must be finite",
    )


def test_a_matrix_file_with_a_dim_field_is_refused(tmp_path, matrix_files, capsys):
    bad = _write(tmp_path / "bad.json", {"rows": 1, "cols": 1, "dim": 7, "entries": ["1"]})
    _assert_usage_error(
        capsys, ["verify", "cor22", "--A", bad, "--B", matrix_files[1]],
        "not a valid matrix file: a matrix file has no dim field",
    )


@pytest.mark.parametrize("data", ["dim", ["rows", "cols"], 3])
def test_a_file_that_is_not_a_json_object_is_refused(data, tmp_path, matrix_files, capsys):
    bad = _write(tmp_path / "bad.json", data)
    _assert_usage_error(
        capsys, ["verify", "cor22", "--A", bad, "--B", matrix_files[1]],
        f"not a valid matrix file: expected a JSON object, got {data!r}",
    )


@pytest.mark.parametrize("field", ["rows", "cols"])
def test_a_vector_file_with_a_matrix_shape_field_is_refused(field, tmp_path, matrix_files, capsys):
    pos = _write(tmp_path / "pos.json", {"rows": 2, "cols": 2, "entries": ["1", "2", "0", "3"]})
    w = _write(tmp_path / "w.json", {"dim": 2, field: 9, "entries": ["1", "1"]})
    _assert_usage_error(
        capsys, ["verify", "prop21", "--A0", pos, "--B", matrix_files[1], "--w", w],
        f"not a valid vector file: a vector file has no {field} field",
    )


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--m", "1"],
        ["norm", "--A", "{a}"],
        ["counterexample", "--n", "2", "--k", "1"],
        ["corpus", "--out", "{out}"],
        ["verify", "prop21", "--A0", "{a}", "--B", "{b}"],
        ["verify", "cor23", "--A", "{a}", "--B", "{b}"],
    ],
    ids=lambda argv: "_".join(argv[:2]),
)
def test_a_negative_seed_is_refused_by_the_parser(argv, tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"rows": 2, "cols": 2, "entries": ["1", "2", "0", "3"]})
    paths = {"a": a, "b": a, "out": str(tmp_path / "out")}
    assert main([arg.format(**paths) for arg in argv] + ["--seed", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: argument --seed: must be an integer >= 0, got -1" in out.err
    assert not os.path.exists(paths["out"])


@pytest.mark.parametrize("claim", ["cor22", "cor23"])
def test_a_negative_corpus_seed_is_refused(claim, capsys):
    _assert_usage_error(
        capsys, ["verify", claim, "--corpus", "seed=-1,count=2"],
        "corpus seed must be >= 0, got seed=-1",
    )


def test_seed_zero_is_valid(capsys):
    assert main(["verify", "cor22", "--corpus", "seed=0,count=1", "--seed", "0"]) == 0


# ---------------------------------------------------------------------------
# corpus runs
# ---------------------------------------------------------------------------


def _corpus_peak(count):
    """Peak traced memory of one ``verify cor22 --corpus`` run."""
    gc.collect()
    tracemalloc.start()
    try:
        main(["verify", "cor22", "--corpus", f"seed=1,dims=3x3x3x3,count={count}"])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_corpus_run_keeps_no_case_report(capsys):
    # A 3x3x3x3 cor22 case report holds an 81-entry witness, several KB;
    # streaming keeps none of them, and what grows is the interpreter's
    # free lists, a few hundred bytes a case up to their caps.
    _corpus_peak(2)  # the parser and the imports
    small, large = _corpus_peak(20), _corpus_peak(200)
    capsys.readouterr()
    assert large - small < 180 * 1024


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _strip_runtime(err):
    return re.sub(r" \(\d+\.\d ms\)$", "", err, flags=re.M)


STATELESS_RUNS = [
    ["gap", "--m", "1"],
    ["verify", "cor23", "--corpus", "seed=3,count=2", "--samples", "7"],
    ["verify", "cor22", "--tolerance", "-1", "--corpus", "seed=3,count=2"],
    ["counterexample", "--n", "3", "--k", "2"],
    ["gap", "--m", "1"],
]


def test_the_shared_parser_carries_no_state_between_runs(monkeypatch, capsys):
    # Each run alone in a fresh process, then all of them in this one.
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    alone = []
    for argv in STATELESS_RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "rieszops", *argv], capture_output=True, text=True, env=env
        )
        alone.append((proc.returncode, proc.stdout, _strip_runtime(proc.stderr)))
    together = []
    for argv in STATELESS_RUNS:
        code = main(argv)
        out = capsys.readouterr()
        together.append((code, out.out, _strip_runtime(out.err)))
    assert [code for code, _, _ in alone] == [0, 0, 2, 0, 0]
    assert together == alone


# ---------------------------------------------------------------------------
# float overflow: one error policy for every command
# ---------------------------------------------------------------------------


def _run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "rieszops", *argv], capture_output=True, text=True, env=env
    )


def test_norming_vector_overflow_exits_2_without_a_traceback(tmp_path):
    # A 1e300 entry overflows the dual 2-norm of its row (the squares).
    a = _write(tmp_path / "f.json", {"rows": 2, "cols": 2, "entries": [0.1, -0.0, 1e300, 5e-324]})
    proc = _run_cli("norm", "--A", a, "--p-from", "2", "--p-to", "inf")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_float_overflow_in_a_verifier_exits_2_without_numpy_warnings(tmp_path):
    big = {"rows": 2, "cols": 2, "entries": [1e300, -1e300, 1e300, 1.0]}
    a = _write(tmp_path / "a.json", big)
    b = _write(tmp_path / "b.json", big)
    proc = _run_cli("verify", "cor22", "--A", a, "--B", b)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "RuntimeWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# output paths that cannot be written: exit 2, no temporary file left
# ---------------------------------------------------------------------------


@pytest.fixture
def a_file(tmp_path):
    return _write(tmp_path / "plain.json", {"rows": 1, "cols": 1, "entries": ["1"]})


def test_gap_json_onto_a_directory_exits_2_and_leaves_no_tmp(tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    _assert_usage_error(capsys, ["gap", "--m", "1", "--json", str(target)], "Is a directory")
    assert sorted(os.listdir(tmp_path)) == ["dir"]
    assert os.listdir(target) == []


def test_verify_json_under_a_file_exits_2(a_file, capsys):
    argv = ["verify", "cor22", "--corpus", "seed=1,count=2", "--json", f"{a_file}/out.json"]
    _assert_usage_error(capsys, argv, a_file)


def test_norm_json_under_a_file_exits_2(matrix_files, a_file, capsys):
    argv = ["norm", "--A", matrix_files[0], "--json", f"{a_file}/n.json"]
    _assert_usage_error(capsys, argv, a_file)


def test_corpus_out_under_a_file_exits_2(a_file, capsys):
    _assert_usage_error(capsys, ["corpus", "--out", f"{a_file}/dir"], "Not a directory")


# ---------------------------------------------------------------------------
# missing fields and norm exponents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["rows", "cols", "entries"])
def test_a_matrix_file_without_a_field_names_it(field, tmp_path, matrix_files, capsys):
    data = {"rows": 1, "cols": 2, "entries": ["1", "2"]}
    del data[field]
    bad = _write(tmp_path / "bad.json", data)
    _assert_usage_error(
        capsys, ["verify", "cor22", "--A", bad, "--B", matrix_files[1]],
        f"bad.json is not a valid matrix file: missing field '{field}'\n",
    )


def test_a_vector_file_without_entries_names_the_field(tmp_path, matrix_files, capsys):
    pos = _write(tmp_path / "pos.json", {"rows": 2, "cols": 2, "entries": ["1", "2", "0", "3"]})
    w = _write(tmp_path / "w.json", {"dim": 2})
    _assert_usage_error(
        capsys, ["verify", "prop21", "--A0", pos, "--B", matrix_files[1], "--w", w],
        "w.json is not a valid vector file: missing field 'entries'\n",
    )


@pytest.mark.parametrize("value", ["abc", "0.5", "nan", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--A", "a.json", "--p-from"],
        ["norm", "--A", "a.json", "--p-to"],
        ["gap", "--A", "a.json", "--B", "b.json", "--p-in"],
        ["gap", "--m", "1", "--p-out"],
        ["verify", "cor23", "--A", "a.json", "--B", "b.json", "--p-mid1"],
        ["verify", "gap", "--m", "1", "--p-mid2"],
    ],
    ids=lambda argv: "_".join(argv[:2] + argv[-1:]),
)
def test_a_bad_norm_exponent_is_refused_by_the_parser(argv, value, no_file_reads, capsys):
    assert main(argv + [value]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: argument {argv[-1]}: must be a number >= 1 or inf, got {value}\n" in out.err


@pytest.mark.parametrize("spelling", ["oo", "Infinity"])
def test_inf_spellings_parse_as_inf(spelling, matrix_files, capsys):
    a, _ = matrix_files
    assert main(["norm", "--A", a, "--p-from", "1", "--p-to", "inf"]) == 0
    inf_bytes = capsys.readouterr().out
    assert main(["norm", "--A", a, "--p-from", "1", "--p-to", spelling]) == 0
    assert capsys.readouterr().out == inf_bytes
    assert main(["gap", "--m", "1", "--samples", "3", "--p-in", spelling]) == 0


# ---------------------------------------------------------------------------
# one parser per command: no abbreviations, one code path per report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["gap", "--m", "1", "--samp", "3"], "gap does not take --samp"),
        (["counterexample", "--partition=4", "--t-samples", "2"],
         "counterexample does not take --partition"),
    ],
)
def test_no_flag_is_abbreviated(argv, needle, no_file_reads, capsys):
    _assert_usage_error(capsys, argv, needle)


def test_verify_counterexample_is_the_counterexample_command(capsys):
    flags = ["--n", "4", "--k", "2", "--t-samples", "2", "--partition-budget", "7",
             "--split-samples", "3", "--seed", "5"]
    assert main(["verify", "counterexample", *flags]) == 0
    verify_bytes = capsys.readouterr().out
    assert main(["counterexample", *flags]) == 0
    assert capsys.readouterr().out == verify_bytes
