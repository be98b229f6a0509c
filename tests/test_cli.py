import json
import os
import time

import pytest

from rieszops import cli
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
         "verify cor22 does not take --n, --m, --samples, --p-in"),
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
