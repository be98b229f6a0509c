import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from rieszops import cli, corpus
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
    assert main(["verify", "gap", "--m", "1"]) == 0
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


@pytest.mark.parametrize("seed", ["9", "0"])
def test_verify_refuses_seed_with_corpus(seed, capsys):
    # The corpus spec carries the seed; a second one was silently ignored.
    argv = ["verify", "cor22", "--corpus", "seed=3,count=2", "--seed", seed]
    _assert_usage_error(capsys, argv, "--corpus cannot be combined with --seed")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["corpus", "--out", "d", "--json", "x.json"], "--json"),
        (["corpus", "--out", "d", "--exact"], "--exact"),
        (["corpus", "--out", "d", "--tolerance", "5"], "--tolerance"),
        (["counterexample", "--tolerance", "1"], "--tolerance"),
        (["counterexample", "--exact"], "--exact"),
        (["verify", "counterexample", "--exact"], "--exact"),
        (["gap", "--m", "1", "--tolerance", "3"], "--tolerance"),
        (["verify", "gap", "--m", "1", "--tolerance", "3"], "--tolerance"),
        (["norm", "--A", "a.json", "--tolerance", "1"], "--tolerance"),
    ],
)
def test_global_flags_a_run_does_not_read_exit_2(argv, flag, tmp_path, monkeypatch,
                                                 no_file_reads, capsys):
    monkeypatch.chdir(tmp_path)
    command = " ".join(argv[: 2 if argv[0] == "verify" else 1])
    _assert_usage_error(capsys, argv, f"{command} does not take {flag}")
    assert not list(tmp_path.iterdir())  # neither x.json nor d


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
        (["verify", "cor23", "--corpus", "seed=1,count=2"], ["--samples", "200"]),
        (["counterexample"], ["--n", "3", "--k", "1"]),
    ],
    ids=["bare0-explicit0", "bare2-explicit2", "bare3-explicit3"],
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


def test_verify_prop21_negative_w_exits_2(tmp_path, matrix_files, capsys):
    _, b = matrix_files
    pos = _write(tmp_path / "pos.json", {"rows": 2, "cols": 2, "entries": ["1", "2", "0", "3"]})
    w = _write(tmp_path / "neg.json", {"dim": 2, "entries": ["1", "-1/2"]})
    argv = ["verify", "prop21", "--A0", pos, "--B", b, "--w", w]
    _assert_usage_error(capsys, argv, "w must be positive")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cor23", "--samples", "-3"],
        ["counterexample", "--n", "4", "--k", "1", "--t-samples", "-1"],
        ["counterexample", "--n", "4", "--k", "1", "--split-samples", "-2"],
    ],
    ids=["argv1", "argv2", "argv3"],
)
def test_negative_sample_counts_exit_2(argv, matrix_files, capsys):
    if argv[0] == "verify":
        a, _ = matrix_files
        argv = argv + ["--A", a, "--B", a]
    _assert_usage_error(capsys, argv, "nonnegative")


def test_zero_samples_stay_valid(matrix_files, capsys):
    a, _ = matrix_files
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


def test_verify_cor23_over_extreme_point_cap_exits_2_before_sampling(capsys):
    # Within the sample stack cap, 200000 samples of 8 x 8 are 100 MiB of
    # floats; the extreme-point cap refuses the run before they are drawn.
    argv = ["verify", "cor23", "--corpus", "seed=1,dims=8x8x8x8,count=1",
            "--samples", "200000"]
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 5.0
    assert peak < 16 * 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "enumeration cap" in err
    assert "Traceback" not in err


def _wide_and_tall(tmp_path):
    """A 1 x 20000 and a 20000 x 1 matrix file: their T are 20000 x 20000."""
    entries = [(-1) ** k * (k % 7 + 1) for k in range(20000)]
    wide = _write(tmp_path / "wide.json", {"rows": 1, "cols": 20000, "entries": entries})
    tall = _write(tmp_path / "tall.json", {"rows": 20000, "cols": 1, "entries": entries})
    return ["--A", wide, "--B", tall]


def _traced_main(argv):
    """(exit code, traced peak in bytes) of one in-process run."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, needle", [
    (["verify", "cor23", "--samples", "0"], "20000^20000 extreme points exceed enumeration cap"),
])
def test_a_1_x_20000_by_20000_x_1_pair_exits_2_before_any_work(argv, needle, tmp_path, capsys):
    # The domain has 86,000-digit y^x extreme points: refused unbuilt.
    code, peak = _traced_main([*argv, *_wide_and_tall(tmp_path)])
    assert code == 2
    assert peak < 16 * 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["verify", "cor23", "--samples", "0", "--p-in", "2"], ["gap"]],
                         ids=["cor23-p-in-2", "gap"])
def test_a_1_x_20000_by_20000_x_1_pair_writes_its_witness_as_two_factors(argv, tmp_path, capsys):
    # The witness T has 20000 x 20000 entries (2.98 GiB of floats); the
    # report writes its factors y* and x', 20000 entries each.
    code, peak = _traced_main([*argv, *_wide_and_tall(tmp_path)])
    assert code == 0
    assert peak < 16 * 2**20
    out, err = capsys.readouterr()
    witnesses = json.loads(out)["witnesses"]
    assert [(w["role"], w["dim"]) for w in witnesses] == [("y_star", 20000), ("x_prime", 20000)]
    assert "Traceback" not in err


def test_verify_cor23_float_samples_run_in_bounded_memory(capsys):
    # The same request on a float corpus has no extreme-point cap: its
    # 200000 samples are drawn and evaluated a chunk at a time, where all
    # of them at once, with their normalised copy and their images, were
    # three 100 MiB stacks.
    argv = ["verify", "cor23", "--corpus", "seed=1,dims=8x8x8x8,count=1,distribution=float",
            "--samples", "200000"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert "[PASS] cor23" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["gap", "--m", "30"], "entry cap"),
        (["verify", "cor23", "--samples", "1000000000000"], "sample stack cap"),
    ],
    ids=["argv1-entry cap", "argv2-sample stack cap"],
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


@pytest.fixture
def no_hadamard(monkeypatch):
    def refuse(m):
        raise AssertionError("the caps must be checked before H is built")

    monkeypatch.setattr(cli, "hadamard_tensor_power", refuse)


def test_certified_gap_draws_no_samples(monkeypatch, no_file_reads, capsys):
    # All 2 -> 2: both factor norms are closed forms, and the rank-one
    # witness attains ||A|| ||B||.  gap takes no sample count at all.
    def no_draw(*args, **kwargs):
        raise AssertionError("no draw")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for command in (["gap"], ["verify", "gap"]):
        _assert_usage_error(capsys, command + ["--m", "1", "--samples", "10"],
                            f"{' '.join(command)} does not take --samples")
    assert main(["gap", "--m", "1"]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert details["operator_side_certified"] is True
    assert details["rho"] == pytest.approx(0.5, rel=1e-14)


def test_gap_factor_search_cap_is_checked_before_building_H(no_hadamard, capsys):
    # |H|'s regular norm from W to X (3 -> 2) is a search over one
    # 1024 x 1024 matrix, above the cap.
    assert main(["gap", "--m", "10", "--p-in", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "search over 1 1024x1024 matrices" in err
    assert "search work cap" in err
    assert "Traceback" not in err


def test_gap_signed_factor_search_cap_is_checked_before_building_H(no_hadamard, capsys):
    # From l^inf to l^2, |H| takes the positive corner but the signed H
    # itself is a search over one 1024 x 1024 matrix, above the cap.
    assert main(["gap", "--m", "10", "--p-mid2", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "search over 1 1024x1024 matrices" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cor23", "--p-in", "3", "--samples", "400000"],
    ],
    ids=["argv1"],
)
def test_search_cap_is_checked_before_the_samples_are_drawn(
    argv, matrix_files, monkeypatch, capsys
):
    if argv[0] == "verify":
        a, b = matrix_files
        argv = argv + ["--A", a, "--B", b]
    draws = []
    default_rng = np.random.default_rng

    class RecordingRng:
        """A generator that records the size of every draw."""

        def __init__(self, seed):
            self._rng = default_rng(seed)

        def standard_normal(self, size=None):
            draws.append(size)
            return self._rng.standard_normal(size)

        def uniform(self, low=0.0, high=1.0, size=None):
            draws.append(size)
            return self._rng.uniform(low, high, size)

    monkeypatch.setattr(np.random, "default_rng", RecordingRng)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "search work cap" in err
    assert "Traceback" not in err
    stacks = [size for size in draws if isinstance(size, tuple) and len(size) == 3]
    assert not stacks, f"sample stacks were drawn: {stacks}"


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


@pytest.mark.parametrize("argv", [
    ["verify", "cor23", "--corpus", "seed=1,dims=1x1x1x100000000,count=1", "--samples", "0"],
    ["verify", "cor22", "--corpus", "seed=1,dims=1x1x1x1100000,count=1"],
    ["corpus", "--dims", "1100000x1x1x1", "--count", "1", "--out"],
    # Every role within the cap, the rep of M_{A,B} (z w y x entries) over it.
    ["verify", "prop21", "--corpus", "seed=1,dims=1x1100x1000x1,count=1"],
    ["verify", "prop21", "--corpus", "seed=1,dims=1x1024x1024x2,count=1"],
], ids=["cor23-A-1e8", "cor22-A", "corpus-B", "prop21-rep", "prop21-rep-2x1024x1024"])
def test_oversized_corpus_exits_2_before_drawing(argv, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(corpus, "random_scalar", lambda *args: pytest.fail("drew an entry"))
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "corpus")]
    t0 = time.perf_counter()
    _assert_usage_error(capsys, argv, "KRON_ENTRY_CAP")
    assert time.perf_counter() - t0 < 1.0
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("spec", [
    "seed=1,dims=1024x1x1x1024,count=1",
    "seed=1,dims=1x1024x1024x2,count=1,distribution=float",
], ids=["1024x1x1x1024", "float-1x1024x1024x2"])
def test_cor23_corpus_builds_no_rep_and_is_capped_by_its_factors_alone(spec, capsys):
    # cor23 forms no rep of M_{A,B}: the second spec's z w y x = 2^21 entries
    # refuse the rep claims, not cor23.
    assert main(["verify", "cor23", "--corpus", spec, "--samples", "0"]) == 0
    assert "[PASS] cor23" in capsys.readouterr().err


def test_out_of_memory_exits_2_without_a_traceback(matrix_files, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array")

    monkeypatch.setattr(cli, "operator_norm", exhausted)
    a, _ = matrix_files
    assert main(["norm", "--A", a, "--p-from", "2", "--p-to", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
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
    args = ["verify", "cor22", "--corpus", "seed=11,dims=2x2x2x2,count=5"]
    assert main(args + ["--json", out1]) == 0
    assert main(args + ["--json", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_console_line_reports_runtime_but_json_does_not(tmp_path, capsys):
    outs = [str(tmp_path / "g1.json"), str(tmp_path / "g2.json")]
    for out in outs:
        assert main(["gap", "--m", "2", "--json", out]) == 0
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
    assert main(["gap", "--m", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["details"]["rho"] == pytest.approx(0.25, abs=1e-6)


@pytest.mark.parametrize("flags", [[], ["--p-in", "3"]], ids=["certified", "sampled"])
@pytest.mark.parametrize("zero", ["A", "B", "both"])
def test_gap_of_zero_factors_reports_zero(zero, flags, tmp_path, matrix_files, capsys):
    a, b = matrix_files
    z = _write(tmp_path / "zero.json", {"rows": 2, "cols": 2, "entries": ["0"] * 4})
    A, B = {"A": (z, b), "B": (a, z), "both": (z, z)}[zero]
    assert main(["gap", "--A", A, "--B", B, *flags]) == 0
    out, err = capsys.readouterr()
    details = json.loads(out)["details"]
    assert details["operator_side"] == 0.0
    assert details["rho"] == 0.0
    assert err.startswith("[INFO] gap")


def test_gap_of_factors_far_from_one(tmp_path, capsys):
    # B = 1e155 H2: the entries of B w* square beyond the float range unless
    # they are scaled before they are normed.
    H = _write(tmp_path / "H.json", {"rows": 2, "cols": 2, "entries": ["1", "1", "1", "-1"]})
    big = _write(tmp_path / "big.json",
                 {"rows": 2, "cols": 2, "entries": ["1e155", "1e155", "1e155", "-1e155"]})
    assert main(["gap", "--A", H, "--B", big]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert details["operator_side_certified"] is True
    assert details["rho"] == pytest.approx(0.5, rel=1e-14)


def test_gap_of_factors_far_below_one(tmp_path, capsys):
    # Entries near 1e-300: both sides underflow to 0, but their ratio is
    # taken at the factors' powers of two, where it is the ratio at scale 1.
    rho = {}
    for name, scale in (("one", ""), ("tiny", "e-300")):
        entries = [f"{e}{scale}" for e in (1, 2, 3, -4)]
        m = _write(tmp_path / f"{name}.json", {"rows": 2, "cols": 2, "entries": entries})
        assert main(["gap", "--A", m, "--B", m]) == 0
        details = json.loads(capsys.readouterr().out)["details"]
        assert details["operator_side_certified"] is True
        rho[name] = details["rho"]
    assert rho["one"] == pytest.approx(0.8765914291900078, rel=1e-15)
    assert rho["tiny"] == pytest.approx(rho["one"], rel=1e-14)


def test_gap_sides_beyond_the_float_range_are_null(tmp_path, capsys):
    # At 1e155 both sides are near 3e311: they are reported as null, while
    # rho and the regular norms, taken at the factors' powers of two, stay.
    details = {}
    for name, scale in (("one", 1.0), ("huge", 1e155)):
        entries = [e * scale for e in (1.0, 2.0, 3.0, -4.0)]
        m = _write(tmp_path / f"{name}.json", {"rows": 2, "cols": 2, "entries": entries})
        assert main(["gap", "--A", m, "--B", m]) == 0
        details[name] = json.loads(capsys.readouterr().out)["details"]
    huge, one = details["huge"], details["one"]
    assert huge["operator_side"] is None and huge["regular_side"] is None
    assert huge["operator_side_certified"] is True
    assert huge["rho"] == pytest.approx(one["rho"], rel=1e-14)
    assert huge["regular_norm_A"] == pytest.approx(one["regular_norm_A"] * 1e155, rel=1e-14)


def test_gap_takes_the_witness_side_without_a_search(tmp_path, capsys):
    # Both factor norms are closed forms (1 -> 2 and 3 -> inf), but the
    # image norm from W to Z (3 -> 2) is not; the witness image, a rank-one
    # 200 x 200 matrix, is valued by its factors' norms, not searched.
    a = [(-1) ** k * (k % 7 + 1) for k in range(400)]
    b = [(-1) ** (k // 3) * (k % 5 + 1) for k in range(400)]
    A = _write(tmp_path / "A.json", {"rows": 200, "cols": 2, "entries": a})
    B = _write(tmp_path / "B.json", {"rows": 2, "cols": 200, "entries": b})
    argv = ["gap", "--A", A, "--B", B, "--p-in", "3", "--p-mid1", "inf", "--p-mid2", "1",
            "--p-out", "2"]
    assert main(argv) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    assert details["operator_side_certified"] is True
    # Column and row norms do not see signs: there is no gap.
    assert details["rho"] == pytest.approx(1.0, rel=1e-14)


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


def test_counterexample_lab_of_20001_partitions_of_e_runs_under_the_cap(capsys):
    # The partitions of e are rows of one block array, so the work bound
    # counts their blocks, not a Python object each.
    argv = ["counterexample", "--n", "10", "--k", "1", "--t-samples", "1",
            "--split-samples", "1", "--partition-budget", "20000"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["details"]["partitions_per_split"] == 20001


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
    assert main(["verify", "cor22", "--corpus", "seed=0,count=1"]) == 0
    assert main(["counterexample", "--n", "2", "--seed", "0"]) == 0


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
    # The dual 2-norm of the row, 1.5e308 sqrt(2), is beyond the float range.
    a = _write(tmp_path / "f.json", {"rows": 1, "cols": 2, "entries": [1.5e308, 1.5e308]})
    proc = _run_cli("norm", "--A", a, "--p-from", "2", "--p-to", "inf")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def _norm_values(path, p_from, p_to):
    proc = _run_cli("norm", "--A", path, "--p-from", p_from, "--p-to", p_to)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    return [payload[key]["value"] for key in ("operator_norm", "regular_norm")]


@pytest.mark.parametrize("entries, p_from, p_to", [
    ([1e100, -1e100, 1e100, 1e100], "1.5", "4"),
    ([1e200, -1e200, 1e200, 1e200], "1", "2"),
    ([1e200, -1e200, 1e200, 1e200], "inf", "3"),
    # Its squares, 1e600, overflow; the norm 1e300 does not.
    ([0.1, -0.0, 1e300, 5e-324], "2", "inf"),
])
def test_norms_whose_powers_overflow_are_2_homogeneous(tmp_path, entries, p_from, p_to):
    # Each norm is 2^k times that of the file scaled by 2^-k, bit for bit.
    k = math.frexp(max(entries))[1]
    small = [math.ldexp(e, -k) for e in entries]
    paths = [_write(tmp_path / f"{name}.json", {"rows": 2, "cols": 2, "entries": values})
             for name, values in (("big", entries), ("small", small))]
    big_values, small_values = (_norm_values(path, p_from, p_to) for path in paths)
    assert big_values == [math.ldexp(value, k) for value in small_values]


def test_norms_at_a_large_exponent_keep_their_largest_power(tmp_path):
    # Each vector is scaled so that its largest modulus lies in [1, 2): its
    # power, at least 1, cannot underflow, so no norm reads 0.
    ones = _write(tmp_path / "ones.json", {"rows": 2, "cols": 1, "entries": [1, 1]})
    row = _write(tmp_path / "row.json", {"rows": 1, "cols": 2, "entries": [3, 1]})
    assert _norm_values(ones, "1", "2000") == [pytest.approx(2 ** (1 / 2000), rel=1e-15)] * 2
    assert _norm_values(row, "1", "1500") == [3, 3]
    # The dual exponent 10001 takes 1.5^10001, beyond the float range.
    proc = _run_cli("norm", "--A", row, "--p-from", "1.0001", "--p-to", "inf")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


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
    assert main(["gap", "--m", "1", "--p-in", spelling]) == 0


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
