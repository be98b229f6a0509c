"""The documented scripts, run through their ``main``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gap_decay = _script("gap_decay")


def test_gap_decay_sweeps_small_powers(capsys):
    assert gap_decay.main(["--max-m", "2"]) == 0
    out = capsys.readouterr().out
    assert "positive-factor control: rho = 1.000000" in out


def test_gap_decay_draws_nothing(monkeypatch, capsys):
    # Every norm of the sweep is a closed form, up to H_2^(x)8 (256 x 256).
    def no_draw(*args, **kwargs):
        raise AssertionError("no draw")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    assert gap_decay.main(["--max-m", "8"]) == 0
    assert "max |rho - 2^-m|" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--max-m", "0"], ["--max-m", "11"]])
def test_gap_decay_refuses_bad_sizes_with_exit_2(argv, capsys):
    assert gap_decay.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


verify_all = _script("verify_all")


def test_verify_all_writes_every_report_at_a_small_count(tmp_path, capsys):
    assert verify_all.main(["--out", str(tmp_path), "--count", "2"]) == 0
    assert "all 10 reports pass" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*.json"))) == 10


@pytest.mark.parametrize(
    "argv",
    [["--seed", "-1"], ["--count", "0"], ["--count", "-1"],
     ["--lab-n", "1"], ["--lab-n", "0"], ["--lab-n", "-2"]],
)
def test_verify_all_refuses_bad_arguments_before_any_run(argv, tmp_path, capsys):
    out = tmp_path / "reports"
    assert verify_all.main(["--out", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_verify_all_reports_a_refused_run_as_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verify_all, "cli_main", lambda argv: 2)
    assert verify_all.main(["--out", str(tmp_path), "--count", "2"]) == 2
    captured = capsys.readouterr()
    assert "failing claim" not in captured.out
    assert "error: the cor22 run was refused (exit 2)" in captured.err
