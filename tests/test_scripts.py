"""The documented scripts, run through their ``main``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gap_decay = _script("gap_decay")


def test_gap_decay_sweeps_small_powers(capsys):
    assert gap_decay.main(["--max-m", "2", "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "positive-factor control: rho = 1.000000" in out


@pytest.mark.parametrize(
    "argv", [["--max-m", "0"], ["--max-m", "11"], ["--samples", "-1"]]
)
def test_gap_decay_refuses_bad_sizes_with_exit_2(argv, capsys):
    assert gap_decay.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
