"""The report-byte oracle: the exact reports of the verification battery.

``scripts/verify_all.py --seed 7 --count 20`` writes one canonical report
per claim.  The eight whose values are all exact rationals are pinned here
by sha256, so a refactor that moves any byte of them fails at once.
``gap.json`` and ``cor23.json`` carry BLAS floats and stay out.  Three
larger meet labs (n = 6, 8, 10, seed 7) are pinned the same way, and so
are seven single verifier runs: on float files, with explicit and with
default inputs, and on float and exact corpora.  None of those touches
BLAS, so their float bits do not depend on the machine.  The manifests of
two ``corpus`` runs, one exact and mixed-sign, one float and positive, are
pinned too, so the corpus files keep their draws.
"""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from rieszops.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "verify_all.py"

DIGESTS = {
    "cor22": "9da1cbfb11db84050867a04398ca4f0cc996fa7fdab3bbb388bacfb2bcfc63d5",
    "cor22_rect": "d10f26337cfb305d0abaccfcd6ae5f30d7c03053291eb6ac5afcde3fb201e8a9",
    "prop21": "71a30d4aeb1e6aa56bbebdaac19153e9be8190867b86216ef410c89265e52078",
    "synnatzschke_a": "fd0b944be3ee3a55c9e6d61a3e1f945e664ce2a7746130f0461c7be0eca1c1da",
    "counterexample_k1": "6be3b1b33ec2f17d933ac55f534d1b44b65bb98d183fa0a3800ceab9c0549593",
    "counterexample_k2": "9776280627326d7a7a12e71d81776567cf06bd74ce70ab524dda8a8bcb692c76",
    "counterexample_k3": "b08c1393c7f8130e341cfe0745afec2f5202179449b987cac446d9d13ee73c3b",
    "counterexample_k4": "023883e1f8e8aa189dc7385e47a1cc2717aaf45515513c8ba2752fd3f8631cb6",
}


LARGER_LABS = {
    "lab_n6_k2": (
        ["--n", "6", "--k", "2", "--t-samples", "3", "--split-samples", "4",
         "--partition-budget", "20"],
        "b056d03c2dd2c6c1a2f78abda8c86dd8f7a12343a72a53c4650cf3b8e1416de4",
    ),
    "lab_n8_k3": (
        ["--n", "8", "--k", "3", "--t-samples", "2", "--split-samples", "3",
         "--partition-budget", "12"],
        "9d1400504d46aace0f85c698520ba7bbceed56e0d9384aa0bda48cc2ea9438af",
    ),
    "lab_n10_k1": (
        ["--n", "10", "--k", "1", "--t-samples", "1", "--split-samples", "2",
         "--partition-budget", "6"],
        "a62e328353499d44de721b2e1e5d79385c472cb9715fdc5b480ec516d6137e51",
    ),
}


#: Runs over the files of a float corpus (``corpus --dims 3x3x3x3 --count 2
#: --seed 11 --distribution float --sign positive``) plus ``w.json``, and
#: over seeded corpora; "{X}" stands for the path of file X.
VERIFIER_RUNS = {
    "cor22_files": (
        "cor22 --A {A_0000} --B {B_0000}",
        "fbe6349d8fa7094c4058eedcceec7779ad2f683655cbe9c262ef00c8ed908685",
    ),
    "synnatzschke_a_files": (
        "synnatzschke_a --A {A_0000} --C {A_0001} --B0 {B_0000}",
        "3bae888fb49d7d2c02578c306e804edf727c1b2d3817934e488f9ee9a5d1f482",
    ),
    "prop21_files": (
        "prop21 --A0 {A_0000} --B {B_0000} --D {B_0001} --T {A_0001} --w {w}",
        "5be627514c16940bb7c93ebeb82a5a2005dd6a6ce65ec9a605a0f1361e44c3d6",
    ),
    "prop21_float_corpus": (
        "prop21 --corpus seed=3,dims=2x3x3x2,count=10,distribution=float",
        "b1c7004426083aad6085eb578bb55ccfd144e37467de140772f404ee2eb08979",
    ),
    "cor22_float_corpus": (
        "cor22 --corpus seed=3,dims=2x3x2x3,count=10,distribution=float",
        "65e7505e89fd8213beeaea2b69fa789ded08160a063b4ca56f9679063ae47291",
    ),
    "prop21_corpus": (
        "prop21 --corpus seed=4,dims=2x3x3x2,count=10",
        "0a6d559b15e56217212cff223745de50be9bcf9fbe7a4e9259c9f13d4f3bb1de",
    ),
    "synnatzschke_a_corpus": (
        "synnatzschke_a --corpus seed=5,dims=3x2x3x2,count=10",
        "1dfb7c759c1dbc5b80e0aa87bd2f60dfeb043675a9e368b333f8ef2a3a957d8d",
    ),
}


#: ``corpus`` flags and the sha256 of the manifest.json they write.
MANIFESTS = {
    "rational_mixed": (
        "--dims 2x3x2x3 --count 3 --seed 5",
        "8a496f5292ee4293517f28a33b05260b7c04b29e0ce19e627b2c03c9bee1fcb4",
    ),
    "float_positive": (
        "--dims 3x2x3x2 --count 2 --seed 11 --distribution float --sign positive",
        "7caac2c029f2bda81173a64d94888d5d786e83915e675db5d5e41e57c592b7ce",
    ),
}


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_corpus_manifest_bytes(name, tmp_path):
    flags, digest = MANIFESTS[name]
    assert main(["corpus", "--out", str(tmp_path), *flags.split()]) == 0
    manifest = (tmp_path / "manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == digest


@pytest.fixture(scope="module")
def float_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("float_corpus")
    argv = ["corpus", "--out", str(out), "--dims", "3x3x3x3", "--count", "2",
            "--seed", "11", "--distribution", "float", "--sign", "positive"]
    assert main(argv) == 0
    (out / "w.json").write_text(json.dumps({"dim": 3, "entries": [0.5, 1.25, 2.0]}))
    return {path.stem: str(path) for path in out.glob("*.json")}


@pytest.mark.parametrize("name", sorted(VERIFIER_RUNS))
def test_verifier_report_bytes(name, float_corpus, tmp_path):
    template, digest = VERIFIER_RUNS[name]
    path = tmp_path / f"{name}.json"
    argv = ["verify", *template.format(**float_corpus).split(), "--json", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _load_script():
    spec = importlib.util.spec_from_file_location("verify_all", SCRIPT)
    verify_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify_all)
    return verify_all


def _battery(seed, count):
    verify_all = _load_script()
    config = verify_all.BatteryConfig(seed=seed, count=count)
    return dict(verify_all.invocations(config))


BATTERY = _battery(seed=7, count=20)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_exact_battery_report_bytes(name, tmp_path):
    path = tmp_path / f"{name}.json"
    assert main(BATTERY[name] + ["--seed", "7", "--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


def test_the_pinned_reports_are_the_exact_ones():
    assert set(BATTERY) - set(DIGESTS) == {"gap", "cor23"}


@pytest.mark.parametrize("name", sorted(LARGER_LABS))
def test_larger_lab_report_bytes(name, tmp_path):
    flags, digest = LARGER_LABS[name]
    path = tmp_path / f"{name}.json"
    assert main(["counterexample", *flags, "--seed", "7", "--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_battery_lines_end_in_wall_time(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "--count", "2", "--samples", "10"]
    assert _load_script().main(argv) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if " -> " in line]
    assert len(lines) == len(BATTERY)
    for line in lines:
        assert re.fullmatch(r"\S+ +-> \S+\.json  \[ok\]  \(\d+ ms\)", line), line
