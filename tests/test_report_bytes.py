"""The report-byte oracle: the exact reports of the verification battery.

``scripts/verify_all.py --seed 7 --count 20`` writes one canonical report
per claim.  The eight whose values are all exact rationals are pinned here
by sha256, so a refactor that moves any byte of them fails at once.
``gap.json`` and ``cor23.json`` carry BLAS floats and stay out.  Seven
more meet labs (n = 5, 6, 8, 10, seed 7) are pinned the same way, and so
are fifteen single verifier runs: on float files (one T with zero entries,
one with an entry below the tolerance, whose claim fails), with explicit
and with default inputs, and on float and exact corpora.  None of those touches
BLAS, so their float bits do not depend on the machine.  The manifests of
two ``corpus`` runs, one exact and mixed-sign, one float and positive, are
pinned too, so the corpus files keep their draws.  So is the ``norm``
command on four matrix files (exact, float, positive float and a float
9 x 9) at every exponent pair with a closed form other than 2 -> 2, whose
SVD bits depend on the LAPACK build, and at 3.5 -> 2, which runs the
search.  The search takes powers at exponents such as 3.5, whose last bits
depend on the kernel numpy's ``np.power`` dispatches to, so its four pins
are recorded once per power backend: numpy's AVX-512 kernel (X86_V4) and
the one it runs without it (recorded under
``NPY_DISABLE_CPU_FEATURES=X86_V4``), told apart by one probe power.
Last, four ``gap`` and ``cor23`` runs at closed forms without BLAS or
``np.power`` pin their rank-one witness T = x' (x) y*, written as its
factors ``y_star`` and ``x_prime``: both the report and the report with T
rebuilt by ``rank_one(x_prime, y_star)`` and spliced back where it was
written before the factors replaced it, whose bytes are those of the
earlier reports.  Last of all, the results of ``modulus_oracle``,
``meet_oracle`` and ``refinement_sums`` on their default partitions, exact
and float, for test vectors of 1 to 6 entries with zeros among them and
all zero, are pinned as one sha256 per mode and size.
"""

import hashlib
import importlib.util
import json
import re
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

from rieszops import (
    LatticeVector,
    RegularOperator,
    meet_oracle,
    modulus_oracle,
    rank_one,
    refinement_sums,
)
from rieszops.cli import main
from rieszops.reports import canonical_json

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
    # n = 5 and 6 at the benchmark's n = 5 flags, and at 12 splits and 40
    # partitions of e.
    "lab_n5_k2_bench": (
        ["--n", "5", "--k", "2", "--t-samples", "1", "--split-samples", "2",
         "--partition-budget", "10"],
        "b464d947991dd327afbf9fc8445a8216f7faf00b14ec1cf15eb91d641d963fe3",
    ),
    "lab_n6_k4_bench": (
        ["--n", "6", "--k", "4", "--t-samples", "1", "--split-samples", "2",
         "--partition-budget", "10"],
        "bb46f712ca84e5e0c85a3dbfced8550db2d05ee34ecf1df6e1b9eb680bedce63",
    ),
    "lab_n5_k3_wide": (
        ["--n", "5", "--k", "3", "--split-samples", "12", "--partition-budget", "40"],
        "b82efa2c9f725f6dbe8be64a0e423bcefce45521b2c022d9fa98fb1d43e7f035",
    ),
    "lab_n6_k5_wide": (
        ["--n", "6", "--k", "5", "--split-samples", "12", "--partition-budget", "40"],
        "66db922beac9ecc46f24caebf774812138a852c23dd429de7e2477880374adfc",
    ),
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
    # prop21's splits of a 4 x 4 T, exact and float, and of a T with zero
    # and negative-zero entries.
    "prop21_corpus_4x4": (
        "prop21 --corpus seed=5,dims=4x4x4x4,count=5",
        "10f03c35c3eab1efe33f904756c346783b5da48fce44c8fa5efe1c08bfe3cd3f",
    ),
    "prop21_float_corpus_4x4": (
        "prop21 --corpus seed=5,dims=4x4x4x4,count=5,distribution=float",
        "b36679cb6eb6f2b7984680fdb9adb77b72563b1ae2d2df42f6e970989abb4cbc",
    ),
    # cor22's and synnatzschke_a's reps at 25 x 25, exact and float.
    "cor22_corpus_5x5": (
        "cor22 --corpus seed=5,dims=5x5x5x5,count=3",
        "33e07b1216e98942b613ebeef9dfb51a271e7f02483c3b13362a0d7abaebd0bb",
    ),
    "cor22_float_corpus_5x5": (
        "cor22 --corpus seed=5,dims=5x5x5x5,count=3,distribution=float",
        "6b8052a48a90a378d04acfcbed4d0266d88102151dbe3c15b5003560f34bb44e",
    ),
    "synnatzschke_a_corpus_5x5": (
        "synnatzschke_a --corpus seed=5,dims=5x5x5x5,count=3",
        "9930b5f232e04c4739d7d5233631a61b4819b393277d58221551d01613ab22eb",
    ),
    "synnatzschke_a_float_corpus_5x5": (
        "synnatzschke_a --corpus seed=5,dims=5x5x5x5,count=3,distribution=float",
        "1ad42dc4c6f34e87c1aa4619de27d2695cb80b537f131775384319b1973caf48",
    ),
    "prop21_zero_T_files": (
        "prop21 --A0 {A_0000} --B {B_0000} --D {B_0001} --T {T_zeros} --w {w}",
        "8d6a649d3214ef1e7462362187d56e12ad87595f10f699ee55d28414778495af",
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
    T_zeros = [0.0, 1.5, -0.0, 2.25, 0.0, 0.5, 1.0, 0.0, 3.0]
    T_tiny = [0.0, 1.5, -0.0, 2.25, 1e-10, 0.5, 1.0, 0.0, 3.0]
    for name, entries in (("T_zeros", T_zeros), ("T_tiny", T_tiny)):
        (out / f"{name}.json").write_text(json.dumps({"rows": 3, "cols": 3, "entries": entries}))
    return {path.stem: str(path) for path in out.glob("*.json")}


@pytest.mark.parametrize("name", sorted(VERIFIER_RUNS))
def test_verifier_report_bytes(name, float_corpus, tmp_path):
    template, digest = VERIFIER_RUNS[name]
    path = tmp_path / f"{name}.json"
    argv = ["verify", *template.format(**float_corpus).split(), "--json", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_prop21_report_bytes_on_a_T_with_an_entry_below_the_tolerance(float_corpus, tmp_path):
    # T's 1e-10 entry is zero to the atomic split (DEFAULT_TOLERANCE is 1e-9),
    # but A0 T |B| w carries it scaled to 3.4e-9, so the atomic value misses
    # the target by more than the tolerance and the claim fails (exit 1).
    path = tmp_path / "prop21_tiny.json"
    argv = ["verify", "prop21", "--A0", float_corpus["A_0000"], "--B", float_corpus["B_0000"],
            "--D", float_corpus["B_0001"], "--T", float_corpus["T_tiny"],
            "--w", float_corpus["w"], "--json", str(path)]
    assert main(argv) == 1
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "3e2403e1a7eca189657c021fd93e26d654b8d33ab4b9e0d20abcbef90ece3714"
    )


def _load_script():
    spec = importlib.util.spec_from_file_location("verify_all", SCRIPT)
    verify_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify_all)
    return verify_all


def _battery(seed, count):
    verify_all = _load_script()
    args = verify_all.parse_args(["--seed", str(seed), "--count", str(count)])
    return dict(verify_all.invocations(args))


BATTERY = _battery(seed=7, count=20)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_exact_battery_report_bytes(name, tmp_path):
    path = tmp_path / f"{name}.json"
    seed = [] if "--corpus" in BATTERY[name] else ["--seed", "7"]  # a spec has seed=7
    assert main(BATTERY[name] + seed + ["--json", str(path)]) == 0
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
    argv = ["--out", str(tmp_path), "--count", "2"]
    assert _load_script().main(argv) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if " -> " in line]
    assert len(lines) == len(BATTERY)
    for line in lines:
        assert re.fullmatch(r"\S+ +-> \S+\.json  \[ok\]  \(\d+ ms\)", line), line


def _norm_files(out: Path) -> dict:
    """The four matrix files of the ``norm`` pins, drawn from one seeded
    ``Random``: entries "p/q" with |p| <= 9 and q <= 6, or uniform floats."""
    rng = Random(1301)
    shapes = {"exact3": (3, 3), "float3": (3, 3), "positive3": (3, 3), "float9": (9, 9)}
    paths = {}
    for name, (rows, cols) in shapes.items():
        if name == "exact3":
            entries = [f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}" for _ in range(rows * cols)]
        else:
            low = 0.0 if name == "positive3" else -2.0
            entries = [rng.uniform(low, 2.0) for _ in range(rows * cols)]
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps({"rows": rows, "cols": cols, "entries": entries}))
    return paths


#: (p_from, p_to) of the ``norm`` pins: the max-column (1 -> *), max-row
#: (* -> inf) and positive-corner (inf -> 2 of |A|, and of A on the positive
#: file) closed forms, and the search (3.5 -> 2).
NORM_PAIRS = (("1", "1"), ("1", "inf"), ("inf", "inf"), ("1", "2"), ("inf", "2"), ("3.5", "2"))

#: sha256 of ``norm --json`` per "file:p_from:p_to" at the closed forms.
NORM_DIGESTS = {
    "exact3:1:1": "352ffc1b66c7265f516154eba8005487c2562eb06849f7d123376dd7069bd78c",
    "exact3:1:inf": "891eafe88880386ff3f38b49fedf41771fc997c0e8c05586662a8d39521a177e",
    "exact3:inf:inf": "84d2eea0e482e5e8fd80506eb9479d70ea40365070420b5e419ad82b9c3a0755",
    "exact3:1:2": "15defbc90654e79cdf55ac260d915fc0e230fbfd0d68123307dd4905e20d6c8c",
    "exact3:inf:2": "038c4256f2fb429717131459b4e1b1975088ccceca037381e9d669c376087a7d",
    "float3:1:1": "b38051abc51071cd479f65788cd44d47159395391da43bf79f321b0152a50d0f",
    "float3:1:inf": "ce81ee7f6fca99405c7b99107c9b757911007b84b1e00ef1049afb0f1cac69bf",
    "float3:inf:inf": "de4b7f284154f823e6958b6ca21b643a30a279559f3f94d4392a50cdf99de377",
    "float3:1:2": "8d31d8dad396d8b85f203f398dae017ad365965a0c385fe8dc95e997b21a7c61",
    "float3:inf:2": "e8c8d110734a5aed5da5dd23a629475f549630982c1984d5b770f1820bc14499",
    "positive3:1:1": "4fbe4a779b6429865d727e3e94b7156e033476548153d3fae41f4b6269ce6eab",
    "positive3:1:inf": "808189c0c32b0df7c6a29cc16fe6c609d1309d82a071990cc4f1464f7e37632c",
    "positive3:inf:inf": "a806ad19b39888eeb058273223f4f62c1c8b7802acf63bfc87725d0c778f79cc",
    "positive3:1:2": "6861e64f4965163802e04caab5f21c57443d7649aab43ab1afb75e1b204c26b1",
    "positive3:inf:2": "81ad52f1d602b00a45d4d46db95611bff5031e6fe3abb7dae5d8a42f5fe23245",
    "float9:1:1": "9e1962788af11df73d0730316a4a4570054bba696c2be5d32df485551ca3f930",
    "float9:1:inf": "5875704e0b9abf4c1e547495b085a5037aa5a21773d66cd1e61b95facc211f61",
    "float9:inf:inf": "52af242cbe38c76ff0e41c0d9ddcc598b847d21cabdb00a66c4987a6bb1c0fed",
    "float9:1:2": "3c737f5bc62ae2fdf3590fdbea18814e810e3309e4937f888b9871197290d5e2",
    "float9:inf:2": "b63d5d48b4fcf4c4382865a1697241dadb1522e762df669b491459a2a82e1824",
}


#: np.power(15/64, 3.5) in the last bit tells numpy's two x86-64 power
#: kernels apart: the AVX-512 one (X86_V4) and the one numpy runs without it
#: (``NPY_DISABLE_CPU_FEATURES=X86_V4``), which gives Python's float power.
POWER_BACKENDS = {"0x1.987a8ce394908p-8": "x86_v4", "0x1.987a8ce394909p-8": "baseline"}

#: sha256 of ``norm --json`` at 3.5 -> 2, whose search takes non-integer
#: powers, per power backend.
SEARCH_DIGESTS = {
    "x86_v4": {
        "exact3:3.5:2": "9ab78205d80c33aace65d6d46c31480d499d4488d64bf852b308949ded673ef5",
        "float3:3.5:2": "e7369f76c66880ff9a134be1fa0e0b35c85fa50a7c215b095771826f15d9b872",
        "float9:3.5:2": "509ba0ab08dbfb5b82fc6d7814cedf66dc11cd1f59eb127a303eee7a8a615347",
        "positive3:3.5:2": "e513b11271b1bb19d831f7059ffbfdbbb8b62d961f7fb179b77a194aa210af3c",
    },
    "baseline": {
        "exact3:3.5:2": "9ab78205d80c33aace65d6d46c31480d499d4488d64bf852b308949ded673ef5",
        "float3:3.5:2": "e7369f76c66880ff9a134be1fa0e0b35c85fa50a7c215b095771826f15d9b872",
        "float9:3.5:2": "40d5b74888821a3b486ff0132474c8696913400615d9e277f64f66b2973ecead",
        "positive3:3.5:2": "d0654157c217dab2fe6d980f65ce9d288766b80a1d58b300c455cb8f6185f231",
    },
}


def _norm_digest(name: str) -> str:
    if name in NORM_DIGESTS:
        return NORM_DIGESTS[name]
    probe = float.hex(float(np.power(np.array([15 / 64]), 3.5)[0]))
    assert probe in POWER_BACKENDS, f"no pins for the power backend that gives {probe}"
    return SEARCH_DIGESTS[POWER_BACKENDS[probe]][name]


@pytest.fixture(scope="module")
def norm_files(tmp_path_factory):
    return _norm_files(tmp_path_factory.mktemp("norm_files"))


@pytest.mark.parametrize("name", sorted({*NORM_DIGESTS, *SEARCH_DIGESTS["x86_v4"]}))
def test_norm_command_bytes(name, norm_files, tmp_path):
    stem, p_from, p_to = name.split(":")
    path = tmp_path / "norm.json"
    argv = ["norm", "--A", str(norm_files[stem]), "--p-from", p_from, "--p-to", p_to,
            "--json", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _norm_digest(name)


def test_the_norm_pins_cover_every_file_and_pair(tmp_path):
    names = {f"{stem}:{p}:{q}" for stem in _norm_files(tmp_path) for p, q in NORM_PAIRS}
    for digests in SEARCH_DIGESTS.values():
        assert set(NORM_DIGESTS) | set(digests) == names


def _witness_files(out: Path) -> dict:
    """Exact and float 3 x 4 and 4 x 2 matrix files, drawn as in
    ``_norm_files``: their T are 4 x 4."""
    rng = Random(3109)
    shapes = {"exactA": (3, 4), "exactB": (4, 2), "floatA": (3, 4), "floatB": (4, 2)}
    paths = {}
    for name, (rows, cols) in shapes.items():
        if name.startswith("exact"):
            entries = [f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}" for _ in range(rows * cols)]
        else:
            entries = [rng.uniform(-2.0, 2.0) for _ in range(rows * cols)]
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps({"rows": rows, "cols": cols, "entries": entries}))
    return {name: str(path) for name, path in paths.items()}


L1 = "--p-in 1 --p-mid1 1 --p-mid2 1 --p-out 1"
LINF = "--p-in inf --p-mid1 inf --p-mid2 inf --p-out inf"

#: Runs over ``_witness_files``: the sha256 of the report, and of the report
#: with its T spliced back (``_with_T_spliced_back``), which is the sha256
#: of the report as written while T was written whole.
WITNESS_RUNS = {
    "gap_exact_l1": (
        f"gap --A {{exactA}} --B {{exactB}} {L1}",
        "edaafc8b9d285867dc9783ce600c85283ec0281a702005bdf0cce95ddd41ff89",
        "da4ac69cf771da9de9cb8f90df37f44bda5f38680899dc5da08479c024ae6bdf",
    ),
    "gap_exact_linf": (
        f"gap --A {{exactA}} --B {{exactB}} {LINF}",
        "d18d006f7703ed09e48dad2f79afba277cda6eb60de95edce9815b89382c7227",
        "1ddeb2b76c22e8a00ff91083abc823669f1bf1ec72ab3b21834ea54a36d92d51",
    ),
    "cor23_exact_l1": (
        "verify cor23 --A {exactA} --B {exactB} --samples 0",
        "b72acedf0ca1da0b5c704911675f21f61e9d891621977186f31a3deac7b4f8c5",
        "3577898a5567b51adffe5ab3ee9b4eb159ff61b6824d119a58660b3a0142288e",
    ),
    "cor23_float_linf": (
        f"verify cor23 --A {{floatA}} --B {{floatB}} --samples 0 {LINF}",
        "8a2ad4438324208f3c8e9d08241ada577d80e08764fe99e4aa344d77e5e01bad",
        "dbc85ecea96bee820e939598d1b044bd7f444c7e0616809d9d1caa223c82bf71",
    ),
}


def _with_T_spliced_back(text: str) -> str:
    """The report ``text`` with its witness T = rank_one(x_prime, y_star)
    rebuilt and written where it was before: gap's ``best_T`` in place of
    ``y_star`` and ``x_prime``, cor23's ``rank_one_T`` before them.  Numbers
    are read as floats, so that a factor's "-0" keeps its sign; the small
    integers of a report are written back the same."""
    report = json.loads(text, parse_int=float)
    assert canonical_json(report) + "\n" == text
    y_star, x_prime = report["witnesses"]
    assert (y_star["role"], x_prime["role"]) == ("y_star", "x_prime")
    T = rank_one(LatticeVector(x_prime["entries"]), LatticeVector(y_star["entries"]))
    if report["claim_id"] == "gap":
        report["witnesses"] = [{"role": "best_T", **T.to_json()}]
    else:
        report["witnesses"].insert(0, {"role": "rank_one_T", **T.to_json()})
    return canonical_json(report) + "\n"


@pytest.fixture(scope="module")
def witness_files(tmp_path_factory):
    return _witness_files(tmp_path_factory.mktemp("witness_files"))


@pytest.mark.parametrize("name", sorted(WITNESS_RUNS))
def test_rank_one_witness_report_bytes(name, witness_files, tmp_path):
    template, digest, spliced = WITNESS_RUNS[name]
    path = tmp_path / f"{name}.json"
    assert main([*template.format(**witness_files).split(), "--json", str(path)]) == 0
    text = path.read_text(encoding="ascii")
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    assert hashlib.sha256(_with_T_spliced_back(text).encode("ascii")).hexdigest() == spliced


def _oracle_inputs(mode: str, size: int) -> tuple:
    """A signed 3 x size A, 2 x size S and T, and three positive test
    vectors of ``size`` entries (one drawn with zeros among them, one zero
    at every other entry, one all zero), drawn from ``Random(4409 + size)``:
    exact entries "p/q" with q <= 6, or uniform floats."""
    rng = Random(4409 + size)

    def entry(low):
        if mode == "exact":
            return Fraction(rng.randint(int(4 * low), 9), rng.randint(1, 6))
        return rng.uniform(low, 2.25)

    def matrix(rows):
        return RegularOperator(rows, size, [entry(-2) for _ in range(rows * size)])

    def vector(entries):
        return LatticeVector([zero if skip else entry(0) for skip in entries])

    zero = Fraction(0) if mode == "exact" else 0.0
    A, S, T = matrix(3), matrix(2), matrix(2)
    drawn = vector([rng.random() < 0.3 for _ in range(size)])
    return A, S, T, [drawn, vector([i % 2 == 0 for i in range(size)]), vector([True] * size)]


def _oracle_snapshot(mode: str, size: int) -> str:
    """The canonical JSON of ``modulus_oracle``, ``meet_oracle`` (value,
    closed form, attained, partitions tried) and ``refinement_sums`` on
    ``_oracle_inputs``, floats written by ``float.hex``."""

    def entries(v):
        return [float.hex(x) for x in v.entries] if mode == "float" else v._json_entries()

    def result(r):
        return [entries(r.value), entries(r.closed_form), r.attained, r.partitions_tried]

    A, S, T, ws = _oracle_inputs(mode, size)
    rows = [
        [result(modulus_oracle(A, w)), result(meet_oracle(S, T, w)),
         [entries(v) for v in refinement_sums(A, w)]]
        for w in ws
    ]
    return canonical_json(rows)


#: sha256 of ``_oracle_snapshot`` per "mode:size".
ORACLE_DIGESTS = {
    "exact:1": "44d51af4fea9deaa536d8d69806fa4c4ce9928582da4e1957b1d22549243fcb3",
    "exact:2": "8c65fdacca3ed4d273088a58114b2786f702dd5bb22c7e9f29fb44b624986d71",
    "exact:3": "4f54d85b49d1a39c32ff02f2f005dc44cccee30073134af3c777d9383069a98e",
    "exact:4": "8641260b43bd3f5e2b35848e8507d59937ab9551f32cc5f9c5ebc80c7873decc",
    "exact:5": "115992581679994fedb679062ed714bbffeac1448841fa52b07d97c3f490a9e3",
    "exact:6": "3101b768cd547acbc8c4e6a0f3cc1caa86369e83832eb9d5be3eeae50c2fc5e8",
    "float:1": "dd33806b14ab4e5206acfc840914e80231cea75225e344fbd9a59faabc603096",
    "float:2": "6268f094496083e16c3d32bb480d5dd383925d64b29cd1eb20a8003a3bd2fbfe",
    "float:3": "356412ffb38dc5ed43a3d28ef4a15fd1ae9018d35d29816dcb566826b2c805e9",
    "float:4": "496d7c3d79bab1df447cb17aa7896e476015a9a8aa69ecf1deb952a9eab938ad",
    "float:5": "7a31ebbc3bcd933c9ec64678133d88df5a1c68ac15d3918216bf260134491fa9",
    "float:6": "772fc166e6b93c114637c8a960b32fafce130c82e89df68e987ff149d6d86ac5",
}


@pytest.mark.parametrize("name", sorted(ORACLE_DIGESTS))
def test_oracle_results_on_the_default_partitions(name):
    mode, size = name.split(":")
    snapshot = _oracle_snapshot(mode, int(size))
    assert hashlib.sha256(snapshot.encode("ascii")).hexdigest() == ORACLE_DIGESTS[name]
