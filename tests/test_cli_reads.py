"""Every flag a leaf parser declares is read by its run.

For each leaf of ``cli.build_parser()`` (a command, or a claim of
``verify``), the argv lines below give every flag the leaf declares, with
valid values; each line must exit 0, and its run must read the namespace
attribute (``dest``) of every flag the line gives.  The namespace records
the attributes read from it once parsing is done.
"""

import argparse
import json

import pytest

from rieszops import cli
from rieszops.corpus import CLAIM_ROLES

from test_cli_fuzz import LEAVES, _options

#: A file per input role: mixed-sign 2x2, positive 2x2, a positive vector.
FILES = {
    "A.json": {"rows": 2, "cols": 2, "entries": [1, "-2/3", 0, 4]},
    "P.json": {"rows": 2, "cols": 2, "entries": [1, "2/3", 0, "1/4"]},
    "w.json": {"dim": 2, "entries": [1, "1/2"]},
}
ROLE_FILES = {"A": "A.json", "B": "A.json", "C": "A.json", "D": "A.json",
              "A0": "P.json", "B0": "P.json", "T": "P.json", "w": "w.json"}

OUT = "--seed 1 --json out.json"
NORMS = "--p-in {p} --p-mid1 {p} --p-mid2 {p} --p-out {p}"
GAP = [f"--m 1 {OUT} --exact {NORMS.format(p=2)}", "--A A.json --B A.json"]
LAB = f"--n 2 --k 1 --t-samples 1 --partition-budget 2 --split-samples 1 {OUT}"


def _claim(claim):
    files = " ".join(f"--{role} {ROLE_FILES[role]}" for role in CLAIM_ROLES[claim])
    norms = f" {NORMS.format(p=1)} --samples 2" if claim == "cor23" else ""
    return [f"{files} {OUT} --exact --tolerance 1e-9{norms}", "--corpus seed=1,count=1"]


ARGVS = {
    **{("verify", claim): _claim(claim) for claim in CLAIM_ROLES},
    ("verify", "gap"): GAP,
    ("gap",): GAP,
    ("verify", "counterexample"): [LAB],
    ("counterexample",): [LAB],
    ("norm",): [f"--A A.json --p-from 1 --p-to 2 {OUT} --exact"],
    ("corpus",): ["--out d --dims 2x2x2x2 --count 1 --distribution float "
                  "--sign positive --seed 1"],
}


class ReadLog(argparse.Namespace):
    """A namespace that adds the name of every attribute read to ``read``."""

    def __getattribute__(self, name):
        if not name.startswith("_") and name != "read":
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


def test_every_leaf_has_argv_lines():
    assert sorted(words for words, _ in LEAVES) == sorted(ARGVS)


@pytest.mark.parametrize("words, leaf", LEAVES, ids=[" ".join(w) for w, _ in LEAVES])
def test_every_declared_flag_is_read(words, leaf, tmp_path, monkeypatch, capsys):
    for name, data in FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()
    logs = []

    class Recording:
        """``build_parser()`` for ``main``: parses, then hands the run a
        ``ReadLog`` of the parsed namespace."""

        def parse_known_args(self, argv):
            args, stray = parser.parse_known_args(argv)
            logs.append(ReadLog(**vars(args), read=set()))
            return logs[-1], stray

    monkeypatch.setattr(cli, "build_parser", Recording)
    by_flag = {action.option_strings[0]: action.dest for action in _options(leaf)}
    given = set()
    for line in ARGVS[words]:
        argv = line.split()
        assert cli.main([*words, *argv]) == 0, (words, argv, capsys.readouterr().err)
        flags = {token for token in argv if token in by_flag}
        unread = {flag for flag in flags if by_flag[flag] not in logs[-1].read}
        assert not unread, f"{' '.join(words)} declares {sorted(unread)} but never reads them"
        given |= flags
    assert given == set(by_flag), f"no argv line gives {sorted(set(by_flag) - given)}"
