"""A grammar fuzzer for the exit-code contract of ``cli.main``.

Each example picks one leaf parser of ``cli.build_parser()`` (a command,
or a claim of ``verify``), draws argv from that parser's own optional
actions, and may add one stray flag declared only by another leaf.  Values
come from a small grammar: a few ints, ``nan``/``inf``/``-1``, one corpus
spec, input files (valid exact, valid float, malformed JSON, not an object,
a missing field, a zero denominator, a wrong shape) and output paths
(fresh, a directory, under a file).  The contract: ``main`` returns 0, 1 or 2 and never raises;
exit 2 says ``error:`` or ``usage:`` on stderr; a stray flag exits 2; an
identity claim on valid exact files never exits 1.
"""

import argparse
import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from rieszops import cli
from rieszops.corpus import CLAIM_ROLES

FILES = {
    "exact.json": {"rows": 2, "cols": 2, "entries": ["1", "1/2", "0", "3"]},
    "float.json": {"rows": 2, "cols": 2, "entries": [0.5, 1.5, 2.0, 1.0]},
    "malformed.json": "{not json",
    "list.json": [1, 2],
    "nofield.json": {"rows": 2, "entries": ["1", "2"]},
    "zero.json": {"rows": 1, "cols": 2, "entries": ["1/0", "1"]},
    "shape.json": {"rows": 3, "cols": 2, "entries": ["1", "2", "3", "4"]},
}
SCALARS = ["1", "2", "3", "0", "-1", "nan", "inf"]
OUTPUTS = ["out.json", "adir", "exact.json/out.json"]
CORPUS = "seed=1,count=2"
OUTPUT_FLAGS = ("--json", "--out")


def _leaves(parser, path=()):
    """(command words, parser) for every parser without sub-commands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in _leaves(sub, path + (name,))]


def _options(parser):
    return [a for a in parser._actions if a.option_strings and a.dest != "help"]


LEAVES = _leaves(cli.build_parser())
ALL_FLAGS = {a.option_strings[0] for _, leaf in LEAVES for a in _options(leaf)}


def _values(action):
    """The grammar a flag's value is drawn from, valid values weighted up so
    that runs get past the parser."""
    flag = action.option_strings[0]
    if action.metavar == "FILE":
        return st.just("exact.json") | st.sampled_from(sorted(FILES))
    if flag in OUTPUT_FLAGS:
        return st.sampled_from(OUTPUTS)
    valid = st.just(CORPUS) if flag == "--corpus" else st.sampled_from(SCALARS[:3])
    return valid | st.sampled_from(SCALARS + sorted(FILES))


@st.composite
def invocations(draw):
    words, leaf = draw(st.sampled_from(LEAVES))
    actions = draw(st.lists(st.sampled_from(_options(leaf)), unique_by=id, max_size=6))
    # --samples is always drawn (an int is at most 3): a norm without a
    # closed form searches every sample, and at the default 200 samples
    # one cor23 corpus run takes ten times as long (--p-in 2 --p-mid1 2
    # --p-mid2 3 --p-out 3 on seed=1,count=2: 97 against 9 ms).
    actions += [a for a in _options(leaf) if a.dest == "samples" and a not in actions]
    argv, files = list(words), []
    for action in actions:
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            value = draw(_values(action))
            argv.append(value)
            if action.metavar == "FILE":
                files.append(value)
    own = {a.option_strings[0] for a in _options(leaf)}
    stray = None
    if draw(st.integers(0, 3)) == 0:  # one example in four
        stray = draw(st.sampled_from(sorted(ALL_FLAGS - own)))
        argv[len(words):len(words)] = [stray, draw(st.sampled_from(SCALARS))]
    return words, argv, files, stray


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(invocations())
def test_every_invocation_keeps_the_exit_code_contract(invocation):
    words, argv, files, stray = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in FILES.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(data if isinstance(data, str) else json.dumps(data))
        os.mkdir(os.path.join(tmp, "adir"))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            code, err = _run(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert "error:" in err or "usage:" in err, (argv, err)
    if stray is not None:
        assert code == 2, argv
    if words[-1] in CLAIM_ROLES and set(files) <= {"exact.json"}:
        assert code != 1, (argv, err)
