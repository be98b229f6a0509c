"""The examples in README.md run as written."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from rieszops.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list:
    """The python blocks of README.md, in document order."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 2
    # The blocks build on each other (the norms example reuses A), so they
    # share one namespace, in document order.
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for index, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {index}", "exec"), namespace)


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text("utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    commands = [
        shlex.split(line)[3:]
        for line in block.splitlines()
        if line.startswith("python -m rieszops ")
    ]
    assert len(commands) >= 9
    files = {
        "A.json": {"rows": 2, "cols": 2, "entries": [1, "-2/3", 0, 4]},
        "B.json": {"rows": 2, "cols": 2, "entries": ["1/2", -1, 3, "-5/7"]},
        "A0.json": {"rows": 2, "cols": 2, "entries": [1, "2/3", 0, "1/4"]},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        assert "error" not in capsys.readouterr().err
