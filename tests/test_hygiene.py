"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rieszops"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """(bound name, line) of every top-level import of a module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Names loaded anywhere in the module, including names used only in
    string annotations such as ``-> "RegularOperator"``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [f"{name} (line {line})" for name, line in _imported_names(tree)
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_every_module():
    assert {p.name for p in MODULES} >= {"cli.py", "norms.py", "operators.py"}


def test_the_check_counts_string_annotations_and_flags_the_rest():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from .lattice import LatticeVector, Partition\n"
        "def f(x: 'Optional[LatticeVector]') -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["Sequence (line 3)", "Partition (line 4)"]
