"""Source hygiene: no module of the package imports a name it never uses,
no private top-level name is left that no module of the package uses, and
only ``lattice`` turns exact scalars into numerators over a denominator."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rieszops"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _private_definitions(tree):
    """(name, node) of every private top-level function, class and constant;
    dunders are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _referenced_names(tree):
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return _used_names(tree) | attributes


def dead_private_names(sources: dict) -> list:
    """``module.name`` of each private top-level name that no module uses
    outside its own definition; ``sources`` maps module names to source."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    dead = []
    for module, tree in trees.items():
        elsewhere = set().union(
            *(_referenced_names(t) for m, t in trees.items() if m != module)
        )
        for name, node in _private_definitions(tree):
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if name not in elsewhere and name not in _referenced_names(rest):
                dead.append(f"{module}.{name}")
    return dead


def test_no_dead_private_code():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    dead = dead_private_names(sources)
    assert not dead, f"private names no module uses: {dead}"


def test_the_dead_code_check_flags_unused_private_names():
    sources = {
        "a": (
            "__version__ = '0'\n"
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "def _capped():\n"
            "    return _LIMIT\n"
            "def _shared():\n"
            "    return 0\n"
            "class _Dead:\n"
            "    pass\n"
            "def public():\n"
            "    return _capped()\n"
        ),
        "b": "from .a import _shared\nVALUE = _shared()\n",
    }
    assert dead_private_names(sources) == ["a._UNUSED", "a._recursive", "a._Dead"]


def scaling_reads(source: str) -> list:
    """Where a module reads ``.numerator`` or ``.denominator`` or calls
    ``math.lcm`` (also when imported as a bare name), in source order."""
    tree = ast.parse(source)
    lcm_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names
        if alias.name == "lcm"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
            found.append((node.lineno, node.col_offset, f".{node.attr}"))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "lcm"
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
            ) or (isinstance(func, ast.Name) and func.id in lcm_names):
                found.append((node.lineno, node.col_offset, "lcm"))
    return [f"{what} (line {line})" for line, _, what in sorted(found)]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "lattice.py"], ids=lambda p: p.name
)
def test_only_lattice_scales_exact_scalars(path):
    reads = scaling_reads(path.read_text(encoding="utf-8"))
    assert not reads, (
        f"{path.name} scales exact scalars itself: {reads}; the storage in "
        "lattice._Entrywise holds numerators over one denominator"
    )


def test_the_scaling_check_flags_lcm_and_fraction_parts():
    source = (
        "import math\n"
        "from math import lcm as common\n"
        "def f(values, x):\n"
        "    D = math.lcm(*(v.denominator for v in values))\n"
        "    return [v.numerator * D for v in values], common(D, 2), x.den\n"
    )
    assert scaling_reads(source) == [
        "lcm (line 4)", ".denominator (line 4)", ".numerator (line 5)", "lcm (line 5)"
    ]
    lattice = (SRC / "lattice.py").read_text(encoding="utf-8")
    assert "lcm" in " ".join(scaling_reads(lattice))
