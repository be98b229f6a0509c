"""Source hygiene: no module of the package imports a name it never uses,
no private top-level name is left that no module of the package uses, every
public function, class and method is read by the package, ``scripts/``,
``perfbench/`` or README's python blocks (a method as an attribute of a
value, not as a local variable's name nor as an attribute of a string or
of an imported module; or is one the acceptance spec reads), only
``lattice`` turns exact scalars into numerators over a denominator, only
``lattice`` reads ``.entries``, which builds a ``Fraction`` per exact
entry, only ``lattice`` compares within ``DEFAULT_TOLERANCE`` (elsewhere it
is only the default of a verifier's ``tol`` or of ``--tolerance``), only
``lattice`` writes a term-by-term sum (``lattice._left_sum`` holds the
float summation rule), the verifiers leave the report schema to
``reports.make_report``, only ``norms._closed_form`` calls into
``numpy.linalg``, only ``lattice._on_words`` names the int64 dtype, and
only ``lattice`` writes the rules of a product of containers: it alone
compares two scalar modes or raises their mismatch, multiplies stored
denominators, and forms an outer product (once, in ``_outer``)."""

import ast
import sys
from pathlib import Path

import pytest

from test_readme import python_blocks

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


#: Public names that only the acceptance spec reads: ``tests/test_acceptance.py``
#: uses them.
SPEC_ONLY = {"operators.refinement_sums", "lattice._Entrywise.le"}

ROOT = SRC.parent.parent
#: The sources outside the package that read it, by name: ``scripts/``,
#: ``perfbench/`` and README's python blocks, which ``test_readme`` runs.
READERS = {
    **{str(p): p.read_text(encoding="utf-8")
       for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))},
    **{f"README.md python block {i}": block for i, block in enumerate(python_blocks())},
}


def _public_definitions(tree):
    """(dotted name, bare name, node) of every public top-level function and
    class and every public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item


def _module_of(node, modules: dict):
    """The dotted name of the module an expression names: a name bound by
    ``import`` (``modules`` maps it to its module), or a loaded submodule of
    one (``os.path``); None for anything else."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        parent = _module_of(node.value, modules)
        dotted = parent and f"{parent}.{node.attr}"
        return dotted if dotted in sys.modules else None
    return None


def _reads(tree, skip=None):
    """(names, attributes) a source reads outside the subtree ``skip``: the
    bare ``Name``s and the attributes of a module (``np.abs``,
    ``workloads.build``, ``os.path.join``), and the ``Attribute``s of any
    other value, imports and the ``Name``s a class body loads (the
    ``scale`` of an alias such as ``__mul__ = __rmul__ = scale``).  An
    attribute of a string constant (``", ".join``) is no read."""
    modules = {}
    for node in ast.walk(tree):
        for alias in node.names if isinstance(node, ast.Import) else ():
            top = alias.name.split(".")[0]
            modules[alias.asname or top] = alias.name if alias.asname else top
    names, attributes, todo = set(), set(), [(tree, False)]
    while todo:
        node, in_class = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            if not in_class:
                names.add(node.id)
            elif isinstance(node.ctx, ast.Load):
                attributes.add(node.id)
        elif isinstance(node, ast.Attribute):
            value = node.value
            if _module_of(value, modules):
                names.add(node.attr)
            elif not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
                attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            attributes |= {alias.name for alias in node.names}
        inside = isinstance(node, ast.ClassDef) or in_class and not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        todo.extend((child, inside) for child in ast.iter_child_nodes(node))
    return names, attributes


def unread_public_names(package: dict, readers: dict) -> list:
    """``module.name`` of each public function, class or method of the
    ``package`` sources that no package module reads outside its own
    definition and no ``readers`` source reads; both map names to source.
    A method is read only as an attribute (see ``_reads``), so a local
    variable of the same spelling does not count."""
    trees = {module: ast.parse(text) for module, text in package.items()}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    scripts = [_reads(ast.parse(text)) for text in readers.values()]
    unread = []
    for module, tree in trees.items():
        others = scripts + [r for m, r in reads.items() if m != module]
        for dotted, name, node in _public_definitions(tree):
            method = "." in dotted
            if not any(name in attributes or not method and name in names
                       for names, attributes in [*others, _reads(tree, skip=node)]):
                unread.append(f"{module}.{dotted}")
    return unread


def test_every_public_name_has_a_reader():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    unread = unread_public_names(package, READERS)
    assert sorted(unread) == sorted(SPEC_ONLY), (
        f"public names only tests read: {sorted(set(unread) - SPEC_ONLY)}; "
        f"allowlisted names now read or gone: {sorted(SPEC_ONLY - set(unread))}"
    )


def test_the_reader_check_flags_unread_public_names():
    package = {
        "a": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Shape:\n"
            "    def area(self):\n"
            "        return self.area()\n"
            "    def size(self):\n"
            "        return used()\n"
            "    @property\n"
            "    def edge(self):\n"
            "        return 0\n"
            "    def _private(self):\n"
            "        return 0\n"
            "    def scale(self):\n"
            "        return 0\n"
            "    __mul__ = scale\n"
            "    def width(self):\n"
            "        return 0\n"
            "class Unread:\n"
            "    pass\n"
        ),
        "b": (
            "from .a import Shape\n"
            "VALUE = Shape().size()\n"
            "def _measure(width):\n"
            "    for area in range(width):\n"
            "        yield area\n"
        ),
    }
    readers = {"script": "import a\nKEYS = {'a.recursive': a.Shape().edge}\n"}
    assert unread_public_names(package, readers) == [
        "a.recursive", "a.Shape.area", "a.Shape.width", "a.Unread"
    ]
    # An attribute of a string constant or of a module reads no method, nor
    # does a name a class body assigns; a module's attribute still reads a
    # function or class.
    package = {
        "a": (
            "class Lattice:\n"
            "    def join(self):\n"
            "        return 0\n"
            "    def abs(self):\n"
            "        return 0\n"
            "    def meet(self):\n"
            "        return 0\n"
            "def build():\n"
            "    return Lattice().meet()\n"
        ),
    }
    readers = {
        "script": "import os\nimport numpy as np\nimport a\n"
                  "LABEL = ', '.join(['x'])\nPATH = os.path.join('x')\n"
                  "SIZE = np.abs(-1)\nBUILT = a.build()\n"
                  "class Local:\n    join = abs = None\n",
    }
    assert unread_public_names(package, readers) == ["a.Lattice.join", "a.Lattice.abs"]


def test_every_name_in_all_resolves():
    import rieszops

    missing = [name for name in rieszops.__all__ if not hasattr(rieszops, name)]
    assert not missing, f"rieszops.__all__ names what it does not define: {missing}"


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


def entries_reads(source: str) -> list:
    """Where a module reads an ``.entries`` attribute, in source order."""
    found = sorted(
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    )
    return [f".entries (line {line})" for line, _ in found]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "lattice.py"], ids=lambda p: p.name
)
def test_only_lattice_reads_entries(path):
    reads = entries_reads(path.read_text(encoding="utf-8"))
    assert not reads, (
        f"{path.name} reads .entries: {reads}; read the stored values "
        "(``_values`` over ``_den``) or ``as_floats()`` instead"
    )


def test_the_entries_check_flags_attributes_not_keys():
    source = (
        "def f(x, data):\n"
        "    n = len(data['entries'])\n"
        "    return [a for a in x.entries], x.row(0).entries\n"
    )
    assert entries_reads(source) == [".entries (line 3)", ".entries (line 3)"]


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


def tolerance_comparisons(source: str) -> list:
    """Where a module reads ``DEFAULT_TOLERANCE`` other than as the default
    of a ``tol`` parameter or of a ``--tolerance`` flag, in source order."""
    tree = ast.parse(source)
    defaults = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
            defaults |= {id(value) for arg, value in pairs if arg.arg == "tol"}
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and node.args[0].value == "--tolerance"):
            defaults |= {id(k.value) for k in node.keywords if k.arg == "default"}
    found = sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "DEFAULT_TOLERANCE"
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "DEFAULT_TOLERANCE")
        and id(node) not in defaults
    )
    return [f"DEFAULT_TOLERANCE (line {line})" for line in found]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "lattice.py"], ids=lambda p: p.name
)
def test_only_lattice_compares_within_the_default_tolerance(path):
    uses = tolerance_comparisons(path.read_text(encoding="utf-8"))
    assert not uses, (
        f"{path.name} compares within DEFAULT_TOLERANCE itself: {uses}; use "
        "lattice's _zero_mask, _le_mask or _eq_mask"
    )


def test_the_tolerance_check_allows_only_the_defaults():
    source = (
        "from . import scalars\n"
        "from .scalars import DEFAULT_TOLERANCE\n"
        "def verify(x, tol=DEFAULT_TOLERANCE, *, other=DEFAULT_TOLERANCE):\n"
        "    return x <= tol or abs(x) <= DEFAULT_TOLERANCE\n"
        "parser.add_argument('--tolerance', default=DEFAULT_TOLERANCE)\n"
        "parser.add_argument('--seed', default=scalars.DEFAULT_TOLERANCE)\n"
    )
    assert tolerance_comparisons(source) == [
        "DEFAULT_TOLERANCE (line 3)", "DEFAULT_TOLERANCE (line 4)",
        "DEFAULT_TOLERANCE (line 6)",
    ]
    lattice = (SRC / "lattice.py").read_text(encoding="utf-8")
    assert tolerance_comparisons(lattice)


def running_sums(source: str) -> list:
    """Where a module writes a term-by-term sum, in source order: inside a
    loop, ``x += ...`` or ``x = x + ...`` (either side); anywhere, a call of
    the builtin ``sum`` or of ``np.add.accumulate``."""
    tree = ast.parse(source)
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                found.add((node.lineno, "+= in a loop"))
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
                  and isinstance(node.value.op, ast.Add)):
                targets = {ast.unparse(t) for t in node.targets}
                sides = {ast.unparse(node.value.left), ast.unparse(node.value.right)}
                if targets & sides:
                    found.add((node.lineno, "running + in a loop"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "sum":
            found.add((node.lineno, "sum()"))
        elif (isinstance(func, ast.Attribute) and func.attr == "accumulate"
              and isinstance(func.value, ast.Attribute) and func.value.attr == "add"):
            found.add((node.lineno, "add.accumulate"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "lattice.py"], ids=lambda p: p.name
)
def test_only_lattice_writes_a_term_by_term_sum(path):
    sums = running_sums(path.read_text(encoding="utf-8"))
    assert not sums, (
        f"{path.name} sums term by term itself: {sums}; float sums must be "
        "added left to right from 0.0, which lattice._left_sum does"
    )


def test_the_running_sum_check_flags_loops_sum_and_accumulate():
    source = (
        "import numpy as np\n"
        "def f(terms, a):\n"
        "    total = 0.0\n"
        "    for t in terms:\n"
        "        total = total + t\n"
        "        a[0] = t + a[0]\n"
        "    while a:\n"
        "        a += t\n"
        "    b = total + 1.0\n"
        "    return sum(terms), np.add.accumulate(a), b\n"
    )
    assert running_sums(source) == [
        "running + in a loop (line 5)", "running + in a loop (line 6)",
        "+= in a loop (line 8)", "add.accumulate (line 10)", "sum() (line 10)",
    ]
    lattice = (SRC / "lattice.py").read_text(encoding="utf-8")
    assert "running + in a loop" in " ".join(running_sums(lattice))


def report_schema_writes(source: str) -> list:
    """Where a module writes a witness's ``"role"`` key into a dict literal
    or imports ``scalar_to_json``, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            found += [
                (key.lineno, '"role" key')
                for key in node.keys
                if isinstance(key, ast.Constant) and key.value == "role"
            ]
        elif isinstance(node, ast.ImportFrom):
            found += [
                (node.lineno, "scalar_to_json import")
                for alias in node.names
                if alias.name == "scalar_to_json"
            ]
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("name", ["superop.py", "norms.py", "counterexample.py"])
def test_verifiers_leave_the_report_schema_to_make_report(name):
    writes = report_schema_writes((SRC / name).read_text(encoding="utf-8"))
    assert not writes, (
        f"{name} writes the report schema itself: {writes}; hand the "
        "containers and raw scalars to reports.make_report"
    )


def test_the_report_schema_check_flags_role_keys_and_the_serializer():
    source = (
        "from .scalars import le, scalar_to_json\n"
        "def f(x, w):\n"
        "    role = 'role'\n"
        "    return {'role': 'w', **w}, {role: x}, x['role']\n"
    )
    assert report_schema_writes(source) == [
        "scalar_to_json import (line 1)", '"role" key (line 4)'
    ]


def linalg_uses(source: str) -> list:
    """(scope, line) of every place a module reaches into ``numpy.linalg``,
    in source order: an attribute ``.linalg`` or an import of or from it.
    The scope is the dotted name of the enclosing classes and functions,
    ``<module>`` outside them."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        imported = []
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [f"{node.module}.{alias.name}" for alias in node.names]
        if (isinstance(node, ast.Attribute) and node.attr == "linalg") or any(
            name.startswith("numpy.linalg") for name in imported
        ):
            found.append((scope or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found, key=lambda use: use[1])


def test_one_2_to_2_kernel_calls_linalg():
    # The thin SVD in norms._closed_form is the package's one call into
    # numpy.linalg, so a matrix alone and in a stack take the same kernel.
    uses = [
        (path.name, scope)
        for path in PACKAGE
        for scope, _ in linalg_uses(path.read_text(encoding="utf-8"))
    ]
    assert uses == [("norms.py", "_closed_form")], (
        f"numpy.linalg is reached from {uses}; every 2 -> 2 norm goes "
        "through the thin SVD of norms._closed_form"
    )


def test_the_linalg_check_flags_a_second_call_site():
    source = (
        "import numpy as np\n"
        "import numpy.linalg\n"
        "from numpy import linalg\n"
        "from numpy.linalg import eigvalsh\n"
        "def _closed_form(a):\n"
        "    return np.linalg.svd(a, full_matrices=False)\n"
        "class Gram:\n"
        "    def top(self, a):\n"
        "        return np.linalg.eigvalsh(a.T @ a)[-1]\n"
        "norm = np.linalg.norm\n"
        "def f(a):\n"
        "    return np.linalg\n"
    )
    assert linalg_uses(source) == [
        ("<module>", 2), ("<module>", 3), ("<module>", 4), ("_closed_form", 6),
        ("Gram.top", 9), ("<module>", 10), ("f", 12),
    ]


#: The spellings of numpy's 64-bit integer dtype: attributes or names, and
#: strings as ``astype`` and ``dtype=`` take them.
INT64_NAMES = {"int64", "int_", "intp", "longlong"}
INT64_STRINGS = INT64_NAMES | {"i8", "<i8", "=i8", "long"}


def int64_uses(source: str) -> list:
    """(scope, line) of every place a module names the int64 dtype, in
    source order: an attribute, name or import in ``INT64_NAMES`` or a
    string constant in ``INT64_STRINGS``; scopes as in ``linalg_uses``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            (isinstance(node, ast.Attribute) and node.attr in INT64_NAMES)
            or (isinstance(node, ast.Name) and node.id in INT64_NAMES)
            or (isinstance(node, ast.ImportFrom)
                and any(alias.name in INT64_NAMES for alias in node.names))
            or (isinstance(node, ast.Constant) and node.value in INT64_STRINGS)
        ):
            found.append((scope or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found, key=lambda use: use[1])


def test_only_the_word_bound_makes_int64_values():
    # An int64 value is exact only under the magnitude bound that
    # lattice._on_words checks; made anywhere else, an overflow would give a
    # wrong exact verdict silently.
    uses = sorted({
        (path.name, scope)
        for path in PACKAGE
        for scope, _ in int64_uses(path.read_text(encoding="utf-8"))
    })
    assert uses == [("lattice.py", "_on_words")], (
        f"the int64 dtype is named in {uses}; only lattice._on_words, which "
        "checks the word bound, makes int64 values"
    )


def test_the_int64_check_flags_a_second_call_site():
    source = (
        "import numpy as np\n"
        "from numpy import int64\n"
        "def _on_words(a, b):\n"
        "    return a.astype(np.int64), b\n"
        "class Kernel:\n"
        "    def run(self, a):\n"
        "        return a.astype('i8') @ np.ones(3, dtype=np.intp)\n"
        "radix = np.arange(4, dtype=int64)\n"
        "def f(a):\n"
        "    return np.asarray(a, dtype='int64'), 'an int64 array'\n"
    )
    assert int64_uses(source) == [
        ("<module>", 2), ("_on_words", 4), ("Kernel.run", 7), ("Kernel.run", 7),
        ("<module>", 8), ("f", 10),
    ]


#: The attributes that carry a container's scalar mode.
MODE_NAMES = {"mode", "is_exact"}


def product_rule_sites(source: str) -> list:
    """(kind, scope, line) of every place a module writes a rule of a
    product of containers itself, by line: a comparison of two scalar modes
    (``.mode`` or ``.is_exact`` on two sides), a ``ScalarModeError`` raised
    with "mismatch" in its message, a product with a stored denominator
    ``._den`` as a factor, and an outer product (an ``.outer`` attribute);
    scopes as in ``linalg_uses``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        kind = None
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if sum(isinstance(x, ast.Attribute) and x.attr in MODE_NAMES for x in sides) > 1:
                kind = "mode comparison"
        elif (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and "ScalarModeError" in ast.unparse(node.exc.func)
              and any(isinstance(c, ast.Constant) and "mismatch" in str(c.value)
                      for c in ast.walk(node.exc))):
            kind = "mode mismatch raise"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if any(isinstance(x, ast.Attribute) and x.attr == "_den"
                   for x in (node.left, node.right)):
                kind = "denominator product"
        elif isinstance(node, ast.Attribute) and node.attr == "outer":
            kind = "outer product"
        if kind:
            found.append((kind, scope or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found, key=lambda site: (site[2], site[0]))


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "lattice.py"], ids=lambda p: p.name
)
def test_only_lattice_checks_modes_and_multiplies_denominators(path):
    # A product's operands pass lattice._check_operands and its denominator
    # is lattice._product_den, so that a change of storage is one module's.
    sites = [f"{kind} (line {line})"
             for kind, _, line in product_rule_sites(path.read_text(encoding="utf-8"))
             if kind != "outer product"]
    assert not sites, (
        f"{path.name} writes a product rule itself: {sites}; use "
        "lattice._check_operands and lattice._product_den"
    )


def test_one_outer_product_in_the_package():
    uses = [
        (path.name, scope)
        for path in PACKAGE
        for kind, scope, _ in product_rule_sites(path.read_text(encoding="utf-8"))
        if kind == "outer product"
    ]
    assert uses == [("lattice.py", "_outer")], (
        f"outer products are formed in {uses}; kron and rank_one share "
        "lattice._outer"
    )


def test_the_product_rule_check_flags_a_second_site():
    source = (
        "import numpy as np\n"
        "from .scalars import ScalarModeError\n"
        "def rank_one(f, v):\n"
        "    if f.mode != v.mode:\n"
        "        raise ScalarModeError(f'scalar mode mismatch: {f.mode}')\n"
        "    return np.multiply.outer(v._values, f._values), v._den and v._den * f._den\n"
        "class Superoperator:\n"
        "    def build(self, A, B):\n"
        "        if A.is_exact is not B.is_exact:\n"
        "            raise TypeError('scalar mode mismatch')\n"
        "        return np.outer(A._values, B._values), D * A._den * B._den\n"
        "def f(x):\n"
        "    raise ScalarModeError('needs an exact operator')\n"
        "    return x._den + 1, x.mode == 'exact', 2 * x.dens, x._den is None\n"
    )
    assert product_rule_sites(source) == [
        ("mode comparison", "rank_one", 4), ("mode mismatch raise", "rank_one", 5),
        ("denominator product", "rank_one", 6), ("outer product", "rank_one", 6),
        ("mode comparison", "Superoperator.build", 9),
        ("denominator product", "Superoperator.build", 11),
        ("denominator product", "Superoperator.build", 11),
        ("outer product", "Superoperator.build", 11),
    ]
    lattice = (SRC / "lattice.py").read_text(encoding="utf-8")
    assert {kind for kind, _, _ in product_rule_sites(lattice)} == {
        "mode comparison", "mode mismatch raise", "denominator product", "outer product"
    }
