"""No private name in src/hpscale goes unused, and no function imports.

Each private module-level function, class or constant, and each private
method, must be named somewhere else in the package: read as a name or an
attribute, or imported. Its own definition does not count, and neither
does a mention in a comment or a docstring. Every import is at the top of
its module, none inside a function. cli imports no private name from
another hpscale module: what a command needs of the library is public.
The package's dataclasses are listed, so that a new one is declared.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hpscale"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree):
    """The names a module defines at its top level, and its methods' names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from (
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )


def _uses(tree):
    """The names a module reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


USED = {name for tree in TREES.values() for name in _uses(tree)}


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_used(module):
    unused = [name for name in _definitions(TREES[module]) if _private(name) and name not in USED]
    assert unused == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_function_imports(module):
    local = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(TREES[module])
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def test_cli_imports_no_private_name():
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(TREES["cli.py"])
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hpscale"))
        for alias in node.names
        if _private(alias.name)
    ]
    assert private == []


def _dataclasses(tree):
    """The names of a module's classes decorated with dataclass, bare or called."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
                    yield node.name


def test_every_dataclass_is_declared():
    # each costs about 1 ms of `import hpscale`, which only cli.import_ms sees
    found = {f"{m}:{name}" for m, tree in TREES.items() for name in _dataclasses(tree)}
    assert found == {
        "fitting.py:FitResult",
        "fitting.py:OptimumObservation",
        "laws.py:AuxInputs",
        "laws.py:GridSpec",
        "laws.py:ModelScale",
        "laws.py:Prediction",
        "synth.py:ObservationSpec",
        "synth.py:SurfaceSpec",
    }
