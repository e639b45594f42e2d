"""No module in src/hpscale uses dataclasses, and importing hpscale never
loads it.

The package's records are plain classes on errors.Record. A frozen
dataclass generates and execs its methods when its module is imported,
0.5 to 1 ms a class on a 2-vCPU VM, and every hpscale process imports
the whole package before it does anything.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import CLI_ENV

SRC = Path(__file__).resolve().parents[1] / "src" / "hpscale"


def _dataclasses_uses(tree):
    """'name:line' for each import of dataclasses and each name of it in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "dataclasses":
            yield f"dataclasses:{node.lineno}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dataclasses":
                    yield f"import {alias.name}:{node.lineno}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "dataclasses":
                yield f"from {node.module}:{node.lineno}"


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_dataclasses(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(_dataclasses_uses(tree)) == []


def test_the_guard_sees_every_form():
    source = """
import dataclasses
import dataclasses as dc
from dataclasses import dataclass, field
a = dataclasses.replace(spec, seed=1)
b = spec.replace(seed=1)
c = dataclass
"""
    found = [use.split(":")[0] for use in _dataclasses_uses(ast.parse(source))]
    assert sorted(found) == sorted([
        "import dataclasses", "import dataclasses", "from dataclasses", "dataclasses",
    ])  # fmt: skip


def _child(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=CLI_ENV, text=True)
    return proc.stdout.splitlines()[-1], proc.stderr


def test_import_does_not_load_dataclasses():
    code = "import sys\nimport numpy, hpscale\nprint('dataclasses' in sys.modules)\n"
    assert _child(code) == ("False", "")


def test_predict_does_not_load_dataclasses():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['hpscale', 'predict', '--method', 'step', '--n', '1e9', '--d', '1e10']\n"
        "try:\n"
        "    runpy.run_module('hpscale', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    print(exit.code, 'dataclasses' in sys.modules)\n"
    )
    assert _child(code) == ("0 False", "")
