"""No fit or statistic in src/hpscale calls LAPACK or a BLAS-backed product.

OpenBLAS and LAPACK pick their kernels for the CPU they run on, and
different kernels round differently, so a report that went through one
would change its bytes from host to host. fitting and stats must name no
linalg module, no matrix product (the @ operator, dot, vdot, matmul,
inner, tensordot) and no einsum with an optimize argument, which may hand
its contraction to BLAS.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hpscale"
FORBIDDEN = {"linalg", "dot", "vdot", "matmul", "inner", "tensordot"}


def _blas_uses(tree):
    """'name:line' for each forbidden name, product or einsum optimize in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            yield f"{node.attr}:{node.lineno}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module)
            for name in names:
                if FORBIDDEN & set(name.split(".")):
                    yield f"import {name}:{node.lineno}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield f"@:{node.lineno}"
        elif isinstance(node, ast.Call) and any(k.arg == "optimize" for k in node.keywords):
            yield f"optimize:{node.lineno}"


@pytest.mark.parametrize("module", ["fitting.py", "stats.py"])
def test_no_lapack_or_blas_product(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(_blas_uses(tree)) == []


def test_the_guard_sees_every_form():
    source = """
import numpy.linalg
from numpy import dot
from numpy.linalg import qr
a = np.linalg.qr(x)
b = x @ y
x @= y
c = np.matmul(x, y) + np.inner(x, y) + np.tensordot(x, y) + x.dot(y) + np.vdot(x, y)
d = np.einsum("ij,jk->ik", x, y, optimize=True)
e = np.einsum("ij,ij->i", x, y)
"""
    found = [use.split(":")[0] for use in _blas_uses(ast.parse(source))]
    assert sorted(found) == sorted([
        "import numpy.linalg", "import dot", "import numpy.linalg", "linalg", "@", "@",
        "matmul", "inner", "tensordot", "dot", "vdot", "optimize",
    ])  # fmt: skip
