"""No module in src/hpscale uses numpy.random, and `fit` never loads it.

The bootstrap and synth's noise draw from philox's counter-based
Philox4x32-10, whose words no numpy release can change. numpy loads
numpy.random on its first use only, and it adds about 2 MB to the peak
memory of a process that loads it, so a `fit` process must not.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import LATTICE_D, LATTICE_N
from hpscale import ObservationSpec, generate_observations, observations_to_csv
from test_cli import CLI_ENV

SRC = Path(__file__).resolve().parents[1] / "src" / "hpscale"


def _numpy_random_uses(tree):
    """'name:line' for each np.random or numpy.random read or import in tree."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield f"{node.value.id}.random:{node.lineno}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("numpy.random"):
                    yield f"import {alias.name}:{node.lineno}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            if any(name.startswith("numpy.random") for name in [node.module, *names]):
                yield f"from {node.module}:{node.lineno}"


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_numpy_random(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(_numpy_random_uses(tree)) == []


def test_the_guard_sees_every_form():
    source = """
import numpy.random
import numpy.random as npr
from numpy import random
from numpy.random import default_rng
a = np.random.default_rng(0)
b = numpy.random.Philox
c = rng.random()
d = random.random()
"""
    found = [use.split(":")[0] for use in _numpy_random_uses(ast.parse(source))]
    assert sorted(found) == sorted([
        "import numpy.random", "import numpy.random", "from numpy", "from numpy.random",
        "np.random", "numpy.random",
    ])  # fmt: skip


def test_fit_does_not_load_numpy_random(tmp_path):
    spec = ObservationSpec(n_values=LATTICE_N, d_values=LATTICE_D, noise_sigma=0.05, seed=3)
    obs = tmp_path / "obs.csv"
    obs.write_text(observations_to_csv(generate_observations(spec)))
    code = (
        "import sys\n"
        "from hpscale import cli\n"
        f"rc = cli.main(['fit', '--observations', {str(obs)!r},"
        f" '--out', {str(tmp_path / 'fit.json')!r}])\n"
        "print(rc, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=CLI_ENV, text=True)
    assert proc.stdout == "0 False\n", proc.stderr
