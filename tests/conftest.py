import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from hpscale import OptimumObservation, load_surface
from hpscale import surface as surface_module

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Not part of tier-1: a seeded random run of the in-process fuzz properties
# with more examples than their tier-1 counts (see fuzz_examples), e.g.
#   pytest --hypothesis-profile=random --hypothesis-seed=<n> \
#       tests/test_cli_inprocess.py -k never_escape
settings.register_profile(
    "random", parent=settings.get_profile("det"), derandomize=False, max_examples=800
)
settings.load_profile("det")


def fuzz_examples(tier1: int) -> int:
    """A fuzz property's example count: tier1 under "det", or the loaded
    profile's max_examples when that is larger."""
    return max(tier1, settings.default.max_examples)


DATA_DIR = Path(__file__).parent / "data"
FIG3_PATH = DATA_DIR / "fig3_style.csv"

# Reference coefficients shared by many tests: learning-rate law
# (c, alpha, beta) and batch-size law (d, gamma).
LAW_COEFFS = {"c": 1.79, "alpha": -0.713, "beta": 0.307, "d": 0.58, "gamma": 0.571}

# 4x4 lattice used by the fitter round-trip tests.
LATTICE_N = (6e7, 2e8, 6.3e8, 2e9)
LATTICE_D = (2e9, 1e10, 4e10, 2e11)


def point_at(surface, lr, bs_tokens):
    """The surface's one SweepPoint at (lr, bs_tokens), found by a scan."""
    (pt,) = [p for p in surface.points if (p.lr, p.bs_tokens) == (lr, bs_tokens)]
    return pt


@pytest.fixture(autouse=True)
def cold_surface_memo():
    """Start every test with load_surface's memo empty, so a test that
    counts or patches the parsers does not depend on which text the
    previous test loaded."""
    surface_module._last_load = None


@pytest.fixture(scope="session")
def fig3_surface():
    return load_surface(FIG3_PATH.read_bytes())


def independent_n_observations(seed: int, n: int = 40, sigma: float = 0.1):
    """Observations with log bs = 0.58 log D + noise and N drawn independently.

    The batch size is independent of N by construction, mimicking grids
    where only D drives the optimal batch size.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        n_params = math.exp(rng.uniform(math.log(6e7), math.log(1e9)))
        d_tokens = math.exp(rng.uniform(math.log(2e9), math.log(1e11)))
        bs = math.exp(0.58 * math.log(d_tokens) + sigma * rng.standard_normal())
        out.append(OptimumObservation(n_params, d_tokens, 1e-3, bs))
    return out
