"""Seeded inputs for every benchmark workload.

write() generates a workload's corpus through hpscale's public functions
(synth generators, surface and observation CSV writers) and records what
the benchmark needs to check the outputs in manifest.json. hpscale itself
only ever sees the generated files. The same seed gives the same bytes.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from hpscale import (
    GridSpec,
    ModelScale,
    OptimumObservation,
    SurfaceSpec,
    bootstrap_fit,
    find_optimum,
    generate_surface,
    relative_error,
    step_law,
    surface_to_csv,
)
from hpscale.laws import LAW_METHODS

METHODS = ",".join(LAW_METHODS)
# (lambda, alpha, lambda_b, alpha_b) for the meituan rule: with losses of
# 2.3-3.5 it predicts lr ~2e-3 and bs ~0.2M-1M tokens, inside the grid hull.
MEITUAN = "0.006,1.0,1e8,0.2"

# Bowl shape shared by all synthetic surfaces, in natural-log coordinates.
# The noise is small against the curvature so that the refit error the
# paper reports is dominated by grid quantisation, not by the seed.
BOWL = {"curvature_lr": 0.1, "curvature_bs": 0.05, "cross_term": 0.02}
SURFACE_NOISE = 0.0001
VAL_OFFSET = 0.02

PAPER_CELLS = (6, 5)  # N values x tokens-per-parameter ratios: 30 surfaces
PAPER_RESAMPLES = 1000
DENSE_SHAPE = (60, 70)
DENSE_QUERIES = 6  # per axis: a 6 x 6 lattice of off-grid queries


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _jitter(rng: random.Random, width: float) -> float:
    return math.exp(rng.uniform(-width, width))


def _base_loss(n: float, d: float) -> float:
    # Chinchilla-shaped final loss, so the loss-based rules get plausible input
    return 1.7 + 400.0 / n**0.34 + 410.0 / d**0.28


def _inside(value: float, grid: tuple[float, ...], margin: float) -> bool:
    lo, hi = math.log(grid[0]), math.log(grid[-1])
    return lo + margin <= math.log(value) <= hi - margin


def _nearest(value: float, grid: tuple[float, ...]) -> float:
    return min(grid, key=lambda g: abs(math.log(g) - math.log(value)))


def _step_optimum(n: float, d: float, grid: GridSpec) -> tuple[float, float]:
    pred = step_law(ModelScale(n, d))
    # half a grid step of margin keeps the planted optimum inside the hull
    if not (
        _inside(pred.lr, grid.lr_values, 0.5 * math.log(grid.lr_values[1] / grid.lr_values[0]))
        and _inside(
            pred.bs_tokens, grid.bs_values, 0.5 * math.log(grid.bs_values[1] / grid.bs_values[0])
        )
    ):
        raise RuntimeError(f"step-law optimum for N={n:.3e}, D={d:.3e} leaves the grid")
    return pred.lr, pred.bs_tokens


def dense_grid() -> GridSpec:
    n_lr, n_bs = DENSE_SHAPE
    lrs = tuple(2.0 ** (-12.0 + 6.0 * k / (n_lr - 1)) for k in range(n_lr))
    bss = tuple(2.0 ** (14.0 + 8.5 * k / (n_bs - 1)) for k in range(n_bs))
    return GridSpec(lrs, bss)


def paper_specs(seed: int) -> list[SurfaceSpec]:
    """30 noisy surfaces with the optimum planted at the step law."""
    rng = _rng("paper_corpus", seed)
    grid = GridSpec.default()
    specs = []
    n_count, r_count = PAPER_CELLS
    for i in range(n_count):
        for j in range(r_count):
            n = 1.0e8 * 8.0 ** (i / (n_count - 1)) * _jitter(rng, 0.05)
            d = 20.0 * 2.0**j * _jitter(rng, 0.05) * n
            lr, bs = _step_optimum(n, d, grid)
            specs.append(
                SurfaceSpec(
                    opt_lr=lr,
                    opt_bs=bs,
                    base_loss=_base_loss(n, d),
                    noise_sigma=SURFACE_NOISE,
                    seed=rng.randrange(2**31),
                    val_offset=VAL_OFFSET,
                    scale=ModelScale(n, d),
                    **BOWL,
                )
            )
    return specs


def paper_refit(seed: int):
    """The paper's quality number for the seed's paper corpus.

    Fits both laws to the 30 surface argmins, then returns the mean
    relative loss error (per-mille) of the refitted law's predictions on
    the same surfaces, with the FitResult.
    """
    surfaces = [generate_surface(spec) for spec in paper_specs(seed)]
    obs = [
        OptimumObservation(s.scale.n_params, s.scale.d_tokens, *find_optimum(s).hp)
        for s in surfaces
    ]
    fit = bootstrap_fit(obs, PAPER_RESAMPLES, fit_seed(seed))
    errors = []
    for s in surfaces:
        n, d = s.scale.n_params, s.scale.d_tokens
        hp = (fit.c * n**fit.alpha * d**fit.beta, fit.d * d**fit.gamma)
        errors.append(relative_error(s, hp))
    return 1000.0 * sum(errors) / len(errors), fit


def fit_seed(seed: int) -> int:
    return _rng("fit", seed).randrange(2**31)


def _write_surfaces(tr, specs, grid, out: Path, prefix: str) -> list[str]:
    name = f"synth.generate_surface_{len(grid.lr_values)}x{len(grid.bs_values)}"
    files = []
    for k, spec in enumerate(specs):
        surf = tr.call(name, generate_surface, spec, grid)
        tr.count("synth.points", len(surf.points))
        text = tr.call("surface.surface_to_csv", surface_to_csv, surf)
        files.append(f"{prefix}{k:02d}.csv")
        (out / files[-1]).write_text(text, encoding="utf-8")
    return files


def _surface_entries(specs, files) -> list[dict]:
    return [
        {
            "file": f,
            "n": spec.scale.n_params,
            "d": spec.scale.d_tokens,
            "loss": spec.base_loss,
            "planted_node": None
            if spec.noise_sigma > 0
            else [spec.opt_lr, int(spec.opt_bs)],
        }
        for spec, f in zip(specs, files)
    ]


def _paper(seed, out, tr) -> dict:
    specs = paper_specs(seed)
    files = _write_surfaces(tr, specs, GridSpec.default(), out, "surf")
    return {
        "surfaces": _surface_entries(specs, files),
        "fit_seed": fit_seed(seed),
        "resamples": PAPER_RESAMPLES,
    }


def _dense(seed, out, tr) -> dict:
    """Three 60 x 70 surfaces: one noise-free with an on-node optimum, two noisy."""
    rng = _rng("dense_grid", seed)
    grid = dense_grid()
    specs = []
    for noisy in (False, True, True):
        n = 3.0e8 * _jitter(rng, 0.2)
        d = 40.0 * _jitter(rng, 0.3) * n
        lr, bs = _step_optimum(n, d, grid)
        if not noisy:
            # bs nodes are stored as rounded token counts
            lr, bs = _nearest(lr, grid.lr_values), int(round(_nearest(bs, grid.bs_values)))
        specs.append(
            SurfaceSpec(
                opt_lr=lr,
                opt_bs=bs,
                base_loss=_base_loss(n, d),
                noise_sigma=SURFACE_NOISE if noisy else 0.0,
                seed=rng.randrange(2**31),
                val_offset=VAL_OFFSET,
                scale=ModelScale(n, d),
                **BOWL,
            )
        )
    files = _write_surfaces(tr, specs, grid, out, "dense")

    def lattice(values):
        lo, hi = math.log(values[0]), math.log(values[-1])
        return [
            math.exp(lo + (hi - lo) * (a + 0.5 + rng.uniform(-0.3, 0.3)) / DENSE_QUERIES)
            for a in range(DENSE_QUERIES)
        ]

    lrs, bss = lattice(grid.lr_values), lattice([int(round(b)) for b in grid.bs_values])
    return {
        "surfaces": _surface_entries(specs, files),
        "queries": [[lr, bs] for lr in lrs for bs in bss],
    }


WRITERS = {
    "paper_corpus": _paper,
    "dense_grid": _dense,
}


def write(workload: str, seed: int, out: Path, tr) -> dict:
    """Write the workload's corpus and manifest.json into out; return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, **WRITERS[workload](seed, out, tr)}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    return manifest
