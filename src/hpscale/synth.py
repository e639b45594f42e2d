"""Deterministic generators for synthetic surfaces and observations.

These serve as brute-force ground truth for the analytics and fitting
modules: generate_surface builds a convex (quadratic in log coordinates)
loss bowl with optional multiplicative lognormal noise, and
generate_observations emits law-consistent optima over an (N, D) lattice.

Noise comes from philox._normals: stream 0 is a surface's loss noise,
streams 1 and 2 the lr and bs noise of observations (see philox).

A spec's constructor is the only check of its fields, and each spec
holds the floats check_number returns (see errors), so a spec built in
Python and the same spec read from JSON are equal and write equal bytes.
from_json_dict passes the JSON values through unchanged; a surface
spec's n_params and d_tokens become its scale.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, DomainError, Record, _set, check_number, check_seed, decode_json
from .errors import hold_number
from .fitting import OptimumObservation
from .laws import DEFAULT_LAWS, GridSpec, ModelScale, Prediction, snap_to_grid
from .philox import _normals
from .surface import LossSurface, _check_cells

# the most (N, D) nodes an observation lattice may have: one observation each
MAX_LATTICE_NODES = 100_000


class SurfaceSpec(Record):
    """Quadratic-in-log loss bowl around (opt_lr, opt_bs).

    loss(lr, bs) = (base_loss + q(dx, dy)) * exp(noise_sigma * z) with
    dx = log lr - log opt_lr, dy = log bs - log opt_bs and
    q = curvature_lr * dx**2 + curvature_bs * dy**2 + 2 * cross_term * dx * dy.
    cross_term**2 <= curvature_lr * curvature_bs keeps q positive
    semi-definite; val_offset, when set, adds a constant-shift validation
    loss column.
    """

    __slots__ = _fields = (
        "opt_lr", "opt_bs", "curvature_lr", "curvature_bs", "cross_term",
        "base_loss", "noise_sigma", "seed", "val_offset", "scale",
    )  # fmt: skip

    def __init__(
        self,
        opt_lr: float,
        opt_bs: float,
        curvature_lr: float = 1.0,
        curvature_bs: float = 1.0,
        cross_term: float = 0.0,
        base_loss: float = 2.0,
        noise_sigma: float = 0.0,
        seed: int = 0,
        val_offset: float | None = None,
        scale: ModelScale = ModelScale(1.0e9, 1.0e11),
    ):
        hold_number(self, "opt_lr", opt_lr, "positive")
        hold_number(self, "opt_bs", opt_bs, "positive")
        hold_number(self, "curvature_lr", curvature_lr, "non-negative", "curvatures: curvature_lr")
        hold_number(self, "curvature_bs", curvature_bs, "non-negative", "curvatures: curvature_bs")
        hold_number(self, "cross_term", cross_term)
        if self.cross_term * self.cross_term > self.curvature_lr * self.curvature_bs:
            raise ArgumentError(
                f"cross_term {self.cross_term} breaks positive semi-definiteness "
                f"(needs cross**2 <= {self.curvature_lr * self.curvature_bs})"
            )
        hold_number(self, "base_loss", base_loss, "positive")
        hold_number(self, "noise_sigma", noise_sigma, "non-negative")
        check_seed(seed)
        _set(self, "seed", seed)
        if val_offset is None:
            _set(self, "val_offset", None)
        else:
            hold_number(self, "val_offset", val_offset)
        if not isinstance(scale, ModelScale):
            raise ArgumentError(f"scale must be a ModelScale, got {scale!r:.40}")
        _set(self, "scale", scale)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SurfaceSpec":
        """Build from a spec JSON object, whose n_params and d_tokens,
        checked first, form the scale; every bad type is an ArgumentError."""
        doc = dict(doc)
        scale = ModelScale(doc.pop("n_params", 1.0e9), doc.pop("d_tokens", 1.0e11))
        try:
            return cls(scale=scale, **doc)
        except TypeError as exc:  # quotes the unknown key: keep 100 chars
            raise ArgumentError(f"bad surface spec: {exc!s:.100}") from exc


class ObservationSpec(Record):
    """Law-consistent optima over the (n_values x d_values) lattice.

    opt_lr = c * N**alpha * D**beta * exp(sigma * z1) and
    opt_bs = d_coef * D**gamma * exp(sigma * z2); snap maps both onto the
    default sweep grid. The law defaults to the published step law. The
    lattice is held as two tuples of floats, given as lists or tuples, of
    at most MAX_LATTICE_NODES nodes in all.
    """

    __slots__ = _fields = (
        "c", "alpha", "beta", "d_coef", "gamma", "n_values", "d_values", "noise_sigma", "seed",
        "snap",
    )  # fmt: skip

    def __init__(
        self,
        c: float = DEFAULT_LAWS["step"]["c"],
        alpha: float = DEFAULT_LAWS["step"]["alpha"],
        beta: float = DEFAULT_LAWS["step"]["beta"],
        d_coef: float = DEFAULT_LAWS["step"]["d"],
        gamma: float = DEFAULT_LAWS["step"]["gamma"],
        n_values: tuple[float, ...] = (),
        d_values: tuple[float, ...] = (),
        noise_sigma: float = 0.0,
        seed: int = 0,
        snap: bool = False,
    ):
        hold_number(self, "c", c, "positive", "law coefficients: c")
        hold_number(self, "alpha", alpha)
        hold_number(self, "beta", beta)
        hold_number(self, "d_coef", d_coef, "positive", "law coefficients: d_coef")
        hold_number(self, "gamma", gamma)
        for name, values in (("n_values", n_values), ("d_values", d_values)):
            if not isinstance(values, (list, tuple)):
                raise ArgumentError(f"{name} must be a list of numbers, got {values!r:.40}")
            _set(self, name, tuple([check_number(v, name, "positive") for v in values]))
        nodes = len(self.n_values) * len(self.d_values)
        if nodes > MAX_LATTICE_NODES:
            raise ArgumentError(
                f"the N x D lattice of {len(self.n_values):,} x {len(self.d_values):,} = "
                f"{nodes:,} nodes exceeds the limit of {MAX_LATTICE_NODES:,}"
            )
        if len(set(self.n_values)) < 2 or len(set(self.d_values)) < 2:
            raise ArgumentError("lattice needs >= 2 distinct N and >= 2 distinct D")
        hold_number(self, "noise_sigma", noise_sigma, "non-negative")
        check_seed(seed)
        _set(self, "seed", seed)
        if not isinstance(snap, bool):
            raise ArgumentError(f"snap must be true or false, got {snap!r:.40}")
        _set(self, "snap", snap)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ObservationSpec":
        """Build from a spec JSON object; every bad type is an ArgumentError."""
        try:
            return cls(**doc)
        except TypeError as exc:  # quotes the unknown key: keep 100 chars
            raise ArgumentError(f"bad observation spec: {exc!s:.100}") from exc


def load_spec_file_bytes(raw: bytes) -> SurfaceSpec | ObservationSpec:
    """Parse spec JSON bytes; the "kind" key selects surface vs observations."""
    doc = decode_json(raw, "spec")
    if not isinstance(doc, dict):
        raise ArgumentError("spec must be a JSON object")
    kind = doc.pop("kind", None)
    if kind == "surface":
        return SurfaceSpec.from_json_dict(doc)
    if kind == "observations":
        return ObservationSpec.from_json_dict(doc)
    raise ArgumentError('spec JSON needs "kind": "surface" or "observations"')


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:  # from extreme spec values; callers reject inf
        return math.inf


def generate_surface(spec: SurfaceSpec, grid: GridSpec | None = None) -> LossSurface:
    """Evaluate the quadratic bowl at every grid node.

    Batch-size nodes are rounded to integers (token counts); with
    noise_sigma = 0 and the optimum on-grid the surface argmin is exactly
    the planted node. A grid of more than surface.MAX_GRID_CELLS nodes is a
    GridShapeError and a bs node that rounds to 0 an ArgumentError, both
    raised before any array is built; a train loss that is not finite and
    positive is a DomainError naming the first such node in (lr, bs) order.
    """
    grid = grid if grid is not None else GridSpec.default()
    _check_cells(len(grid.lr_values), len(grid.bs_values))
    bs_tokens = [int(round(bs)) for bs in grid.bs_values]
    if 0 in bs_tokens:
        bs = grid.bs_values[bs_tokens.index(0)]
        raise ArgumentError(f"bs node {bs!r} rounds to 0 tokens")
    log_opt_lr = math.log(spec.opt_lr)
    log_opt_bs = math.log(spec.opt_bs)
    dx = np.array(grid.log_lr) - log_opt_lr
    dy = np.array([math.log(bs) - log_opt_bs for bs in bs_tokens])
    # overflow gives inf and inf - inf NaN, as Python floats do; both are refused below
    with np.errstate(all="ignore"):
        q = (
            (spec.curvature_lr * dx * dx)[:, None]
            + (spec.curvature_bs * dy * dy)[None, :]
            + (2.0 * spec.cross_term * dx)[:, None] * dy[None, :]
        )
        loss = spec.base_loss + q
        if spec.noise_sigma > 0:
            z = _normals(spec.seed, 0, loss.shape).ravel().tolist()
            loss *= np.array([_exp(spec.noise_sigma * v) for v in z]).reshape(loss.shape)
        val = np.full_like(loss, np.nan) if spec.val_offset is None else loss + spec.val_offset
    good = (loss > 0.0) & (loss < math.inf)
    if not good.all():
        i, j = divmod(int(good.argmin()), loss.shape[1])
        raise DomainError(
            f"synthetic loss at lr={grid.lr_values[i]:g}, bs={bs_tokens[j]} is {loss.item(i, j)}"
        )
    # lr-major: node (i, j) is row i * len(bs_tokens) + j
    lr_col = np.repeat(np.array(grid.lr_values, dtype=np.float64), loss.shape[1])
    bs_col = np.tile(np.array(bs_tokens, dtype=np.float64), loss.shape[0])
    rows = np.column_stack((lr_col, bs_col, loss.ravel(), val.ravel()))
    missing_val = np.full(loss.size, spec.val_offset is None)
    names = {"scale": spec.scale, "arch_tag": "synthetic", "recipe_tag": "synthetic"}
    return LossSurface.__new__(LossSurface)._build(rows, missing_val, **names)


def generate_observations(spec: ObservationSpec) -> list[OptimumObservation]:
    """Emit one observation per lattice point, optionally grid-snapped."""
    grid = GridSpec.default()
    if spec.noise_sigma > 0:
        shape = (len(spec.n_values), len(spec.d_values))
        z_lr, z_bs = (_normals(spec.seed, stream, shape).tolist() for stream in (1, 2))
    out = []
    for i, n in enumerate(spec.n_values):
        for j, d in enumerate(spec.d_values):
            log_lr = (
                math.log(spec.c) + spec.alpha * math.log(n) + spec.beta * math.log(d)
            )
            log_bs = math.log(spec.d_coef) + spec.gamma * math.log(d)
            if spec.noise_sigma > 0:
                log_lr += spec.noise_sigma * z_lr[i][j]
                log_bs += spec.noise_sigma * z_bs[i][j]
            opt_lr, opt_bs = _exp(log_lr), _exp(log_bs)
            if not (0 < opt_lr < math.inf and 0 < opt_bs < math.inf):
                raise DomainError(
                    f"law optimum at N={n:g}, D={d:g} is ({opt_lr}, {opt_bs}), "
                    "outside the positive finite floats"
                )
            if spec.snap:
                snapped = snap_to_grid(
                    Prediction(lr=opt_lr, bs_tokens=opt_bs, method="synthetic"), grid
                )
                opt_lr, opt_bs = snapped.lr, snapped.bs_tokens
            out.append(OptimumObservation(n, d, opt_lr, opt_bs))
    return out
