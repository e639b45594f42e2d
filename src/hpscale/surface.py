"""Grid-search loss surfaces: ingestion and landscape analytics.

A LossSurface holds the final smoothed training loss (and optionally a
validation loss) for every (learning rate, batch size) point of one sweep.
Analytics cover global-optimum extraction, bilinear interpolation in
log-log coordinates, relative-error scoring of off-grid predictions,
plateau extraction, per-slice unimodality diagnostics, and train/val
argmin consistency.

Representation. A surface is validated once, when it is built, into a
dense grid: the sorted distinct learning rates and batch sizes (the
axes), their natural logs, and a train table and a val table indexed
[lr index][bs index]. A cell that no point fills holds None in both
tables; that is the fill mask. The optimum of each metric is found on
first use and cached. Every analytic reads this state and none rescans
the points. The invariants:

- ties for the optimum break to the smaller lr, then the smaller bs;
- a grid with unfilled cells is a valid surface: find_optimum and
  plateau work on it, and only the operations that need every cell
  (grid_losses, interpolate_loss, relative_error, convexity_report and
  the SVG view) raise GridShapeError;
- `points` lists the input rows in input order: the tuple a caller
  passed in, or, for a surface loaded from CSV, SweepPoints built on
  first read; surfaces compare and hash by scale, points and tags.

Surfaces are immutable after construction; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from math import inf

from .errors import ArgumentError, GridShapeError, OutOfHullError, ParseError
from .errors import check_number, decode_text
from .laws import ModelScale

METRICS = ("train", "val")

# Bilinear interpolation can round a hair below the node minimum when all
# cell corners are equal; treat anything this close to zero as zero.
_UNDERSHOOT_TOL = 1e-12


def _check_point(lr, bs_tokens, train_smooth_loss, val_loss) -> None:
    # errors.check_number's rule spelled inline: this runs per CSV row, where
    # four helper calls would add most of a surface load's time again. The
    # 0.0 literals and the global inf keep the float comparisons fast.
    if not 0.0 < lr < inf:
        raise ArgumentError(f"lr must be finite and positive, got {lr}")
    if not 0 < bs_tokens < inf:
        raise ArgumentError(f"bs_tokens must be finite and positive, got {bs_tokens}")
    if not 0.0 < train_smooth_loss < inf:
        raise ArgumentError(
            f"train_smooth_loss must be finite and positive, got {train_smooth_loss}"
        )
    if val_loss is not None and not 0.0 < val_loss < inf:
        raise ArgumentError(f"val_loss must be finite and positive, got {val_loss}")


@dataclass(frozen=True)
class SweepPoint:
    """One grid-search sample: (lr, bs) and its end-of-training losses."""

    lr: float
    bs_tokens: int
    train_smooth_loss: float
    val_loss: float | None = None

    def __post_init__(self):
        _check_point(self.lr, self.bs_tokens, self.train_smooth_loss, self.val_loss)

    def loss(self, metric: str) -> float:
        if metric == "train":
            return self.train_smooth_loss
        if metric == "val":
            if self.val_loss is None:
                raise ArgumentError(
                    f"point (lr={self.lr}, bs={self.bs_tokens}) has no val_loss"
                )
            return self.val_loss
        raise ArgumentError(f"unknown metric {metric!r}; expected one of {METRICS}")


@dataclass(frozen=True)
class OptimumReport:
    """Grid point with the lowest loss under the chosen metric."""

    hp: tuple[float, int]
    loss: float
    metric: str


class _DuplicateRow(Exception):
    """Row `row` of the input fills a grid cell an earlier row filled."""

    def __init__(self, row: int):
        super().__init__(row)
        self.row = row


class _Grid:
    """Input rows as columns, and the dense lr x bs tables built from them."""

    def __init__(self, lrs, bss, trains, vals):
        self.columns = (tuple(lrs), tuple(bss), tuple(trains), tuple(vals))
        self.lr_values = tuple(sorted(set(lrs)))
        self.bs_values = tuple(sorted(set(bss)))
        self.lr_index = {v: i for i, v in enumerate(self.lr_values)}
        self.bs_index = {v: j for j, v in enumerate(self.bs_values)}
        train = [[None] * len(self.bs_values) for _ in self.lr_values]
        val = [[None] * len(self.bs_values) for _ in self.lr_values]
        li, bi = self.lr_index, self.bs_index
        for k, (lr, bs, t, v) in enumerate(zip(lrs, bss, trains, vals)):
            i, j = li[lr], bi[bs]
            if train[i][j] is not None:
                raise _DuplicateRow(k)
            train[i][j] = t
            val[i][j] = v
        self.train = tuple(map(tuple, train))
        self.val = tuple(map(tuple, val))
        self.log_lrs = [math.log(v) for v in self.lr_values]
        self.log_bss = [math.log(v) for v in self.bs_values]
        self.complete = len(self.columns[0]) == len(self.lr_values) * len(self.bs_values)
        self.full_val = None not in self.columns[3]
        self._optima: dict[str, OptimumReport] = {}

    def optimum(self, metric: str) -> OptimumReport:
        """First minimum in (lr, bs) order over the filled cells."""
        opt = self._optima.get(metric)
        if opt is None:
            table = self.train if metric == "train" else self.val
            best, bi, bj = None, 0, 0
            for i, row in enumerate(table):
                for j, v in enumerate(row):
                    if v is not None and (best is None or v < best):
                        best, bi, bj = v, i, j
            opt = OptimumReport(
                hp=(self.lr_values[bi], self.bs_values[bj]), loss=best, metric=metric
            )
            self._optima[metric] = opt
        return opt


class LossSurface:
    """Immutable lr x bs grid of sweep results for one (N, D) run family.

    Built from SweepPoints, or by load_surface straight from CSV columns;
    the module docstring describes the grid it holds.
    """

    def __init__(
        self,
        scale: ModelScale,
        points: tuple[SweepPoint, ...],
        arch_tag: str = "",
        recipe_tag: str = "",
    ):
        points = tuple(points)
        if not points:
            raise ArgumentError("surface must contain at least one point")
        try:
            grid = _Grid(
                [pt.lr for pt in points],
                [pt.bs_tokens for pt in points],
                [pt.train_smooth_loss for pt in points],
                [pt.val_loss for pt in points],
            )
        except _DuplicateRow as dup:
            pt = points[dup.row]
            raise ArgumentError(
                f"duplicate sweep point at lr={pt.lr}, bs={pt.bs_tokens}"
            ) from None
        self._init(scale, grid, arch_tag, recipe_tag)
        self.__dict__["points"] = points

    @classmethod
    def _from_grid(cls, scale, grid: _Grid, arch_tag: str, recipe_tag: str):
        surface = cls.__new__(cls)
        surface._init(scale, grid, arch_tag, recipe_tag)
        return surface

    def _init(self, scale, grid, arch_tag, recipe_tag) -> None:
        self.__dict__.update(
            scale=scale, arch_tag=arch_tag, recipe_tag=recipe_tag, _grid=grid
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"LossSurface is immutable; cannot set {name!r}")

    @cached_property
    def points(self) -> tuple[SweepPoint, ...]:
        """The sweep points in input order, built on first read."""
        return tuple(SweepPoint(*row) for row in zip(*self._grid.columns))

    def _key(self):
        return (self.scale, self._grid.columns, self.arch_tag, self.recipe_tag)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        g = self._grid
        return (
            f"LossSurface(scale={self.scale!r}, points=<{len(g.columns[0])} on a "
            f"{len(g.lr_values)}x{len(g.bs_values)} grid>, "
            f"arch_tag={self.arch_tag!r}, recipe_tag={self.recipe_tag!r})"
        )

    def lr_values(self) -> tuple[float, ...]:
        return self._grid.lr_values

    def bs_values(self) -> tuple[int, ...]:
        return self._grid.bs_values

    def has_full_val(self) -> bool:
        return self._grid.full_val

    def point_at(self, lr: float, bs_tokens: int) -> SweepPoint:
        g = self._grid
        i, j = g.lr_index.get(lr), g.bs_index.get(bs_tokens)
        if i is None or j is None or g.train[i][j] is None:
            raise ArgumentError(f"no sweep point at lr={lr}, bs={bs_tokens}")
        return SweepPoint(g.lr_values[i], g.bs_values[j], g.train[i][j], g.val[i][j])

    def grid_losses(self, metric: str) -> tuple[tuple[float, ...], ...]:
        """Losses as a [lr index][bs index] table; requires a complete grid."""
        g = self._grid
        if not g.complete:
            n_lr, n_bs = len(g.lr_values), len(g.bs_values)
            raise GridShapeError(
                f"surface has {len(g.columns[0])} points but the lr x bs grid "
                f"needs {n_lr} x {n_bs} = {n_lr * n_bs}"
            )
        _check_metric(self, metric)
        return g.train if metric == "train" else g.val


@dataclass(frozen=True)
class PlateauRegion:
    """Points whose loss sits within a relative threshold of the minimum."""

    delta: float
    members: frozenset[tuple[float, int]]


@dataclass(frozen=True)
class ConvexityViolation:
    """Unimodality breach in one slice: axis is 'row' (fixed bs) or 'col'."""

    axis: str
    fixed_value: float
    index: int


@dataclass(frozen=True)
class ConvexityReport:
    row_unimodal_fraction: float
    col_unimodal_fraction: float
    tolerance: float
    violations: tuple[ConvexityViolation, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    train_opt: OptimumReport
    val_opt: OptimumReport


# --- CSV ingestion ----------------------------------------------------------

_REQUIRED_META = ("n_params", "d_tokens")
_SCALE_META = (*_REQUIRED_META, "n_active", "flops_per_token")
_HEADER_BASE = ["lr", "bs_tokens", "train_smooth_loss"]


def load_surface(source) -> LossSurface:
    """Parse a surface from CSV text, bytes, or a readable stream.

    Comment lines starting with '#' carry key=value metadata; n_params and
    d_tokens are required. The header is lr,bs_tokens,train_smooth_loss
    with an optional trailing val_loss column. Errors name the first bad
    line in file order.
    """
    data = decode_text(source)

    meta: dict[str, str] = {}
    header: list[str] | None = None
    lrs: list[float] = []
    bss: list[int] = []
    trains: list[float] = []
    vals: list[float | None] = []
    lines: list[int] = []

    try:
        for lineno, raw in enumerate(data.split("\n"), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if header is None:
                cells = [c.strip() for c in cells]
                if cells[: len(_HEADER_BASE)] != _HEADER_BASE or len(cells) > 4 or (
                    len(cells) == 4 and cells[3] != "val_loss"
                ):
                    raise ParseError(
                        f"bad header {line!r:.40}; expected "
                        "'lr,bs_tokens,train_smooth_loss[,val_loss]'",
                        line=lineno,
                    )
                header = cells
                continue
            if len(cells) != len(header):
                raise ParseError(
                    f"expected {len(header)} columns, found {len(cells)}", line=lineno
                )
            try:
                lr, bs_raw, train, val = _row_values(cells)
            except ValueError:
                # float() keeps the separators \x1c-\x1f that strip() removes
                cells = [c.strip() for c in cells]
                try:
                    lr, bs_raw, train, val = _row_values(cells)
                except ValueError as exc:  # float() quotes the whole cell: keep 40 chars
                    raise ParseError(f"non-numeric value: {exc!s:.75}", line=lineno) from exc
            if not math.isfinite(bs_raw) or bs_raw != (bs := round(bs_raw)):
                raise ParseError(
                    f"bs_tokens must be integral, got {cells[1].strip():.40}", line=lineno
                )
            try:
                _check_point(lr, bs, train, val)
            except ArgumentError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            lrs.append(lr)
            bss.append(bs)
            trains.append(train)
            vals.append(val)
            lines.append(lineno)
    except ParseError:
        _parsed_grid(lrs, bss, trains, vals, lines)  # an earlier duplicate wins
        raise

    if header is None:
        raise ParseError("no header found (empty file?)")
    if not lrs:
        raise ParseError("no data rows found")
    grid = _parsed_grid(lrs, bss, trains, vals, lines)
    missing = [k for k in _REQUIRED_META if k not in meta]
    if missing:
        raise ParseError(f"missing required metadata {missing}")
    try:
        scale = ModelScale(**{k: float(meta[k]) for k in _SCALE_META if k in meta})
    except ArgumentError as exc:
        raise ParseError(f"bad metadata: {exc}") from exc
    except ValueError as exc:  # float() quotes the whole value: keep 40 chars
        raise ParseError(f"bad metadata: {exc!s:.75}") from exc
    return LossSurface._from_grid(
        scale, grid, meta.get("arch_tag", ""), meta.get("recipe_tag", "")
    )


def _row_values(cells) -> tuple[float, float, float, float | None]:
    """lr, bs, train and val of one data row; an empty val cell is None."""
    lr, bs, train = float(cells[0]), float(cells[1]), float(cells[2])
    val = float(cells[3]) if len(cells) == 4 and cells[3].strip() else None
    return lr, bs, train, val


def _parsed_grid(lrs, bss, trains, vals, lines) -> _Grid:
    try:
        return _Grid(lrs, bss, trains, vals)
    except _DuplicateRow as dup:
        k = dup.row
        raise ParseError(
            f"duplicate (lr, bs) pair ({lrs[k]}, {bss[k]})", line=lines[k]
        ) from None


def surface_to_csv(surface: LossSurface) -> str:
    """Serialize a surface back to the CSV schema accepted by load_surface."""
    lines = [
        f"# n_params={surface.scale.n_params!r}",
        f"# d_tokens={surface.scale.d_tokens!r}",
    ]
    if surface.scale.n_active is not None:
        lines.append(f"# n_active={surface.scale.n_active!r}")
    if surface.scale.flops_per_token is not None:
        lines.append(f"# flops_per_token={surface.scale.flops_per_token!r}")
    if surface.arch_tag:
        lines.append(f"# arch_tag={surface.arch_tag}")
    if surface.recipe_tag:
        lines.append(f"# recipe_tag={surface.recipe_tag}")
    g = surface._grid
    lines.append(",".join(_HEADER_BASE + (["val_loss"] if g.full_val else [])))
    for lr, train_row, val_row in zip(g.lr_values, g.train, g.val):
        for bs, train, val in zip(g.bs_values, train_row, val_row):
            if train is None:
                continue
            row = [repr(lr), str(bs), repr(train)]
            if g.full_val:
                row.append(repr(val))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# --- analytics --------------------------------------------------------------


def find_optimum(surface: LossSurface, metric: str = "train") -> OptimumReport:
    """Grid point with minimal loss; ties break to smaller lr, then bs."""
    _check_metric(surface, metric)
    return surface._grid.optimum(metric)


def _check_metric(surface: LossSurface, metric: str) -> None:
    if metric not in METRICS:
        raise ArgumentError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if metric == "val" and not surface.has_full_val():
        raise ArgumentError("metric 'val' requires val_loss on every point")


def interpolate_loss(
    surface: LossSurface, lr: float, bs_tokens: float, metric: str = "train"
) -> float:
    """Bilinear interpolation in (log lr, log bs); exact at grid nodes.

    Queries outside the grid hull raise OutOfHullError carrying the
    nearest grid corner; incomplete grids raise GridShapeError.
    """
    _check_metric(surface, metric)
    check_number(lr, "query lr", "positive")
    check_number(bs_tokens, "query bs", "positive")
    table = surface.grid_losses(metric)
    g = surface._grid
    log_lrs, log_bss = g.log_lrs, g.log_bss
    qx, qy = math.log(lr), math.log(bs_tokens)

    if not (log_lrs[0] <= qx <= log_lrs[-1]) or not (log_bss[0] <= qy <= log_bss[-1]):
        ci = min(range(len(log_lrs)), key=lambda k: abs(log_lrs[k] - qx))
        cj = min(range(len(log_bss)), key=lambda k: abs(log_bss[k] - qy))
        corner_lr, corner_bs = g.lr_values[ci], g.bs_values[cj]
        raise OutOfHullError(
            f"query (lr={lr:.6e}, bs={bs_tokens:.6e}) lies outside the grid hull; "
            f"nearest corner is (lr={corner_lr:.6e}, bs={corner_bs:.6e})",
            nearest_corner=(corner_lr, float(corner_bs)),
        )

    i = _cell_index(log_lrs, qx)
    j = _cell_index(log_bss, qy)
    t = _cell_frac(log_lrs, i, qx)
    u = _cell_frac(log_bss, j, qy)
    i1 = i + 1 if len(log_lrs) > 1 else i
    j1 = j + 1 if len(log_bss) > 1 else j
    v00, v01 = table[i][j], table[i][j1]
    v10, v11 = table[i1][j], table[i1][j1]
    return (
        (1.0 - t) * (1.0 - u) * v00
        + t * (1.0 - u) * v10
        + (1.0 - t) * u * v01
        + t * u * v11
    )


def _cell_index(coords: list[float], q: float) -> int:
    if len(coords) == 1:
        return 0
    i = bisect.bisect_right(coords, q) - 1
    return max(0, min(i, len(coords) - 2))


def _cell_frac(coords: list[float], i: int, q: float) -> float:
    if len(coords) == 1:
        return 0.0
    return (q - coords[i]) / (coords[i + 1] - coords[i])


def relative_error(
    surface: LossSurface, hp: tuple[float, float], metric: str = "train"
) -> float:
    """(interpolated loss - optimum loss) / optimum loss; zero at the optimum."""
    opt = find_optimum(surface, metric)
    value = interpolate_loss(surface, hp[0], hp[1], metric)
    rel = (value - opt.loss) / opt.loss
    if -_UNDERSHOOT_TOL <= rel < 0.0:
        return 0.0
    return rel


def plateau(
    surface: LossSurface, delta: float = 0.0025, metric: str = "train"
) -> PlateauRegion:
    """Points with (loss - min) / min <= delta; delta defaults to 0.25%."""
    if not (delta >= 0):  # not check_number: inf is a valid tolerance
        raise ArgumentError(f"delta must be >= 0, got {delta}")
    opt = find_optimum(surface, metric)
    g = surface._grid
    table = g.train if metric == "train" else g.val
    bss = g.bs_values
    members = frozenset(
        (lr, bss[j])
        for lr, row in zip(g.lr_values, table)
        for j, v in enumerate(row)
        if v is not None and (v - opt.loss) / opt.loss <= delta
    )
    return PlateauRegion(delta=delta, members=members)


def convexity_report(
    surface: LossSurface, epsilon: float = 1e-3, metric: str = "train"
) -> ConvexityReport:
    """Fraction of unimodal fixed-bs rows and fixed-lr columns.

    A slice is unimodal when losses are non-increasing up to the minimum
    index and non-decreasing afterwards, with each comparison slackened by
    epsilon in absolute loss units.
    """
    if not (epsilon >= 0):  # not check_number: inf is a valid tolerance
        raise ArgumentError(f"epsilon must be >= 0, got {epsilon}")
    table = surface.grid_losses(metric)
    lrs, bss = surface.lr_values(), surface.bs_values()
    violations: list[ConvexityViolation] = []

    row_ok = 0
    for bs, values in zip(bss, zip(*table)):  # fixed bs, losses along lr
        bad = _unimodality_breaks(values, epsilon)
        if bad:
            violations.extend(ConvexityViolation("row", float(bs), k) for k in bad)
        else:
            row_ok += 1
    col_ok = 0
    for lr, values in zip(lrs, table):  # fixed lr, losses along bs
        bad = _unimodality_breaks(values, epsilon)
        if bad:
            violations.extend(ConvexityViolation("col", lr, k) for k in bad)
        else:
            col_ok += 1

    return ConvexityReport(
        row_unimodal_fraction=row_ok / len(bss),
        col_unimodal_fraction=col_ok / len(lrs),
        tolerance=epsilon,
        violations=tuple(violations),
    )


def _unimodality_breaks(values, epsilon: float) -> list[int]:
    m = values.index(min(values))
    breaks = []
    for k in range(len(values) - 1):
        if k < m:  # must be non-increasing before the minimum
            if values[k + 1] > values[k] + epsilon:
                breaks.append(k + 1)
        else:  # non-decreasing after it
            if values[k + 1] < values[k] - epsilon:
                breaks.append(k + 1)
    return breaks


def argmin_consistency(surface: LossSurface) -> ConsistencyReport:
    """Whether train and val losses share the same argmin grid point."""
    if not surface.has_full_val():
        raise ArgumentError("argmin_consistency requires val_loss on every point")
    train_opt = find_optimum(surface, "train")
    val_opt = find_optimum(surface, "val")
    return ConsistencyReport(
        consistent=train_opt.hp == val_opt.hp,
        train_opt=train_opt,
        val_opt=val_opt,
    )
