"""Grid-search loss surfaces: ingestion and landscape analytics.

A LossSurface holds the final smoothed training loss (and optionally a
validation loss) for every (learning rate, batch size) point of one sweep.
Analytics cover global-optimum extraction, bilinear interpolation in
log-log coordinates, relative-error scoring of off-grid predictions,
plateau extraction, per-slice unimodality diagnostics, and train/val
argmin consistency.

Representation. A surface is validated once, when it is built, into a
dense grid held as numpy arrays: the input rows as one (n, 4) float64
array of lr, bs, train and val in input order (NaN for a missing val),
the sorted distinct learning rates and batch sizes (the axes), and a
train table and a val table indexed [lr index, bs index]. A cell that
no row fills holds NaN in both tables; that is the fill mask, and no
loss can be NaN. bs is compared as float64 everywhere, as a CSV's bs
column always was: two integer batch sizes that differ only beyond
2**53 fill one cell, and a bs that is not integral is refused. The
optimum of each metric is found on first use and cached. Every analytic
reads the arrays in whole-array expressions and none rescans the
points. The invariants:

- every value that leaves the module is a Python float or int, never a
  numpy scalar (taken with ndarray.item or .tolist());
- the axes' logs are math.log of the Python axis values, not np.log,
  which can differ by one ulp and so move an interpolated value;
- ties for the optimum break to the smaller lr, then the smaller bs;
- a grid with unfilled cells is a valid surface: find_optimum and
  plateau work on it, and only the operations that need every cell
  (grid_losses, interpolate_loss, relative_error, convexity_report and
  the SVG view) raise GridShapeError;
- `points` lists the input rows in input order: the tuple a caller
  passed in, or, for a surface loaded from CSV, SweepPoints built on
  first read; surfaces compare and hash by scale, the rows as Python
  numbers (also built on first read) and tags.

load_surface parses a CSV's data block in one numpy call and checks it
as whole columns. Only when that refuses the input does a row loop read
it again, one line at a time, and name the first bad line.

Surfaces are immutable after construction; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from math import inf

import numpy as np

from .errors import ArgumentError, GridShapeError, OutOfHullError, ParseError
from .errors import check_number, decode_text
from .laws import ModelScale

METRICS = ("train", "val")

# Bilinear interpolation can round a hair below the node minimum when all
# cell corners are equal; treat anything this close to zero as zero.
_UNDERSHOOT_TOL = 1e-12


def _check_point(lr, bs_tokens, train_smooth_loss, val_loss) -> None:
    # errors.check_number's rule spelled inline: this runs for every SweepPoint
    # and every row the CSV row loop reads, where four helper calls would add
    # most of their time again. The 0.0 literals and the global inf keep the
    # float comparisons fast.
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
    """Input rows, and the dense lr x bs tables built from them.

    rows is an (n, 4) float64 array of lr, bs, train and val in input
    order, with NaN for a missing val.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.lr_axis, li = np.unique(rows[:, 0], return_inverse=True)
        self.bs_axis, bi = np.unique(rows[:, 1], return_inverse=True)
        shape = (self.lr_axis.size, self.bs_axis.size)
        cells = li * shape[1] + bi
        train = np.full(shape[0] * shape[1], np.nan)
        train[cells] = rows[:, 2]
        # no train loss is NaN, so fewer filled cells than rows means a repeat
        if np.count_nonzero(np.isnan(train)) != train.size - len(rows):
            raise _DuplicateRow(_first_repeat(cells))
        val = np.full_like(train, np.nan)
        val[cells] = rows[:, 3]
        self.train, self.val = train.reshape(shape), val.reshape(shape)
        self.lr_values = tuple(self.lr_axis.tolist())
        self.bs_values = tuple(map(int, self.bs_axis.tolist()))
        self.log_lrs = [math.log(v) for v in self.lr_values]
        self.log_bss = [math.log(v) for v in self.bs_values]
        self.complete = len(rows) == train.size
        self.full_val = not np.isnan(rows[:, 3]).any()
        self._optima: dict[str, OptimumReport] = {}

    @cached_property
    def columns(self) -> tuple[tuple, ...]:
        """lr, bs, train and val of the rows as Python numbers; None for a
        missing val."""
        lrs, bss, trains, vals = self.rows.T.tolist()
        vals = vals if self.full_val else [None if math.isnan(v) else v for v in vals]
        return tuple(lrs), tuple(map(int, bss)), tuple(trains), tuple(vals)

    def table(self, metric: str) -> np.ndarray:
        return self.train if metric == "train" else self.val

    def optimum(self, metric: str) -> OptimumReport:
        """First minimum in (lr, bs) order over the filled cells."""
        opt = self._optima.get(metric)
        if opt is None:
            table = self.table(metric)
            k = int(np.where(np.isnan(table), inf, table).argmin())
            i, j = divmod(k, table.shape[1])
            opt = OptimumReport(
                hp=(self.lr_values[i], self.bs_values[j]), loss=table.item(k), metric=metric
            )
            self._optima[metric] = opt
        return opt


def _first_repeat(cells: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one."""
    _, first = np.unique(cells, return_index=True)
    repeat = np.ones(cells.size, dtype=bool)
    repeat[first] = False
    return int(repeat.argmax())


def _axis_index(axis: np.ndarray, value) -> int | None:
    """Position of value on a sorted axis, compared as float64, or None."""
    try:
        k = int(np.searchsorted(axis, value))
    except TypeError:  # None and other values numpy cannot order: on no axis
        return None
    return k if k < axis.size and axis[k] == value else None


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
            rows = np.array(
                [(pt.lr, pt.bs_tokens, pt.train_smooth_loss, pt.val_loss) for pt in points],
                dtype=np.float64,
            )
        except OverflowError:  # an int past the largest float
            raise ArgumentError("sweep point values must fit in a float64") from None
        fractional = np.rint(rows[:, 1]) != rows[:, 1]
        if fractional.any():
            bs = points[int(fractional.argmax())].bs_tokens
            raise ArgumentError(f"bs_tokens must be integral, got {bs}")
        try:
            grid = _Grid(rows)
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
            f"LossSurface(scale={self.scale!r}, points=<{len(g.rows)} on a "
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
        i, j = _axis_index(g.lr_axis, lr), _axis_index(g.bs_axis, bs_tokens)
        if i is None or j is None or math.isnan(train := g.train.item(i, j)):
            raise ArgumentError(f"no sweep point at lr={lr}, bs={bs_tokens}")
        val = g.val.item(i, j)
        return SweepPoint(
            g.lr_values[i], g.bs_values[j], train, None if math.isnan(val) else val
        )

    def grid_losses(self, metric: str) -> tuple[tuple[float, ...], ...]:
        """Losses as a [lr index][bs index] table; requires a complete grid."""
        return tuple(map(tuple, self._losses(metric).tolist()))

    def _losses(self, metric: str) -> np.ndarray:
        """The grid_losses table as the grid's own array; do not write to it."""
        g = self._grid
        if not g.complete:
            n_lr, n_bs = len(g.lr_values), len(g.bs_values)
            raise GridShapeError(
                f"surface has {len(g.rows)} points but the lr x bs grid "
                f"needs {n_lr} x {n_bs} = {n_lr * n_bs}"
            )
        _check_metric(self, metric)
        return g.table(metric)


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

    The data block is parsed in one numpy call and checked as whole
    columns. Whatever that refuses (a cell numpy does not read, such as a
    blank val cell or float()'s underscores and non-ASCII digits, a wrong
    width, a value out of range, a duplicate cell) goes to the row loop in
    _load_surface_rows, which parses the text again and alone writes row
    errors.
    """
    data = decode_text(source)
    lines = [line for line in map(str.strip, data.split("\n")) if line]
    meta: dict[str, str] = {}
    for line in lines:
        if line[0] == "#":
            _read_meta(line, meta)
    body = [line for line in lines if line[0] != "#"]
    grid = _bulk_grid(body[0], body[1:]) if body else None
    if grid is None:
        return _load_surface_rows(data)
    return _surface(grid, meta)


def _bulk_grid(header: str, rows: list[str]) -> _Grid | None:
    """The grid of all data rows, or None when the row loop must read them."""
    width = _header_width(header) if rows else None
    if width is None:
        return None
    try:
        # comments=None: a '#' inside a row fails here as it does in the row loop
        table = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(rows), width):
        return None
    bs = table[:, 1]
    if not (((table > 0.0) & (table < inf)).all() and (np.rint(bs) == bs).all()):
        return None
    if width == 3:
        table = np.column_stack((table, np.full(len(rows), np.nan)))
    try:
        return _Grid(table)
    except _DuplicateRow:
        return None


def _load_surface_rows(data: str) -> LossSurface:
    """load_surface of decoded text, one row at a time: the path that names
    the first bad line."""
    meta: dict[str, str] = {}
    width: int | None = None
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
                _read_meta(line, meta)
                continue
            if width is None:
                width = _header_width(line)
                if width is None:
                    raise ParseError(
                        f"bad header {line!r:.40}; expected "
                        "'lr,bs_tokens,train_smooth_loss[,val_loss]'",
                        line=lineno,
                    )
                continue
            cells = line.split(",")
            if len(cells) != width:
                raise ParseError(
                    f"expected {width} columns, found {len(cells)}", line=lineno
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

    if width is None:
        raise ParseError("no header found (empty file?)")
    if not lrs:
        raise ParseError("no data rows found")
    return _surface(_parsed_grid(lrs, bss, trains, vals, lines), meta)


def _read_meta(line: str, meta: dict[str, str]) -> None:
    """Record the key=value of a '#' comment line, if it holds one."""
    body = line.lstrip("#").strip()
    if "=" in body:
        key, _, value = body.partition("=")
        meta[key.strip()] = value.strip()


def _header_width(line: str) -> int | None:
    """The column count a header line declares, or None if it is not a header."""
    cells = [c.strip() for c in line.split(",")]
    return len(cells) if cells in (_HEADER_BASE, [*_HEADER_BASE, "val_loss"]) else None


def _row_values(cells) -> tuple[float, float, float, float | None]:
    """lr, bs, train and val of one data row; an empty val cell is None."""
    lr, bs, train = float(cells[0]), float(cells[1]), float(cells[2])
    val = float(cells[3]) if len(cells) == 4 and cells[3].strip() else None
    return lr, bs, train, val


def _parsed_grid(lrs, bss, trains, vals, lines) -> _Grid:
    try:
        return _Grid(np.array((lrs, bss, trains, vals), dtype=np.float64).T)
    except _DuplicateRow as dup:
        k = dup.row
        raise ParseError(
            f"duplicate (lr, bs) pair ({lrs[k]}, {bss[k]})", line=lines[k]
        ) from None


def _surface(grid: _Grid, meta: dict[str, str]) -> LossSurface:
    """The surface of a parsed grid and the file's metadata."""
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
    filled = ~np.isnan(g.train)
    ii, jj = np.nonzero(filled)
    cells = [
        map(repr, g.lr_axis[ii].tolist()),
        map(str, map(g.bs_values.__getitem__, jj.tolist())),
        map(repr, g.train[filled].tolist()),
    ]
    if g.full_val:
        cells.append(map(repr, g.val[filled].tolist()))
    lines.extend(map(",".join, zip(*cells)))
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
    table = surface._losses(metric)
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
    v00, v01 = table.item(i, j), table.item(i, j1)
    v10, v11 = table.item(i1, j), table.item(i1, j1)
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
    ii, jj = np.nonzero((g.table(metric) - opt.loss) / opt.loss <= delta)
    lrs, bss = g.lr_values, g.bs_values
    members = frozenset((lrs[i], bss[j]) for i, j in zip(ii.tolist(), jj.tolist()))
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
    table = surface._losses(metric)
    violations: list[ConvexityViolation] = []
    unimodal = []
    for axis, fixed, slices in (
        ("row", [float(bs) for bs in surface.bs_values()], table.T),  # losses along lr
        ("col", surface.lr_values(), table),  # losses along bs
    ):
        breaks = _unimodality_breaks(slices, epsilon)
        ss, kk = np.nonzero(breaks)
        violations += [
            ConvexityViolation(axis, fixed[s], k + 1) for s, k in zip(ss.tolist(), kk.tolist())
        ]
        unimodal.append((len(fixed) - int(breaks.any(axis=1).sum())) / len(fixed))

    return ConvexityReport(
        row_unimodal_fraction=unimodal[0],
        col_unimodal_fraction=unimodal[1],
        tolerance=epsilon,
        violations=tuple(violations),
    )


def _unimodality_breaks(slices: np.ndarray, epsilon: float) -> np.ndarray:
    """[s, k] is True where slice s breaks unimodality from index k to k + 1:
    a rise by more than epsilon before the slice's first minimum, or a fall
    by more than epsilon from it on."""
    before, after = slices[:, :-1], slices[:, 1:]
    descending = np.arange(slices.shape[1] - 1) < slices.argmin(axis=1)[:, None]
    return np.where(descending, after > before + epsilon, after < before - epsilon)


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
