"""Grid-search loss surfaces: ingestion and landscape analytics.

A LossSurface holds the final smoothed training loss (and optionally a
validation loss) for every (learning rate, batch size) point of one sweep.
Analytics cover global-optimum extraction, bilinear interpolation in
log-log coordinates, relative-error scoring of off-grid predictions,
plateau extraction, per-slice unimodality diagnostics, and train/val
argmin consistency. Each analytic returns its own section of the
`analyze` report as a dict of plain values (plateau, convexity_report,
argmin_consistency); find_optimum returns an OptimumReport, which the
surface caches. analyze_report puts the sections and the optimum together,
and compare_rows, which scores each law's prediction, builds the rows of
`compare`. The command adds only its meta.

Representation. A surface is validated once, when it is built, into a
dense grid held as numpy arrays on the surface itself: the input rows as
one (n, 4) float64 array of lr, bs, train and val in input order (NaN for
a missing val), the sorted distinct learning rates and batch sizes (the
axes, a laws.GridSpec: LossSurface.grid), and a train table and a val
table indexed [lr index, bs index]. A cell that no row fills holds NaN in
both tables; that is the fill mask, and no loss can be NaN. bs is
compared as float64 everywhere, as a CSV's bs column always was: two
integer batch sizes that differ only beyond 2**53 fill one cell. The
optimum of each metric is found on first use and cached. Every analytic
reads the arrays in whole-array expressions and none rescans the points.

The sweep-row rule has one home, _check_rows, which LossSurface._build
runs on its rows: every value finite and positive except a val the input
marks missing, every bs integral, no cell filled twice, and the first row
in input order that breaks it is the one named, in an errors.RowError.
LossSurface(scale, points), synth's row arrays and load_surface, of the
rows errors.decode_table reads, all build through _build, so all apply
the same rule. The constructor and synth raise the RowError as it is, an
ArgumentError; decode_table makes it a ParseError naming the row's line.
A surface of more than MAX_GRID_CELLS lr x bs cells is refused before
its tables are allocated. The invariants:

- every value that leaves the module is a Python float or int, never a
  numpy scalar (taken with ndarray.item or .tolist());
- the axes are one GridSpec, whose log_lr and log_bs (math.log of the
  Python axis values, not np.log, which can differ by one ulp and so move
  an interpolated value) are the only logs of them; an out-of-hull
  query's nearest corner is the GridSpec nearest node, as snap_to_grid's;
- ties for the optimum break to the smaller lr, then the smaller bs;
- a grid with unfilled cells is a valid surface: find_optimum and
  plateau work on it, and only the operations that need every cell
  (interpolate_loss, relative_error, convexity_report and the SVG view)
  raise GridShapeError;
- `points` lists the rows in input order as SweepPoints, built from the
  rows anew on each read and never stored; surfaces compare and hash by
  scale, the bytes of the rows and tags.

Surfaces are immutable after construction (their arrays are read-only),
and every analytic here is a pure function of its inputs. load_surface
keeps one memo entry: the bytes of the last bytes input it parsed
successfully, and the surface it made of them. Given the same bytes
again, as bytes or a binary stream, it returns that same surface, so
consecutive commands on one file parse it once. A str is parsed every
time and never kept. The entry is dropped before any other input is
parsed, and a failed parse is never kept.
"""

from __future__ import annotations

import bisect
import math
import numbers
from math import inf
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, DomainError, GridShapeError, OutOfHullError, ParseError
from .errors import RowError, check_number, decode_table
from .laws import DEFAULT_FLOPS_FACTOR, LAW_METHODS, GridSpec, ModelScale, _nearest
from .laws import baseline_predict, compute_budget, snap_to_grid

METRICS = ("train", "val")

# plateau's relative loss threshold (0.25%) and convexity_report's slack
DEFAULT_DELTA = 0.0025
DEFAULT_EPSILON = 1e-3

# The most lr x bs cells a surface may span: its tables take 16 bytes a cell
MAX_GRID_CELLS = 1_000_000

# Bilinear interpolation can round a hair below the node minimum when all
# cell corners are equal; treat anything this close to zero as zero.
_UNDERSHOOT_TOL = 1e-12


class SweepPoint(NamedTuple):
    """One grid-search sample: (lr, bs) and its end-of-training losses.

    A plain record: LossSurface checks the values when it builds its grid.
    """

    lr: float
    bs_tokens: int
    train_smooth_loss: float
    val_loss: float | None = None


class OptimumReport(NamedTuple):
    """Grid point with the lowest loss under the chosen metric."""

    hp: tuple[float, int]
    loss: float
    metric: str


def _check_cells(n_lr: int, n_bs: int) -> None:
    """Refuse an lr x bs grid of more than MAX_GRID_CELLS cells."""
    if n_lr * n_bs > MAX_GRID_CELLS:
        raise GridShapeError(
            f"the lr x bs grid of {n_lr} x {n_bs} = {n_lr * n_bs} "
            f"cells exceeds the limit of {MAX_GRID_CELLS}"
        )


def _check_rows(
    rows: np.ndarray, missing_val: np.ndarray, cells: np.ndarray, size: int
) -> None:
    """The sweep-row rule, over all rows at once.

    Every value is finite and positive, except a val that missing_val
    marks; every bs is integral; no two rows fill one of the `size` cells
    (cells holds each row's cell). Raises RowError for the first row in
    input order that breaks the rule.
    """
    in_range = (rows > 0.0) & (rows < inf)
    in_range[:, 3] |= missing_val
    bs = rows[:, 1]
    good = in_range.all(axis=1) & (np.rint(bs) == bs)
    n = len(rows) if good.all() else int(good.argmin())
    # a count of the filled cells finds a repeat; np.unique only names it
    filled = np.zeros(size, dtype=bool)
    filled[cells[:n]] = True
    if np.count_nonzero(filled) != n:
        k = _first_repeat(cells[:n])
        raise RowError(k, f"duplicate sweep point at lr={rows.item(k, 0)}, bs={int(bs[k])}")
    if n < len(rows):
        if in_range[n].all():
            raise RowError(n, f"bs_tokens must be integral, got {bs.item(n)}")
        j = int(in_range[n].argmin())
        name = SweepPoint._fields[j]
        raise RowError(n, f"{name} must be finite and positive, got {rows.item(n, j)}")


def _first_repeat(cells: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one."""
    _, first = np.unique(cells, return_index=True)
    repeat = np.ones(cells.size, dtype=bool)
    repeat[first] = False
    return int(repeat.argmax())


def _is_number(kind: type) -> bool:
    return kind is not bool and issubclass(kind, numbers.Real)


def _check_tags(arch_tag, recipe_tag) -> None:
    """The tag rule, of the constructor and of load_surface: a str with no
    line break and no surrounding whitespace."""
    for name, tag in (("arch_tag", arch_tag), ("recipe_tag", recipe_tag)):
        if not isinstance(tag, str) or "\n" in tag or "\r" in tag or tag != tag.strip():
            raise ArgumentError(
                f"{name} must be a str with no line break or surrounding "
                f"whitespace, got {tag!r:.40}"
            )


def _point_rows(points: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The rows and missing_val LossSurface._build takes, of SweepPoints
    whose values are numbers, not bools; a val of None marks it missing."""
    columns = tuple(zip(*points))
    kinds = {*map(type, columns[0]), *map(type, columns[1]), *map(type, columns[2])}
    if not all(map(_is_number, kinds | (set(map(type, columns[3])) - {type(None)}))):
        for pt in points:
            for name, value in zip(SweepPoint._fields, pt):
                if not (_is_number(type(value)) or (value is None and name == "val_loss")):
                    raise ArgumentError(f"{name} must be a number, got {value!r:.40}")
    try:
        rows = np.array(columns, dtype=np.float64).T
    except OverflowError:  # an int past the largest float
        raise ArgumentError("sweep point values must fit in a float64") from None
    return rows, np.array([v is None for v in columns[3]])


class LossSurface:
    """Immutable lr x bs grid of sweep results for one (N, D) run family.

    Built from SweepPoints, or by load_surface straight from CSV columns;
    the module docstring describes the grid it holds. A tag is a str that
    surface_to_csv and load_surface carry unchanged: no line break and no
    surrounding whitespace.
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
        if not isinstance(scale, ModelScale):
            raise ArgumentError(f"scale must be a ModelScale, got {scale!r:.40}")
        _check_tags(arch_tag, recipe_tag)
        self._build(*_point_rows(points), scale=scale, arch_tag=arch_tag, recipe_tag=recipe_tag)

    def _build(self, rows: np.ndarray, missing_val: np.ndarray, **names) -> LossSurface:
        """Hold rows, the dense lr x bs tables built from them and names
        (scale and the tags, unless the caller adds them), and return self.

        rows is an (n, 4) float64 array of lr, bs, train and val in input
        order, at least one, which the surface takes over; missing_val
        marks the rows that have no val, whose val is NaN. The axes become
        grid, a GridSpec with bs as ints. Raises RowError, an ArgumentError,
        before anything is held, if the rows break the sweep-row rule.
        """
        lr_axis, li = np.unique(rows[:, 0], return_inverse=True)
        bs_axis, bi = np.unique(rows[:, 1], return_inverse=True)
        shape = (lr_axis.size, bs_axis.size)
        _check_cells(*shape)
        cells = li * shape[1] + bi
        _check_rows(rows, missing_val, cells, shape[0] * shape[1])
        train = np.full(shape[0] * shape[1], np.nan)
        train[cells] = rows[:, 2]
        val = np.full_like(train, np.nan)
        val[cells] = rows[:, 3]
        train, val = train.reshape(shape), val.reshape(shape)
        # load_surface's memo hands one surface to many callers
        for array in (rows, train, val):
            array.flags.writeable = False
        grid = GridSpec(tuple(lr_axis.tolist()), tuple(map(int, bs_axis.tolist())))
        full_val = not missing_val.any()
        self.__dict__.update(
            names, grid=grid, _rows=rows, _train=train, _val=val, _full_val=full_val, _optima={}
        )
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"LossSurface is immutable; cannot set {name!r}")

    @property
    def points(self) -> tuple[SweepPoint, ...]:
        """The rows in input order as SweepPoints, built anew on each read;
        the surface keeps none of them."""
        lrs, bss, trains, vals = self._rows.T.tolist()
        if not self._full_val:  # after the row rule, a NaN val is a missing one
            vals = [None if math.isnan(v) else v for v in vals]
        return tuple(map(SweepPoint._make, zip(lrs, map(int, bss), trains, vals)))

    def _key(self):
        return (self.scale, self._rows.tobytes(), self.arch_tag, self.recipe_tag)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        n_lr, n_bs = self._train.shape
        return (
            f"LossSurface(scale={self.scale!r}, points=<{len(self._rows)} on a "
            f"{n_lr}x{n_bs} grid>, arch_tag={self.arch_tag!r}, recipe_tag={self.recipe_tag!r})"
        )

    def has_full_val(self) -> bool:
        return self._full_val

    def _table(self, metric: str) -> np.ndarray:
        """The metric's [lr index, bs index] table, NaN where no row fills a cell."""
        return self._val if metric == "val" else self._train

    def _losses(self, metric: str) -> np.ndarray:
        """The metric's table, the surface's own read-only array; requires
        a complete grid."""
        if len(self._rows) < self._train.size:
            n_lr, n_bs = self._train.shape
            raise GridShapeError(
                f"surface has {len(self._rows)} points but the lr x bs grid "
                f"needs {n_lr} x {n_bs} = {n_lr * n_bs}"
            )
        _check_metric(self, metric)
        return self._table(metric)


# --- CSV ingestion ----------------------------------------------------------

_REQUIRED_META = ("n_params", "d_tokens")
_SCALE_META = (*_REQUIRED_META, "n_active")
# the header without val_loss, and with it
_HEADERS = (SweepPoint._fields[:3], SweepPoint._fields)


# (input bytes, surface) of the last successful load_surface of bytes, or
# None. Replaced whole, never mutated, so a reader that takes it into a
# local sees one consistent entry.
_last_load: tuple | None = None


def load_surface(source) -> LossSurface:
    """Parse a surface from CSV text, bytes, or a readable stream.

    Comment lines starting with '#' carry key=value metadata; n_params and
    d_tokens are required. errors.decode_table reads the table, whose header
    is lr,bs_tokens,train_smooth_loss with an optional trailing val_loss
    column; a blank val cell is a missing val. Errors name the first bad
    line in file order, a row that breaks the sweep-row rule ahead of the
    first line decode_table could not read, and either ahead of bad
    metadata.

    The bytes of the last successful parse of bytes (given as bytes or
    read from a binary stream) are kept with the surface made of them.
    When the input is bytes equal to the kept ones, the result is that
    same immutable surface, and nothing is parsed or decoded. Any other
    input, a str among them, drops the entry and is parsed; it is kept
    only if it is bytes and the parse succeeds.
    """
    global _last_load
    raw = source.read() if hasattr(source, "read") else source
    key = raw if isinstance(raw, bytes) else None
    last = _last_load
    if last is not None and last[0] == key:
        # keep the bytes just given, which the caller holds anyway
        _last_load = (key, last[1])
        return last[1]
    # hold neither the old text nor its surface while the new text is parsed
    last = _last_load = None
    surface = _parse_surface(raw)
    if key is not None:
        _last_load = (key, surface)
    return surface


def _build_rows(values: np.ndarray, missing: np.ndarray) -> LossSurface:
    """A surface of decode_table's rows, its scale and tags still unset."""
    return LossSurface.__new__(LossSurface)._build(values, missing[:, 3])


def _parse_surface(raw) -> LossSurface:
    """load_surface of raw text or bytes, without the memo."""
    meta, surface = decode_table(raw, _HEADERS, _build_rows)
    missing = [k for k in _REQUIRED_META if k not in meta]
    if missing:
        raise ParseError(f"missing required metadata {missing}")
    tags = {"arch_tag": meta.get("arch_tag", ""), "recipe_tag": meta.get("recipe_tag", "")}
    try:
        scale = ModelScale(**{k: float(meta[k]) for k in _SCALE_META if k in meta})
        _check_tags(**tags)
    except ArgumentError as exc:
        raise ParseError(f"bad metadata: {exc}") from exc
    except ValueError as exc:  # float() quotes the whole value: keep 40 chars
        raise ParseError(f"bad metadata: {exc!s:.75}") from exc
    surface.__dict__.update(scale=scale, **tags)
    return surface


def surface_to_csv(surface: LossSurface) -> str:
    """Serialize a surface to the CSV schema accepted by load_surface.

    The rows are written in (lr, bs) order, and the val_loss column
    whenever some row has a val, with a blank cell where one is missing.
    load_surface of the text is equal to the surface when its rows were
    given in (lr, bs) order.
    """
    lines = [
        f"# n_params={surface.scale.n_params!r}",
        f"# d_tokens={surface.scale.d_tokens!r}",
    ]
    if surface.scale.n_active is not None:
        lines.append(f"# n_active={surface.scale.n_active!r}")
    if surface.arch_tag:
        lines.append(f"# arch_tag={surface.arch_tag}")
    if surface.recipe_tag:
        lines.append(f"# recipe_tag={surface.recipe_tag}")
    filled = ~np.isnan(surface._train)
    ii, jj = np.nonzero(filled)
    vals = surface._val[filled].tolist()
    has_val = not all(map(math.isnan, vals))
    lines.append(",".join(_HEADERS[has_val]))
    # each axis value is formatted once, then looked up per row
    cells = [
        map(list(map(repr, surface.grid.lr_values)).__getitem__, ii.tolist()),
        map(list(map(str, surface.grid.bs_values)).__getitem__, jj.tolist()),
        map(repr, surface._train[filled].tolist()),
    ]
    if has_val:  # a missing val, NaN in the table, is a blank cell
        cells.append(["" if math.isnan(v) else repr(v) for v in vals])
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


# --- analytics --------------------------------------------------------------


def find_optimum(surface: LossSurface, metric: str = "train") -> OptimumReport:
    """Grid point with minimal loss; ties break to smaller lr, then bs."""
    _check_metric(surface, metric)
    opt = surface._optima.get(metric)
    if opt is None:  # the first minimum in (lr, bs) order over the filled cells
        table = surface._table(metric)
        k = int(np.where(np.isnan(table), inf, table).argmin())
        i, j = divmod(k, table.shape[1])
        hp = (surface.grid.lr_values[i], surface.grid.bs_values[j])
        opt = surface._optima[metric] = OptimumReport(hp, table.item(k), metric)
    return opt


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
    grid = surface.grid
    log_lr, log_bs = grid.log_lr, grid.log_bs
    qx, qy = math.log(lr), math.log(bs_tokens)

    if not (log_lr[0] <= qx <= log_lr[-1]) or not (log_bs[0] <= qy <= log_bs[-1]):
        corner_lr = _nearest(grid.lr_values, log_lr, qx)
        corner_bs = _nearest(grid.bs_values, log_bs, qy)
        raise OutOfHullError(
            f"query (lr={lr:.6e}, bs={bs_tokens:.6e}) lies outside the grid hull; "
            f"nearest corner is (lr={corner_lr:.6e}, bs={corner_bs:.6e})",
            nearest_corner=(corner_lr, float(corner_bs)),
        )

    i, i1, t = _cell(log_lr, qx)
    j, j1, u = _cell(log_bs, qy)
    v00, v01 = table.item(i, j), table.item(i, j1)
    v10, v11 = table.item(i1, j), table.item(i1, j1)
    return (
        (1.0 - t) * (1.0 - u) * v00
        + t * (1.0 - u) * v10
        + (1.0 - t) * u * v01
        + t * u * v11
    )


def _cell(logs: tuple[float, ...], q: float) -> tuple[int, int, float]:
    """Nodes i and i1 of the cell of logs that holds q (past an end, the
    end cell) and q's fraction t from i to i1; one node is a cell, t = 0.

    Nodes whose logs are equal are one point: q at their log reads the
    first of them with t = 0, the tie rule of laws._nearest.
    """
    if len(logs) == 1:
        return 0, 0, 0.0
    i = max(0, min(bisect.bisect_right(logs, q) - 1, len(logs) - 2))
    while i > 0 and logs[i - 1] == q:
        i -= 1
    width = logs[i + 1] - logs[i]
    return i, i + 1, (q - logs[i]) / width if width else 0.0


def relative_error(
    surface: LossSurface, hp: tuple[float, float], metric: str = "train"
) -> float:
    """(interpolated loss - optimum loss) / optimum loss; zero at the optimum."""
    opt = find_optimum(surface, metric)
    return _relative(interpolate_loss(surface, hp[0], hp[1], metric), opt.loss)


def _relative(value: float, best: float) -> float:
    """relative_error of an interpolated loss `value` on a surface whose
    optimum loss is `best`: (value - best) / best, with an undershoot of
    at most _UNDERSHOOT_TOL read as 0."""
    rel = (value - best) / best
    if -_UNDERSHOOT_TOL <= rel < 0.0:
        return 0.0
    return rel


def plateau(surface: LossSurface, delta: float = DEFAULT_DELTA, metric: str = "train") -> dict:
    """The `plateau` section of the analyze report: delta, and as members
    the [lr, bs] of every point with (loss - min) / min <= delta, in (lr,
    bs) order; delta defaults to 0.25%."""
    if not (delta >= 0):  # not check_number: inf is a valid tolerance
        raise ArgumentError(f"delta must be >= 0, got {delta}")
    opt = find_optimum(surface, metric)
    with np.errstate(over="ignore"):  # an inf is above any delta: not a member
        ii, jj = np.nonzero((surface._table(metric) - opt.loss) / opt.loss <= delta)
    # np.nonzero walks the sorted axes in (lr, bs) order
    lrs, bss = surface.grid.lr_values, surface.grid.bs_values
    members = [[lrs[i], bss[j]] for i, j in zip(ii.tolist(), jj.tolist())]
    return {"delta": delta, "members": members}


def convexity_report(
    surface: LossSurface, epsilon: float = DEFAULT_EPSILON, metric: str = "train"
) -> dict:
    """The `convexity` section of the analyze report: the fractions of
    unimodal fixed-bs rows and fixed-lr columns, epsilon, and the sorted
    [axis, fixed value, index] of every breach, axis "row" (fixed bs) or
    "col" (fixed lr).

    A slice is unimodal when losses are non-increasing up to the minimum
    index and non-decreasing afterwards, with each comparison slackened by
    epsilon in absolute loss units.
    """
    if not (epsilon >= 0):  # not check_number: inf is a valid tolerance
        raise ArgumentError(f"epsilon must be >= 0, got {epsilon}")
    table = surface._losses(metric)
    report = {"epsilon": epsilon}
    violations = []
    # "col" sorts before "row", and np.nonzero walks each in (fixed, index) order
    for axis, fixed, slices in (
        ("col", surface.grid.lr_values, table),  # losses along bs
        ("row", [float(bs) for bs in surface.grid.bs_values], table.T),  # losses along lr
    ):
        breaks = _unimodality_breaks(slices, epsilon)
        ss, kk = np.nonzero(breaks)
        violations += [[axis, fixed[s], k + 1] for s, k in zip(ss.tolist(), kk.tolist())]
        unimodal = len(fixed) - int(breaks.any(axis=1).sum())
        report[f"{axis}_unimodal_fraction"] = unimodal / len(fixed)
    report["violations"] = violations
    return report


def _unimodality_breaks(slices: np.ndarray, epsilon: float) -> np.ndarray:
    """[s, k] is True where slice s breaks unimodality from index k to k + 1:
    a rise by more than epsilon before the slice's first minimum, or a fall
    by more than epsilon from it on."""
    before, after = slices[:, :-1], slices[:, 1:]
    descending = np.arange(slices.shape[1] - 1) < slices.argmin(axis=1)[:, None]
    return np.where(descending, after > before + epsilon, after < before - epsilon)


def argmin_consistency(surface: LossSurface) -> dict:
    """The `argmin_consistency` section of the analyze report: whether
    train and val losses share the same argmin grid point, and each
    argmin as [lr, bs]."""
    if not surface.has_full_val():
        raise ArgumentError("argmin_consistency requires val_loss on every point")
    train_opt = find_optimum(surface, "train").hp
    val_opt = find_optimum(surface, "val").hp
    return {
        "consistent": train_opt == val_opt,
        "train_opt": list(train_opt),
        "val_opt": list(val_opt),
    }


# --- reports ----------------------------------------------------------------


def analyze_report(
    surface: LossSurface,
    metric: str = "train",
    delta: float = DEFAULT_DELTA,
    epsilon: float = DEFAULT_EPSILON,
) -> dict:
    """The body of the `analyze` report: the optimum, the plateau within
    delta, the unimodality of the slices with slack epsilon, and, when
    every point has a val loss, train/val argmin consistency (else None).
    """
    opt = find_optimum(surface, metric)
    return {
        "optimum": {"lr": opt.hp[0], "bs": opt.hp[1], "loss": opt.loss, "metric": opt.metric},
        "plateau": plateau(surface, delta, metric),
        "convexity": convexity_report(surface, epsilon, metric),
        "argmin_consistency": argmin_consistency(surface) if surface.has_full_val() else None,
    }


def compare_rows(
    surf: LossSurface,
    methods,
    laws,
    aux,
    metric: str = "train",
    budget_factor: float = DEFAULT_FLOPS_FACTOR,
    use_snapped: bool = False,
) -> list[dict]:
    """The rows of the `compare` report: one dict per method, its
    prediction snapped to the surface's own grid; relative error only when
    status is ok. Each scored point is interpolated once, and its relative
    error taken from that loss."""
    if not methods:
        raise ArgumentError("method list must not be empty")
    check_number(budget_factor, "budget_factor", "positive")
    rows = []
    for method in methods:
        if method not in LAW_METHODS:
            raise ArgumentError(
                f"unknown method {method!r:.40}; expected one of {LAW_METHODS}"
            )
        row = {
            "method": method,
            "predicted": None,
            "snapped": None,
            "loss": None,
            "relative_error_permille": None,
            "status": None,
            "note": None,
        }
        try:
            budget = (
                compute_budget(surf.scale, budget_factor)
                if method == "deepseek"
                else None
            )
            pred = baseline_predict(method, surf.scale, budget=budget, aux=aux, laws=laws)
        except (ArgumentError, DomainError) as exc:
            row["status"] = "unsupported"
            row["note"] = str(exc)
            rows.append(row)
            continue
        row["predicted"] = {"lr": pred.lr, "bs": pred.bs_tokens}
        snapped = snap_to_grid(pred, surf.grid)
        row["snapped"] = {"lr": snapped.lr, "bs": snapped.bs_tokens}
        if pred.lr is None or pred.bs_tokens is None:
            row["status"] = "unsupported"
            row["note"] = f"{method} does not predict both lr and bs"
            rows.append(row)
            continue
        point = snapped if use_snapped else pred
        try:
            loss = interpolate_loss(surf, point.lr, point.bs_tokens, metric)
        except OutOfHullError as exc:
            row["status"] = "out_of_hull"
            row["note"] = str(exc)
            rows.append(row)
            continue
        row["loss"] = loss
        # relative_error's value, from the one interpolation
        rel = _relative(loss, find_optimum(surf, metric).loss)
        row["relative_error_permille"] = rel * 1000.0
        row["status"] = "ok"
        rows.append(row)
    return rows
