"""Deterministic SVG contour plots of loss surfaces.

Renders a log-log view of the relative-error field of a surface: contour
lines at caller-chosen per-mille levels (marching squares with linear
edge interpolation), the tie-broken optimum, and optional overlay markers
for law predictions. The output is plain SVG 1.1 text with fixed float
formatting and no timestamps or generated ids, so identical inputs yield
identical bytes.

Marching squares: corner k of cell (i, j) is node (i, j), (i+1, j),
(i+1, j+1) or (i, j+1), and corner k sets bit k of the cell's case when
its value lies strictly above the level. Edge e joins corners e and
(e+1) % 4, and its crossing is at t = (level - va) / (vb - va) from
corner e. A saddle (case 5 or 10) whose centre, the mean of its four
corners, lies strictly above the level has segments that cut off its two
below corners, so its above corners join through the centre; otherwise
the segments cut off its above corners. A relative error that
overflows to inf lies above every level; an edge from an infinite corner
takes t = 1, the limit, so its crossing sits at the finite corner.

One pass traces every level: _marching_squares classifies the cells of
all levels in whole-array expressions and builds every segment as arrays,
in (level, i, j) order, from a table derived from _SEGMENTS, the one case
rule. Levels are taken in groups of at most MAX_GRID_CELLS // nodes, so a
group's tables hold at most MAX_GRID_CELLS entries whatever the number of
levels. The renderer maps the segments to pixels as arrays and writes each
level's lines, then its legend entry. Level k draws in LEVEL_COLORS[k % 6],
so from the 7th level on the colours repeat; the legend, one entry a line,
holds MAX_LEVELS (36) levels on the canvas, and more are refused.

An overlay row's point is clamped to the hull border whatever its status,
so no marker falls off the canvas; the status picks only the glyph.

Every element is written from a module-level %-template, and the parts
that never change (the frame, the title but its metric, the axis labels)
are built once, at import; render_surface_svg builds no element with an
f-string or str.format. A template's varying parts are %.3f for a pixel,
%.2e for a tick value, %g for a level, %d or %s. One %-format of a contour
line took about half the time of an f-string's four format specs.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ArgumentError, check_number
from .surface import MAX_GRID_CELLS, LossSurface, find_optimum

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 24, 40, 64
PLOT_W, PLOT_H = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B

LEVEL_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
DEFAULT_LEVELS_PERMILLE = (1.0, 2.5, 5.0, 10.0)
# legend entry k sits at y = MARGIN_T + 14 + 12k: the most that fit the canvas
MAX_LEVELS = (HEIGHT - MARGIN_T - 14) // 12 + 1


# Each cell case's contour segments, as (edge, edge) pairs; a saddle whose
# centre lies above the level is keyed case + 16.
_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),), 5: ((3, 0), (1, 2)),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((0, 2),), 10: ((0, 3), (1, 2)),
    11: ((1, 2),), 12: ((1, 3),), 13: ((0, 1),), 14: ((0, 3),),
    21: ((3, 2), (0, 1)), 26: ((0, 1), (2, 3)),
}  # fmt: skip


def _segment_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_SEGMENTS as arrays indexed by case key: the (edge, edge) pairs of a
    case's up to two segments, which of the two slots it fills, and
    whether it is a saddle (has a case + 16 key)."""
    edges = np.zeros((32, 2, 2), dtype=np.intp)
    slots = np.zeros((32, 2), dtype=bool)
    for case, pairs in _SEGMENTS.items():
        edges[case, : len(pairs)] = pairs
        slots[case, : len(pairs)] = True
    saddles = np.array([case + 16 in _SEGMENTS for case in range(32)])
    return edges, slots, saddles


_SEGMENT_EDGES, _SEGMENT_SLOTS, _SADDLES = _segment_table()
# corner k of cell (i, j) is node (i + _CORNER_DI[k], j + _CORNER_DJ[k]);
# k = 4 is corner 0 again, so edge e runs from corner e to corner e + 1
_CORNER_DI = np.array([0, 1, 1, 0, 0])
_CORNER_DJ = np.array([0, 0, 1, 1, 0])


def _marching_squares(xs, ys, field, levels):
    """Line segments of the `field == level` isocontour of every level, in
    data coords.

    field is a len(xs) x len(ys) array. Returns (level, segments): segment
    s joins (segments[s, 0, 0], segments[s, 0, 1]) to (segments[s, 1, 0],
    segments[s, 1, 1]) on the contour of levels[level[s]]. Segments come
    in (level, i, j) order, a cell's segments in _SEGMENTS order. The
    cells of all levels are classified in one pass of whole-array
    expressions, in groups of at most MAX_GRID_CELLS // field.size levels,
    so a group's tables hold at most MAX_GRID_CELLS entries.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    levels = np.asarray(levels, dtype=float)
    # the saddle rule's centre, summed in corner order as sum() would; a sum
    # past the largest float is inf, as it is there
    with np.errstate(over="ignore"):
        centre = (field[:-1, :-1] + field[1:, :-1] + field[1:, 1:] + field[:-1, 1:]) / 4.0
    found_level, found_segments = [np.empty(0, dtype=np.intp)], [np.empty((0, 2, 2))]
    step = max(1, MAX_GRID_CELLS // field.size)
    for first in range(0, len(levels), step):
        group = levels[first : first + step, None, None]
        above = (field > group).astype(np.uint8)
        cases = (
            above[:, :-1, :-1]
            | above[:, 1:, :-1] << 1
            | above[:, 1:, 1:] << 2
            | above[:, :-1, 1:] << 3
        )
        cases |= (_SADDLES[cases] & (centre > group)).astype(np.uint8) << 4
        kk, ii, jj = np.nonzero(_SEGMENT_SLOTS[cases, 0])
        case = cases[kk, ii, jj]
        cell, slot = np.nonzero(_SEGMENT_SLOTS[case])
        edges = _SEGMENT_EDGES[case[cell], slot]  # the edges of each segment's two ends
        i, j = ii[cell, None], jj[cell, None]
        ia, ja = i + _CORNER_DI[edges], j + _CORNER_DJ[edges]
        ib, jb = i + _CORNER_DI[edges + 1], j + _CORNER_DJ[edges + 1]
        va, vb = field[ia, ja], field[ib, jb]
        level = levels[first + kk[cell], None]
        with np.errstate(invalid="ignore"):  # t of an infinite corner: taken as 1
            t = np.where(np.isinf(va), 1.0, (level - va) / (vb - va))
        xa, ya = xs[ia], ys[ja]
        found_level.append(first + kk[cell])
        xy = np.empty(t.shape + (2,))  # the (x, y) of each segment's two ends
        xy[..., 0] = xa + t * (xs[ib] - xa)
        xy[..., 1] = ya + t * (ys[jb] - ya)
        found_segments.append(xy)
    return np.concatenate(found_level), np.concatenate(found_segments)


# the templates (see the module docstring); a contour line: x1, y1, x2, y2 and colour
_LINE = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="%s" stroke-width="1.2"/>'
# the prolog, the page, the plot box and the title, whose %s is the metric
_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" '
    f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" height="{PLOT_H}" '
    'fill="none" stroke="black" stroke-width="1"/>\n'
    f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-family="monospace" '
    'font-size="14">relative error contours (%s loss, per-mille)</text>'
)
_AXIS_LABELS = (
    f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
    'font-family="monospace" font-size="12">learning rate</text>\n'
    f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" font-family="monospace" '
    f'font-size="12" transform="rotate(-90 16 {HEIGHT // 2})">batch size (tokens)</text>'
)
# a tick's mark and label: x, x, x and value; y, y, y + 3 and value
_X_TICK = (
    f'<line x1="%.3f" y1="{MARGIN_T + PLOT_H}" x2="%.3f" y2="{MARGIN_T + PLOT_H + 5}" '
    'stroke="black" stroke-width="1"/>\n'
    f'<text x="%.3f" y="{MARGIN_T + PLOT_H + 18}" text-anchor="middle" '
    'font-family="monospace" font-size="9">%.2e</text>'
)
_Y_TICK = (
    f'<line x1="{MARGIN_L - 5}" y1="%.3f" x2="{MARGIN_L}" y2="%.3f" '
    'stroke="black" stroke-width="1"/>\n'
    f'<text x="{MARGIN_L - 8}" y="%.3f" text-anchor="end" '
    'font-family="monospace" font-size="9">%.2e</text>'
)
# a level's legend entry: y, colour and level
_LEGEND = (
    f'<text x="{WIDTH - MARGIN_R - 120}" y="%d" font-family="monospace" '
    'font-size="10" fill="%s">%g permille</text>'
)
# the optimum's cross, its two lines' ends
_CROSS = (
    '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="red" stroke-width="2"/>\n'
    '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="red" stroke-width="2"/>'
)
# an out_of_hull row's triangle, an ok row's circle, and the row's label
_TRIANGLE = (
    '<path d="M %.3f %.3f L %.3f %.3f L %.3f %.3f Z" '
    'fill="none" stroke="purple" stroke-width="1.5"/>'
)
_CIRCLE = '<circle cx="%.3f" cy="%.3f" r="4" fill="none" stroke="black" stroke-width="1.5"/>'
_MARKER_LABEL = '<text x="%.3f" y="%.3f" font-family="monospace" font-size="10">%s</text>'
# a label as XML text: & < and > escaped
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

# a character XML 1.0 forbids: a C0 control but \t\n\r, a surrogate, U+FFFE or U+FFFF
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_overlay_row(row, index: int) -> None:
    """The overlay-row rule: a dict whose method (the label), if given, is
    a str of characters XML 1.0 allows, whose predicted and snapped are
    None or dicts of an lr and a bs that are None or positive and finite,
    and whose status, if given, is None or one that compare_rows writes."""
    if not isinstance(row, dict):
        raise ArgumentError(f"overlay row {index} must be a JSON object")
    label = row.get("method", "")
    if not isinstance(label, str) or _NOT_XML_CHAR.search(label):
        raise ArgumentError(f"overlay row {index}: method must be XML text, got {label!r:.40}")
    for group in ("predicted", "snapped"):
        block = row.get(group)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ArgumentError(f"overlay row {index}: {group} must be an object or null")
        for key in ("lr", "bs"):
            if block.get(key) is not None:
                check_number(block[key], f"overlay row {index}: {group}.{key}", "positive")
    if row.get("status") not in (None, "ok", "out_of_hull", "unsupported"):
        raise ArgumentError(
            f"overlay row {index}: status must be ok, out_of_hull, unsupported or null, "
            f"got {row['status']!r:.40}"
        )


def _check_levels(levels_permille) -> tuple[float, ...]:
    """The contour levels as floats, each positive and finite, and at most
    MAX_LEVELS of them, as many as the legend holds."""
    levels = tuple(check_number(v, "contour level", "positive") for v in levels_permille)
    if len(levels) > MAX_LEVELS:
        raise ArgumentError(f"{len(levels)} contour levels; the legend holds at most {MAX_LEVELS}")
    return levels


def _frac(v, logs):
    """Where v, a log or an array of them, lies between the first and last
    of an axis's logs, as a fraction; 0.5 on a one-node axis."""
    span = logs[-1] - logs[0]
    return 0.5 if span == 0 else (v - logs[0]) / span


def _ticks(values, logs):
    """(value, log) of every node of an axis, subsampled to at most 8."""
    step = max(1, math.ceil(len(values) / 8))
    return zip(values[::step], logs[::step])


def render_surface_svg(
    surface: LossSurface,
    metric: str = "train",
    levels_permille=DEFAULT_LEVELS_PERMILLE,
    overlays=None,
    use_snapped: bool = False,
) -> str:
    """Render the relative-error contour view of a surface as SVG text.

    overlays is an iterable of compare rows (dicts with method, predicted,
    snapped, status); every row's point is clamped to the hull border, and
    rows flagged out_of_hull are drawn with a distinct triangular glyph.
    Every row is checked first; one that breaks _check_overlay_row's rule
    is an ArgumentError, and so are more than MAX_LEVELS levels.
    """
    rows = list(overlays or ())
    for i, row in enumerate(rows):
        _check_overlay_row(row, i)
    levels = _check_levels(levels_permille)
    table = surface._losses(metric)
    grid = surface.grid
    opt = find_optimum(surface, metric)
    with np.errstate(over="ignore"):  # an inf lies above every contour level
        field = (table - opt.loss) / opt.loss * 1000.0
    log_lr, log_bs = grid.log_lr, grid.log_bs

    out = [_HEAD % metric]
    for value, lx in _ticks(grid.lr_values, log_lr):
        x = MARGIN_L + _frac(lx, log_lr) * PLOT_W
        out.append(_X_TICK % (x, x, x, value))
    for value, ly in _ticks(grid.bs_values, log_bs):
        y = MARGIN_T + (1.0 - _frac(ly, log_bs)) * PLOT_H
        out.append(_Y_TICK % (y, y, y + 3, value))
    out.append(_AXIS_LABELS)

    # contours, each level's lines and then its legend entry
    level_of, segments = _marching_squares(log_lr, log_bs, field, levels)
    pixels = np.empty_like(segments)
    pixels[..., 0] = MARGIN_L + _frac(segments[..., 0], log_lr) * PLOT_W
    pixels[..., 1] = MARGIN_T + (1.0 - _frac(segments[..., 1], log_bs)) * PLOT_H
    bounds = np.searchsorted(level_of, np.arange(len(levels) + 1)).tolist()
    pixels = pixels.tolist()
    for k, level in enumerate(levels):
        color = LEVEL_COLORS[k % len(LEVEL_COLORS)]
        for (xa, ya), (xb, yb) in pixels[bounds[k] : bounds[k + 1]]:
            out.append(_LINE % (xa, ya, xb, yb, color))
        out.append(_LEGEND % (MARGIN_T + 14 + 12 * k, color, level))

    # optimum marker (cross)
    ox = MARGIN_L + _frac(math.log(opt.hp[0]), log_lr) * PLOT_W
    oy = MARGIN_T + (1.0 - _frac(math.log(opt.hp[1]), log_bs)) * PLOT_H
    out.append(_CROSS % (ox - 5, oy - 5, ox + 5, oy + 5, ox - 5, oy + 5, ox + 5, oy - 5))

    for row in rows:
        coords = row.get("snapped") if use_snapped else row.get("predicted")
        status = row.get("status", "")
        if status == "unsupported" or not coords:
            continue
        lr, bs = coords.get("lr"), coords.get("bs")
        if lr is None or bs is None:
            continue
        # clamped to the hull border, whatever the status says
        x = min(max(math.log(lr), log_lr[0]), log_lr[-1])
        y = min(max(math.log(bs), log_bs[0]), log_bs[-1])
        px = MARGIN_L + _frac(x, log_lr) * PLOT_W
        py = MARGIN_T + (1.0 - _frac(y, log_bs)) * PLOT_H
        if status == "out_of_hull":
            out.append(_TRIANGLE % (px, py - 6, px - 5, py + 4, px + 5, py + 4))
        else:
            out.append(_CIRCLE % (px, py))
        out.append(_MARKER_LABEL % (px + 7, py + 3, row.get("method", "?").translate(_ESCAPE)))

    out.append("</svg>")
    return "\n".join(out) + "\n"
