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
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ArgumentError, check_number
from .surface import LossSurface, find_optimum

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 24, 40, 64

LEVEL_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
DEFAULT_LEVELS_PERMILLE = (1.0, 2.5, 5.0, 10.0)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


# Each cell case's contour segments, as (edge, edge) pairs; a saddle whose
# centre lies above the level is keyed case + 16.
_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),), 5: ((3, 0), (1, 2)),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((0, 2),), 10: ((0, 3), (1, 2)),
    11: ((1, 2),), 12: ((1, 3),), 13: ((0, 1),), 14: ((0, 3),),
    21: ((3, 2), (0, 1)), 26: ((0, 1), (2, 3)),
}  # fmt: skip


def _marching_squares(xs, ys, field, level):
    """Line segments of the `field == level` isocontour, in data coords.

    field is a len(xs) x len(ys) array. All cells are classified at once;
    only those the contour crosses are visited, in (i, j) order.
    """
    above = (field > level).astype(np.uint8)
    cases = (
        above[:-1, :-1]
        | above[1:, :-1] << 1
        | above[1:, 1:] << 2
        | above[:-1, 1:] << 3
    )
    ii, jj = np.nonzero((cases != 0) & (cases != 15))
    values = field.tolist()
    segments = []
    for i, j, case in zip(ii.tolist(), jj.tolist(), cases[ii, jj].tolist()):
        corners = (
            (xs[i], ys[j], values[i][j]),
            (xs[i + 1], ys[j], values[i + 1][j]),
            (xs[i + 1], ys[j + 1], values[i + 1][j + 1]),
            (xs[i], ys[j + 1], values[i][j + 1]),
        )
        if case in (5, 10) and sum(v for _, _, v in corners) / 4.0 > level:
            case += 16
        for edges in _SEGMENTS[case]:
            ends = []
            for e in edges:
                xa, ya, va = corners[e]
                xb, yb, vb = corners[(e + 1) % 4]
                t = 1.0 if math.isinf(va) else (level - va) / (vb - va)
                ends.append((xa + t * (xb - xa), ya + t * (yb - ya)))
            segments.append(tuple(ends))
    return segments


# a character XML 1.0 forbids: a C0 control but \t\n\r, a surrogate, U+FFFE or U+FFFF
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _check_overlay_row(row, index: int) -> None:
    """The overlay-row rule: a dict whose method (the label), if given, is
    a str of characters XML 1.0 allows, and whose predicted and snapped are
    None or dicts of an lr and a bs that are None or positive and finite."""
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


class _Axes:
    """Maps (log lr, log bs) data coordinates to pixel coordinates."""

    def __init__(self, log_lrs, log_bss):
        self.x0, self.x1 = log_lrs[0], log_lrs[-1]
        self.y0, self.y1 = log_bss[0], log_bss[-1]
        self.plot_w = WIDTH - MARGIN_L - MARGIN_R
        self.plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(self, x: float) -> float:
        span = self.x1 - self.x0
        frac = 0.5 if span == 0 else (x - self.x0) / span
        return MARGIN_L + frac * self.plot_w

    def py(self, y: float) -> float:
        span = self.y1 - self.y0
        frac = 0.5 if span == 0 else (y - self.y0) / span
        return MARGIN_T + (1.0 - frac) * self.plot_h

    def clamp(self, x: float, y: float) -> tuple[float, float]:
        return (
            min(max(x, self.x0), self.x1),
            min(max(y, self.y0), self.y1),
        )


def render_surface_svg(
    surface: LossSurface,
    metric: str = "train",
    levels_permille=DEFAULT_LEVELS_PERMILLE,
    overlays=None,
    use_snapped: bool = False,
) -> str:
    """Render the relative-error contour view of a surface as SVG text.

    overlays is an iterable of compare rows (dicts with method, predicted,
    snapped, status); rows flagged out_of_hull are clamped to the hull
    border and drawn with a distinct triangular glyph. Every row is checked
    first; one that breaks _check_overlay_row's rule is an ArgumentError.
    """
    rows = list(overlays or ())
    for i, row in enumerate(rows):
        _check_overlay_row(row, i)
    levels = tuple(check_number(v, "contour level", "positive") for v in levels_permille)
    table = surface._losses(metric)
    grid = surface.grid
    opt = find_optimum(surface, metric)
    with np.errstate(over="ignore"):  # an inf lies above every contour level
        field = (table - opt.loss) / opt.loss * 1000.0
    ax = _Axes(grid.log_lr, grid.log_bs)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{ax.plot_w}" '
        f'height="{ax.plot_h}" fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">'
        f"relative error contours ({metric} loss, per-mille)</text>",
    ]

    # axis ticks: subsample to at most 8 labels per axis
    def ticks(values, logs):
        step = max(1, math.ceil(len(values) / 8))
        return [(values[k], logs[k]) for k in range(0, len(values), step)]

    for value, lx in ticks(grid.lr_values, grid.log_lr):
        x = ax.px(lx)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_T + ax.plot_h}" x2="{_fmt(x)}" '
            f'y2="{MARGIN_T + ax.plot_h + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{MARGIN_T + ax.plot_h + 18}" '
            f'text-anchor="middle" font-family="monospace" font-size="9">'
            f"{value:.2e}</text>"
        )
    for value, ly in ticks(grid.bs_values, grid.log_bs):
        y = ax.py(ly)
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
            f'y2="{_fmt(y)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 3)}" text-anchor="end" '
            f'font-family="monospace" font-size="9">{value:.2e}</text>'
        )
    out.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">learning rate</text>'
    )
    out.append(
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">batch size (tokens)</text>'
    )

    # contours
    for k, level in enumerate(levels):
        color = LEVEL_COLORS[k % len(LEVEL_COLORS)]
        for (xa, ya), (xb, yb) in _marching_squares(grid.log_lr, grid.log_bs, field, level):
            out.append(
                f'<line x1="{_fmt(ax.px(xa))}" y1="{_fmt(ax.py(ya))}" '
                f'x2="{_fmt(ax.px(xb))}" y2="{_fmt(ax.py(yb))}" '
                f'stroke="{color}" stroke-width="1.2"/>'
            )
        out.append(
            f'<text x="{WIDTH - MARGIN_R - 120}" y="{MARGIN_T + 14 + 12 * k}" '
            f'font-family="monospace" font-size="10" fill="{color}">'
            f"{level:g} permille</text>"
        )

    # optimum marker (cross)
    ox, oy = ax.px(math.log(opt.hp[0])), ax.py(math.log(opt.hp[1]))
    for dx1, dy1, dx2, dy2 in ((-5, -5, 5, 5), (-5, 5, 5, -5)):
        out.append(
            f'<line x1="{_fmt(ox + dx1)}" y1="{_fmt(oy + dy1)}" '
            f'x2="{_fmt(ox + dx2)}" y2="{_fmt(oy + dy2)}" '
            f'stroke="red" stroke-width="2"/>'
        )

    for row in rows:
        coords = row.get("snapped") if use_snapped else row.get("predicted")
        status = row.get("status", "")
        if status == "unsupported" or not coords:
            continue
        lr, bs = coords.get("lr"), coords.get("bs")
        if lr is None or bs is None:
            continue
        x, y = math.log(lr), math.log(bs)
        label = str(row.get("method", "?"))
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        if status == "out_of_hull":
            x, y = ax.clamp(x, y)
            px, py = ax.px(x), ax.py(y)
            out.append(
                f'<path d="M {_fmt(px)} {_fmt(py - 6)} L {_fmt(px - 5)} '
                f'{_fmt(py + 4)} L {_fmt(px + 5)} {_fmt(py + 4)} Z" '
                f'fill="none" stroke="purple" stroke-width="1.5"/>'
            )
        else:
            px, py = ax.px(x), ax.py(y)
            out.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="none" '
                f'stroke="black" stroke-width="1.5"/>'
            )
        out.append(
            f'<text x="{_fmt(px + 7)}" y="{_fmt(py + 3)}" '
            f'font-family="monospace" font-size="10">{label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
