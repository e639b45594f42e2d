"""The dense-grid surface analytics against point-scan reference versions.

The references below rescan the tuple of SweepPoints on every call, the
way the analytics were first written. The grid code does the same
arithmetic on the same values, so results must be exactly equal.
"""

import bisect
import math
import re
import sys
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpscale import (
    ArgumentError,
    GridShapeError,
    LossSurface,
    ModelScale,
    OutOfHullError,
    SweepPoint,
    argmin_consistency,
    convexity_report,
    find_optimum,
    interpolate_loss,
    load_surface,
    plateau,
    relative_error,
    surface_to_csv,
)
from hpscale import svgplot
from hpscale.svgplot import _marching_squares, render_surface_svg

# --- point-scan references ----------------------------------------------------


def loss(pt, metric):
    return pt.train_smooth_loss if metric == "train" else pt.val_loss


def ref_find_optimum(points, metric):
    best = min(points, key=lambda pt: (loss(pt, metric), pt.lr, pt.bs_tokens))
    return (best.lr, best.bs_tokens), loss(best, metric)


def ref_plateau(points, delta, metric):
    _, best = ref_find_optimum(points, metric)
    return frozenset(
        (pt.lr, pt.bs_tokens)
        for pt in points
        if (loss(pt, metric) - best) / best <= delta
    )


def ref_table(points, metric):
    lrs = sorted({pt.lr for pt in points})
    bss = sorted({pt.bs_tokens for pt in points})
    if len(points) != len(lrs) * len(bss):
        raise GridShapeError("incomplete grid")
    li = {v: i for i, v in enumerate(lrs)}
    bi = {v: j for j, v in enumerate(bss)}
    table = [[None] * len(bss) for _ in lrs]
    for pt in points:
        table[li[pt.lr]][bi[pt.bs_tokens]] = loss(pt, metric)
    return lrs, bss, table


def ref_unimodality_breaks(values, epsilon):
    m = values.index(min(values))
    breaks = []
    for k in range(len(values) - 1):
        if k < m:
            if values[k + 1] > values[k] + epsilon:
                breaks.append(k + 1)
        else:
            if values[k + 1] < values[k] - epsilon:
                breaks.append(k + 1)
    return breaks


def ref_convexity(points, epsilon, metric):
    lrs, bss, table = ref_table(points, metric)
    violations = []
    row_ok = 0
    for j, bs in enumerate(bss):
        bad = ref_unimodality_breaks([table[i][j] for i in range(len(lrs))], epsilon)
        violations.extend(("row", float(bs), k) for k in bad)
        row_ok += not bad
    col_ok = 0
    for i, lr in enumerate(lrs):
        bad = ref_unimodality_breaks(table[i], epsilon)
        violations.extend(("col", lr, k) for k in bad)
        col_ok += not bad
    return row_ok / len(bss), col_ok / len(lrs), violations


def ref_interpolate(points, lr, bs_tokens, metric):
    lrs, bss, table = ref_table(points, metric)
    log_lrs = [math.log(v) for v in lrs]
    log_bss = [math.log(v) for v in bss]
    qx, qy = math.log(lr), math.log(bs_tokens)
    if not (log_lrs[0] <= qx <= log_lrs[-1]) or not (log_bss[0] <= qy <= log_bss[-1]):
        corner_lr = min(lrs, key=lambda v: abs(math.log(v) - qx))
        corner_bs = min(bss, key=lambda v: abs(math.log(v) - qy))
        raise OutOfHullError("outside", nearest_corner=(corner_lr, float(corner_bs)))

    def index(coords, q):
        if len(coords) == 1:
            return 0
        return max(0, min(bisect.bisect_right(coords, q) - 1, len(coords) - 2))

    def frac(coords, i, q):
        if len(coords) == 1:
            return 0.0
        return (q - coords[i]) / (coords[i + 1] - coords[i])

    i, j = index(log_lrs, qx), index(log_bss, qy)
    t, u = frac(log_lrs, i, qx), frac(log_bss, j, qy)
    i1 = i + 1 if len(lrs) > 1 else i
    j1 = j + 1 if len(bss) > 1 else j
    return (
        (1.0 - t) * (1.0 - u) * table[i][j]
        + t * (1.0 - u) * table[i1][j]
        + (1.0 - t) * u * table[i][j1]
        + t * u * table[i1][j1]
    )


def ref_marching_squares(xs, ys, field, level):
    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = (
                (xs[i], ys[j], field[i][j]),
                (xs[i + 1], ys[j], field[i + 1][j]),
                (xs[i + 1], ys[j + 1], field[i + 1][j + 1]),
                (xs[i], ys[j + 1], field[i][j + 1]),
            )
            case = 0
            for bit, (_, _, v) in enumerate(corners):
                if v > level:
                    case |= 1 << bit

            def cross(a, b):
                xa, ya, va = corners[a]
                xb, yb, vb = corners[b]
                # an edge from an infinite corner crosses at its finite corner
                t = 1.0 if math.isinf(va) else (level - va) / (vb - va)
                return (xa + t * (xb - xa), ya + t * (yb - ya))

            edges = {"a": (0, 1), "b": (1, 2), "c": (2, 3), "d": (3, 0)}

            def seg(e1, e2):
                segments.append((cross(*edges[e1]), cross(*edges[e2])))

            if case in (0, 15):
                continue
            if case in (5, 10):
                center = sum(v for _, _, v in corners) / 4.0
                above = center > level
                if case == 5:
                    if above:
                        seg("d", "c"), seg("a", "b")
                    else:
                        seg("d", "a"), seg("b", "c")
                else:
                    if above:
                        seg("a", "b"), seg("c", "d")
                    else:
                        seg("a", "d"), seg("b", "c")
                continue
            table = {
                1: ("d", "a"), 2: ("a", "b"), 3: ("d", "b"), 4: ("b", "c"),
                6: ("a", "c"), 7: ("d", "c"), 8: ("c", "d"), 9: ("a", "c"),
                11: ("b", "c"), 12: ("b", "d"), 13: ("a", "b"), 14: ("a", "d"),
            }  # fmt: skip
            seg(*table[case])
    return segments


def outcome(fn, *args):
    """A call's value, or its exception type and payload, for comparison."""
    try:
        return ("ok", fn(*args))
    except OutOfHullError as exc:
        return ("out_of_hull", exc.nearest_corner)
    except GridShapeError:
        return ("grid_shape", None)


# --- generated grids ------------------------------------------------------------

# Few distinct loss levels make tied minima and flat runs common.
LOSS_LEVELS = (2.0, 2.001, 2.0025, 2.0025, 2.01, 2.3)


@st.composite
def surfaces(draw, complete=None):
    """Grids of 1-5 lrs x 1-5 bss, possibly with unfilled cells.

    Points come in a random order; the val column is absent, full or
    partial.
    """
    lr_steps = sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=5)))
    bs_steps = sorted(draw(st.sets(st.integers(0, 10), min_size=1, max_size=5)))
    lrs = [2.0 ** (-12 + 0.5 * k) for k in lr_steps]
    bss = [int(round(32768 * 2.0 ** (k / 2))) for k in bs_steps]
    cells = [(lr, bs) for lr in lrs for bs in bss]
    full = complete if complete is not None else draw(st.booleans())
    if not full:
        keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        cells = [c for c, k in zip(cells, keep) if k] or cells[:1]
    cells = draw(st.permutations(cells))
    val_mode = draw(st.sampled_from(("none", "full", "partial")))
    points = []
    for lr, bs in cells:
        train = draw(st.sampled_from(LOSS_LEVELS))
        val = draw(st.sampled_from(LOSS_LEVELS))
        if val_mode == "none" or (val_mode == "partial" and draw(st.booleans())):
            val = None
        points.append(SweepPoint(lr, bs, train, val))
    return LossSurface(scale=ModelScale(1e9, 1e10), points=tuple(points))


def _metrics(surf):
    return ("train", "val") if all(p.val_loss is not None for p in surf.points) else ("train",)


@given(surfaces())
def test_optimum_and_plateau_match_point_scan(surf):
    for metric in _metrics(surf):
        opt = find_optimum(surf, metric)
        assert (opt.hp, opt.loss) == ref_find_optimum(surf.points, metric)
        for delta in (0.0, 0.0005, 0.0025, 0.01, math.inf):
            assert plateau(surf, delta, metric) == {
                "delta": delta,
                "members": sorted([lr, bs] for lr, bs in ref_plateau(surf.points, delta, metric)),
            }


@given(surfaces(), st.sampled_from((0.0, 5e-4, 1e-3, 0.02)))
def test_convexity_matches_point_scan(surf, epsilon):
    for metric in _metrics(surf):
        got = outcome(convexity_report, surf, epsilon, metric)
        want = outcome(ref_convexity, surf.points, epsilon, metric)
        if want[0] == "ok":
            row_fraction, col_fraction, violations = want[1]
            want = ("ok", {
                "row_unimodal_fraction": row_fraction,
                "col_unimodal_fraction": col_fraction,
                "epsilon": epsilon,
                "violations": sorted(list(v) for v in violations),
            })  # fmt: skip
        assert got == want


@given(surfaces(complete=True), st.sampled_from((0.0, 0.02, math.inf)))
def test_plateau_members_and_violations_come_sorted(surf, tolerance):
    for metric in _metrics(surf):
        members = plateau(surf, tolerance, metric)["members"]
        violations = convexity_report(surf, tolerance, metric)["violations"]
        assert members == sorted(members) and violations == sorted(violations)


@given(
    surfaces(),
    st.lists(st.tuples(st.floats(-13.0, -5.0), st.floats(14.0, 21.0)), max_size=8),
)
def test_interpolation_matches_point_scan(surf, log2_queries):
    queries = [(2.0**a, 2.0**b) for a, b in log2_queries]
    queries += [(p.lr, p.bs_tokens) for p in surf.points[:3]]  # grid nodes
    for metric in _metrics(surf):
        for lr, bs in queries:
            want = outcome(ref_interpolate, surf.points, lr, bs, metric)
            assert outcome(interpolate_loss, surf, lr, bs, metric) == want
            if want[0] == "ok":
                _, best = ref_find_optimum(surf.points, metric)
                rel = (want[1] - best) / best
                rel = 0.0 if -1e-12 <= rel < 0.0 else rel
                assert relative_error(surf, (lr, bs), metric) == rel


@given(surfaces(complete=False))
def test_incomplete_grids_raise_only_in_grid_operations(surf):
    n_cells = len(surf.grid.lr_values) * len(surf.grid.bs_values)
    find_optimum(surf)
    plateau(surf)
    if len(surf.points) == n_cells:
        return
    for op in (
        lambda: interpolate_loss(surf, surf.points[0].lr, surf.points[0].bs_tokens),
        lambda: relative_error(surf, (surf.points[0].lr, surf.points[0].bs_tokens)),
        lambda: convexity_report(surf),
        lambda: render_surface_svg(surf),
    ):
        with pytest.raises(GridShapeError):
            op()


def test_partial_val_rejects_val_metric_everywhere():
    points = (
        SweepPoint(1e-3, 32768, 2.0, 2.1),
        SweepPoint(1e-3, 65536, 2.2, None),
    )
    surf = LossSurface(scale=ModelScale(1e9, 1e10), points=points)
    assert not surf.has_full_val()
    for op in (
        lambda: find_optimum(surf, "val"),
        lambda: plateau(surf, 0.01, "val"),
        lambda: convexity_report(surf, 1e-3, "val"),
        lambda: interpolate_loss(surf, 1e-3, 40000, "val"),
    ):
        with pytest.raises(ArgumentError, match="val"):
            op()


def _csv_with_blank_vals(surf):
    """surf as CSV text with a val column, blank where a point has no val."""
    rows = [f"{p.lr!r},{p.bs_tokens},{p.train_smooth_loss!r},"
            + ("" if p.val_loss is None else repr(p.val_loss)) for p in surf.points]  # fmt: skip
    return "# n_params=1e9\n# d_tokens=1e10\nlr,bs_tokens,train_smooth_loss,val_loss\n" + (
        "\n".join(rows) + "\n"
    )


def _assert_python_numbers(surf):
    """Every number the surface and its analytics hand out is a Python float
    or int (a numpy float64 passes isinstance(v, float), so test the type)."""

    def check(values, kinds):
        assert [type(v) for v in values] == list(kinds), values

    def check_point(pt):
        check((pt.lr, pt.bs_tokens, pt.train_smooth_loss), (float, int, float))
        assert pt.val_loss is None or type(pt.val_loss) is float

    check(surf.grid.lr_values, [float] * len(surf.grid.lr_values))
    check(surf.grid.bs_values, [int] * len(surf.grid.bs_values))
    for pt in surf.points:
        check_point(pt)
    for metric in _metrics(surf):
        opt = find_optimum(surf, metric)
        check((*opt.hp, opt.loss), (float, int, float))
        region = plateau(surf, 0.01, metric)
        check((region["delta"],), (float,))
        for member in region["members"]:
            check(member, (float, int))
        if len(surf.points) < len(surf.grid.lr_values) * len(surf.grid.bs_values):
            continue
        rep = convexity_report(surf, 0.0, metric)
        check(
            (rep["row_unimodal_fraction"], rep["col_unimodal_fraction"], rep["epsilon"]),
            (float, float, float),
        )
        for v in rep["violations"]:
            check(v, (str, float, int))
        pt = surf.points[-1]
        for lr, bs in ((pt.lr, pt.bs_tokens), (pt.lr * 1.1, pt.bs_tokens * 1.1)):
            if surf.grid.lr_values[0] <= lr <= surf.grid.lr_values[-1] and (
                surf.grid.bs_values[0] <= bs <= surf.grid.bs_values[-1]
            ):
                check((interpolate_loss(surf, lr, bs, metric),), (float,))
                check((relative_error(surf, (lr, bs), metric),), (float,))
    if surf.has_full_val():
        consistency = argmin_consistency(surf)
        assert type(consistency["consistent"]) is bool
        check(consistency["train_opt"] + consistency["val_opt"], (float, int, float, int))


@given(surfaces())
def test_no_numpy_scalar_leaves_the_surface(surf):
    _assert_python_numbers(surf)
    _assert_python_numbers(load_surface(_csv_with_blank_vals(surf)))
    _assert_python_numbers(load_surface(surface_to_csv(surf)))


# --- marching squares -----------------------------------------------------------

FIELD_LEVELS = (0.0, 1.0, 2.5, 2.5, 4.0, 7.0, math.inf)


def contours(xs, ys, field, levels):
    """_marching_squares of every level at once, as one list per level of
    ((xa, ya), (xb, yb)) tuples, the form of ref_marching_squares."""
    level_of, segments = _marching_squares(xs, ys, np.array(field, dtype=float), levels)
    assert level_of.tolist() == sorted(level_of.tolist())
    ends = np.searchsorted(level_of, np.arange(len(levels) + 1)).tolist()
    pairs = [tuple(map(tuple, segment)) for segment in segments.tolist()]
    return [pairs[a:b] for a, b in zip(ends, ends[1:])]


def draw_field(data, n_x, n_y):
    return [[data.draw(st.sampled_from(FIELD_LEVELS)) for _ in range(n_y)] for _ in range(n_x)]


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_marching_squares_matches_cell_loop(n_x, n_y, data):
    xs = [0.5 * k for k in range(n_x)]
    ys = [0.3 * k - 1.0 for k in range(n_y)]
    field = draw_field(data, n_x, n_y)
    levels = (1.0, 2.5, 5.0)
    got = contours(xs, ys, field, levels)
    assert got == [ref_marching_squares(xs, ys, field, level) for level in levels]


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
    st.lists(st.sampled_from((0.5, 1.0, 2.5, 4.0, 5.0)), min_size=1, max_size=6),
)
def test_marching_squares_joins_the_levels_in_order(n_x, n_y, data, levels):
    # repeated levels, infinite corners, and 1 x n and n x 1 fields
    xs = [0.5 * k for k in range(n_x)]
    ys = [0.3 * k - 1.0 for k in range(n_y)]
    field = draw_field(data, n_x, n_y)
    refs = [ref_marching_squares(xs, ys, field, level) for level in levels]
    want_level = [k for k, ref in enumerate(refs) for _ in ref]
    want = [segment for ref in refs for segment in ref]
    array = np.array(field, dtype=float).reshape(n_x, n_y)
    for cells in (svgplot.MAX_GRID_CELLS, n_x * n_y):  # one group; one level a group
        with mock.patch.object(svgplot, "MAX_GRID_CELLS", cells):
            level_of, segments = _marching_squares(xs, ys, array, levels)
        assert level_of.tolist() == want_level
        assert [tuple(map(tuple, segment)) for segment in segments.tolist()] == want


@pytest.mark.parametrize(
    "field",
    [
        [[5.0, 0.0], [0.0, 6.0]],  # case 5, centre above the level
        [[3.0, 0.0], [0.0, 3.0]],  # case 5, centre below
        [[5.0, 0.0], [0.0, 5.0]],  # case 5, centre on the level
        [[0.0, 5.0], [6.0, 0.0]],  # case 10, centre above
        [[0.0, 3.0], [3.0, 0.0]],  # case 10, centre below
        [[3.0, 2.0, 3.0], [2.0, 3.0, 2.0], [3.0, 2.0, 3.0]],  # saddles in a row
        [[1e308, 0.0], [0.0, 1e308]],  # case 5, the centre's sum overflows to inf
    ],
)
def test_marching_squares_saddles(field):
    xs = [float(k) for k in range(len(field))]
    ys = [2.0 * k for k in range(len(field[0]))]
    levels = (2.5, 1.0, 2.5, 4.5)
    got = contours(xs, ys, field, levels)
    assert got == [ref_marching_squares(xs, ys, field, level) for level in levels]
    assert len(got[0]) >= 2


@pytest.mark.parametrize("case", range(16))
@pytest.mark.parametrize("high,low", [(10.0, 2.0), (3.0, 0.0)])  # saddle centre above, below
def test_marching_squares_every_case(case, high, low):
    # corner k of the one cell sets bit k of its case
    corners = [high if case >> k & 1 else low for k in range(4)]
    field = [[corners[0], corners[3]], [corners[1], corners[2]]]
    levels = (2.5, 1.0)
    got = contours([0.0, 1.0], [0.0, 2.0], field, levels)
    assert got == [ref_marching_squares([0.0, 1.0], [0.0, 2.0], field, level) for level in levels]
    assert len(got[0]) == (0 if case in (0, 15) else 2 if case in (5, 10) else 1)


@pytest.mark.parametrize("level", [math.nan, math.inf, 0.0, -1.0])
def test_render_rejects_levels_outside_the_positive_finite_floats(fig3_surface, level):
    with pytest.raises(ArgumentError, match="positive finite"):
        render_surface_svg(fig3_surface, levels_permille=(1.0, level))


def test_render_escapes_overlay_labels(fig3_surface):
    # & < > are XML text: escaped, not refused
    label = "a<b & c>d"
    row = {"method": label, "status": "ok", "predicted": {"lr": 1e-3, "bs": 262144}}
    svg = ET.fromstring(render_surface_svg(fig3_surface, overlays=[row]))
    assert [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")][-1] == label


_GOOD_ROW = {"method": "step", "status": "ok", "predicted": {"lr": 1e-3, "bs": 262144}}


@pytest.mark.parametrize(
    "row,message",
    [
        (5, "overlay row 1 must be a JSON object"),
        ({**_GOOD_ROW, "predicted": {"lr": "1e-3", "bs": 262144}},
         "overlay row 1: predicted.lr must be a positive finite number"),
        ({**_GOOD_ROW, "predicted": {"lr": -1.0, "bs": 262144}},
         "overlay row 1: predicted.lr must be a positive finite number"),
        ({**_GOOD_ROW, "snapped": [1e-3, 262144]}, "overlay row 1: snapped must be an object"),
        ({**_GOOD_ROW, "method": "a\x00b"}, "overlay row 1: method must be XML text"),
        *[({**_GOOD_ROW, "status": status},
           "overlay row 1: status must be ok, out_of_hull, unsupported or null, got "
           + repr(status)) for status in ("out_of_hul", 5, [1], {})],
    ],
    ids=["not-a-dict", "str-lr", "negative-lr", "list-snapped", "nul-label",
         "misspelt-status", "int-status", "list-status", "dict-status"],
)  # fmt: skip
def test_render_refuses_a_bad_overlay_row(fig3_surface, row, message):
    # every row is checked before drawing, whichever point is drawn
    for use_snapped in (False, True):
        with pytest.raises(ArgumentError, match="^" + re.escape(message)):
            render_surface_svg(fig3_surface, overlays=[_GOOD_ROW, row], use_snapped=use_snapped)


@pytest.mark.parametrize("status", [None, "ok", "out_of_hull", "unsupported"])
def test_render_accepts_each_compare_status_and_null(fig3_surface, status):
    row = {**_GOOD_ROW, "status": status}
    svg = ET.fromstring(render_surface_svg(fig3_surface, overlays=[row]))
    drawn = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")][-1] == "step"
    assert drawn == (status != "unsupported")


def test_not_xml_char_matches_the_complement_of_xml_chars():
    # XML 1.0's Char production, complemented: the reference
    reference = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    every_code_point = "".join(map(chr, range(sys.maxunicode + 1)))
    found = svgplot._NOT_XML_CHAR.findall(every_code_point)
    assert found == reference.findall(every_code_point)
    assert len(found) == 2079
