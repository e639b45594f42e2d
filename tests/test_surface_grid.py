"""The dense-grid surface analytics against point-scan reference versions.

The references below rescan the tuple of SweepPoints on every call, the
way the analytics were first written. The grid code does the same
arithmetic on the same values, so results must be exactly equal.
"""

import bisect
import math

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
from hpscale.svgplot import _marching_squares, render_surface_svg

# --- point-scan references ----------------------------------------------------


def ref_find_optimum(points, metric):
    best = min(points, key=lambda pt: (pt.loss(metric), pt.lr, pt.bs_tokens))
    return (best.lr, best.bs_tokens), best.loss(metric)


def ref_plateau(points, delta, metric):
    _, loss = ref_find_optimum(points, metric)
    return frozenset(
        (pt.lr, pt.bs_tokens)
        for pt in points
        if (pt.loss(metric) - loss) / loss <= delta
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
        table[li[pt.lr]][bi[pt.bs_tokens]] = pt.loss(metric)
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
                t = (level - va) / (vb - va)
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
            assert plateau(surf, delta, metric).members == ref_plateau(
                surf.points, delta, metric
            )


@given(surfaces(), st.sampled_from((0.0, 5e-4, 1e-3, 0.02)))
def test_convexity_matches_point_scan(surf, epsilon):
    for metric in _metrics(surf):
        got = outcome(convexity_report, surf, epsilon, metric)
        want = outcome(ref_convexity, surf.points, epsilon, metric)
        if want[0] == "ok":
            rep = got[1]
            got = ("ok", (
                rep.row_unimodal_fraction,
                rep.col_unimodal_fraction,
                [(v.axis, v.fixed_value, v.index) for v in rep.violations],
            ))  # fmt: skip
        assert got == want


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
    n_cells = len(surf.lr_values()) * len(surf.bs_values())
    find_optimum(surf)
    plateau(surf)
    if len(surf.points) == n_cells:
        return
    for op in (
        lambda: surf.grid_losses("train"),
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
        lambda: surf.grid_losses("val"),
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

    check(surf.lr_values(), [float] * len(surf.lr_values()))
    check(surf.bs_values(), [int] * len(surf.bs_values()))
    for pt in surf.points:
        check_point(pt)
        check_point(surf.point_at(pt.lr, pt.bs_tokens))
    for metric in _metrics(surf):
        opt = find_optimum(surf, metric)
        check((*opt.hp, opt.loss), (float, int, float))
        for member in plateau(surf, 0.01, metric).members:
            check(member, (float, int))
        if len(surf.points) < len(surf.lr_values()) * len(surf.bs_values()):
            continue
        for row in surf.grid_losses(metric):
            check(row, [float] * len(row))
        rep = convexity_report(surf, 0.0, metric)
        check((rep.row_unimodal_fraction, rep.col_unimodal_fraction), (float, float))
        for v in rep.violations:
            check((v.fixed_value, v.index), (float, int))
        pt = surf.points[-1]
        for lr, bs in ((pt.lr, pt.bs_tokens), (pt.lr * 1.1, pt.bs_tokens * 1.1)):
            if surf.lr_values()[0] <= lr <= surf.lr_values()[-1] and (
                surf.bs_values()[0] <= bs <= surf.bs_values()[-1]
            ):
                check((interpolate_loss(surf, lr, bs, metric),), (float,))
                check((relative_error(surf, (lr, bs), metric),), (float,))
    if surf.has_full_val():
        assert type(argmin_consistency(surf).consistent) is bool


@given(surfaces())
def test_no_numpy_scalar_leaves_the_surface(surf):
    _assert_python_numbers(surf)
    _assert_python_numbers(load_surface(_csv_with_blank_vals(surf)))
    _assert_python_numbers(load_surface(surface_to_csv(surf)))


# --- marching squares -----------------------------------------------------------

FIELD_LEVELS = (0.0, 1.0, 2.5, 2.5, 4.0, 7.0)


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
    st.sampled_from((1.0, 2.5, 5.0)),
)
def test_marching_squares_matches_cell_loop(n_x, n_y, data, level):
    xs = [0.5 * k for k in range(n_x)]
    ys = [0.3 * k - 1.0 for k in range(n_y)]
    field = [
        [data.draw(st.sampled_from(FIELD_LEVELS)) for _ in range(n_y)]
        for _ in range(n_x)
    ]
    got = _marching_squares(xs, ys, np.array(field, dtype=float).reshape(n_x, n_y), level)
    assert got == ref_marching_squares(xs, ys, field, level)


@pytest.mark.parametrize(
    "field",
    [
        [[5.0, 0.0], [0.0, 6.0]],  # case 5, centre above the level
        [[3.0, 0.0], [0.0, 3.0]],  # case 5, centre below
        [[5.0, 0.0], [0.0, 5.0]],  # case 5, centre on the level
        [[0.0, 5.0], [6.0, 0.0]],  # case 10, centre above
        [[0.0, 3.0], [3.0, 0.0]],  # case 10, centre below
        [[3.0, 2.0, 3.0], [2.0, 3.0, 2.0], [3.0, 2.0, 3.0]],  # saddles in a row
    ],
)
def test_marching_squares_saddles(field):
    xs = [float(k) for k in range(len(field))]
    ys = [2.0 * k for k in range(len(field[0]))]
    got = _marching_squares(xs, ys, np.array(field), 2.5)
    want = ref_marching_squares(xs, ys, field, 2.5)
    assert got == want
    assert len(want) >= 2


@pytest.mark.parametrize("level", [math.nan, math.inf, 0.0, -1.0])
def test_render_rejects_levels_outside_the_positive_finite_floats(fig3_surface, level):
    with pytest.raises(ArgumentError, match="positive finite"):
        render_surface_svg(fig3_surface, levels_permille=(1.0, level))
