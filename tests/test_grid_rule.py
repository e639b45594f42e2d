"""GridSpec's one nearest-node rule, and interpolate_loss's cell lookup,
against the code they replaced, kept here as the reference.

The nearest node was found by a linear scan of log distances, once in
snap_to_grid per value and once more for the corner an out-of-hull query
reports; the cell by a separate index and fraction, each with its own
one-node case. The new code does the same float arithmetic on the same
logs, so results must be exactly equal, except in a cell of equal logs: there
the old cell divided by zero, and at the log of several equal-log nodes
read the last of them; the new one gives t = 0, and reads the first.
"""

import bisect
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hpscale import (
    GridSpec,
    LossSurface,
    ModelScale,
    OutOfHullError,
    Prediction,
    SweepPoint,
    interpolate_loss,
    snap_to_grid,
)
from hpscale.laws import _nearest
from hpscale.surface import _cell

# --- the replaced code -----------------------------------------------------------


def ref_nearest(log_v, grid):
    """laws._snap_value, given the value's log: ties keep the earlier node."""
    best = grid[0]
    best_dist = abs(log_v - math.log(grid[0]))
    for g in grid[1:]:
        dist = abs(log_v - math.log(g))
        if dist < best_dist:
            best, best_dist = g, dist
    return best


def ref_cell(coords, q):
    """surface._cell_index and _cell_frac, and the i1 interpolate_loss took."""
    if len(coords) == 1:
        i, t = 0, 0.0
    else:
        i = max(0, min(bisect.bisect_right(coords, q) - 1, len(coords) - 2))
        t = (q - coords[i]) / (coords[i + 1] - coords[i])
    return i, i + 1 if len(coords) > 1 else i, t


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:  # a cell of equal logs
        return ZeroDivisionError


# --- strategies ------------------------------------------------------------------

_positive = st.floats(min_value=1e-300, max_value=1e300)
# 1..8 strictly increasing nodes
axes = st.lists(_positive, min_size=1, max_size=8, unique=True).map(lambda v: tuple(sorted(v)))


@st.composite
def axis_queries(draw):
    """An axis, and logs to query it at: a node's log, the midpoint of two
    adjacent logs (often an exact tie), or any log."""
    values = draw(axes)
    logs = [math.log(v) for v in values]
    midpoints = [(a + b) / 2.0 for a, b in zip(logs, logs[1:])]
    query = st.sampled_from(logs + midpoints) | st.floats(min_value=-800.0, max_value=800.0)
    return values, draw(st.lists(query, max_size=8))


def _fixed_queries(logs):
    """Every node, every midpoint, and a point past either end."""
    return [*logs, *((a + b) / 2.0 for a, b in zip(logs, logs[1:])), logs[0] - 1.0,
            logs[-1] + 1.0]  # fmt: skip


# --- the nearest node ------------------------------------------------------------

_HUGE = math.nextafter(1e300, math.inf)


def test_the_1e300_nodes_have_equal_logs():
    assert 1e300 < _HUGE and math.log(1e300) == math.log(_HUGE)


@given(axis_queries())
@example(((1.0, 4.0), []))
@example(((1e300, _HUGE), []))
@example(((1.0, math.nextafter(1.0, 2.0)), [math.log(1e300)]))
@example(((2.5e-3,), []))
def test_nearest_equals_the_scan(case):
    values, queries = case
    logs = GridSpec(values, (1.0,)).log_lr
    for q in [*queries, *_fixed_queries(logs)]:
        assert _nearest(values, logs, q) == ref_nearest(q, values), q


def test_nearest_ties_and_equal_logs_go_to_the_smaller_node():
    logs = GridSpec((1.0, 4.0), (1.0,)).log_lr
    q = logs[1] / 2.0
    assert q - logs[0] == logs[1] - q  # an exact tie
    assert _nearest((1.0, 4.0), logs, q) == 1.0
    for value in (1e299, 1e300, _HUGE, 1e301):
        assert _nearest((1e300, _HUGE), (math.log(1e300),) * 2, math.log(value)) == 1e300
    # past the top end, the lower node's distance rounds to the upper one's
    nodes = (1.0, math.nextafter(1.0, 2.0))
    assert _nearest(nodes, GridSpec(nodes, (1.0,)).log_lr, math.log(1e300)) == 1.0


@given(axes, axes, _positive, _positive)
@example((1e300, _HUGE), (1.0, 4.0), 1e301, 2.0)
def test_snap_to_grid_equals_the_scan(lrs, bss, lr, bs):
    snapped = snap_to_grid(Prediction(lr=lr, bs_tokens=bs, method="x"), GridSpec(lrs, bss))
    assert snapped.lr == ref_nearest(math.log(lr), lrs)
    assert snapped.bs_tokens == ref_nearest(math.log(bs), bss)


@st.composite
def hull_queries(draw):
    """A complete surface on random axes, and a query outside its hull."""
    lrs = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5, unique=True))
    bss = draw(st.lists(st.integers(1, 10**12), min_size=1, max_size=5, unique=True))
    points = tuple(SweepPoint(lr, bs, 2.0 + k) for k, (lr, bs) in
                   enumerate((lr, bs) for lr in sorted(lrs) for bs in sorted(bss)))  # fmt: skip
    surf = LossSurface(ModelScale(1e9, 1e10), points)
    lr = draw(st.floats(1e-9, 10.0))
    bs = draw(st.floats(1e-3, 1e13))
    grid = surf.grid
    inside = grid.lr_values[0] <= lr <= grid.lr_values[-1]
    if inside and grid.bs_values[0] <= bs <= grid.bs_values[-1]:
        bs = draw(st.sampled_from([grid.bs_values[0] / 2.0, grid.bs_values[-1] * 2.0]))
    return surf, lr, bs


@given(hull_queries())
def test_nearest_corner_is_the_snapped_prediction(case):
    surf, lr, bs = case
    with pytest.raises(OutOfHullError) as info:
        interpolate_loss(surf, lr, bs)
    snapped = snap_to_grid(Prediction(lr=lr, bs_tokens=bs, method="x"), surf.grid)
    assert info.value.nearest_corner == (snapped.lr, float(snapped.bs_tokens))
    corner = (ref_nearest(math.log(lr), surf.grid.lr_values),
              float(ref_nearest(math.log(bs), surf.grid.bs_values)))  # fmt: skip
    assert info.value.nearest_corner == corner


# --- the cell --------------------------------------------------------------------


@given(axis_queries())
@example(((2.5e-3,), []))
@example(((1e299, 1e300, _HUGE), []))
@example(((1e300, _HUGE), []))
def test_cell_equals_the_index_and_fraction(case):
    values, queries = case
    logs = GridSpec(values, (1.0,)).log_lr
    for q in [*queries, *_fixed_queries(logs)]:
        expected = _outcome(ref_cell, logs, q)
        if logs.count(q) > 1:  # equal-log nodes are one point: the first
            expected = (logs.index(q), logs.index(q) + 1, 0.0)
        elif expected is ZeroDivisionError:  # past an end cell of zero width
            i = 0 if q < logs[0] else len(logs) - 2
            expected = (i, i + 1, 0.0)
        assert _cell(logs, q) == expected, q
