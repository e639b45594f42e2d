import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpscale import (
    ArgumentError,
    GridShapeError,
    GridSpec,
    LossSurface,
    ModelScale,
    OutOfHullError,
    ParseError,
    SurfaceSpec,
    SweepPoint,
    argmin_consistency,
    convexity_report,
    find_optimum,
    generate_surface,
    interpolate_loss,
    load_surface,
    plateau,
    relative_error,
    surface_to_csv,
)
from hpscale import surface as surface_module
from conftest import fuzz_examples

MINI_CSV = """\
# n_params=1.07e9
# d_tokens=1.0e11
lr,bs_tokens,train_smooth_loss,val_loss
0.000977,196608,2.301,2.060
0.000977,393216,2.295,2.054
0.001950,196608,2.285,2.044
0.001950,393216,2.279,2.038
"""


def _bowl(**kwargs):
    defaults = dict(opt_lr=2.0**-9, opt_bs=262144.0, seed=0)
    defaults.update(kwargs)
    return generate_surface(SurfaceSpec(**defaults))


def _points_grid(lrs, bss, loss_fn, val_fn=None):
    pts = []
    for lr in lrs:
        for bs in bss:
            val = val_fn(lr, bs) if val_fn else None
            pts.append(SweepPoint(lr, bs, loss_fn(lr, bs), val))
    return LossSurface(scale=ModelScale(1e9, 1e10), points=tuple(pts))


# --- parsing -----------------------------------------------------------------


def test_load_surface_parses_rows_and_metadata():
    surf = load_surface(MINI_CSV)
    assert surf.scale.n_params == 1.07e9
    assert surf.scale.d_tokens == 1.0e11
    pt = surf.point_at(0.001950, 393216)
    assert pt == SweepPoint(1.95e-3, 393216, 2.279, 2.038)


def test_point_at_a_cell_no_row_fills_raises():
    surf = LossSurface(scale=ModelScale(1e9, 1e10),
                       points=(SweepPoint(1e-3, 32768, 2.0), SweepPoint(2e-3, 65536, 2.1)))  # fmt: skip
    for lr, bs in ((1e-3, 65536), (1e-3, 1), (1.0, 32768), (math.nan, 32768), (None, 32768),
                   (1e-3, None)):  # fmt: skip
        with pytest.raises(ArgumentError, match="no sweep point"):
            surf.point_at(lr, bs)


def test_load_surface_optional_metadata_and_bytes():
    text = MINI_CSV.replace(
        "# d_tokens=1.0e11",
        "# d_tokens=1.0e11\n# arch_tag=dense\n# n_active=5e8\n# flops_per_token=2.9e9",
    )
    surf = load_surface(text.encode("utf-8"))
    assert surf.arch_tag == "dense"
    assert surf.scale.n_active == 5e8
    assert surf.scale.flops_per_token == 2.9e9


def test_load_surface_empty_file():
    with pytest.raises(ParseError, match="empty"):
        load_surface("")


def test_load_surface_duplicate_pair_names_line():
    bad = MINI_CSV + "0.001950,393216,2.3,2.1\n"
    with pytest.raises(ParseError, match="line 8.*duplicate"):
        load_surface(bad)


def test_load_surface_error_cases():
    with pytest.raises(ParseError, match="header"):
        load_surface("# n_params=1e9\n# d_tokens=1e10\nlr,bs,loss\n1e-3,2,2.0\n")
    with pytest.raises(ParseError, match="metadata"):
        load_surface("lr,bs_tokens,train_smooth_loss\n1e-3,32768,2.0\n")
    with pytest.raises(ParseError, match="line 4"):
        load_surface(
            "# n_params=1e9\n# d_tokens=1e10\n"
            "lr,bs_tokens,train_smooth_loss\n1e-3,32768,-2.0\n"
        )
    with pytest.raises(ParseError, match="integral"):
        load_surface(
            "# n_params=1e9\n# d_tokens=1e10\n"
            "lr,bs_tokens,train_smooth_loss\n1e-3,32768.5,2.0\n"
        )
    with pytest.raises(ParseError, match="columns"):
        load_surface(
            "# n_params=1e9\n# d_tokens=1e10\n"
            "lr,bs_tokens,train_smooth_loss\n1e-3,32768\n"
        )
    with pytest.raises(ParseError, match="non-numeric"):
        load_surface(
            "# n_params=1e9\n# d_tokens=1e10\n"
            "lr,bs_tokens,train_smooth_loss\n1e-3,32768,abc\n"
        )


def test_surface_csv_round_trip():
    surf = _bowl(val_offset=0.1)
    again = load_surface(surface_to_csv(surf))
    assert again.scale.n_params == surf.scale.n_params
    assert sorted(p.lr for p in again.points) == sorted(p.lr for p in surf.points)
    for pt in surf.points:
        other = again.point_at(pt.lr, pt.bs_tokens)
        assert other.train_smooth_loss == pt.train_smooth_loss  # repr round-trip
        assert other.val_loss == pt.val_loss


def test_sweep_point_validation():
    with pytest.raises(ArgumentError):
        SweepPoint(-1e-3, 32768, 2.0)
    with pytest.raises(ArgumentError):
        SweepPoint(1e-3, 0, 2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ArgumentError, match="bs_tokens must be finite and positive"):
            SweepPoint(1e-3, bad, 2.0)
    with pytest.raises(ArgumentError):
        SweepPoint(1e-3, 32768, math.inf)
    with pytest.raises(ArgumentError):
        SweepPoint(1e-3, 32768, 2.0, -0.5)


def test_surface_rejects_duplicates_and_empty():
    pt = SweepPoint(1e-3, 32768, 2.0)
    with pytest.raises(ArgumentError, match="duplicate"):
        LossSurface(scale=ModelScale(1e9, 1e10), points=(pt, pt))
    # [A, B, B', A']: the first row to repeat an earlier cell is B'
    a, b = SweepPoint(1e-3, 32768, 2.0), SweepPoint(2e-3, 65536, 2.1)
    again = (SweepPoint(2e-3, 65536, 2.2), SweepPoint(1e-3, 32768, 2.3))
    with pytest.raises(ArgumentError, match=r"^duplicate sweep point at lr=0\.002, bs=65536$"):
        LossSurface(scale=ModelScale(1e9, 1e10), points=(a, b, *again))
    with pytest.raises(ArgumentError, match="at least one"):
        LossSurface(scale=ModelScale(1e9, 1e10), points=())


def test_surface_takes_bs_as_an_integral_float64():
    for bs, match in ((32768.5, "bs_tokens must be integral, got 32768.5"),
                      (10**400, "fit in a float64")):  # fmt: skip
        with pytest.raises(ArgumentError, match=match):
            LossSurface(scale=ModelScale(1e9, 1e10), points=(SweepPoint(1e-3, bs, 2.0),))
    # bs is compared as float64: 2**53 + 1 and 2**53 are one cell
    pts = (SweepPoint(1e-3, 2**53, 2.0), SweepPoint(1e-3, 2**53 + 1, 2.1))
    with pytest.raises(ArgumentError, match="duplicate"):
        LossSurface(scale=ModelScale(1e9, 1e10), points=pts)


# --- optimum -----------------------------------------------------------------


def test_find_optimum_fig3_fixture(fig3_surface):
    for metric, loss in (("train", 2.279), ("val", 2.038)):
        opt = find_optimum(fig3_surface, metric)
        assert opt.hp == (0.001950, 393216)
        assert opt.loss == loss
        assert opt.metric == metric


def test_find_optimum_single_point():
    surf = LossSurface(
        scale=ModelScale(1e9, 1e10), points=(SweepPoint(1e-3, 32768, 2.5),)
    )
    assert find_optimum(surf).hp == (1e-3, 32768)


def test_find_optimum_planted_exact():
    surf = _bowl()
    opt = find_optimum(surf)
    assert opt.hp == (2.0**-9, 262144)
    # oracle: exhaustive scan
    best = min(surf.points, key=lambda p: p.train_smooth_loss)
    assert opt.loss == best.train_smooth_loss


def test_find_optimum_tie_breaks():
    pts = (
        SweepPoint(2e-3, 65536, 2.0),
        SweepPoint(1e-3, 65536, 2.0),
        SweepPoint(1e-3, 32768, 2.0),
        SweepPoint(2e-3, 32768, 2.5),
    )
    surf = LossSurface(scale=ModelScale(1e9, 1e10), points=pts)
    assert find_optimum(surf).hp == (1e-3, 32768)  # smaller lr, then smaller bs


def test_find_optimum_exhaustive_bound():
    surf = _bowl(noise_sigma=0.3, seed=11)
    opt = find_optimum(surf)
    assert all(opt.loss <= p.train_smooth_loss for p in surf.points)


def test_find_optimum_val_requires_val():
    surf = _bowl()
    with pytest.raises(ArgumentError, match="val"):
        find_optimum(surf, "val")
    with pytest.raises(ArgumentError, match="metric"):
        find_optimum(surf, "test")


@given(scale=st.floats(min_value=0.1, max_value=10.0),
       shift=st.floats(min_value=0.0, max_value=5.0))
def test_find_optimum_invariant_under_affine_loss_transform(scale, shift):
    base = _bowl(noise_sigma=0.2, seed=5)
    transformed = LossSurface(
        scale=base.scale,
        points=tuple(
            SweepPoint(p.lr, p.bs_tokens, scale * p.train_smooth_loss + shift)
            for p in base.points
        ),
    )
    assert find_optimum(transformed).hp == find_optimum(base).hp


# --- interpolation -----------------------------------------------------------


def test_interpolate_exact_at_every_node():
    surf = _bowl(noise_sigma=0.1, seed=3)
    for pt in surf.points:
        assert interpolate_loss(surf, pt.lr, pt.bs_tokens) == pt.train_smooth_loss


def test_interpolate_constant_field():
    surf = _points_grid([1e-3, 2e-3], [32768, 65536], lambda lr, bs: 2.0)
    mid_lr = math.sqrt(1e-3 * 2e-3)
    mid_bs = math.sqrt(32768 * 65536)
    assert interpolate_loss(surf, mid_lr, mid_bs) == pytest.approx(2.0, rel=1e-15)


def test_interpolate_log_midpoint_average():
    values = {(1e-3, 32768): 2.0, (1e-3, 65536): 2.2, (2e-3, 32768): 2.4,
              (2e-3, 65536): 2.6}
    surf = _points_grid([1e-3, 2e-3], [32768, 65536], lambda lr, bs: values[(lr, bs)])
    mid = interpolate_loss(surf, math.sqrt(2e-6), math.sqrt(32768 * 65536))
    assert mid == pytest.approx(2.3, rel=1e-12)


def test_interpolate_out_of_hull_carries_corner():
    surf = _bowl()
    with pytest.raises(OutOfHullError) as err:
        interpolate_loss(surf, 1.0, 262144)
    corner_lr, corner_bs = err.value.nearest_corner
    assert corner_lr == 2.0**-7
    assert corner_bs == 262144
    with pytest.raises(OutOfHullError):
        interpolate_loss(surf, 2.0**-9, 1e9)


def test_interpolate_incomplete_grid():
    surf = LossSurface(
        scale=ModelScale(1e9, 1e10),
        points=(
            SweepPoint(1e-3, 32768, 2.0),
            SweepPoint(2e-3, 65536, 2.1),
            SweepPoint(1e-3, 65536, 2.2),
        ),
    )
    with pytest.raises(GridShapeError):
        interpolate_loss(surf, 1.5e-3, 40000)


# --- relative error ----------------------------------------------------------


def test_relative_error_zero_at_optimum():
    surf = _bowl(noise_sigma=0.05, seed=9)
    opt = find_optimum(surf)
    assert relative_error(surf, opt.hp) == 0.0


def test_relative_error_one_step_offset_matches_oracle():
    surf = _bowl()
    opt = find_optimum(surf)
    lrs = surf.lr_values()
    i = lrs.index(opt.hp[0])
    probe = (lrs[i + 1], float(opt.hp[1]))
    expected = (surf.point_at(*[probe[0], int(probe[1])]).train_smooth_loss
                - opt.loss) / opt.loss
    got = relative_error(surf, probe)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0


def test_relative_error_out_of_hull():
    surf = _bowl()
    with pytest.raises(OutOfHullError):
        relative_error(surf, (1.0, 262144))


# --- plateau -----------------------------------------------------------------


def test_plateau_zero_delta_is_optimum():
    surf = _bowl()
    region = plateau(surf, 0.0)
    assert region.members == {(2.0**-9, 262144)}


def test_plateau_infinite_delta_is_everything():
    surf = _bowl(noise_sigma=0.2, seed=2)
    region = plateau(surf, math.inf)
    assert region.members == {(p.lr, p.bs_tokens) for p in surf.points}


def test_plateau_matches_threshold_scan():
    surf = _bowl(curvature_lr=0.7, curvature_bs=0.4, seed=4)
    opt = find_optimum(surf)
    region = plateau(surf, 0.005)
    oracle = {
        (p.lr, p.bs_tokens)
        for p in surf.points
        if (p.train_smooth_loss - opt.loss) / opt.loss <= 0.005
    }
    assert region.members == oracle
    assert opt.hp in region.members


def test_plateau_monotone_in_delta():
    surf = _bowl(noise_sigma=0.1, seed=6)
    deltas = [0.0, 1e-4, 1e-3, 0.0025, 0.01, 0.1, math.inf]
    regions = [plateau(surf, d).members for d in deltas]
    for smaller, larger in zip(regions, regions[1:]):
        assert smaller <= larger


def test_plateau_negative_delta():
    with pytest.raises(ArgumentError):
        plateau(_bowl(), -0.1)


# --- convexity ---------------------------------------------------------------


def test_convexity_monotone_slice_is_unimodal():
    surf = _points_grid(
        [1e-3, 2e-3, 4e-3], [32768, 65536],
        lambda lr, bs: 2.0 + math.log(lr / 1e-3) + 0.1 * math.log(bs / 32768),
    )
    report = convexity_report(surf)
    assert report.row_unimodal_fraction == 1.0
    assert report.col_unimodal_fraction == 1.0
    assert report.violations == ()


def test_convexity_noiseless_quadratic_is_unimodal():
    for cross in (0.0, 0.4, -0.4):
        surf = _bowl(curvature_lr=1.0, curvature_bs=0.5, cross_term=cross)
        report = convexity_report(surf)
        assert report.row_unimodal_fraction == 1.0
        assert report.col_unimodal_fraction == 1.0


def test_convexity_detects_planted_dip():
    lrs = [2.0 ** (-10.5 + 0.5 * k) for k in range(6)]
    base = {lr: 2.0 + (math.log(lr) - math.log(lrs[2])) ** 2 for lr in lrs}
    base[lrs[4]] = base[lrs[3]] - 0.01  # secondary dip of depth 0.01
    surf = _points_grid(lrs, [32768], lambda lr, bs: base[lr])
    report = convexity_report(surf, epsilon=1e-3)
    assert report.row_unimodal_fraction == 0.0
    assert any(v.axis == "row" and v.fixed_value == 32768 for v in report.violations)
    # with slack larger than the dip the slice passes again
    assert convexity_report(surf, epsilon=0.02).row_unimodal_fraction == 1.0


def test_convexity_requires_complete_grid():
    surf = LossSurface(
        scale=ModelScale(1e9, 1e10),
        points=(SweepPoint(1e-3, 32768, 2.0), SweepPoint(2e-3, 65536, 2.1)),
    )
    with pytest.raises(GridShapeError):
        convexity_report(surf)


def test_convexity_epsilon_validation():
    with pytest.raises(ArgumentError):
        convexity_report(_bowl(), epsilon=-1e-3)


# --- train/val consistency ----------------------------------------------------


def test_argmin_consistency_fig3(fig3_surface):
    report = argmin_consistency(fig3_surface)
    assert report.consistent
    assert report.train_opt.hp == (0.001950, 393216)
    assert report.val_opt.hp == (0.001950, 393216)


def test_argmin_consistency_shift_preserves():
    surf = _bowl(noise_sigma=0.1, seed=8)
    shifted = LossSurface(
        scale=surf.scale,
        points=tuple(
            SweepPoint(p.lr, p.bs_tokens, p.train_smooth_loss,
                       p.train_smooth_loss + 0.1)
            for p in surf.points
        ),
    )
    assert argmin_consistency(shifted).consistent


def test_argmin_consistency_displaced_val_min():
    surf = _bowl()
    train_opt = find_optimum(surf).hp
    lrs = surf.lr_values()
    displaced_lr = lrs[lrs.index(train_opt[0]) + 1]

    def val(p):
        # plant the val minimum one lr step away from the train minimum
        return 0.5 if (p.lr, p.bs_tokens) == (displaced_lr, train_opt[1]) else (
            p.train_smooth_loss + 1.0
        )

    moved = LossSurface(
        scale=surf.scale,
        points=tuple(
            SweepPoint(p.lr, p.bs_tokens, p.train_smooth_loss, val(p))
            for p in surf.points
        ),
    )
    report = argmin_consistency(moved)
    assert not report.consistent
    assert report.val_opt.hp == (displaced_lr, train_opt[1])


def test_argmin_consistency_requires_val():
    with pytest.raises(ArgumentError, match="val"):
        argmin_consistency(_bowl())


# --- parsing: behaviour pinned across the columnar loader ---------------------

HEAD = "# n_params=1e9\n# d_tokens=1e10\nlr,bs_tokens,train_smooth_loss,val_loss\n"
GOOD_ROWS = ["1e-3,32768,2.0,2.1", "1e-3,65536,2.2,2.3", "2e-3,32768,2.4,2.5"]
BAD_ROWS = {
    "duplicate": ("1e-3,32768,2.6,2.7", "duplicate"),
    "non-numeric": ("2e-3, abc ,2.0,2.1", "non-numeric value: could not convert "
                    "string to float: 'abc'"),
    "integral": ("2e-3,32768.5,2.0,2.1", "bs_tokens must be integral, got 32768.5"),
    "columns": ("2e-3,65536,2.0", "expected 4 columns, found 3"),
    "range": ("2e-3,65536,-2.0,2.1", "train_smooth_loss must be finite and positive"),
}


@pytest.mark.parametrize("first", sorted(BAD_ROWS))
@pytest.mark.parametrize("second", sorted(BAD_ROWS))
def test_load_surface_names_first_bad_line(first, second):
    # data rows start on line 4; the first bad row sits on line 7
    rows = GOOD_ROWS + [BAD_ROWS[first][0], BAD_ROWS[second][0]]
    with pytest.raises(ParseError, match="^line 7: " + BAD_ROWS[first][1]) as err:
        load_surface(HEAD + "\n".join(rows) + "\n")
    assert err.value.line == 7


def test_load_surface_first_bad_line_before_metadata_errors():
    text = HEAD.replace("# d_tokens=1e10\n", "") + "\n".join(GOOD_ROWS + GOOD_ROWS[:1])
    with pytest.raises(ParseError, match="line 6: duplicate"):
        load_surface(text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_surface_rejects_non_finite_val(value):
    text = HEAD + f"1e-3,32768,2.0,{value}\n"
    expected = f"line 4: val_loss must be finite and positive, got {float(value)}"
    with pytest.raises(ParseError) as err:
        load_surface(text)
    assert str(err.value) == expected


def test_load_surface_partial_val_column_keeps_values():
    surf = load_surface(HEAD + "1e-3,32768,2.0,2.1\n1e-3,65536,2.2,\n2e-3,32768,2.4, \n")
    assert [p.val_loss for p in surf.points] == [2.1, None, None]
    assert not surf.has_full_val()
    with pytest.raises(ArgumentError, match="val"):
        find_optimum(surf, "val")
    assert "val_loss" not in surface_to_csv(surf)


def test_load_surface_crlf_and_padding():
    text = (HEAD + "\n".join(GOOD_ROWS) + "\n").replace("\n", "\r\n")
    text = text.replace("2e-3,", " 2e-3 ,\t").replace(",32768,", ",\x1c32768\x1f,")
    surf = load_surface(text)
    assert surf == load_surface(HEAD + "\n".join(GOOD_ROWS) + "\n")
    assert surf.point_at(2e-3, 32768) == SweepPoint(2e-3, 32768, 2.4, 2.5)


def test_load_surface_huge_integral_bs_round_trips():
    surf = load_surface(HEAD + "1e-3,1e30,2.0,2.1\n")
    (pt,) = surf.points
    assert type(pt.bs_tokens) is int and pt.bs_tokens == int(1e30)
    again = load_surface(surface_to_csv(surf))
    assert again.points[0].bs_tokens == pt.bs_tokens
    assert again == surf


def test_surface_equality_and_hash():
    text = HEAD + "\n".join(GOOD_ROWS) + "\n"
    loaded = load_surface(text)
    points = tuple(
        SweepPoint(lr, bs, train, val)
        for lr, bs, train, val in ((1e-3, 32768, 2.0, 2.1), (1e-3, 65536, 2.2, 2.3),
                                   (2e-3, 32768, 2.4, 2.5))
    )  # fmt: skip
    built = LossSurface(scale=ModelScale(1e9, 1e10), points=points)
    assert loaded == built and hash(loaded) == hash(built)
    assert loaded.points == points
    assert len({loaded, built, load_surface(text)}) == 1
    reordered = LossSurface(scale=built.scale, points=points[::-1])
    assert reordered != built  # points compare in input order
    assert LossSurface(scale=built.scale, points=points, arch_tag="moe") != built


# --- parsing: the bulk path and the row loop agree ----------------------------

_PAD = st.sampled_from(["", "", "", " ", "\t", "\x1c", "\x1f", " \x1f\t"])
# spellings of a few lr and bs values
_LRS = (("1e-3", "0.001"), ("0.002", "2e-3"), ("0.004",), ("8e-3", "0.0080"))
_BSS = (("65536", "65536.0", "6.5536e4"), ("131072",), ("1e30",), ("262144",))
_HOSTILE = st.sampled_from([
    "", " ", "1_000", "\u0663", "\u0661e-3", "nan", "inf", "Infinity", "-Infinity",
    "0", "-1", "1e400", "1e-400", "2#5", "0x10", "abc",
])  # fmt: skip


@st.composite
def _surface_csv(draw):
    """Surface CSV text, valid or with up to two faults, mixing in what
    np.loadtxt and the row loop might treat differently: padding, CRLF,
    comments between and inside rows, blank val cells, underscores,
    non-ASCII digits, non-finite values, huge and fractional bs, duplicate
    cells and rows of the wrong width."""
    width = draw(st.sampled_from([3, 4]))
    keys = st.tuples(st.integers(0, len(_LRS) - 1), st.integers(0, len(_BSS) - 1))
    rows = [
        [draw(st.sampled_from(_LRS[i])), draw(st.sampled_from(_BSS[j])),
         *(repr(draw(st.floats(1.0, 5.0))) for _ in range(width - 2))]
        for i, j in draw(st.lists(keys, min_size=1, max_size=6, unique=True))
    ]  # fmt: skip
    for _ in range(draw(st.integers(0, 2))):
        cells = draw(st.sampled_from(rows))
        fault = draw(st.integers(0, 9))
        if fault < 5:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_HOSTILE)
        elif fault == 5:
            cells.append("2.5")
        elif fault == 6:
            cells.pop()
        elif fault == 7:
            cells[-1] += " # note"
        elif fault == 8:
            cells[:2] = rows[0][:2]
        else:
            cells[1] += ".5"
    lines = ["# n_params=1e9"]
    if draw(st.integers(0, 9)) < 9:
        lines.append("# d_tokens=1e10")
    header = ["lr", "bs_tokens", "train_smooth_loss", "val_loss"][:width]
    lines.append(",".join(draw(_PAD) + h + draw(_PAD) for h in header))
    for cells in rows:
        lines.append(",".join(draw(_PAD) + c + draw(_PAD) for c in cells))
        if not draw(st.integers(0, 4)):
            lines.append(draw(st.sampled_from(["# note", "#arch_tag=moe", "#"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def _load_outcome(load, text):
    try:
        surf = load(text)
    except ParseError as exc:
        return str(exc), exc.line
    g = surf._grid
    types = [type(v) for values in (*g.columns, g.lr_values, g.bs_values) for v in values]
    # the tables with None for NaN, so that unfilled cells compare equal
    tables = [np.where(np.isnan(t), None, t).tolist() for t in (g.train, g.val)]
    return surf, g.columns, tables, g.lr_values, g.bs_values, types


@settings(max_examples=fuzz_examples(400))
@given(text=_surface_csv())
@example(text=HEAD + "1e-3,32768,2.0,0\n")
@example(text=HEAD + "1e-3,32768,2.0,2.1#3\n")
@example(text=HEAD + "1e-3,32768,2.0,2.1\n1e-3,3.2768e4,2.0,2.1\n")
def test_bulk_parse_matches_row_loop(text):
    expected = _load_outcome(surface_module._load_surface_rows, text)
    assert _load_outcome(load_surface, text) == expected


def _dense_surface():
    # the benchmark's 60 x 70 dense grid
    grid = GridSpec(
        tuple(2.0 ** (-12.0 + 6.0 * k / 59) for k in range(60)),
        tuple(2.0 ** (14.0 + 8.5 * k / 69) for k in range(70)),
    )
    spec = SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0, noise_sigma=1e-4, val_offset=0.02)
    return generate_surface(spec, grid)


def test_dense_csv_round_trips_with_python_numbers():
    surf = _dense_surface()
    text = surface_to_csv(surf)
    loaded = load_surface(text)
    assert loaded == surf and surface_to_csv(loaded) == text
    losses = [v for metric in ("train", "val") for row in loaded.grid_losses(metric)
              for v in row]  # fmt: skip
    assert {type(v) for v in (*loaded.lr_values(), *losses)} == {float}
    assert {type(v) for v in loaded.bs_values()} == {int}
    point_types = {tuple(type(v) for v in (p.lr, p.bs_tokens, p.train_smooth_loss,
                                          p.val_loss)) for p in loaded.points}  # fmt: skip
    assert point_types == {(float, int, float, float)}


@pytest.mark.parametrize("surface", [load_surface(MINI_CSV), _bowl(), _bowl(val_offset=0.1)],
                         ids=["mini", "bowl", "bowl-val"])  # fmt: skip
def test_valid_csv_never_reaches_the_row_loop(monkeypatch, surface):
    def refuse(_text):
        raise AssertionError("row loop ran on a valid file")

    monkeypatch.setattr(surface_module, "_load_surface_rows", refuse)
    assert load_surface(surface_to_csv(surface)) == surface


@pytest.mark.parametrize(
    "rows,error",
    [
        (["1e-3,32768,2.0,2.1"], None),
        (["1e-3,32768,nan,2.1"], "line 4: train_smooth_loss must be finite"),
        (["# 1e-3,32768,2.0,2.1", "# 2e-3,32768,2.4,2.5"], "no data rows found"),
    ],
    ids=["one-row", "one-nan-row", "commented-rows"],
)
def test_small_files_load_without_warnings(rows, error):
    text = HEAD + "\n".join(rows) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert len(load_surface(text).points) == 1
        else:
            with pytest.raises(ParseError, match=error):
                load_surface(text)
