import gc
import io
import math
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpscale import (
    ArgumentError,
    AuxInputs,
    GridShapeError,
    GridSpec,
    LossSurface,
    ModelScale,
    OutOfHullError,
    ParseError,
    SurfaceSpec,
    SweepPoint,
    argmin_consistency,
    compare_rows,
    convexity_report,
    find_optimum,
    generate_surface,
    interpolate_loss,
    load_surface,
    plateau,
    relative_error,
    surface_to_csv,
)
from hpscale import errors as errors_module
from hpscale import surface as surface_module
from hpscale.laws import DEFAULT_LAWS
from conftest import fuzz_examples, point_at

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
    pt = point_at(surf, 0.001950, 393216)
    assert pt == SweepPoint(1.95e-3, 393216, 2.279, 2.038)


def test_load_surface_optional_metadata_and_bytes():
    # flops_per_token is no scale field: an old file's line is ignored like any unknown key
    text = MINI_CSV.replace(
        "# d_tokens=1.0e11",
        "# d_tokens=1.0e11\n# arch_tag=dense\n# n_active=5e8\n# flops_per_token=2.9e9",
    )
    surf = load_surface(text.encode("utf-8"))
    assert surf.arch_tag == "dense"
    assert surf.scale == ModelScale(1.07e9, 1.0e11, n_active=5e8)


def test_surface_csv_round_trip_keeps_n_active():
    meta = "# d_tokens=1.0e11\n# arch_tag=dense\n# n_active=5e8"
    surf = load_surface(MINI_CSV.replace("# d_tokens=1.0e11", meta))
    assert "\n# n_active=500000000.0\n" in surface_to_csv(surf)
    assert load_surface(surface_to_csv(surf)) == surf


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
        other = point_at(again, pt.lr, pt.bs_tokens)
        assert other.train_smooth_loss == pt.train_smooth_loss  # repr round-trip
        assert other.val_loss == pt.val_loss


@pytest.mark.parametrize("field", SweepPoint._fields)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0, -1e-3, True, "0.001"],
                         ids=repr)  # fmt: skip
def test_surface_refuses_a_bad_value_in_any_field(field, value):
    good = SweepPoint(1e-3, 32768, 2.0, 2.1)
    rule = "a number" if isinstance(value, (bool, str)) else "finite and positive"
    with pytest.raises(ArgumentError, match=f"^{field} must be {rule}, got "):
        LossSurface(ModelScale(1e9, 1e10), (good._replace(**{field: value}),))


def test_surface_points_are_its_rows():
    scale = ModelScale(1e9, 1e10)
    pts = (SweepPoint(2e-3, 65536, 2.1, None), SweepPoint(1e-3, 32768, 2.0, 2.2))
    assert LossSurface(scale, pts).points == pts
    assert LossSurface(scale, (SweepPoint(1e-3, 32768, 2.0, None),)).points[0].val_loss is None
    # a partial val column: the constructed surface and its loaded twin
    built = LossSurface(scale, pts, arch_tag="moe")
    loaded = load_surface("# n_params=1e9\n# d_tokens=1e10\n# arch_tag=moe\n"
                          "lr,bs_tokens,train_smooth_loss,val_loss\n"
                          "2e-3,65536,2.1,\n1e-3,32768,2.0,2.2\n")  # fmt: skip
    assert loaded == built and hash(loaded) == hash(built)
    assert loaded.points == pts


@pytest.mark.parametrize("tag", ["x\n1e-3,65536,2.0", "x\n# n_params=5", "a\rb", " pad ",
                                 "pad\t", None, 5])  # fmt: skip
@pytest.mark.parametrize("name", ["arch_tag", "recipe_tag"])
def test_surface_refuses_a_tag_that_cannot_round_trip(name, tag):
    with pytest.raises(ArgumentError, match=f"^{name} must be a str with no line break"):
        LossSurface(ModelScale(1e9, 1e10), (SweepPoint(1e-3, 32768, 2.0),), **{name: tag})


@pytest.mark.parametrize("scale", ["x", (1e9, 1e10), None], ids=repr)
def test_surface_refuses_a_scale_that_is_not_a_model_scale(scale):
    with pytest.raises(ArgumentError, match="^scale must be a ModelScale, got "):
        LossSurface(scale, (SweepPoint(1e-3, 32768, 2.0),))


@pytest.mark.parametrize("tag", ["", "dense", "moe v2", "a=b", "#x", "µ-p"])
def test_surface_tags_round_trip_through_csv(tag):
    surf = LossSurface(ModelScale(1e9, 1e10), (SweepPoint(1e-3, 32768, 2.0),),
                       arch_tag=tag, recipe_tag=tag[::-1])  # fmt: skip
    again = load_surface(surface_to_csv(surf))
    assert again == surf and (again.arch_tag, again.recipe_tag) == (tag, tag[::-1])


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


@pytest.mark.parametrize(
    "lrs, first",
    [
        ([1e300, math.nextafter(1e300, math.inf)], 0),  # the only cell has zero width
        ([1e300, math.nextafter(1e300, math.inf), 1e301], 0),
        ([1e299, 1e300, math.nextafter(1e300, math.inf)], 1),  # the end cell
    ],
)
def test_interpolate_equal_log_nodes_read_the_first(lrs, first):
    # two lr nodes one ulp apart have one log: at either node, the loss is
    # the first node's, the node laws._nearest snaps both to
    assert math.log(lrs[first]) == math.log(lrs[first + 1])
    bss = [32768, 65536]
    losses = {(lr, bs): 2.0 + k / 10 + m / 100
              for k, lr in enumerate(lrs) for m, bs in enumerate(bss)}  # fmt: skip
    surf = _points_grid(lrs, bss, lambda lr, bs: losses[(lr, bs)])
    for lr in lrs[first:first + 2]:
        for bs in bss:
            assert interpolate_loss(surf, lr, bs) == losses[(lrs[first], bs)]
        mid = interpolate_loss(surf, lr, math.sqrt(32768 * 65536))
        assert mid == pytest.approx(losses[(lrs[first], 32768)] + 0.005, rel=1e-12)


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
    lrs = surf.grid.lr_values
    i = lrs.index(opt.hp[0])
    probe = (lrs[i + 1], float(opt.hp[1]))
    expected = (point_at(surf, probe[0], int(probe[1])).train_smooth_loss
                - opt.loss) / opt.loss
    got = relative_error(surf, probe)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0


def test_relative_error_reads_a_rounding_undershoot_as_zero():
    # every node is 2.3, but this query interpolates one ulp below it
    surf = _points_grid((1e-3, 2e-3), (65536, 131072), lambda lr, bs: 2.3)
    query = (0.0016027941314794177, 66760.02130535236)
    assert interpolate_loss(surf, *query) == 2.2999999999999994
    assert relative_error(surf, query) == 0.0


def test_relative_error_out_of_hull():
    surf = _bowl()
    with pytest.raises(OutOfHullError):
        relative_error(surf, (1.0, 262144))


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_compare_rows_names_its_own_budget_factor(value):
    # the library names its parameter; only the CLI names --budget-factor
    with pytest.raises(ArgumentError) as err:
        compare_rows(_bowl(), ["step"], DEFAULT_LAWS, AuxInputs(), budget_factor=value)
    assert str(err.value) == f"budget_factor must be a positive finite number, got {value!r}"


# --- plateau -----------------------------------------------------------------


def _members(surf, delta):
    """plateau's members as a set of (lr, bs)."""
    return {tuple(member) for member in plateau(surf, delta)["members"]}


def test_plateau_zero_delta_is_optimum():
    surf = _bowl()
    region = plateau(surf, 0.0)
    assert region == {"delta": 0.0, "members": [[2.0**-9, 262144]]}


def test_plateau_infinite_delta_is_everything():
    surf = _bowl(noise_sigma=0.2, seed=2)
    assert _members(surf, math.inf) == {(p.lr, p.bs_tokens) for p in surf.points}


def test_plateau_matches_threshold_scan():
    surf = _bowl(curvature_lr=0.7, curvature_bs=0.4, seed=4)
    opt = find_optimum(surf)
    members = _members(surf, 0.005)
    oracle = {
        (p.lr, p.bs_tokens)
        for p in surf.points
        if (p.train_smooth_loss - opt.loss) / opt.loss <= 0.005
    }
    assert members == oracle
    assert opt.hp in members


def test_plateau_monotone_in_delta():
    surf = _bowl(noise_sigma=0.1, seed=6)
    deltas = [0.0, 1e-4, 1e-3, 0.0025, 0.01, 0.1, math.inf]
    regions = [_members(surf, d) for d in deltas]
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
    assert report["row_unimodal_fraction"] == 1.0
    assert report["col_unimodal_fraction"] == 1.0
    assert report["violations"] == []


def test_convexity_noiseless_quadratic_is_unimodal():
    for cross in (0.0, 0.4, -0.4):
        surf = _bowl(curvature_lr=1.0, curvature_bs=0.5, cross_term=cross)
        report = convexity_report(surf)
        assert report["row_unimodal_fraction"] == 1.0
        assert report["col_unimodal_fraction"] == 1.0


def test_convexity_detects_planted_dip():
    lrs = [2.0 ** (-10.5 + 0.5 * k) for k in range(6)]
    base = {lr: 2.0 + (math.log(lr) - math.log(lrs[2])) ** 2 for lr in lrs}
    base[lrs[4]] = base[lrs[3]] - 0.01  # secondary dip of depth 0.01
    surf = _points_grid(lrs, [32768], lambda lr, bs: base[lr])
    report = convexity_report(surf, epsilon=1e-3)
    assert report["row_unimodal_fraction"] == 0.0
    assert any(axis == "row" and fixed == 32768 for axis, fixed, _ in report["violations"])
    # with slack larger than the dip the slice passes again
    assert convexity_report(surf, epsilon=0.02)["row_unimodal_fraction"] == 1.0


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
    assert report["consistent"] is True
    assert report["train_opt"] == [0.001950, 393216]
    assert report["val_opt"] == [0.001950, 393216]


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
    assert argmin_consistency(shifted)["consistent"] is True


def test_argmin_consistency_displaced_val_min():
    surf = _bowl()
    train_opt = find_optimum(surf).hp
    lrs = surf.grid.lr_values
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
    assert report["consistent"] is False
    assert report["val_opt"] == [displaced_lr, train_opt[1]]


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
    # the val column is written with a blank cell where a val is missing
    assert load_surface(surface_to_csv(surf)) == surf


def test_load_surface_crlf_and_padding():
    text = (HEAD + "\n".join(GOOD_ROWS) + "\n").replace("\n", "\r\n")
    text = text.replace("2e-3,", " 2e-3 ,\t").replace(",32768,", ",\x1c32768\x1f,")
    surf = load_surface(text)
    assert surf == load_surface(HEAD + "\n".join(GOOD_ROWS) + "\n")
    assert point_at(surf, 2e-3, 32768) == SweepPoint(2e-3, 32768, 2.4, 2.5)


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
    axes = surf.grid
    types = [type(v) for values in (*surf.points, axes.lr_values, axes.bs_values) for v in values]
    # the tables with None for NaN, so that unfilled cells compare equal
    tables = [np.where(np.isnan(t), None, t).tolist() for t in (surf._train, surf._val)]
    return surf, surf.points, tables, axes.lr_values, axes.bs_values, types


def _cold_load(source):
    """load_surface with its memo emptied first."""
    surface_module._last_load = None
    return load_surface(source)


def _row_loop_load(source):
    """A cold load_surface whose bulk parse refuses every text, so that the
    row loop reads all of it."""
    with mock.patch.object(errors_module, "_bulk_table", return_value=None):
        return _cold_load(source)


@settings(max_examples=fuzz_examples(400))
@given(text=_surface_csv())
@example(text=HEAD + "1e-3,32768,2.0,0\n")
@example(text=HEAD + "1e-3,32768,2.0,2.1#3\n")
@example(text=HEAD + "1e-3,32768,2.0,2.1\n1e-3,3.2768e4,2.0,2.1\n")
def test_bulk_parse_matches_row_loop(text):
    expected = _load_outcome(_row_loop_load, text)
    assert _load_outcome(_cold_load, text) == expected


# the benchmark's 60 x 70 dense grid
DENSE_GRID = GridSpec(
    tuple(2.0 ** (-12.0 + 6.0 * k / 59) for k in range(60)),
    tuple(2.0 ** (14.0 + 8.5 * k / 69) for k in range(70)),
)
DENSE_SPEC = SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0, noise_sigma=1e-4, val_offset=0.02)


def _dense_surface():
    """DENSE_SPEC's bowl on DENSE_GRID with the noise synth drew before it
    used Philox, one SeedSequence((seed, 0, i, j)) per node: the surface
    the golden digests of the surface commands are pinned on."""
    spec, points = DENSE_SPEC, []
    for i, lr in enumerate(DENSE_GRID.lr_values):
        for j, bs in enumerate(DENSE_GRID.bs_values):
            bs = int(round(bs))
            dx, dy = math.log(lr) - math.log(spec.opt_lr), math.log(bs) - math.log(spec.opt_bs)
            q = (spec.curvature_lr * dx * dx + spec.curvature_bs * dy * dy
                 + 2.0 * spec.cross_term * dx * dy)
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0, i, j)))
            loss = (spec.base_loss + q) * math.exp(spec.noise_sigma * float(rng.standard_normal()))
            points.append(SweepPoint(lr, bs, loss, loss + spec.val_offset))
    return LossSurface(spec.scale, tuple(points), "synthetic", "synthetic")


def test_dense_csv_round_trips_with_python_numbers():
    surf = _dense_surface()
    text = surface_to_csv(surf)
    loaded = load_surface(text)
    assert loaded == surf and surface_to_csv(loaded) == text
    assert {type(v) for v in loaded.grid.lr_values} == {float}
    assert {type(v) for v in loaded.grid.bs_values} == {int}
    point_types = {tuple(type(v) for v in (p.lr, p.bs_tokens, p.train_smooth_loss,
                                          p.val_loss)) for p in loaded.points}  # fmt: skip
    assert point_types == {(float, int, float, float)}


@pytest.mark.parametrize("surface", [load_surface(MINI_CSV), _bowl(), _bowl(val_offset=0.1)],
                         ids=["mini", "bowl", "bowl-val"])  # fmt: skip
def test_valid_csv_never_reaches_the_row_loop(monkeypatch, surface):
    def refuse(*_args):
        raise AssertionError("row loop ran on a valid file")

    monkeypatch.setattr(errors_module, "_row_table", refuse)
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


# --- parsing: the one-entry memo ---------------------------------------------

PARTIAL_VAL_CSV = HEAD + "1e-3,32768,2.0,2.1\n1e-3,65536,2.2,\n"  # the row loop reads it
GOOD_CSV = HEAD + "\n".join(GOOD_ROWS) + "\n"
MEMO_BAD = {
    "duplicate": GOOD_CSV + BAD_ROWS["duplicate"][0] + "\n",
    "non-numeric": GOOD_CSV + BAD_ROWS["non-numeric"][0] + "\n",
    "no-d_tokens": MINI_CSV.replace("# d_tokens=1.0e11\n", ""),  # the bulk parse succeeds
    "bad-metadata": MINI_CSV.replace("1.0e11", "1.0e1x"),
    "empty": "",
}


@pytest.fixture
def parses(monkeypatch):
    """Calls made to the bulk parse and to the row loop."""
    counts = {"bulk": 0, "rows": 0}
    for key, name in (("bulk", "_bulk_table"), ("rows", "_row_table")):

        def counted(*args, _real=getattr(errors_module, name), _key=key):
            counts[_key] += 1
            return _real(*args)

        monkeypatch.setattr(errors_module, name, counted)
    return counts


def test_memo_serves_the_same_bytes_and_parses_every_str(parses):
    data = MINI_CSV.encode()
    forms = [data, io.BytesIO(data), MINI_CSV, io.StringIO(MINI_CSV), data]
    first, *rest = [load_surface(source) for source in forms]
    # a binary stream is served; a str is parsed, drops the entry and is not kept
    assert parses == {"bulk": 4, "rows": 0}
    assert all(surf == first for surf in rest)


def test_memo_keeps_one_entry(parses):
    a, b, again = (load_surface(text.encode()) for text in (MINI_CSV, GOOD_CSV, MINI_CSV))
    assert parses == {"bulk": 3, "rows": 0}
    assert a == again != b


@pytest.mark.parametrize("bad", sorted(MEMO_BAD))
def test_memo_bad_after_good_fails_as_a_cold_load(parses, bad):
    data = MEMO_BAD[bad].encode()
    cold = _load_outcome(_cold_load, data)
    assert isinstance(cold[0], str)  # the message; cold[1] is the line
    good = load_surface(MINI_CSV.encode())
    assert _load_outcome(load_surface, data) == cold
    assert _load_outcome(load_surface, data) == cold  # a failure is never kept
    bulk = parses["bulk"]
    assert load_surface(MINI_CSV.encode()) == good
    assert parses["bulk"] == bulk + 1  # the bad text dropped the good one's entry


def test_memo_serves_a_row_loop_parse(parses):
    first = load_surface(PARTIAL_VAL_CSV.encode())
    served = _load_outcome(load_surface, PARTIAL_VAL_CSV.encode())
    assert parses == {"bulk": 1, "rows": 1}
    assert served == _load_outcome(_row_loop_load, PARTIAL_VAL_CSV)
    assert served[0] == first and [p.val_loss for p in first.points] == [2.1, None]


@pytest.mark.parametrize(
    "text,error,counts",
    [
        (MEMO_BAD["duplicate"], "line 7: duplicate sweep point", {"bulk": 1, "rows": 0}),
        (GOOD_CSV + "2e-3,65536,2.0,nan\n", "line 7: val_loss must be finite and positive",
         {"bulk": 1, "rows": 0}),
        (GOOD_CSV + BAD_ROWS["integral"][0] + "\n", "line 7: " + BAD_ROWS["integral"][1],
         {"bulk": 1, "rows": 0}),
        (PARTIAL_VAL_CSV, None, {"bulk": 1, "rows": 1}),
    ],
    ids=["duplicate", "nan", "fractional-bs", "blank-val"],
)  # fmt: skip
def test_each_data_line_is_read_once(parses, text, error, counts):
    # a row-rule fault in lines numpy read is named from that one read
    if error is None:
        load_surface(text)
    else:
        with pytest.raises(ParseError, match="^" + error):
            load_surface(text)
    assert parses == counts


def test_memo_returns_the_same_surface_and_keeps_no_points():
    a, b = load_surface(MINI_CSV.encode()), load_surface(MINI_CSV.encode())
    assert a is b  # shared, so no caller may write to it
    for table in (a._rows, a._train, a._val):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
    with pytest.raises(AttributeError, match="immutable"):
        a.scale = None
    assert a.points == a.points and a.points is not a.points
    assert "points" not in a.__dict__


def test_memo_frees_the_old_surface_on_other_bytes(parses):
    surf = load_surface(MINI_CSV.encode())
    assert surf.points and find_optimum(surf)
    ref = weakref.ref(surf)
    del surf
    gc.collect()
    assert ref() is not None  # the memo keeps it for the next load of the bytes
    assert load_surface(MINI_CSV.encode()) is ref()
    load_surface(GOOD_CSV.encode())
    gc.collect()
    assert ref() is None
    assert parses["bulk"] == 2  # the second load was served, the others parsed


def test_memo_drops_the_old_entry_before_parsing(monkeypatch):
    old = weakref.ref(load_surface(MINI_CSV.encode()))
    seen = []

    def bulk_table(*args, _real=errors_module._bulk_table):
        gc.collect()
        seen.append(old())
        return _real(*args)

    monkeypatch.setattr(errors_module, "_bulk_table", bulk_table)
    load_surface(GOOD_CSV.encode())
    assert seen == [None]


@pytest.mark.parametrize("buffer", [bytearray, memoryview])
def test_memo_is_not_keyed_by_a_buffer(buffer):
    def outcome(load):
        try:
            return load(buffer(MINI_CSV.encode()))
        except Exception as exc:  # whatever a cold load does, the memo must match
            return type(exc)

    cold = outcome(_cold_load)
    load_surface(MINI_CSV.encode())
    assert outcome(load_surface) == cold


# these parse as str, but have no UTF-8 bytes to be kept by
_SURROGATE_CSV = MINI_CSV.replace("# d_tokens", "# \ud800\n# d_tokens")
_SURROGATE_GOOD_CSV = GOOD_CSV.replace("# d_tokens", "# \udfff\n# d_tokens")
_MEMO_POOL = (
    MINI_CSV,
    MINI_CSV.encode(),
    MINI_CSV.replace("2.038", "2.039"),  # same length, differs in the last row
    GOOD_CSV,
    PARTIAL_VAL_CSV,
    PARTIAL_VAL_CSV.encode(),
    *MEMO_BAD.values(),
    b"\xff" + MINI_CSV.encode(),  # not UTF-8
    _SURROGATE_GOOD_CSV,
    _SURROGATE_CSV,
    _SURROGATE_CSV.encode("utf-8", "surrogatepass"),  # not UTF-8
)


@settings(max_examples=fuzz_examples(100))
@given(
    loads=st.lists(st.tuples(st.integers(0, len(_MEMO_POOL) - 1), st.booleans()),
                   min_size=1, max_size=12)
)  # fmt: skip
@example(loads=[(len(_MEMO_POOL) - 3, False), (len(_MEMO_POOL) - 2, False)])
@example(loads=[(len(_MEMO_POOL) - 2, False), (len(_MEMO_POOL) - 1, False)])
def test_memo_outcomes_match_cold_loads(loads):
    # each load passes a text from the pool, as it is or as a stream
    cold = [_load_outcome(_cold_load, source) for source in _MEMO_POOL]
    surface_module._last_load = None
    for k, streamed in loads:
        source = _MEMO_POOL[k]
        if streamed:
            source = io.BytesIO(source) if isinstance(source, bytes) else io.StringIO(source)
        assert _load_outcome(load_surface, source) == cold[k]


# --- the cell limit --------------------------------------------------------------


def _diagonal(n):
    """n sweep points with every lr and every bs distinct: an n x n grid."""
    return tuple(SweepPoint(k * 1e-6, k, 2.0) for k in range(1, n + 1))


def test_a_grid_past_the_cell_limit_is_refused_before_allocating():
    points = _diagonal(2000)  # 4,000,000 cells
    rows = "".join(f"{p.lr!r},{p.bs_tokens},2.0\n" for p in points)
    text = HEAD.replace(",val_loss", "") + rows
    refused = "lr x bs grid of 2000 x 2000 = 4000000 cells exceeds the limit of 1000000"
    tracemalloc.start()
    try:
        with pytest.raises(GridShapeError, match=refused):
            load_surface(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    with pytest.raises(GridShapeError, match=refused):
        LossSurface(scale=ModelScale(1e9, 1e10), points=points)


def test_a_grid_at_the_cell_limit_is_kept(monkeypatch):
    monkeypatch.setattr(surface_module, "MAX_GRID_CELLS", 4)
    assert len(LossSurface(scale=ModelScale(1e9, 1e10), points=_diagonal(2)).points) == 2
    with pytest.raises(GridShapeError, match="3 x 3 = 9 cells exceeds the limit of 4"):
        LossSurface(scale=ModelScale(1e9, 1e10), points=_diagonal(3))
