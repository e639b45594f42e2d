import dataclasses
import math

import numpy as np
import pytest

from conftest import LATTICE_D, LATTICE_N, LAW_COEFFS, point_at
from hpscale import (
    ArgumentError,
    DomainError,
    GridSpec,
    ModelScale,
    ObservationSpec,
    SurfaceSpec,
    convexity_report,
    find_optimum,
    fit_bs_law,
    fit_lr_law,
    generate_observations,
    generate_surface,
)


def test_surface_spec_validation():
    with pytest.raises(ArgumentError, match="semi-definite"):
        SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, curvature_lr=1.0, curvature_bs=1.0,
                    cross_term=1.5)
    with pytest.raises(ArgumentError, match="curvatures"):
        SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, curvature_lr=-1.0)
    with pytest.raises(ArgumentError, match="base_loss"):
        SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, base_loss=0.0)
    with pytest.raises(ArgumentError, match="noise_sigma"):
        SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, noise_sigma=-0.1)
    # zero curvature with zero cross term stays valid (flat surface)
    SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, curvature_lr=0.0, curvature_bs=0.0)


def test_observation_spec_validation():
    with pytest.raises(ArgumentError, match="lattice"):
        ObservationSpec(n_values=(1e9,), d_values=(1e9, 2e9))
    with pytest.raises(ArgumentError, match="positive"):
        ObservationSpec(n_values=(1e8, -1e9), d_values=(1e9, 2e9))
    with pytest.raises(ArgumentError, match="coefficients"):
        ObservationSpec(c=-1.0, n_values=(1e8, 1e9), d_values=(1e9, 2e9))


@pytest.mark.parametrize(
    "doc,match",
    [
        ({"n_params": "abc"}, "n_params must be a finite number"),
        ({"d_tokens": 1e999}, "d_tokens must be a finite number"),
        ({"opt_lr": True}, "opt_lr must be a finite number"),
        ({"curvature_lr": [1]}, "curvature_lr must be a finite number"),
        ({"val_offset": "x"}, "val_offset must be a finite number"),
        ({"seed": "x", "noise_sigma": 0.1}, "seed must be a non-negative integer"),
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"seed": 1.5}, "seed must be a non-negative integer"),
        ({"cross_term": 1e200}, "semi-definite"),
        ({"colour": 1}, "bad surface spec"),
    ],
)
def test_surface_spec_from_json_rejects_bad_types(doc, match):
    with pytest.raises(ArgumentError, match=match):
        SurfaceSpec.from_json_dict({"opt_lr": 1e-3, "opt_bs": 2e5, **doc})


@pytest.mark.parametrize(
    "doc,match",
    [
        ({"n_values": "ab"}, "n_values must be a list of numbers"),
        ({"n_values": 5}, "n_values must be a list of numbers"),
        ({"d_values": [1e9, "x"]}, "d_values must be a finite number"),
        ({"seed": "x", "noise_sigma": 0.1}, "seed must be a non-negative integer"),
        ({"snap": 1}, "snap must be true or false"),
        ({"gamma": None}, "gamma must be a finite number"),
    ],
)
def test_observation_spec_from_json_rejects_bad_types(doc, match):
    base = {"n_values": [1e8, 1e9], "d_values": [1e9, 1e10]}
    with pytest.raises(ArgumentError, match=match):
        ObservationSpec.from_json_dict({**base, **doc})


def test_spec_from_json_keeps_valid_values():
    spec = SurfaceSpec.from_json_dict(
        {"opt_lr": 1, "opt_bs": 2e5, "n_params": 10**9, "val_offset": None, "seed": 3}
    )
    assert spec == SurfaceSpec(opt_lr=1.0, opt_bs=2e5, seed=3,
                               scale=ModelScale(1e9, 1e11))  # fmt: skip
    obs = ObservationSpec.from_json_dict(
        {"n_values": [1, 2], "d_values": [3, 4.5], "snap": True}
    )
    assert obs.n_values == (1.0, 2.0) and obs.d_values == (3.0, 4.5) and obs.snap


def test_seed_replaced_after_parsing_is_checked():
    spec = ObservationSpec(n_values=(1e8, 1e9), d_values=(1e9, 1e10))
    with pytest.raises(ArgumentError, match="seed"):
        dataclasses.replace(spec, seed=-1)


def test_generators_reject_overflowing_specs():
    with pytest.raises(DomainError, match="synthetic loss"):
        generate_surface(SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, noise_sigma=1e300))
    spec = ObservationSpec(alpha=1e300, n_values=(1.0, 2.0), d_values=(1.0, 2.0),
                           snap=True)  # fmt: skip
    with pytest.raises(DomainError, match="law optimum"):
        generate_observations(spec)


def test_planted_optimum_recovered_exactly():
    spec = SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0, seed=0)
    surf = generate_surface(spec)
    assert find_optimum(surf).hp == (2.0**-9, 262144)


def test_quadratic_value_one_grid_step_away():
    spec = SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0, base_loss=2.0)
    surf = generate_surface(spec)
    delta = math.log(2.0**-8.5) - math.log(2.0**-9)
    probe = point_at(surf, 2.0**-8.5, 262144)
    assert probe.train_smooth_loss == pytest.approx(2.0 + delta**2, rel=1e-12)


def test_cross_term_keeps_slices_unimodal_and_optimum_planted():
    spec = SurfaceSpec(
        opt_lr=2.0**-9, opt_bs=262144.0,
        curvature_lr=1.5, curvature_bs=0.8, cross_term=0.9,
    )
    surf = generate_surface(spec)
    assert find_optimum(surf).hp == (2.0**-9, 262144)
    report = convexity_report(surf)
    assert report.row_unimodal_fraction == 1.0
    assert report.col_unimodal_fraction == 1.0


def test_surface_determinism_and_noise_effect():
    spec = SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0, noise_sigma=0.1, seed=5)
    a, b = generate_surface(spec), generate_surface(spec)
    assert a == b
    c = generate_surface(
        SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0, noise_sigma=0.1, seed=6)
    )
    assert a != c


def test_aligned_indices_share_noise_across_grid_sizes():
    big = GridSpec.default()
    small = GridSpec(big.lr_values[:4], big.bs_values[:6])
    spec = SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0, noise_sigma=0.2, seed=9)
    surf_big = generate_surface(spec, big)
    surf_small = generate_surface(spec, small)
    for pt in surf_small.points:
        assert point_at(surf_big, pt.lr, pt.bs_tokens).train_smooth_loss == (
            pt.train_smooth_loss
        )


def test_noise_is_mean_log_zero():
    grid = GridSpec((1e-3,), (262144.0,))
    sigma = 0.1
    noiseless = math.log(
        generate_surface(
            SurfaceSpec(opt_lr=1e-3, opt_bs=262144.0, seed=0), grid
        ).points[0].train_smooth_loss
    )
    logs = []
    for seed in range(10000):
        spec = SurfaceSpec(opt_lr=1e-3, opt_bs=262144.0, noise_sigma=sigma, seed=seed)
        logs.append(math.log(generate_surface(spec, grid).points[0].train_smooth_loss))
    assert abs(float(np.mean(logs)) - noiseless) <= 3 * sigma / math.sqrt(10000)


def test_bs_nodes_are_integral():
    surf = generate_surface(SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0))
    assert all(isinstance(p.bs_tokens, int) for p in surf.points)
    assert len(surf.points) == 8 * 15


def test_observations_frozen_point():
    spec = ObservationSpec(n_values=(4.29e8, 1e9), d_values=(8e9, 2e10))
    obs = {(o.n_params, o.d_tokens): o for o in generate_observations(spec)}
    target = obs[(4.29e8, 8e9)]
    assert target.opt_lr == pytest.approx(1.3745470422781061e-3, rel=1e-12)
    assert target.opt_bs_tokens == pytest.approx(261873.99652189916, rel=1e-12)


def test_observations_snap_members_of_grid():
    grid = GridSpec.default()
    spec = ObservationSpec(n_values=LATTICE_N, d_values=LATTICE_D, snap=True)
    for o in generate_observations(spec):
        assert o.opt_bs_tokens in grid.bs_values
        assert o.opt_lr in grid.lr_values


def test_observations_determinism():
    spec = ObservationSpec(
        n_values=LATTICE_N, d_values=LATTICE_D, noise_sigma=0.07, seed=123
    )
    assert generate_observations(spec) == generate_observations(spec)


def test_round_trip_fit_recovers_spec_coefficients():
    spec = ObservationSpec(n_values=LATTICE_N, d_values=LATTICE_D)
    obs = generate_observations(spec)
    lr_fit, bs_fit = fit_lr_law(obs), fit_bs_law(obs)
    assert lr_fit.alpha == pytest.approx(LAW_COEFFS["alpha"], abs=1e-9)
    assert lr_fit.beta == pytest.approx(LAW_COEFFS["beta"], abs=1e-9)
    assert lr_fit.c == pytest.approx(LAW_COEFFS["c"], rel=1e-9)
    assert bs_fit.gamma == pytest.approx(LAW_COEFFS["gamma"], abs=1e-9)
    assert bs_fit.d == pytest.approx(LAW_COEFFS["d"], rel=1e-9)


def test_round_trip_with_custom_coefficients():
    spec = ObservationSpec(
        c=0.9, alpha=-0.5, beta=0.25, d_coef=1.2, gamma=0.4,
        n_values=LATTICE_N, d_values=LATTICE_D,
    )
    obs = generate_observations(spec)
    lr_fit, bs_fit = fit_lr_law(obs), fit_bs_law(obs)
    assert lr_fit.alpha == pytest.approx(-0.5, abs=1e-9)
    assert bs_fit.gamma == pytest.approx(0.4, abs=1e-9)


def test_spec_json_parsing():
    spec = SurfaceSpec.from_json_dict(
        {"opt_lr": 1e-3, "opt_bs": 2e5, "n_params": 4.29e8, "d_tokens": 8e9}
    )
    assert spec.scale.n_params == 4.29e8
    with pytest.raises(ArgumentError, match="bad surface spec"):
        SurfaceSpec.from_json_dict({"opt_lr": 1e-3, "opt_bs": 2e5, "zoom": 1})
    ospec = ObservationSpec.from_json_dict(
        {"n_values": [1e8, 1e9], "d_values": [1e9, 2e9], "snap": True}
    )
    assert ospec.snap
    with pytest.raises(ArgumentError, match="bad observation spec"):
        ObservationSpec.from_json_dict({"n_values": [1e8, 1e9], "nope": 2})
