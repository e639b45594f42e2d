import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import LATTICE_D, LATTICE_N, LAW_COEFFS, point_at
from hpscale import (
    ArgumentError,
    DomainError,
    GridShapeError,
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
    load_spec_file_bytes,
    observations_to_csv,
    surface_to_csv,
)
from hpscale import synth
from hpscale.philox import _normals, _philox4x32


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
        ({"n_params": "abc"}, "n_params must be a positive finite number"),
        ({"d_tokens": 1e999}, "d_tokens must be a positive finite number"),
        ({"opt_lr": True}, "opt_lr must be a positive finite number"),
        ({"curvature_lr": [1]}, "curvature_lr must be a non-negative finite number"),
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
        ({"d_values": [1e9, "x"]}, "d_values must be a positive finite number"),
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


def test_surface_spec_refuses_a_scale_that_is_not_a_model_scale():
    with pytest.raises(ArgumentError, match=r"^scale must be a ModelScale, got \(1000000000\.0, "):
        SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, scale=(1e9, 1e11))


@pytest.mark.parametrize("number", [int, float])
def test_python_and_json_specs_write_equal_bytes(number):
    n, d = number(10**9), number(10**11)
    surface = {"opt_lr": 1e-3, "opt_bs": number(2**18), "base_loss": number(2), "seed": 4}
    built = SurfaceSpec(**surface, scale=ModelScale(n, d))
    read = load_spec_file_bytes(
        json.dumps({"kind": "surface", **surface, "n_params": n, "d_tokens": d}).encode()
    )
    assert read == built
    assert surface_to_csv(generate_surface(read)) == surface_to_csv(generate_surface(built))
    lattice = {"n_values": (n // 10, n), "d_values": (d // 10, d), "c": number(2)}
    built = ObservationSpec(**lattice)
    read = load_spec_file_bytes(json.dumps({"kind": "observations", **lattice}).encode())
    assert read == built
    assert observations_to_csv(generate_observations(read)) == observations_to_csv(
        generate_observations(built)
    )


def test_observation_spec_holds_its_lattice_as_tuples():
    n_values, d_values = [1e8, 1e9], [1e9, 1e10]
    spec = ObservationSpec(n_values=n_values, d_values=d_values)
    assert hash(spec) == hash(ObservationSpec(n_values=(1e8, 1e9), d_values=(1e9, 1e10)))
    n_values.append(-1.0)  # the caller's list is not the spec's
    d_values.clear()
    assert (spec.n_values, spec.d_values) == ((1e8, 1e9), (1e9, 1e10))


def test_observation_lattice_at_the_limit_is_kept(monkeypatch):
    monkeypatch.setattr(synth, "MAX_LATTICE_NODES", 6)
    spec = ObservationSpec(n_values=(1e8, 1e9), d_values=(1e9, 1e10, 1e11))
    assert len(generate_observations(spec)) == 6
    with pytest.raises(ArgumentError, match="^the N x D lattice of 2 x 4 = 8 nodes exceeds the "
                                            "limit of 6$"):  # fmt: skip
        ObservationSpec(n_values=(1e8, 1e9), d_values=(1e9, 1e10, 1e11, 1e12))


def test_seed_replaced_after_parsing_is_checked():
    spec = ObservationSpec(n_values=(1e8, 1e9), d_values=(1e9, 1e10))
    with pytest.raises(ArgumentError, match="seed"):
        spec.replace(seed=-1)


def test_generators_reject_overflowing_specs():
    with pytest.raises(DomainError, match="synthetic loss"):
        generate_surface(SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, noise_sigma=1e300))
    spec = ObservationSpec(alpha=1e300, n_values=(1.0, 2.0), d_values=(1.0, 2.0),
                           snap=True)  # fmt: skip
    with pytest.raises(DomainError, match="law optimum"):
        generate_observations(spec)


@pytest.mark.parametrize("seed,value", [(4, 0.0), (2, math.inf)])
def test_a_loss_past_the_floats_is_a_domain_error(seed, value):
    spec = SurfaceSpec(opt_lr=1e-3, opt_bs=262144.0, noise_sigma=1e300, seed=seed)
    with pytest.raises(DomainError, match=f"at lr=0.001, bs=262144 is {value}$"):
        generate_surface(spec, GridSpec((1e-3,), (262144.0,)))
    # every node of the default grid is out of range: the first in (lr, bs) order is named
    with pytest.raises(DomainError, match=f"at lr=0.000690534, bs=32768 is {value}$"):
        generate_surface(spec)


def test_bs_nodes_must_round_to_distinct_positive_tokens():
    spec = SurfaceSpec(opt_lr=1e-3, opt_bs=2.0)
    with pytest.raises(ArgumentError, match="bs node 0.4 rounds to 0 tokens"):
        generate_surface(spec, GridSpec((1e-3,), (0.4, 1.0)))
    with pytest.raises(ArgumentError, match="duplicate sweep point at lr=0.001, bs=1"):
        generate_surface(spec, GridSpec((1e-3,), (1.2, 1.4)))


def test_a_grid_past_the_cell_limit_is_refused_before_allocating():
    grid = GridSpec(tuple(range(1, 2001)), tuple(range(1, 1001)))
    spec = SurfaceSpec(opt_lr=1.0, opt_bs=2.0, noise_sigma=0.1)
    tracemalloc.start()
    try:
        with pytest.raises(GridShapeError, match="2000 x 1000 = 2000000 cells exceeds"):
            generate_surface(spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize(
    "counter,key,expected",
    [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
         (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
    ],
    ids=["zero", "ones", "pi"],
)
def test_philox_matches_the_random123_known_answers(counter, key, expected):
    words = _philox4x32(*(np.uint64(c) for c in counter), *key)
    assert tuple(int(w) for w in words) == expected


def test_noise_statistics_over_a_million_draws():
    z = _normals(12345, 0, (1000, 1000))
    n = z.size
    assert abs(z.mean()) < 5 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5 * math.sqrt(2.0 / n)
    for lag1 in (np.mean(z[1:, :] * z[:-1, :]), np.mean(z[:, 1:] * z[:, :-1])):
        assert abs(lag1) < 5 / math.sqrt(n)


def test_seeds_past_32_and_64_bits():
    big = _normals(2**64 + 5, 0, (8, 15))
    assert np.array_equal(big, _normals(2**64 + 5, 0, (8, 15)))
    spec = SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0, noise_sigma=0.1, seed=2**64 + 5)
    assert generate_surface(spec) == generate_surface(spec)
    # the key's high word holds bits 32 to 63 of the seed
    assert not np.array_equal(_normals(7, 0, (8, 15)), _normals(7 + 2**32, 0, (8, 15)))


def test_observation_noise_is_streams_1_and_2():
    sigma, seed = 0.05, 11
    law = generate_observations(ObservationSpec(n_values=LATTICE_N, d_values=LATTICE_D))
    noisy = generate_observations(
        ObservationSpec(n_values=LATTICE_N, d_values=LATTICE_D, noise_sigma=sigma, seed=seed)
    )
    shape = (len(LATTICE_N), len(LATTICE_D))
    z_lr = [math.log(b.opt_lr / a.opt_lr) / sigma for a, b in zip(law, noisy)]
    z_bs = [math.log(b.opt_bs_tokens / a.opt_bs_tokens) / sigma for a, b in zip(law, noisy)]
    np.testing.assert_allclose(z_lr, _normals(seed, 1, shape).ravel(), atol=1e-9)
    np.testing.assert_allclose(z_bs, _normals(seed, 2, shape).ravel(), atol=1e-9)


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
    assert report["row_unimodal_fraction"] == 1.0
    assert report["col_unimodal_fraction"] == 1.0


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
    assert lr_fit["alpha"] == pytest.approx(LAW_COEFFS["alpha"], abs=1e-9)
    assert lr_fit["beta"] == pytest.approx(LAW_COEFFS["beta"], abs=1e-9)
    assert math.exp(lr_fit["log_c"]) == pytest.approx(LAW_COEFFS["c"], rel=1e-9)
    assert bs_fit["gamma"] == pytest.approx(LAW_COEFFS["gamma"], abs=1e-9)
    assert math.exp(bs_fit["log_d"]) == pytest.approx(LAW_COEFFS["d"], rel=1e-9)


def test_round_trip_with_custom_coefficients():
    spec = ObservationSpec(
        c=0.9, alpha=-0.5, beta=0.25, d_coef=1.2, gamma=0.4,
        n_values=LATTICE_N, d_values=LATTICE_D,
    )
    obs = generate_observations(spec)
    lr_fit, bs_fit = fit_lr_law(obs), fit_bs_law(obs)
    assert lr_fit["alpha"] == pytest.approx(-0.5, abs=1e-9)
    assert bs_fit["gamma"] == pytest.approx(0.4, abs=1e-9)


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
