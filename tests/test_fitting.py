import dataclasses
import json
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    LATTICE_D,
    LATTICE_N,
    LAW_COEFFS,
    fuzz_examples,
    independent_n_observations,
)
from hpscale import (
    ArgumentError,
    BootstrapFailureError,
    DegenerateDesignError,
    ObservationSpec,
    OptimumObservation,
    ParseError,
    SingularityError,
    bootstrap_fit,
    compare_formulations,
    fit_bs_law,
    fit_lr_law,
    generate_observations,
    load_observations,
    observations_to_csv,
    ols,
)
from hpscale import cli, errors, fitting, philox
from hpscale.fitting import MAX_BOOTSTRAP_CELLS, MAX_RESAMPLES, _qr_r, _solve


def canonical(obs):
    """The observations in the fitter's row order: sorted by (N, D, lr, bs)."""
    return sorted(obs, key=dataclasses.astuple)


def lattice_obs(noise_sigma=0.0, seed=0, **kwargs):
    spec = ObservationSpec(
        n_values=LATTICE_N, d_values=LATTICE_D, noise_sigma=noise_sigma, seed=seed,
        **kwargs,
    )
    return generate_observations(spec)


# --- ols ----------------------------------------------------------------------


def test_ols_exact_fit():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    design = np.column_stack([np.ones(5), x])
    sol = ols(design, 2.0 + 3.0 * x)
    assert sol["coefficients"] == pytest.approx((2.0, 3.0), abs=1e-12)
    assert sol["rss"] == pytest.approx(0.0, abs=1e-20)
    assert sol["r_squared"] == pytest.approx(1.0)


def test_ols_planted_orthogonal_residuals():
    # residual pattern orthogonal to both the intercept and x
    x = np.array([0.0, 1.0, 2.0, 3.0])
    resid = 0.1 * np.array([1.0, -3.0, 3.0, -1.0])
    assert resid.sum() == pytest.approx(0.0, abs=1e-15)
    assert (resid @ x) == pytest.approx(0.0, abs=1e-15)
    design = np.column_stack([np.ones(4), x])
    sol = ols(design, 2.0 + 3.0 * x + resid)
    assert sol["coefficients"] == pytest.approx((2.0, 3.0), abs=1e-12)
    assert np.asarray(sol["residuals"]) == pytest.approx(resid, abs=1e-12)
    assert sol["rss"] == pytest.approx(float(resid @ resid), rel=1e-10)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(12)
    design = np.column_stack([np.ones(30), rng.normal(size=30), rng.normal(size=30)])
    y = rng.normal(size=30)
    sol = ols(design, y)
    resid = np.asarray(sol["residuals"])
    for col in design.T:
        denom = np.linalg.norm(col) * max(np.linalg.norm(resid), 1e-30)
        assert abs(col @ resid) / denom <= 1e-8


@pytest.mark.parametrize("b", [1e160, 1e200])
def test_ols_design_past_the_square_root_of_the_largest_float(b):
    # every column above ~1e154, so an unscaled sum of squares overflows;
    # any warning fails the test
    design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.5], [1.0, 4.0]])
    y = [1.0, 2.0, 3.0, 4.0]
    base = ols(design, y)
    big = ols(design * b, y)
    assert np.array(big["coefficients"]) * b == pytest.approx(
        base["coefficients"], rel=0, abs=2e-15
    )
    assert big["rss"] == pytest.approx(base["rss"], rel=1e-13)
    # R^-1 is taken of the scaled R, so no squared entry of it underflows
    assert np.array(big["standard_errors"]) * b == pytest.approx(
        base["standard_errors"], rel=1e-14
    )


def test_ols_offset_column_keeps_its_standard_errors():
    # 1e12 + 10k passes the rank rule; scaled to [0.5, 1), its part beyond
    # the intercept is about 1e-11, which the rule would refuse
    k = np.arange(8.0)
    y = 1.0 + 0.3 * k + np.sin(k)
    offset = ols(np.column_stack([np.ones(8), 1e12 + 10.0 * k]), y)
    centred = ols(np.column_stack([np.ones(8), 10.0 * (k - 3.5)]), y)
    se, centred_se = offset["standard_errors"][1], centred["standard_errors"][1]
    assert se == pytest.approx(centred_se, rel=1e-5)


def test_ols_duplicate_column_is_singular():
    x = np.arange(5.0)
    design = np.column_stack([np.ones(5), x, x])
    with pytest.raises(SingularityError):
        ols(design, x)


def test_ols_requires_more_rows_than_columns():
    with pytest.raises(ArgumentError):
        ols(np.ones((2, 2)), np.ones(2))


def test_ols_column_0_must_be_one_nonzero_constant():
    # R² is taken against the model on column 0, so a column 0 that is not
    # an intercept would report a wrong R²
    y = [1.0, 2.5, 2.9, 4.2, 5.1]
    x = [0.0, 1.0, 0.0, 1.0, 0.5]
    for column in ([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5, [1.0, 1.0, 1.0, 1.0, -1.0]):
        with pytest.raises(ArgumentError, match="column 0 must be the intercept"):
            ols(np.column_stack([column, x]), y)
    twos = ols(np.column_stack([np.full(5, 2.0), x]), y)
    ones = ols(np.column_stack([np.ones(5), x]), y)
    assert twos["r_squared"] == pytest.approx(ones["r_squared"], rel=1e-12)
    assert twos["coefficients"][0] * 2 == pytest.approx(ones["coefficients"][0], rel=1e-12)


def test_ols_standard_errors_match_closed_form():
    # simple regression: se(slope) = sigma_hat / sqrt(Sxx)
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([0.1, 1.2, 1.9, 3.2, 3.8, 5.1])
    design = np.column_stack([np.ones(6), x])
    sol = ols(design, y)
    resid = np.asarray(sol["residuals"])
    sigma2 = float(resid @ resid) / 4
    sxx = float(((x - x.mean()) ** 2).sum())
    assert sol["standard_errors"][1] == pytest.approx(math.sqrt(sigma2 / sxx), rel=1e-10)


def test_ols_too_few_rows_is_a_degenerate_design():
    with pytest.raises(DegenerateDesignError, match=r"\(3 <= 3\)"):
        ols(np.ones((3, 3)), np.ones(3))
    with pytest.raises(DegenerateDesignError, match="at least one column"):
        ols(np.ones((3, 0)), np.ones(3))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "design, response",
    [
        ([[1, NAN], [1, 2], [1, 3]], [1, 2, 3]),
        ([[1, 1], [1, -INF], [1, 3]], [1, 2, 3]),
        ([[1, 1], [1, 2], [1, 3]], [1, NAN, 3]),
        ([[1, 1], [1, 2], [1, 3]], [INF, 2, 3]),
    ],
)
def test_ols_non_finite_input_is_an_argument_error(design, response):
    with pytest.raises(ArgumentError, match="must be finite"):
        ols(design, response)


def _random_designs(rng, k, n, p):
    x = np.concatenate([np.ones((k, n, 1)), rng.normal(size=(k, n, p - 1))], axis=-1)
    return x, rng.normal(size=(k, n))


def _r_of(x, y):
    return np.linalg.qr(np.concatenate([x, y[..., None]], axis=-1), mode="r")


def test_solve_matches_lstsq_on_random_designs():
    rng = np.random.default_rng(2024)
    for n, p in ((4, 3), (7, 3), (30, 3), (2, 2), (9, 2), (12, 5)):
        x, y = _random_designs(rng, 40, n, p)
        coeffs, bad = _solve(_r_of(x, y))
        assert coeffs.shape == (40, p) and not bad.any()
        for xi, yi, b in zip(x, y, coeffs):
            ref = np.linalg.lstsq(xi, yi, rcond=None)[0]
            assert b == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_solve_flags_rank_deficient_designs():
    rng = np.random.default_rng(7)
    x, y = _random_designs(rng, 12, 6, 3)
    x[::3, :, 2] = 2.0 * x[::3, :, 1]  # every third design has a repeated column
    coeffs, bad = _solve(_r_of(x, y))
    assert bad.tolist() == [k % 3 == 0 for k in range(12)]
    assert np.isnan(coeffs[bad]).all() and np.isfinite(coeffs[~bad]).all()
    for xi, yi, b in zip(x[~bad], y[~bad], coeffs[~bad]):
        assert b == pytest.approx(np.linalg.lstsq(xi, yi, rcond=None)[0], rel=1e-9, abs=1e-9)
    # a batch in which every design is rank deficient solves nothing
    x[:, :, 2] = x[:, :, 0]
    coeffs, bad = _solve(_r_of(x, y))
    assert bad.all() and np.isnan(coeffs).all()


def _columns(x, y):
    """[x | y] of a (k, n, p) design stack in _qr_r's layout: a[column, matrix, row]."""
    return np.concatenate([x, y[..., None]], axis=-1).transpose(2, 0, 1).copy()


@pytest.mark.parametrize("jitter", [None, 1e-4, 1e-8])
def test_qr_r_matches_lapack_up_to_row_signs(jitter):
    # np.linalg.qr is the reference here only; the fitter calls no LAPACK.
    # With a jitter the last design column nearly repeats column 1.
    rng = np.random.default_rng(11)
    for n, p in ((4, 3), (9, 3), (30, 3), (2, 2), (12, 5)):
        x, y = _random_designs(rng, 25, n, p)
        if jitter is not None:
            x[:, :, -1] = x[:, :, 1] + jitter * rng.standard_normal((25, n))
        r = _qr_r(_columns(x, y), p)
        ref = _r_of(x, y)[:, :p]
        assert r.shape == ref.shape == (25, p, p + 1)
        diag, ref_diag = (np.diagonal(m, axis1=1, axis2=2) for m in (r, ref))
        # rounding of order 1e-16 * |A| moves the rows after a pivot of
        # size s by about 1e-16 * |A|^2 / s, so the bound grows with that
        scale = np.abs(ref).max(axis=(1, 2))[:, None]
        tol = 1e-14 * scale * scale / np.abs(ref_diag).min(axis=1, keepdims=True)
        assert (np.abs(np.abs(diag) - np.abs(ref_diag)) <= tol).all()
        signs = (np.sign(diag) * np.sign(ref_diag))[..., None]
        assert (np.abs(r - signs * ref) <= tol[..., None]).all()


def test_qr_r_leaves_a_zero_column_unreflected():
    rng = np.random.default_rng(4)
    x, y = _random_designs(rng, 6, 8, 3)
    x[:, :, 2] = 0.0
    r = _qr_r(_columns(x, y), 3)
    assert (r[:, 2, :3] == 0.0).all() and np.isfinite(r).all()
    coeffs, bad = _solve(r)
    assert bad.all() and np.isnan(coeffs).all()


def test_qr_r_of_a_matrix_does_not_depend_on_its_stack():
    rng = np.random.default_rng(3)
    for n in (4, 9, 30, 33):
        x, y = _random_designs(rng, 50, n, 3)
        stack = _columns(x, y)
        whole = _qr_r(stack.copy(), 3)
        for k in (0, 17, 49):
            assert np.array_equal(_qr_r(stack[:, k : k + 1].copy(), 3), whole[k : k + 1])
        assert np.array_equal(_qr_r(stack[:, 10:13].copy(), 3), whole[10:13])


# --- law fits -----------------------------------------------------------------


def test_fit_lr_law_noiseless_recovery():
    fit = fit_lr_law(lattice_obs())
    assert fit["alpha"] == pytest.approx(LAW_COEFFS["alpha"], abs=1e-9)
    assert fit["beta"] == pytest.approx(LAW_COEFFS["beta"], abs=1e-9)
    assert math.exp(fit["log_c"]) == pytest.approx(LAW_COEFFS["c"], rel=1e-9)


def test_fit_lr_law_with_noise_lands_near_truth():
    fit = fit_lr_law(lattice_obs(noise_sigma=0.05, seed=7))
    assert fit["alpha"] == pytest.approx(LAW_COEFFS["alpha"], abs=0.03)
    assert fit["beta"] == pytest.approx(LAW_COEFFS["beta"], abs=0.03)


def test_fit_lr_law_noise_spread_over_seeds():
    # oracle: repeat the fit across seeds and check the empirical spread
    devs = []
    for seed in range(40):
        fit = fit_lr_law(lattice_obs(noise_sigma=0.05, seed=seed))
        devs.append(max(abs(fit["alpha"] - LAW_COEFFS["alpha"]),
                        abs(fit["beta"] - LAW_COEFFS["beta"])))
    assert sum(d <= 0.03 for d in devs) >= 38


def test_fit_lr_law_degenerate_span():
    obs = [OptimumObservation(1e9, d, 1e-3, 1e5) for d in (1e9, 2e9, 4e9, 8e9)]
    with pytest.raises(DegenerateDesignError, match="distinct N"):
        fit_lr_law(obs)
    with pytest.raises(DegenerateDesignError, match=">= 4"):
        fit_lr_law(lattice_obs()[:3])


def test_fit_lr_law_collinear_rows_are_singular():
    # 2 distinct N and D but only two distinct (N, D) rows
    obs = [
        OptimumObservation(1e8, 1e9, 1e-3, 1e5),
        OptimumObservation(1e8, 1e9, 1e-3, 1e5 + 1),
        OptimumObservation(1e9, 1e10, 2e-3, 2e5),
        OptimumObservation(1e9, 1e10, 2e-3, 2e5 + 1),
    ]
    with pytest.raises(SingularityError):
        fit_lr_law(obs)


def test_fit_bs_law_noiseless_recovery():
    fit = fit_bs_law(lattice_obs())
    assert fit["gamma"] == pytest.approx(LAW_COEFFS["gamma"], abs=1e-9)
    assert math.exp(fit["log_d"]) == pytest.approx(LAW_COEFFS["d"], rel=1e-9)


def test_fit_bs_law_snap_quantized_data():
    # oracle pipeline: generate law-true optima, snap to the sweep grid, refit
    spec = ObservationSpec(
        n_values=(2e8, 1e9),
        d_values=tuple(2e9 * (50 ** (k / 15)) for k in range(16)),  # 2e9 .. 1e11
        snap=True,
    )
    fit = fit_bs_law(generate_observations(spec))
    assert fit["gamma"] == pytest.approx(LAW_COEFFS["gamma"], abs=0.05)


def test_fit_bs_law_two_points_exact_line():
    obs = [
        OptimumObservation(1e9, 2e9, 1e-3, 1.7e5),
        OptimumObservation(1e9, 5e10, 1e-3, 9.3e5),
    ]
    fit = fit_bs_law(obs)
    for o in obs:
        predicted = fit["log_d"] + fit["gamma"] * math.log(o.d_tokens)
        assert predicted == pytest.approx(math.log(o.opt_bs_tokens), abs=1e-12)


def test_fit_bs_law_degenerate():
    obs = [OptimumObservation(n, 1e10, 1e-3, 1e5) for n in (1e8, 2e8, 4e8)]
    with pytest.raises(DegenerateDesignError, match="distinct D"):
        fit_bs_law(obs)


def test_fits_invariant_to_observation_order():
    obs = lattice_obs(noise_sigma=0.05, seed=3)
    shuffled = obs[:]
    random.Random(99).shuffle(shuffled)
    a, b = fit_lr_law(obs), fit_lr_law(shuffled)
    assert a == b  # bit-identical
    fa, fb = bootstrap_fit(obs, 50, seed=5), bootstrap_fit(shuffled, 50, seed=5)
    assert (fa.c, fa.alpha, fa.beta, fa.d, fa.gamma) == (
        fb.c, fb.alpha, fb.beta, fb.d, fb.gamma
    )


def test_rescaling_d_shifts_only_intercepts():
    obs = lattice_obs(noise_sigma=0.05, seed=1)
    k = 7.5
    rescaled = [
        OptimumObservation(o.n_params, k * o.d_tokens, o.opt_lr, o.opt_bs_tokens)
        for o in obs
    ]
    a, b = fit_lr_law(obs), fit_lr_law(rescaled)
    assert b["alpha"] == pytest.approx(a["alpha"], abs=1e-10)
    assert b["beta"] == pytest.approx(a["beta"], abs=1e-10)
    assert b["log_c"] == pytest.approx(a["log_c"] - a["beta"] * math.log(k), abs=1e-9)
    ba, bb = fit_bs_law(obs), fit_bs_law(rescaled)
    assert bb["gamma"] == pytest.approx(ba["gamma"], abs=1e-10)
    assert bb["log_d"] == pytest.approx(ba["log_d"] - ba["gamma"] * math.log(k), abs=1e-9)


# --- bootstrap ----------------------------------------------------------------


def test_bootstrap_noiseless_zero_variance():
    obs = lattice_obs()
    result = bootstrap_fit(obs, 1000, seed=42)
    single_lr, single_bs = fit_lr_law(obs), fit_bs_law(obs)
    assert result.alpha == pytest.approx(single_lr["alpha"], abs=1e-12)
    assert result.beta == pytest.approx(single_lr["beta"], abs=1e-12)
    assert result.gamma == pytest.approx(single_bs["gamma"], abs=1e-12)
    assert result.c == pytest.approx(math.exp(single_lr["log_c"]), rel=1e-12)
    assert result.d == pytest.approx(math.exp(single_bs["log_d"]), rel=1e-12)
    for lo, hi in result.ci.values():
        assert hi - lo <= 1e-9


def test_bootstrap_seed_reproducibility():
    obs = lattice_obs(noise_sigma=0.05, seed=2)
    a = bootstrap_fit(obs, 200, seed=11)
    b = bootstrap_fit(obs, 200, seed=11)
    assert (a.c, a.alpha, a.beta, a.d, a.gamma) == (b.c, b.alpha, b.beta, b.d, b.gamma)
    assert a.ci == b.ci
    for key in a.samples:
        assert np.array_equal(a.samples[key], b.samples[key])


def test_bootstrap_different_seeds_coincide_on_noiseless_data():
    obs = lattice_obs()
    a = bootstrap_fit(obs, 300, seed=1)
    b = bootstrap_fit(obs, 300, seed=2)
    assert a.alpha == pytest.approx(b.alpha, abs=1e-12)
    assert a.gamma == pytest.approx(b.gamma, abs=1e-12)


def test_bootstrap_noisy_ci_brackets_point_and_truth():
    result = bootstrap_fit(lattice_obs(noise_sigma=0.05, seed=0), 1000, seed=42)
    for name, point in (
        ("c", result.c), ("alpha", result.alpha), ("beta", result.beta),
        ("d", result.d), ("gamma", result.gamma),
    ):
        lo, hi = result.ci[name]
        assert lo < hi
        assert lo <= point <= hi
    # verified containment for this seed's draw
    assert result.ci["alpha"][0] <= LAW_COEFFS["alpha"] <= result.ci["alpha"][1]
    assert result.ci["gamma"][0] <= LAW_COEFFS["gamma"] <= result.ci["gamma"][1]


def test_bootstrap_ci_matches_percentiles_of_samples():
    # oracle: direct empirical percentile computation on the stored fits
    result = bootstrap_fit(lattice_obs(noise_sigma=0.05, seed=4), 500, seed=9)
    lo, hi = np.percentile(result.samples["alpha"], [2.5, 97.5])
    assert result.ci["alpha"] == (lo, hi)
    lo_c, hi_c = np.percentile(result.samples["log_c"], [2.5, 97.5])
    assert result.ci["c"] == (math.exp(lo_c), math.exp(hi_c))
    assert result.alpha == pytest.approx(float(result.samples["alpha"].mean()))
    assert result.c == pytest.approx(math.exp(float(result.samples["log_c"].mean())))


@pytest.mark.parametrize("n", [1, 2, 3, 40, 999, 1000, 1001])
def test_bands_match_numpy_percentiles(n):
    # columns: distinct values, ties, negatives, tied -0.0 and +0.0 beside
    # other ties, and a constant -0.0
    rng = np.random.default_rng(n)
    normal = rng.standard_normal(n)
    v = np.column_stack([
        normal * 1e3,
        np.round(normal, 1),
        -np.abs(np.round(normal * 3)),
        rng.choice([-0.0, 0.0, -1.5, 2.0, 2.0], n),
        np.full(n, -0.0),
    ])  # fmt: skip
    want = np.percentile(v, [2.5, 97.5], axis=0)
    got = fitting._bands(v)
    assert np.array_equal(got, want)
    # bit for bit, but for the sign of a zero where -0.0 ties +0.0
    columns = [0, 1, 2, 4]
    assert np.array_equal(got[:, columns].view(np.int64), want[:, columns].view(np.int64))


def test_bands_order_signed_zeros_the_same_way_every_time():
    # -0.0 sorts before +0.0, so no shuffle of a column moves a bit of its bands
    rng = np.random.default_rng(0)
    column = np.array([-0.0, 0.0] * 499 + [-1.0, 1.0])
    bands = {fitting._bands(rng.permutation(column)[:, None]).tobytes() for _ in range(20)}
    assert len(bands) == 1
    lo, hi = np.frombuffer(bands.pop())
    assert (lo, math.copysign(1, lo), hi, math.copysign(1, hi)) == (0.0, -1, 0.0, 1)


def final_draws(n, resamples, seed, degenerate):
    """Each resample's kept indices and the rows whose first draw was
    degenerate, one resample at a time: resample i keeps the first of its
    draws on attempts 0 to 10 that degenerate(indices) does not reject."""
    kept, redrawn = [], []
    for i in range(resamples):
        for attempt in range(11):
            idx = philox.indices(seed, [i], attempt, n)[0]
            if not degenerate(idx):
                break
            if attempt == 0:
                redrawn.append(i)
        else:
            raise AssertionError(f"resample {i} stayed degenerate")
        kept.append(idx)
    return np.array(kept), redrawn


def first_draws(n, resamples, seed):
    """Every resample's attempt-0 indices, drawn one resample at a time."""
    return final_draws(n, resamples, seed, lambda idx: False)[0]


def test_bootstrap_matches_per_resample_ols_fits():
    # reconstruct each resample and refit through the public single-fit path
    obs = lattice_obs(noise_sigma=0.05, seed=6)
    resamples, seed = 16, 13
    result = bootstrap_fit(obs, resamples, seed=seed)

    items = canonical(obs)
    assert result.redraws == 0
    for i, idx in enumerate(first_draws(len(items), resamples, seed)):
        resample = [items[j] for j in idx]
        lr_fit = fit_lr_law(resample)
        bs_fit = fit_bs_law(resample)
        assert result.samples["alpha"][i] == pytest.approx(lr_fit["alpha"], abs=1e-10)
        assert result.samples["beta"][i] == pytest.approx(lr_fit["beta"], abs=1e-10)
        assert result.samples["gamma"][i] == pytest.approx(bs_fit["gamma"], abs=1e-10)
        # and against a solver that shares no code with the fitter
        logs = np.log([[o.n_params, o.d_tokens, o.opt_lr, o.opt_bs_tokens] for o in resample])
        ones = np.ones(len(resample))
        lr_ref = np.linalg.lstsq(np.column_stack([ones, logs[:, :2]]), logs[:, 2], rcond=None)[0]
        bs_ref = np.linalg.lstsq(np.column_stack([ones, logs[:, 1]]), logs[:, 3], rcond=None)[0]
        got = [result.samples[k][i] for k in ("log_c", "alpha", "beta", "log_d", "gamma")]
        assert got == pytest.approx([*lr_ref, *bs_ref], abs=1e-9)


def four_plus_one_obs():
    """Four observations that share N, and a fifth: a resample is degenerate
    when it misses the fifth, or holds only one of the four D values (rank 2)."""
    obs = [OptimumObservation(1e8, d, 1e-3 * (1 + k / 7), 1e5 * (1 + k / 5))
           for k, d in enumerate((1e9, 3e9, 1e10, 3e10))]  # fmt: skip
    return [*obs, OptimumObservation(1e9, 1e10, 4e-4, 3e5)]


def test_bootstrap_redraws_degenerate_resamples():
    obs = four_plus_one_obs()
    resamples, seed = 40, 3
    result = bootstrap_fit(obs, resamples, seed=seed)
    items = canonical(obs)

    def single_fit_fails(idx):
        try:
            fit_lr_law([items[j] for j in idx])
        except (DegenerateDesignError, SingularityError):
            return True
        return False

    indices, redrawn = final_draws(len(items), resamples, seed, single_fit_fails)
    assert 0 < result.redraws == len(redrawn) < resamples
    for samples in result.samples.values():
        assert np.isfinite(samples).all()
    for i, idx in enumerate(indices):
        resample = [items[j] for j in idx]
        lr_fit, bs_fit = fit_lr_law(resample), fit_bs_law(resample)
        assert result.samples["alpha"][i] == pytest.approx(lr_fit["alpha"], abs=1e-10)
        assert result.samples["beta"][i] == pytest.approx(lr_fit["beta"], abs=1e-10)
        assert result.samples["gamma"][i] == pytest.approx(bs_fit["gamma"], abs=1e-10)


@given(
    k=st.integers(1, 60),
    extra=st.integers(0, 60),
    seed=st.integers(0, 2**32),
)
def test_bootstrap_rows_do_not_depend_on_resample_count(k, extra, seed):
    # resample i is a function of (seed, i), so the first k resamples are
    # the same for every R >= k
    obs = lattice_obs(noise_sigma=0.05, seed=6)
    n = len(obs)
    small, large = bootstrap_fit(obs, k, seed=seed), bootstrap_fit(obs, k + extra, seed=seed)
    assert small.redraws == large.redraws == 0
    for name, samples in small.samples.items():
        assert np.array_equal(samples, large.samples[name][:k])
    together = philox.indices(seed, np.arange(k + extra), 0, n)
    assert np.array_equal(together, first_draws(n, k + extra, seed))


@pytest.mark.parametrize("k,extra", [(40, 61), (101, 899)])
def test_redrawn_rows_do_not_depend_on_resample_count(k, extra):
    # a redrawn resample too is a function of (seed, i), not of R
    obs = four_plus_one_obs()
    small, large = bootstrap_fit(obs, k, seed=3), bootstrap_fit(obs, k + extra, seed=3)
    assert 0 < small.redraws <= large.redraws
    assert np.array_equal(_samples(small), _samples(large)[:k])


@pytest.mark.parametrize("case", ["noisy-lattice", "four-plus-one"])
def test_bootstrap_block_size_changes_no_bit(case, monkeypatch):
    # one resample per block, a ragged last block, and one block for all;
    # four-plus-one redraws, so its redraw batches are cut into blocks too
    obs = lattice_obs(noise_sigma=0.05, seed=3) if case == "noisy-lattice" else four_plus_one_obs()
    resamples = 101

    def run():
        result = bootstrap_fit(obs, resamples, seed=7)
        return result.to_json_dict(), result.redraws, _samples(result)

    doc, redraws, samples = run()
    assert (redraws > 0) == (case == "four-plus-one")
    for cells in (1, 3 * len(obs), resamples * len(obs)):
        monkeypatch.setattr(fitting, "_BLOCK_CELLS", cells)
        got_doc, got_redraws, got_samples = run()
        assert got_doc == doc and got_redraws == redraws
        assert np.array_equal(got_samples, samples)


def test_bootstrap_peak_memory_per_cell():
    # no (resamples, n) index matrix, which alone would take 8 bytes a cell:
    # the draw, gather and QR run in blocks
    obs = independent_n_observations(0, n=30)
    resamples = 10_000
    tracemalloc.start()
    try:
        bootstrap_fit(obs, resamples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * resamples * len(obs)


def test_bootstrap_rejects_too_many_resamples_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a resample was drawn or an array allocated")

    obs = lattice_obs()
    monkeypatch.setattr(philox, "indices", no_draws)
    monkeypatch.setattr(np, "full", no_draws)
    for resamples in (MAX_RESAMPLES + 1, 10**9, 10**30, 0, 10.5, 10.0, True, "10", None):
        with pytest.raises(ArgumentError, match="an integer between 1 and 100,000"):
            bootstrap_fit(obs, resamples, seed=1)


def test_bootstrap_past_the_cell_limit_is_refused_before_allocating(monkeypatch):
    # 100,000 resamples of 3,000 observations: 300,000,000 cells, about 30 s of work
    def no_draws(*args):
        raise AssertionError("a resample was drawn")

    obs = independent_n_observations(0, n=3000)
    monkeypatch.setattr(philox, "indices", no_draws)
    refused = ("100,000 resamples x 3,000 observations = 300,000,000 cells exceeds the "
               "bootstrap limit of 4,000,000")  # fmt: skip
    tracemalloc.start()
    try:
        with pytest.raises(ArgumentError, match=refused):
            bootstrap_fit(obs, MAX_RESAMPLES, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_bootstrap_at_the_cell_limit_is_kept(monkeypatch):
    # the limit admits MAX_RESAMPLES resamples of the paper's 30 observations
    assert MAX_RESAMPLES * 30 <= MAX_BOOTSTRAP_CELLS
    obs = lattice_obs(noise_sigma=0.05, seed=1)
    monkeypatch.setattr(fitting, "MAX_BOOTSTRAP_CELLS", 3 * len(obs))
    assert bootstrap_fit(obs, 3, seed=0).resamples == 3
    with pytest.raises(ArgumentError, match="4 resamples x 16 observations = 64 cells"):
        bootstrap_fit(obs, 4, seed=0)


def test_exact_fit_estimates_lie_in_their_bands():
    # on exact data every resample fits the law up to rounding noise, whose
    # mean can lie outside its own 2.5-97.5 percentiles; the bands hold it
    spec = ObservationSpec(n_values=(1e8, 3e8, 1e9, 3e9), d_values=(1e10, 3e10, 1e11, 3e11))
    obs = generate_observations(spec)
    for seed in range(20):
        result = bootstrap_fit(obs, 1000, seed=seed)
        outside = [name for name, (lo, hi) in result.ci.items()
                   if not lo <= getattr(result, name) <= hi]  # fmt: skip
        assert outside == [], seed


def test_bootstrap_single_resample_degenerate_ci():
    obs = lattice_obs(noise_sigma=0.05, seed=8)
    result = bootstrap_fit(obs, 1, seed=3)
    for name, point in (("alpha", result.alpha), ("gamma", result.gamma)):
        lo, hi = result.ci[name]
        assert lo == pytest.approx(point)
        assert hi == pytest.approx(point)


def test_bootstrap_persistent_degeneracy_fails():
    # only two distinct rows: every resample design is rank deficient
    obs = [
        OptimumObservation(1e8, 1e9, 1e-3, 1e5),
        OptimumObservation(1e8, 1e9, 1e-3, 1e5 + 1),
        OptimumObservation(1e9, 1e10, 2e-3, 2e5),
        OptimumObservation(1e9, 1e10, 2e-3, 2e5 + 1),
    ]
    with pytest.raises(SingularityError):
        bootstrap_fit(obs, 20, seed=0)


def test_collinear_sample_fails_fast_with_its_cause(monkeypatch):
    # D = 20 N: full span, but log D is log N plus a constant
    obs = [OptimumObservation(n, 20 * n, 1e-3 * (1 + k), 1e5 * (1 + k))
           for k, n in enumerate((1e8, 3e8, 1e9, 3e9, 1e10))]  # fmt: skip
    with pytest.raises(SingularityError):
        fit_lr_law(obs)

    def no_draws(*args):
        raise AssertionError("a resample was drawn")

    monkeypatch.setattr(philox, "indices", no_draws)
    with pytest.raises(SingularityError):
        bootstrap_fit(obs, 1000, seed=0)


def test_bootstrap_redraws_can_run_out_on_a_full_rank_sample():
    # three non-collinear (N, D) cells, one twice: a resample of four is
    # rank deficient with probability 5/8, so 11 bad draws in a row
    # happen to a few of 1000 resamples
    obs = [OptimumObservation(n, d, lr, 1e5)
           for n, d, lr in ((1e8, 1e9, 1e-3), (1e8, 1e10, 2e-3), (1e9, 1e9, 3e-3),
                            (1e8, 1e9, 4e-3))]  # fmt: skip
    fit_lr_law(obs)  # the sample itself is full rank
    with pytest.raises(BootstrapFailureError, match=r"stayed degenerate after 10 redraws"):
        bootstrap_fit(obs, 1000, seed=0)


@pytest.mark.parametrize("block_cells", [1, 2 * 16, fitting._BLOCK_CELLS])
def test_bootstrap_failure_counts_every_block(block_cells, monkeypatch):
    # every draw of an odd resample repeats one observation, so 3 of 7 stay
    # degenerate; the error counts them over every block and names the first
    draw = philox.indices

    def odd_rows_repeat_one(seed, rows, attempt, n):
        idx = draw(seed, rows, attempt, n)
        idx[rows % 2 == 1] = 0
        return idx

    monkeypatch.setattr(philox, "indices", odd_rows_repeat_one)
    monkeypatch.setattr(fitting, "_BLOCK_CELLS", block_cells)
    stuck = r"^3 resamples stayed degenerate after 10 redraws \(first index 1\)$"
    with pytest.raises(BootstrapFailureError, match=stuck):
        bootstrap_fit(lattice_obs(noise_sigma=0.05, seed=6), 7, seed=0)


# --- the bootstrap QR ------------------------------------------------------------

COEFF_NAMES = ("log_c", "alpha", "beta", "log_d", "gamma")


def _exact_logs(items):
    """math.log of each observation's (N, D, lr, bs), as the fitter takes them."""
    return np.array([[math.log(v) for v in dataclasses.astuple(o)] for o in items])


def _lstsq_fits(logs, indices):
    """Each resample's (log c, alpha, beta, log d, gamma) by np.linalg.lstsq."""
    fits = []
    for idx in indices:
        rows = logs[idx]
        ones = np.ones(len(idx))
        lr = np.linalg.lstsq(np.column_stack([ones, rows[:, :2]]), rows[:, 2], rcond=None)[0]
        bs = np.linalg.lstsq(np.column_stack([ones, rows[:, 1]]), rows[:, 3], rcond=None)[0]
        fits.append([*lr, *bs])
    return np.array(fits)


def _samples(result):
    return np.column_stack([result.samples[name] for name in COEFF_NAMES])


@pytest.mark.parametrize("jitter", [1e-1, 1e-2, 1e-3, 1e-4])
def test_bootstrap_matches_lstsq_on_near_collinear_designs(jitter):
    # log D = log N + log 100 + N(0, jitter^2): the D column nearly repeats
    # N, so normal equations would lose about twice the digits a QR does
    rng = np.random.default_rng(5)
    log_n = rng.uniform(math.log(6e7), math.log(2e9), 20)
    log_d = log_n + math.log(100) + jitter * rng.standard_normal(20)
    log_lr = math.log(1.79) - 0.713 * log_n + 0.307 * log_d + jitter * rng.standard_normal(20)
    log_bs = math.log(0.58) + 0.571 * log_d + 0.05 * rng.standard_normal(20)
    obs = [OptimumObservation(*map(math.exp, row))
           for row in zip(log_n, log_d, log_lr, log_bs)]  # fmt: skip
    result = bootstrap_fit(obs, 200, seed=3)
    assert result.redraws == 0
    items = canonical(obs)
    indices = first_draws(len(items), 200, 3)
    assert np.abs(_samples(result) - _lstsq_fits(_exact_logs(items), indices)).max() <= 1e-9


def _qr_rule(items):
    """The per-resample QR rank rule: a resample is degenerate when some
    |diag R| of its raw [1, log N, log D | log lr] is <= 1e-10 * max(max |diag|, 1)."""
    logs = _exact_logs(items)
    xy = np.column_stack([np.ones(len(items)), logs[:, :3]])

    def degenerate(idx):
        diag = np.abs(np.diag(np.linalg.qr(xy[idx], mode="r"))[:3])
        return diag.min() <= 1e-10 * max(diag.max(), 1.0)

    return degenerate


@pytest.mark.parametrize("case", ["four-plus-one", "exact-2x2"])
def test_bootstrap_mixed_batches_redraw_as_the_qr_rule_does(case, monkeypatch):
    # singular resamples sit beside full-rank ones in every batch: their
    # Gram matrices are exactly singular, and none may raise, warn, or
    # get a verdict other than the QR rule's
    if case == "four-plus-one":
        obs = four_plus_one_obs()
    else:
        obs = generate_observations(ObservationSpec(n_values=(1e8, 1e9), d_values=(1e9, 1e10)))
    items = canonical(obs)
    resamples, seed = 200, 4
    indices, redrawn = final_draws(len(items), resamples, seed, _qr_rule(items))
    draw, second = philox.indices, []

    def recording(seed, rows, attempt, n):
        second.extend(rows.tolist() if attempt == 1 else [])
        return draw(seed, rows, attempt, n)

    monkeypatch.setattr(philox, "indices", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = bootstrap_fit(obs, resamples, seed=seed)
    assert 0 < result.redraws == len(redrawn) < resamples
    assert sorted(second) == redrawn
    assert np.abs(_samples(result) - _lstsq_fits(_exact_logs(items), indices)).max() <= 1e-9


def test_fit_results_hold_python_floats():
    obs = lattice_obs(noise_sigma=0.05, seed=2)
    sol = ols(np.column_stack([np.ones(6), np.arange(6.0)]), np.arange(6.0) ** 2)
    assert list(sol) == ["coefficients", "residuals", "standard_errors", "rss", "r_squared",
                         "adjusted_r_squared", "df_resid", "n_obs", "nested"]  # fmt: skip
    assert [(type(sol[k]), sol[k]) for k in ("n_obs", "df_resid")] == [(int, 6), (int, 4)]
    values = [*sol["coefficients"], *sol["residuals"], *sol["standard_errors"],
              sol["rss"], sol["r_squared"], sol["adjusted_r_squared"]]  # fmt: skip
    # the intercept-only prefix model
    (nested,) = sol["nested"]
    assert list(nested) == ["rss", "r_squared", "adjusted_r_squared", "df_resid"]
    assert (type(nested["df_resid"]), nested["df_resid"]) == (int, 5)
    values += [nested["rss"], nested["r_squared"], nested["adjusted_r_squared"]]
    fits = (fit_lr_law(obs), fit_bs_law(obs), fit_bs_law(obs[:2]))
    assert [list(fit) for fit in fits] == [["log_c", "alpha", "beta"], ["log_d", "gamma"],
                                           ["log_d", "gamma"]]  # fmt: skip
    for fit in fits:
        values += fit.values()
        assert "np." not in repr(fit)
    assert "np." not in repr(sol)
    # numpy integers pass the argument checks, but the result holds ints
    result = bootstrap_fit(obs, np.int64(10), np.int64(3))
    assert [(type(v), v) for v in (result.resamples, result.seed)] == [(int, 10), (int, 3)]
    assert json.loads(cli._encode_json(result.to_json_dict()))["seed"] == 3
    values += [result.c, result.alpha, result.beta, result.d, result.gamma]
    values += [end for band in result.ci.values() for end in band]
    assert all(type(v) is float for v in values)


def test_bootstrap_validates_arguments():
    with pytest.raises(ArgumentError):
        bootstrap_fit(lattice_obs(), 0, seed=1)
    with pytest.raises(DegenerateDesignError):
        bootstrap_fit(lattice_obs()[:2], 10, seed=1)
    for seed in (-1, 1.5, True, "3"):
        with pytest.raises(ArgumentError, match="seed must be a non-negative integer"):
            bootstrap_fit(lattice_obs(), 10, seed=seed)


def test_fit_result_json_shape():
    doc = bootstrap_fit(lattice_obs(), 10, seed=4).to_json_dict()
    assert set(doc) == {"c", "alpha", "beta", "d", "gamma", "ci", "resamples", "seed",
                        "redraws"}
    assert set(doc["ci"]) == {"c", "alpha", "beta", "d", "gamma"}
    assert doc["resamples"] == 10
    assert doc["seed"] == 4


# --- CSV ----------------------------------------------------------------------


def test_observations_csv_round_trip():
    obs = lattice_obs(noise_sigma=0.02, seed=5)
    again = load_observations(observations_to_csv(obs))
    assert again == sorted(
        obs, key=lambda o: (o.n_params, o.d_tokens)
    ) or set(again) == set(obs)


def test_observations_csv_skips_comments():
    text = "# seed=3\nn_params,d_tokens,opt_lr,opt_bs_tokens\n1e9,1e10,1e-3,2e5\n"
    obs = load_observations(text)
    assert obs == [OptimumObservation(1e9, 1e10, 1e-3, 2e5)]


@pytest.mark.parametrize("fit", [bootstrap_fit, fit_lr_law, compare_formulations])
def test_no_observations_is_an_argument_error(fit):
    with pytest.raises(ArgumentError, match="^no observations given$"):
        fit([])


def test_observations_csv_errors():
    with pytest.raises(ParseError, match="header"):
        load_observations("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(ParseError, match="empty"):
        load_observations("")
    with pytest.raises(ParseError, match="line 2"):
        load_observations("n_params,d_tokens,opt_lr,opt_bs_tokens\n1,2,3\n")
    with pytest.raises(ParseError, match="non-numeric"):
        load_observations("n_params,d_tokens,opt_lr,opt_bs_tokens\n1,2,x,4\n")
    with pytest.raises(ParseError, match="positive"):
        load_observations("n_params,d_tokens,opt_lr,opt_bs_tokens\n1,2,-3,4\n")
    # errors name physical lines; quoted cells and rows of empty cells are errors
    header = "n_params,d_tokens,opt_lr,opt_bs_tokens\n"
    with pytest.raises(ParseError, match="line 3: expected 4 columns"):
        load_observations(header + '1,2,3,4\n1,"2\n",3,4\n1,2,x,4\n')
    with pytest.raises(ParseError, match="line 3: non-numeric"):
        load_observations(header + "\n,,,\n")
    with pytest.raises(ParseError, match="line 2: opt_bs_tokens must be a positive finite"):
        load_observations(header + "1,2,3," + "9" * 131_073 + "\n")
    # a row read that is not an observation is named ahead of a later unreadable line
    with pytest.raises(ParseError, match="line 2: opt_lr must be a positive finite"):
        load_observations(header + "1,2,-3,4\n1,2,x,4\n")


_PAD = st.sampled_from(["", "", "", " ", "\t", "\x1c", "\x1f", " \x1f\t"])
_HOSTILE = st.sampled_from([
    "", " ", "1_000", "\u0663", "\u0661e-3", "nan", "inf", "Infinity", "-Infinity",
    "0", "-1", "1e400", "1e-400", "2#5", "0x10", "abc", "9" * 400,
])  # fmt: skip
_SPELLINGS = (repr, "{:e}".format, "{:.3g}".format, "{:.17E}".format)


@st.composite
def _observation_csv(draw):
    """Observation CSV text, valid or with up to two faults, mixing in what
    np.loadtxt and the row loop might treat differently: padding, CRLF,
    comments between and inside rows, underscores, non-ASCII digits,
    non-finite and non-positive values, blank cells and rows of the wrong
    width."""
    value = st.tuples(st.sampled_from(_SPELLINGS), st.floats(1e-6, 1e13)).map(
        lambda pair: pair[0](pair[1])
    )
    rows = draw(st.lists(st.lists(value, min_size=4, max_size=4), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        cells = draw(st.sampled_from(rows))
        fault = draw(st.integers(0, 7))
        if fault < 5:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_HOSTILE)
        elif fault == 5:
            cells.append("2.5")
        elif fault == 6:
            cells.pop()
        else:
            cells[-1] += " # note"
    lines = ["# seed=3"] if draw(st.booleans()) else []
    lines.append(",".join(draw(_PAD) + h + draw(_PAD) for h in fitting._OBS_HEADER))
    for cells in rows:
        lines.append(",".join(draw(_PAD) + c + draw(_PAD) for c in cells))
        if not draw(st.integers(0, 4)):
            lines.append(draw(st.sampled_from(["# note", "#k=v", "#"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def _observations_outcome(text):
    try:
        obs = load_observations(text)
    except ParseError as exc:
        return str(exc), exc.line
    return obs, [type(v) for o in obs for v in dataclasses.astuple(o)]


_HEADER = ",".join(fitting._OBS_HEADER) + "\n"


@settings(max_examples=fuzz_examples(300))
@given(text=_observation_csv())
@example(text=_HEADER + "1e9,1e10,1e-3,262144\n")
@example(text=_HEADER + "1e9,1e10,-1e-3,262144\n1e9,1e10,1e-3,x\n")
@example(text=_HEADER + "1e9,1e10,1e-3,262144 # note\n")
def test_observation_bulk_read_matches_row_loop(text):
    with mock.patch.object(errors, "_bulk_table", return_value=None):
        expected = _observations_outcome(text)
    assert _observations_outcome(text) == expected
