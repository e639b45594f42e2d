import dataclasses
import math

import numpy as np
import pytest
from scipy import special as sp_special
from scipy import stats as sp_stats

from conftest import LATTICE_D, LATTICE_N, independent_n_observations
from hpscale import (
    ArgumentError,
    DegenerateDesignError,
    ObservationSpec,
    OptimumObservation,
    RegressionReport,
    compare_formulations,
    f_sf,
    generate_observations,
    nested_f_test,
    regress,
    regularized_incomplete_beta,
    student_t_critical,
    student_t_two_sided_p,
)


def _named(rows, name):
    """The one row of a report's predictors or formulations called name."""
    (row,) = [row for row in rows if row.name == name]
    return row


# --- special functions vs scipy oracles ----------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 6.5, 18.5, 50.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 20.0])
def test_incomplete_beta_accuracy(a, b):
    for x in np.linspace(0.0005, 0.9995, 41):
        mine = regularized_incomplete_beta(a, b, float(x))
        ref = float(sp_special.betainc(a, b, x))
        assert abs(mine - ref) <= 1e-10


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ArgumentError):
        regularized_incomplete_beta(-1.0, 2.0, 0.5)


@pytest.mark.parametrize("df", [1, 2, 5, 13, 37, 100, 500])
def test_student_t_two_sided_p_accuracy(df):
    for t in [0.0, 0.05, 0.3, 1.0, 1.96, 2.7, 4.0, 8.0, 30.0]:
        mine = student_t_two_sided_p(t, df)
        ref = 2.0 * float(sp_stats.t.sf(t, df))
        assert abs(mine - ref) <= 1e-10
    assert student_t_two_sided_p(math.inf, df) == 0.0
    assert student_t_two_sided_p(0.0, df) == 1.0


@pytest.mark.parametrize("df", [2, 5, 13, 37, 120])
def test_student_t_critical_matches_ppf(df):
    assert student_t_critical(0.05, df) == pytest.approx(
        float(sp_stats.t.ppf(0.975, df)), abs=1e-9
    )


def test_f_sf_accuracy():
    for d1, d2 in [(1, 10), (2, 37), (3, 36), (5, 100)]:
        for f in [0.01, 0.5, 1.0, 2.3, 10.0, 80.0]:
            assert abs(f_sf(f, d1, d2) - float(sp_stats.f.sf(f, d1, d2))) <= 1e-10
    assert f_sf(0.0, 2, 10) == 1.0


# --- regress -------------------------------------------------------------------


def test_regress_seed3_pattern():
    report = regress(("logN", "logD"), independent_n_observations(3))
    assert _named(report.predictors, "logD").p_value < 0.001
    assert _named(report.predictors, "logN").p_value > 0.05
    assert report.n_obs == 40


def test_regress_matches_scipy_linregress():
    # single-predictor diagnostics against an independent implementation
    obs = independent_n_observations(17)
    report = regress(("logD",), obs)
    x = np.log([o.d_tokens for o in obs])
    y = np.log([o.opt_bs_tokens for o in obs])
    ref = sp_stats.linregress(x, y)
    row = _named(report.predictors, "logD")
    assert row.coefficient == pytest.approx(ref.slope, rel=1e-10)
    assert row.standard_error == pytest.approx(ref.stderr, rel=1e-10)
    assert row.p_value == pytest.approx(ref.pvalue, rel=1e-8)
    assert report.r_squared == pytest.approx(ref.rvalue**2, rel=1e-10)


def test_regress_exact_linear_response():
    obs = []
    for k in range(12):
        n = 1e8 * (1.6**k)
        d = 3e9 * (1.4 ** (k % 5))
        bs = math.exp(0.1 + 0.2 * math.log(n) + 0.58 * math.log(d))
        obs.append(OptimumObservation(n, d, 1e-3, bs))
    report = regress(("logN", "logD"), obs)
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)
    assert report.adjusted_r_squared == pytest.approx(1.0, abs=1e-12)
    assert _named(report.predictors, "logN").p_value == pytest.approx(0.0, abs=1e-10)
    assert _named(report.predictors, "logD").p_value == pytest.approx(0.0, abs=1e-10)


def test_regress_orthogonal_predictor_is_null():
    # build logN orthogonal to the intercept, logD, and the response
    rng = np.random.default_rng(5)
    n = 16
    log_d = rng.uniform(21.0, 25.0, n)
    log_bs = 0.3 + 0.58 * log_d + rng.normal(0, 0.05, n)
    z = rng.normal(size=n)
    basis = np.column_stack([np.ones(n), log_d, log_bs])
    q, _ = np.linalg.qr(basis)
    log_n = z - q @ (q.T @ z)  # orthogonal complement projection
    obs = [
        OptimumObservation(math.exp(ln / 4 + 19), math.exp(ld), 1e-3, math.exp(lb))
        for ln, ld, lb in zip(log_n, log_d, log_bs)
    ]
    # direct design-space check mirroring the construction
    x1 = np.array([math.log(o.n_params) for o in obs])
    report = regress(("logN", "logD"), obs)
    row = _named(report.predictors, "logN")
    assert abs(np.corrcoef(x1, log_bs)[0, 1]) < 0.2  # sanity: weak raw correlation
    assert row.coefficient == pytest.approx(0.0, abs=1e-10)
    assert row.t_value == pytest.approx(0.0, abs=1e-8)
    assert row.p_value == pytest.approx(1.0, abs=1e-7)


def test_regress_argument_errors():
    obs = independent_n_observations(1, n=10)
    with pytest.raises(ArgumentError):
        regress((), obs)
    with pytest.raises(ArgumentError, match="unknown predictors"):
        regress(("logC",), obs)
    with pytest.raises(ArgumentError, match="duplicate"):
        regress(("logD", "logD"), obs)
    with pytest.raises(DegenerateDesignError):
        regress(("logN", "logD"), obs[:3])


def test_regress_t_and_ci_identities():
    report = regress(("logN", "logD"), independent_n_observations(21))
    t_crit = student_t_critical(0.05, report.df_resid)
    for row in report.predictors:
        if row.standard_error > 0:
            assert row.t_value == pytest.approx(
                row.coefficient / row.standard_error, rel=1e-12
            )
        lo, hi = row.ci95
        assert (row.coefficient - lo) == pytest.approx(hi - row.coefficient, rel=1e-9)
        assert (hi - row.coefficient) == pytest.approx(
            t_crit * row.standard_error, rel=1e-9
        )


# --- formulation comparison -----------------------------------------------------


def test_compare_formulations_n_independent_pattern():
    comp = compare_formulations(independent_n_observations(3))
    full = _named(comp.formulations, "Full")
    d_only = _named(comp.formulations, "D-only")
    n_only = _named(comp.formulations, "N-only")
    assert abs(d_only.adjusted_r_squared - full.adjusted_r_squared) < 0.01
    assert n_only.adjusted_r_squared < 0.05
    assert full.delta_adj_r2_vs_full == 0.0
    assert _named(comp.full_report.predictors, "logN").p_value > 0.05


def test_nested_f_equals_t_squared_for_one_dropped_predictor():
    comp = compare_formulations(independent_n_observations(3))
    t = _named(comp.full_report.predictors, "logN").t_value
    d_vs_full = next(t_ for t_ in comp.nested_tests if t_.restricted == "D-only")
    assert d_vs_full.f_statistic == pytest.approx(t * t, rel=1e-9)
    assert d_vs_full.p_value == pytest.approx(
        _named(comp.full_report.predictors, "logN").p_value, rel=1e-9
    )
    assert d_vs_full.p_value > 0.05  # irrelevant extra predictor


def test_nested_rss_and_f_invariants():
    for seed in range(12):
        comp = compare_formulations(independent_n_observations(seed, n=24))
        full = _named(comp.formulations, "Full")
        for name in ("N-only", "D-only"):
            restricted = _named(comp.formulations, name)
            assert restricted.r_squared <= full.r_squared + 1e-12
        for test in comp.nested_tests:
            assert test.f_statistic >= 0.0
            assert 0.0 <= test.p_value <= 1.0


def test_noise_predictor_raises_raw_r2_but_can_lower_adjusted():
    comp = compare_formulations(independent_n_observations(3))
    full = _named(comp.formulations, "Full")
    d_only = _named(comp.formulations, "D-only")
    assert full.r_squared >= d_only.r_squared - 1e-12
    assert full.adjusted_r_squared < d_only.adjusted_r_squared  # t^2 < 1 here


def test_nested_f_test_rejects_equal_models():
    obs = independent_n_observations(4)
    full = regress(("logN", "logD"), obs)
    with pytest.raises(ArgumentError, match="drop"):
        nested_f_test(full, full)


def test_nested_f_test_rejects_different_samples():
    full = regress(("logN", "logD"), independent_n_observations(4))
    other = regress(("logD",), independent_n_observations(4, n=30))
    with pytest.raises(ArgumentError, match="same observations"):
        nested_f_test(other, full)


def test_nested_f_test_exact_full_fit():
    def report(rss, df_resid):  # TSS 1, so R-squared is 1 - RSS
        return RegressionReport(predictors=(), n_obs=10, r_squared=1.0 - rss,
                                adjusted_r_squared=1.0, f_statistic=math.inf,
                                f_pvalue=0.0, rss=rss, df_resid=df_resid)  # fmt: skip

    test = nested_f_test(report(0.5, 8), report(0.0, 7))
    assert (test.f_statistic, test.p_value) == (math.inf, 0.0)
    test = nested_f_test(report(0.0, 8), report(0.0, 7))
    assert (test.f_statistic, test.p_value) == (0.0, 1.0)
    # constant batch sizes: every formulation fits exactly
    obs = [OptimumObservation(n, d, 1e-3, 1.0) for n in (1e8, 1e9) for d in (1e9, 1e10)]
    for test in compare_formulations(obs).nested_tests:
        assert (test.f_statistic, test.p_value) == (0.0, 1.0)


def _exact_lattice(n_values, d_values):
    return generate_observations(ObservationSpec(n_values=n_values, d_values=d_values))


def _nested(comp):
    return {t.restricted: (t.f_statistic, t.p_value) for t in comp.nested_tests}


def _f_statistics(comp):
    return [f.f_statistic for f in comp.formulations] + [
        t.f_statistic for t in comp.nested_tests
    ]


@pytest.mark.parametrize(
    "n_values, d_values",
    [(LATTICE_N, LATTICE_D), ((1e8, 3e8, 1e9, 3e9, 1e10), (1e10, 3e10, 1e11, 3e11))],
)
def test_exact_lattice_needs_log_d_only(n_values, d_values):
    # D-only and Full both fit exactly (R-squared rounds to 1), N-only does not
    comp = compare_formulations(_exact_lattice(n_values, d_values))
    assert _nested(comp) == {"D-only": (0.0, 1.0), "N-only": (math.inf, 0.0)}


def test_random_exact_lattices_never_call_log_n_significant():
    # an exactness rule of RSS == 0 alone divides rounding noise by rounding
    # noise here, and calls logN significant on about a third of these
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n_values = tuple(np.exp(rng.uniform(math.log(1e8), math.log(1e11), 4)).tolist())
        d_values = tuple(np.exp(rng.uniform(math.log(1e9), math.log(1e12), 4)).tolist())
        tests = _nested(compare_formulations(_exact_lattice(n_values, d_values)))
        assert tests["D-only"][1] >= 0.05, (n_values, d_values)
        assert tests["N-only"][1] <= 1e-6, (n_values, d_values)


def test_constant_batch_sizes_give_a_null_regression_f():
    # every model fits a constant exactly, even where the float mean of the
    # log batch sizes misses it by an ulp (86648.66370013822 over 6 rows)
    rng = np.random.default_rng(0)
    for _ in range(100):
        bs = float(np.exp(rng.uniform(5.0, 15.0)))
        n_values = np.exp(rng.uniform(18.0, 24.0, rng.integers(2, 5))).tolist()
        d_values = np.exp(rng.uniform(20.0, 26.0, rng.integers(2, 5))).tolist()
        obs = [OptimumObservation(n, d, 1e-3, bs) for n in n_values for d in d_values]
        if len(obs) < 4:
            continue
        comp = compare_formulations(obs)
        assert (comp.full_report.f_statistic, comp.full_report.f_pvalue) == (0.0, 1.0)
        assert [f.r_squared for f in comp.formulations] == [1.0] * 3
        assert _nested(comp) == {"N-only": (0.0, 1.0), "D-only": (0.0, 1.0)}
        assert _f_statistics(comp) == [0.0] * 5


def test_no_f_statistic_is_negative():
    # on the exact lattice, N-only explains nothing: R-squared may round
    # below 0, but its F is clamped at 0 like a nested test's
    comp = compare_formulations(_exact_lattice(LATTICE_N, LATTICE_D))
    assert _named(comp.formulations, "N-only").r_squared <= 0.0
    assert _named(comp.formulations, "N-only").f_statistic == 0.0
    for seed in range(12):
        comp = compare_formulations(independent_n_observations(seed, n=24))
        assert min(_f_statistics(comp)) >= 0.0


def test_reports_hold_python_floats():
    comp = compare_formulations(independent_n_observations(3))
    report = comp.full_report
    values = [report.r_squared, report.adjusted_r_squared, report.f_statistic,
              report.f_pvalue, report.rss]  # fmt: skip
    for row in report.predictors:
        values += [row.coefficient, row.standard_error, row.t_value, row.p_value, *row.ci95]
    for row in comp.formulations + comp.nested_tests:
        values += [v for v in dataclasses.astuple(row) if not isinstance(v, str)]
    assert all(type(v) is float for v in values)
    assert "np." not in repr(comp)


def test_rejection_frequencies_over_seeds():
    # Monte-Carlo calibration: logD is always detected, logN rarely flagged
    n_reject_d = n_keep_n = 0
    for seed in range(50):
        report = regress(("logN", "logD"), independent_n_observations(seed))
        n_reject_d += _named(report.predictors, "logD").p_value < 0.001
        n_keep_n += _named(report.predictors, "logN").p_value > 0.05
    assert n_reject_d == 50
    assert n_keep_n >= 45
