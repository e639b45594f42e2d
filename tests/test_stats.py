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
    compare_formulations,
    f_sf,
    generate_observations,
    ols,
    regress,
    regularized_incomplete_beta,
    student_t_critical,
    student_t_two_sided_p,
)
from hpscale import fitting
from hpscale.stats import _f_test


def _entry(rows, name):
    """The one row called name of a report list: a formulation, or a
    regression's predictor."""
    (row,) = [row for row in rows if row["name"] == name]
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0], ids=repr)
@pytest.mark.parametrize(
    "name,call",
    [
        ("a", lambda v: regularized_incomplete_beta(v, 1.0, 0.5)),
        ("b", lambda v: regularized_incomplete_beta(1.0, v, 0.5)),
        ("df", lambda v: student_t_two_sided_p(1.0, v)),
        ("df", lambda v: student_t_critical(0.05, v)),
        ("df1", lambda v: f_sf(1.0, v, 2)),
        ("df2", lambda v: f_sf(1.0, 2, v)),
    ],
    ids=["beta-a", "beta-b", "t-p", "t-critical", "f-df1", "f-df2"],
)
def test_special_functions_name_a_bad_shape_or_df(name, call, bad):
    with pytest.raises(ArgumentError, match=f"^{name} must be a positive finite number, got "):
        call(bad)


# --- regress -------------------------------------------------------------------


def test_regress_seed3_pattern():
    report = regress(("logN", "logD"), independent_n_observations(3))
    assert _entry(report["predictors"], "logD")["p_value"] < 0.001
    assert _entry(report["predictors"], "logN")["p_value"] > 0.05
    assert report["n"] == 40


def test_regress_matches_scipy_linregress():
    # single-predictor diagnostics against an independent implementation
    obs = independent_n_observations(17)
    report = regress(("logD",), obs)
    x = np.log([o.d_tokens for o in obs])
    y = np.log([o.opt_bs_tokens for o in obs])
    ref = sp_stats.linregress(x, y)
    row = _entry(report["predictors"], "logD")
    assert row["coefficient"] == pytest.approx(ref.slope, rel=1e-10)
    assert row["standard_error"] == pytest.approx(ref.stderr, rel=1e-10)
    assert row["p_value"] == pytest.approx(ref.pvalue, rel=1e-8)
    assert report["r_squared"] == pytest.approx(ref.rvalue**2, rel=1e-10)


def test_regress_exact_linear_response():
    obs = []
    for k in range(12):
        n = 1e8 * (1.6**k)
        d = 3e9 * (1.4 ** (k % 5))
        bs = math.exp(0.1 + 0.2 * math.log(n) + 0.58 * math.log(d))
        obs.append(OptimumObservation(n, d, 1e-3, bs))
    report = regress(("logN", "logD"), obs)
    assert report["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert report["adjusted_r_squared"] == pytest.approx(1.0, abs=1e-12)
    # the exact-fit rule: no t or p, the coefficients and their errors kept
    for name, coef in (("logN", 0.2), ("logD", 0.58)):
        row = _entry(report["predictors"], name)
        assert row["t_value"] is None and row["p_value"] is None
        assert row["coefficient"] == pytest.approx(coef, rel=1e-12)
        assert row["ci95"][0] <= row["coefficient"] <= row["ci95"][1]


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
    row = _entry(report["predictors"], "logN")
    assert abs(np.corrcoef(x1, log_bs)[0, 1]) < 0.2  # sanity: weak raw correlation
    assert row["coefficient"] == pytest.approx(0.0, abs=1e-10)
    assert row["t_value"] == pytest.approx(0.0, abs=1e-8)
    assert row["p_value"] == pytest.approx(1.0, abs=1e-7)


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
    t_crit = student_t_critical(0.05, report["n"] - 3)  # three coefficients
    for row in report["predictors"]:
        coef, se = row["coefficient"], row["standard_error"]
        if se > 0:
            assert row["t_value"] == pytest.approx(coef / se, rel=1e-12)
        lo, hi = row["ci95"]
        assert (coef - lo) == pytest.approx(hi - coef, rel=1e-9)
        assert (hi - coef) == pytest.approx(t_crit * se, rel=1e-9)


# --- formulation comparison -----------------------------------------------------


def _predictor(comp, name):
    return _entry(comp["full_model"]["predictors"], name)


def test_compare_formulations_n_independent_pattern():
    comp = compare_formulations(independent_n_observations(3))
    full = _entry(comp["formulations"], "Full")
    d_only = _entry(comp["formulations"], "D-only")
    n_only = _entry(comp["formulations"], "N-only")
    assert abs(d_only["adjusted_r_squared"] - full["adjusted_r_squared"]) < 0.01
    assert n_only["adjusted_r_squared"] < 0.05
    assert full["delta_adj_r2_vs_full"] == 0.0
    assert _predictor(comp, "logN")["p_value"] > 0.05


def test_compare_formulations_full_model_is_the_full_regression():
    obs = independent_n_observations(3)
    full = regress(("logN", "logD"), obs)
    comp = compare_formulations(obs)
    assert list(comp) == ["formulations", "nested_tests", "full_model"]
    assert [f["name"] for f in comp["formulations"]] == ["N-only", "D-only", "Full"]
    assert [(t["restricted"], t["full"]) for t in comp["nested_tests"]] == [
        ("N-only", "Full"), ("D-only", "Full")
    ]  # fmt: skip
    # the solution's rss and df_resid are left out
    assert comp["full_model"] == full
    assert set(full) == {"n", "r_squared", "adjusted_r_squared", "f_statistic", "f_pvalue",
                         "predictors"}  # fmt: skip
    assert [list(row) for row in full["predictors"]] == [
        ["name", "coefficient", "standard_error", "t_value", "p_value", "ci95"]
    ] * 3


def test_nested_f_equals_t_squared_for_one_dropped_predictor():
    comp = compare_formulations(independent_n_observations(3))
    t = _predictor(comp, "logN")["t_value"]
    (d_vs_full,) = [t_ for t_ in comp["nested_tests"] if t_["restricted"] == "D-only"]
    assert d_vs_full["f_statistic"] == pytest.approx(t * t, rel=1e-9)
    assert d_vs_full["p_value"] == pytest.approx(_predictor(comp, "logN")["p_value"], rel=1e-9)
    assert d_vs_full["p_value"] > 0.05  # irrelevant extra predictor


def test_nested_rss_and_f_invariants():
    for seed in range(12):
        comp = compare_formulations(independent_n_observations(seed, n=24))
        full = _entry(comp["formulations"], "Full")
        for name in ("N-only", "D-only"):
            restricted = _entry(comp["formulations"], name)
            assert restricted["r_squared"] <= full["r_squared"] + 1e-12
        for test in comp["nested_tests"]:
            assert test["f_statistic"] >= 0.0
            assert 0.0 <= test["p_value"] <= 1.0


def test_noise_predictor_raises_raw_r2_but_can_lower_adjusted():
    comp = compare_formulations(independent_n_observations(3))
    full = _entry(comp["formulations"], "Full")
    d_only = _entry(comp["formulations"], "D-only")
    assert full["r_squared"] >= d_only["r_squared"] - 1e-12
    assert full["adjusted_r_squared"] < d_only["adjusted_r_squared"]  # t^2 < 1 here


def test_compare_formulations_takes_two_factorizations(monkeypatch):
    # one QR of [1, logN, logD | log bs] and one of [1, logD, logN | log bs]
    # give all four models; a regression's intercept-only model is in its own
    calls, qr_r = [], fitting._qr_r

    def counting(a, p):
        calls.append(a.shape)
        return qr_r(a, p)

    monkeypatch.setattr(fitting, "_qr_r", counting)
    obs = independent_n_observations(3)
    compare_formulations(obs)
    assert calls == [(4, 1, 40)] * 2
    calls.clear()
    regress(("logN", "logD"), obs)
    assert calls == [(4, 1, 40)]


def test_f_test_exact_full_fit():
    def solution(rss, df_resid):  # TSS 1, so R-squared is 1 - RSS
        return {"rss": rss, "r_squared": 1.0 - rss, "df_resid": df_resid}

    assert _f_test(solution(0.5, 8), solution(0.0, 7)) == (math.inf, 0.0)
    assert _f_test(solution(0.0, 8), solution(0.0, 7)) == (0.0, 1.0)
    # constant batch sizes: every formulation fits exactly
    obs = [OptimumObservation(n, d, 1e-3, 1.0) for n in (1e8, 1e9) for d in (1e9, 1e10)]
    for test in compare_formulations(obs)["nested_tests"]:
        assert (test["f_statistic"], test["p_value"]) == (0.0, 1.0)


def _exact_lattice(n_values, d_values):
    return generate_observations(ObservationSpec(n_values=n_values, d_values=d_values))


def _nested(comp):
    return {t["restricted"]: (t["f_statistic"], t["p_value"]) for t in comp["nested_tests"]}


def _f_statistics(comp):
    return [row["f_statistic"] for row in comp["formulations"] + comp["nested_tests"]]


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
        full = comp["full_model"]
        assert (full["f_statistic"], full["f_pvalue"]) == (0.0, 1.0)
        assert [f["r_squared"] for f in comp["formulations"]] == [1.0] * 3
        assert _nested(comp) == {"N-only": (0.0, 1.0), "D-only": (0.0, 1.0)}
        assert _f_statistics(comp) == [0.0] * 5


def test_no_f_statistic_is_negative():
    # on the exact lattice, N-only explains nothing: R-squared may round
    # below 0, but its F is clamped at 0 like a nested test's
    comp = compare_formulations(_exact_lattice(LATTICE_N, LATTICE_D))
    assert _entry(comp["formulations"], "N-only")["r_squared"] <= 0.0
    assert _entry(comp["formulations"], "N-only")["f_statistic"] == 0.0
    for seed in range(12):
        comp = compare_formulations(independent_n_observations(seed, n=24))
        assert min(_f_statistics(comp)) >= 0.0


def _leaves(value):
    """Every value in a report body that is not a dict, list or tuple."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_reports_hold_python_floats():
    obs = independent_n_observations(3)
    comp = compare_formulations(obs)
    values = _leaves(comp)
    assert {type(v) for v in values} == {str, int, float}
    assert [v for v in values if type(v) is int] == [comp["full_model"]["n"]]
    report = regress(("logN", "logD"), obs)
    values = _leaves(report)
    assert {type(v) for v in values} == {str, int, float}
    assert [v for v in values if type(v) is int] == [report["n"]]
    # the ols dict of the same regression
    logs = np.log([[o.n_params, o.d_tokens, o.opt_bs_tokens] for o in obs])
    sol = ols(np.column_stack([np.ones(len(obs)), logs[:, :2]]), logs[:, 2])
    ints = [sol["df_resid"], sol["n_obs"], *(model["df_resid"] for model in sol["nested"])]
    assert [v for v in _leaves(sol) if type(v) is not float] == ints
    assert {type(v) for v in ints} == {int} and len(ints) == 4
    assert "np." not in repr(comp) + repr(report) + repr(sol)


def test_rejection_frequencies_over_seeds():
    # Monte-Carlo calibration: logD is always detected, logN rarely flagged
    n_reject_d = n_keep_n = 0
    for seed in range(50):
        report = regress(("logN", "logD"), independent_n_observations(seed))
        n_reject_d += _entry(report["predictors"], "logD")["p_value"] < 0.001
        n_keep_n += _entry(report["predictors"], "logN")["p_value"] > 0.05
    assert n_reject_d == 50
    assert n_keep_n >= 45


def _lstsq_rss(columns, y):
    """RSS of y on columns by LAPACK's least squares, an oracle apart from fitting.ols."""
    x = np.column_stack(columns)
    resid = y - x @ np.linalg.lstsq(x, y, rcond=None)[0]
    return float(resid @ resid)


def test_compare_formulations_matches_a_lstsq_oracle():
    for seed in range(12):
        obs = independent_n_observations(seed, n=24)
        comp = compare_formulations(obs)
        log_n, log_d, y = np.log([[o.n_params, o.d_tokens, o.opt_bs_tokens] for o in obs]).T
        one, n = np.ones(len(obs)), len(obs)
        columns = {"intercept": [one], "N-only": [one, log_n], "D-only": [one, log_d],
                   "Full": [one, log_n, log_d]}  # fmt: skip
        rss = {name: _lstsq_rss(cols, y) for name, cols in columns.items()}
        df = {name: n - len(cols) for name, cols in columns.items()}
        tss = rss["intercept"]
        adj = {name: 1 - rss[name] / tss * (n - 1) / df[name] for name in rss}

        def f_test(restricted, name):  # F and p of model name against one it nests
            q = df[restricted] - df[name]
            f_stat = (rss[restricted] - rss[name]) / q / (rss[name] / df[name])
            return f_stat, sp_stats.f.sf(f_stat, q, df[name])

        full = comp["full_model"]
        pairs = [(full["r_squared"], 1 - rss["Full"] / tss),
                 (full["adjusted_r_squared"], adj["Full"]),
                 ((full["f_statistic"], full["f_pvalue"]), f_test("intercept", "Full"))]  # fmt: skip
        for row in comp["formulations"]:
            name = row["name"]
            pairs += [(row["r_squared"], 1 - rss[name] / tss),
                      (row["adjusted_r_squared"], adj[name]),
                      (row["delta_adj_r2_vs_full"], adj[name] - adj["Full"]),
                      (row["f_statistic"], f_test("intercept", name)[0])]  # fmt: skip
        for test in comp["nested_tests"]:
            pairs.append(((test["f_statistic"], test["p_value"]),
                          f_test(test["restricted"], "Full")))  # fmt: skip
        mine, oracle = zip(*pairs)
        np.testing.assert_allclose(np.hstack(mine), np.hstack(oracle), rtol=1e-9, atol=0,
                                   err_msg=f"seed {seed}")  # fmt: skip
