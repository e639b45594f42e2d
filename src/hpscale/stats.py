"""Statistical validation of batch-size scaling: does N matter once D is in?

Provides full OLS diagnostics (standard errors, t-values, two-sided
p-values, 95% confidence intervals, adjusted R-squared) for regressions of
log batch size on subsets of {logN, logD}, plus hierarchical nested
F-tests comparing the N-only and D-only formulations against the Full
model. Each analytic returns its report section as a dict of plain
values: regress the `full_model` section, and compare_formulations the
whole body of the `stats` report around it; the command adds only its meta.

Two fitting.ols calls, one QR each, give all four models: [1, logN, logD |
log bs] the Full one and, as nested prefix models, the intercept-only and
N-only ones; [1, logD, logN | log bs] the D-only one. Every F statistic is a
nested test (_f_test) of two models of one call, a regression's own against
its intercept-only model. A model fits exactly when its R-squared rounds to
1. An exact full model gives F = inf and p = 0, or F = 0 and p = 1 when the
restricted model is exact too, and an exact model's predictor rows have t
and p None (coefficient, SE and ci95 kept), so exactly law-consistent data
never turns rounding noise into significance. Otherwise F is the usual
ratio of the RSS drop per dropped predictor to the full model's residual
variance, clamped at 0 against rounding.

The Student-t and F reference distributions are evaluated through a
regularized incomplete beta function implemented here (continued
fraction, modified Lentz), so no statistical library is needed at
runtime; absolute accuracy is well inside 1e-10.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ArgumentError, DomainError, check_number
from .fitting import _design, _log_table, ols

PREDICTOR_NAMES = ("logN", "logD")

_CF_EPS = 1e-16
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 500


# --- special functions -------------------------------------------------------


def _off_zero(v: float) -> float:
    """v, or _CF_FPMIN when |v| is below it: Lentz's guard against a zero
    denominator."""
    return _CF_FPMIN if abs(v) < _CF_FPMIN else v


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function, modified
    # Lentz's method. Converges quickly for x < (a+1)/(a+b+2).
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd term of step m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):  # fmt: skip
            d = 1.0 / _off_zero(1.0 + aa * d)
            c = _off_zero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise DomainError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for positive finite a, b and x in [0, 1]."""
    check_number(a, "a", "positive")
    check_number(b, "b", "positive")
    if math.isnan(x):
        raise ArgumentError("x must not be NaN")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T_df| >= |t|) via the incomplete beta identity; df is positive
    and finite."""
    check_number(df, "df", "positive")
    if math.isnan(t):
        raise ArgumentError("t must not be NaN")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@lru_cache(maxsize=256)
def student_t_critical(alpha: float, df: int) -> float:
    """Positive t with two-sided tail mass alpha (bisection on the p-value)."""
    if not (0.0 < alpha < 1.0):
        raise ArgumentError(f"alpha must be in (0, 1), got {alpha}")
    hi = 1.0
    while student_t_two_sided_p(hi, df) > alpha:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError(f"t critical value diverged for df={df}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_two_sided_p(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def f_sf(f: float, df1: float, df2: float) -> float:
    """Upper tail P(F_{df1, df2} >= f); df1 and df2 are positive and finite."""
    check_number(df1, "df1", "positive")
    check_number(df2, "df2", "positive")
    if f <= 0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


# --- regression reports -------------------------------------------------------


def _f_test(restricted, full) -> tuple[float, float]:
    """F statistic and p-value of `full` against a `restricted` model it
    nests: ols dicts or their nested models, of which it reads rss,
    r_squared and df_resid (exact-fit rule above)."""
    df = full["df_resid"]
    q = restricted["df_resid"] - df
    if full["r_squared"] >= 1.0:
        f_stat = 0.0 if restricted["r_squared"] >= 1.0 else math.inf
    else:
        f_stat = ((restricted["rss"] - full["rss"]) / q) / (full["rss"] / df)
        f_stat = max(f_stat, 0.0)  # guard fp noise when RSS values are equal
    return f_stat, f_sf(f_stat, q, df)


def regress(predictors, obs) -> dict:
    """Regress log opt_bs on the chosen predictors plus an intercept: the
    `full_model` section of the stats report for ("logN", "logD").

    predictors is a subset of {"logN", "logD"}; diagnostics use Student-t
    with n - p - 1 degrees of freedom for p predictors.
    """
    preds = tuple(predictors)
    if not preds:
        raise ArgumentError("at least one predictor is required")
    if len(set(preds)) != len(preds):
        raise ArgumentError(f"duplicate predictors in {preds}")
    if unknown := set(preds) - set(PREDICTOR_NAMES):
        raise ArgumentError(
            f"unknown predictors {sorted(unknown)}; expected from {PREDICTOR_NAMES}"
        )
    return _report(preds, _ols(_log_table(obs), [PREDICTOR_NAMES.index(name) for name in preds]))


def _ols(table, columns):
    """fitting.ols of log bs on [1, the listed _log_table columns], once each spans >= 2 values."""
    cols = _design(table, "batch-size regression", columns, 3)
    return ols(cols[:-1].T, cols[-1])


def _report(preds, sol) -> dict:
    """regress's section from the ols dict of log bs on [1, preds...]."""
    df = sol["df_resid"]
    t_crit = student_t_critical(0.05, df)
    rows = []
    exact = sol["r_squared"] >= 1.0  # the exact-fit rule: no t or p
    for name, coef, se in zip(("intercept",) + preds, sol["coefficients"], sol["standard_errors"]):
        if exact:
            t = None
        elif se > 0:
            t = coef / se
        else:
            t = 0.0 if coef == 0 else math.copysign(math.inf, coef)
        rows.append(
            {
                "name": name,
                "coefficient": coef,
                "standard_error": se,
                "t_value": t,
                "p_value": None if exact else student_t_two_sided_p(t, df),
                "ci95": [coef - t_crit * se, coef + t_crit * se],
            }
        )
    f_stat, f_pvalue = _f_test(sol["nested"][0], sol)
    return {
        "n": sol["n_obs"],
        "r_squared": sol["r_squared"],
        "adjusted_r_squared": sol["adjusted_r_squared"],
        "f_statistic": f_stat,
        "f_pvalue": f_pvalue,
        "predictors": rows,
    }


def compare_formulations(obs) -> dict:
    """The body of the `stats` report: the N-only, D-only and Full
    formulations, the nested F-test of N-only and of D-only against Full,
    and the Full model's own diagnostics, regress's section."""
    table = _log_table(obs)
    full, swapped = _ols(table, [0, 1]), _ols(table, [1, 0])  # columns logN, logD
    restricted = (("N-only", full, full["nested"][1]), ("D-only", swapped, swapped["nested"][1]))
    formulations = [
        {
            "name": name,
            "r_squared": model["r_squared"],
            "adjusted_r_squared": model["adjusted_r_squared"],
            "delta_adj_r2_vs_full": model["adjusted_r_squared"] - full["adjusted_r_squared"],
            "f_statistic": _f_test(sol["nested"][0], model)[0],
        }
        for name, sol, model in (*restricted, ("Full", full, full))
    ]
    nested_tests = []
    for name, sol, model in restricted:
        f_stat, p_value = _f_test(model, sol)
        nested_tests.append(
            {"restricted": name, "full": "Full", "f_statistic": f_stat, "p_value": p_value}
        )
    full_model = _report(PREDICTOR_NAMES, full)
    return {"formulations": formulations, "nested_tests": nested_tests, "full_model": full_model}
