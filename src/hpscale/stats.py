"""Statistical validation of batch-size scaling: does N matter once D is in?

Provides full OLS diagnostics (standard errors, t-values, two-sided
p-values, 95% confidence intervals, adjusted R-squared) for regressions of
log batch size on subsets of {logN, logD}, plus hierarchical nested
F-tests comparing the N-only and D-only formulations against the Full
model.

Every F statistic is one nested test (_f_test); a regression's own F
tests it against the intercept-only model. A model fits exactly when its
R-squared rounds to 1 (R-squared is 1 for a constant response). An exact
full model gives F = inf and p = 0, or F = 0 and p = 1 when the
restricted model is exact too, so exactly law-consistent data never
turns rounding noise into significance. Otherwise F is the usual ratio of
the RSS drop per dropped predictor to the full model's residual variance,
clamped at 0 against rounding.

The Student-t and F reference distributions are evaluated through a
regularized incomplete beta function implemented here (continued
fraction, modified Lentz), so no statistical library is needed at
runtime; absolute accuracy is well inside 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, DomainError
from .fitting import _log_table, ols

PREDICTOR_NAMES = ("logN", "logD")

_CF_EPS = 1e-16
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 500


# --- special functions -------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function, modified
    # Lentz's method. Converges quickly for x < (a+1)/(a+b+2).
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise DomainError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ArgumentError(f"shape parameters must be positive, got a={a}, b={b}")
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
    """P(|T_df| >= |t|) via the incomplete beta identity."""
    if df <= 0:
        raise ArgumentError(f"df must be positive, got {df}")
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
    """Upper tail P(F_{df1, df2} >= f)."""
    if df1 <= 0 or df2 <= 0:
        raise ArgumentError(f"degrees of freedom must be positive ({df1}, {df2})")
    if f <= 0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


# --- regression reports -------------------------------------------------------


@dataclass(frozen=True)
class PredictorStats:
    name: str
    coefficient: float
    standard_error: float
    t_value: float
    p_value: float
    ci95: tuple[float, float]


@dataclass(frozen=True)
class RegressionReport:
    """OLS diagnostics for log opt_bs regressed on a predictor subset."""

    predictors: tuple[PredictorStats, ...]
    n_obs: int
    r_squared: float
    adjusted_r_squared: float
    f_statistic: float
    f_pvalue: float
    rss: float
    df_resid: int


@dataclass(frozen=True)
class FormulationStats:
    name: str
    r_squared: float
    adjusted_r_squared: float
    delta_adj_r2_vs_full: float
    f_statistic: float


@dataclass(frozen=True)
class NestedTest:
    restricted: str
    full: str
    f_statistic: float
    p_value: float


@dataclass(frozen=True)
class FormulationComparison:
    formulations: tuple[FormulationStats, ...]
    nested_tests: tuple[NestedTest, ...]
    full_report: RegressionReport


def _f_test(restricted, full) -> tuple[float, float]:
    """F statistic and p-value of `full` against a `restricted` model it
    nests, each with rss, r_squared and df_resid (exact-fit rule above)."""
    q = restricted.df_resid - full.df_resid
    if full.r_squared >= 1.0:
        f_stat = 0.0 if restricted.r_squared >= 1.0 else math.inf
    else:
        f_stat = ((restricted.rss - full.rss) / q) / (full.rss / full.df_resid)
        f_stat = max(f_stat, 0.0)  # guard fp noise when RSS values are equal
    return f_stat, f_sf(f_stat, q, full.df_resid)


def regress(predictors, obs) -> RegressionReport:
    """Regress log opt_bs on the chosen predictors plus an intercept.

    predictors is a subset of {"logN", "logD"}; diagnostics use Student-t
    with n - p - 1 degrees of freedom for p predictors. The regression's F
    tests it against the intercept-only model.
    """
    preds = tuple(predictors)
    if not preds:
        raise ArgumentError("at least one predictor is required")
    if len(set(preds)) != len(preds):
        raise ArgumentError(f"duplicate predictors in {preds}")
    unknown = set(preds) - set(PREDICTOR_NAMES)
    if unknown:
        raise ArgumentError(
            f"unknown predictors {sorted(unknown)}; expected from {PREDICTOR_NAMES}"
        )
    table = _log_table(obs)  # columns logN, logD, log lr, log bs
    design = np.column_stack(
        [np.ones(len(table))] + [table[:, PREDICTOR_NAMES.index(name)] for name in preds]
    )
    y = table[:, 3]
    sol = ols(design, y)
    df = sol.df_resid
    t_crit = student_t_critical(0.05, df)
    rows = []
    for name, coef, se in zip(("intercept",) + preds, sol.coefficients, sol.standard_errors):
        if se > 0:
            t = coef / se
        else:
            t = 0.0 if coef == 0 else math.copysign(math.inf, coef)
        rows.append(
            PredictorStats(
                name=name,
                coefficient=coef,
                standard_error=se,
                t_value=t,
                p_value=student_t_two_sided_p(t, df),
                ci95=(coef - t_crit * se, coef + t_crit * se),
            )
        )
    f_stat, f_pvalue = _f_test(ols(design[:, :1], y), sol)
    return RegressionReport(
        predictors=tuple(rows),
        n_obs=sol.n_obs,
        r_squared=sol.r_squared,
        adjusted_r_squared=sol.adjusted_r_squared,
        f_statistic=f_stat,
        f_pvalue=f_pvalue,
        rss=sol.rss,
        df_resid=df,
    )


def nested_f_test(
    restricted: RegressionReport,
    full: RegressionReport,
    restricted_name: str = "restricted",
    full_name: str = "full",
) -> NestedTest:
    """F-test of a restricted model against a full model it nests in."""
    if restricted.n_obs != full.n_obs:
        raise ArgumentError("models must be fitted on the same observations")
    if restricted.df_resid <= full.df_resid:
        raise ArgumentError("nested test needs the restricted model to drop >= 1 predictor")
    return NestedTest(restricted_name, full_name, *_f_test(restricted, full))


def compare_formulations(obs) -> FormulationComparison:
    """Fit N-only, D-only, and Full formulations and test them against Full."""
    full = regress(("logN", "logD"), obs)
    n_only = regress(("logN",), obs)
    d_only = regress(("logD",), obs)

    def stats_for(name: str, report: RegressionReport) -> FormulationStats:
        return FormulationStats(
            name=name,
            r_squared=report.r_squared,
            adjusted_r_squared=report.adjusted_r_squared,
            delta_adj_r2_vs_full=report.adjusted_r_squared - full.adjusted_r_squared,
            f_statistic=report.f_statistic,
        )

    nested = tuple(
        nested_f_test(report, full, restricted_name=name, full_name="Full")
        for name, report in (("N-only", n_only), ("D-only", d_only))
    )
    return FormulationComparison(
        formulations=(
            stats_for("N-only", n_only),
            stats_for("D-only", d_only),
            stats_for("Full", full),
        ),
        nested_tests=nested,
        full_report=full,
    )
