"""Power-law fitting from grid-search optima.

The learning-rate law lr = c * N**alpha * D**beta and the batch-size law
bs = d * D**gamma are fitted by ordinary least squares on the log-linear
forms

    log lr = log c + alpha * log N + beta * log D
    log bs = log d + gamma * log D

(natural logarithms; N is deliberately excluded from the batch-size law).
bootstrap_fit resamples whole observations with replacement, refits both
laws per resample, averages the per-resample (log c, alpha, beta, log d,
gamma), and reports empirical 2.5/97.5 percentile confidence bands.

One generator, seeded with the bootstrap seed, draws the whole index
matrix (resample_indices), and all resamples are solved in one batch.
All solves go through a QR decomposition rather than the normal
equations. Observations are canonically sorted before fitting so results
are bit-identical under input reordering.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    BootstrapFailureError,
    DegenerateDesignError,
    DomainError,
    ParseError,
    SingularityError,
    check_number,
    check_seed,
    decode_csv,
)

MAX_RESAMPLES = 100_000
_MAX_REDRAWS = 10
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class OptimumObservation:
    """Empirically optimal (lr, bs) for one (N, D) training budget.

    opt_bs_tokens is nominally a token count; fractional values are
    accepted so that exactly law-consistent synthetic data round-trips
    through the fitter without quantization error.
    """

    n_params: float
    d_tokens: float
    opt_lr: float
    opt_bs_tokens: float

    def __post_init__(self):
        for name in ("n_params", "d_tokens", "opt_lr", "opt_bs_tokens"):
            check_number(getattr(self, name), name, "positive")


@dataclass(frozen=True)
class OlsSolution:
    """Least-squares solution with the usual goodness-of-fit numbers."""

    coefficients: tuple[float, ...]
    residuals: tuple[float, ...]
    rss: float
    standard_errors: tuple[float, ...]
    r_squared: float
    adjusted_r_squared: float
    n_obs: int
    n_coeffs: int

    @property
    def df_resid(self) -> int:
        return self.n_obs - self.n_coeffs


@dataclass(frozen=True)
class LrLawFit:
    log_c: float
    alpha: float
    beta: float

    @property
    def c(self) -> float:
        return math.exp(self.log_c)


@dataclass(frozen=True)
class BsLawFit:
    log_d: float
    gamma: float

    @property
    def d(self) -> float:
        return math.exp(self.log_d)


@dataclass(frozen=True)
class FitResult:
    """Bootstrap-averaged law coefficients with percentile confidence bands.

    ci maps each coefficient name (c, alpha, beta, d, gamma) to its
    (lower, upper) 95% band; redraws counts the resamples whose first
    draw was degenerate and was drawn again; samples holds the raw
    per-resample values of (log_c, alpha, beta, log_d, gamma) for
    downstream diagnostics.
    """

    c: float
    alpha: float
    beta: float
    d: float
    gamma: float
    ci: dict[str, tuple[float, float]]
    resamples: int
    seed: int
    redraws: int
    samples: dict[str, np.ndarray]

    def to_json_dict(self) -> dict:
        return {
            "c": self.c,
            "alpha": self.alpha,
            "beta": self.beta,
            "d": self.d,
            "gamma": self.gamma,
            "ci": {k: [lo, hi] for k, (lo, hi) in self.ci.items()},
            "resamples": self.resamples,
            "seed": self.seed,
            "redraws": self.redraws,
        }


# --- core OLS ---------------------------------------------------------------


def ols(design, response) -> OlsSolution:
    """Least squares of response on a design matrix with intercept column.

    Solves via QR, requires more rows than columns and full column rank.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if x.ndim != 2:
        raise ArgumentError("design must be a 2-D matrix")
    n, p = x.shape
    if y.shape != (n,):
        raise ArgumentError(f"response must have shape ({n},), got {y.shape}")
    if n <= p:
        raise ArgumentError(f"need more observations than coefficients ({n} <= {p})")

    q, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    if diag.min() <= _RANK_TOL * max(diag.max(), 1.0):
        raise SingularityError("design matrix is rank deficient")
    coeffs = np.linalg.solve(r, q.T @ y)
    resid = y - x @ coeffs
    rss = float(resid @ resid)

    df = n - p
    sigma2 = rss / df
    r_inv = np.linalg.solve(r, np.eye(p))
    cov = sigma2 * (r_inv @ r_inv.T)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))

    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    adj = 1.0 - (1.0 - r2) * (n - 1) / df if df > 0 else float("nan")
    return OlsSolution(
        coefficients=tuple(coeffs),
        residuals=tuple(resid),
        rss=rss,
        standard_errors=tuple(se),
        r_squared=r2,
        adjusted_r_squared=adj,
        n_obs=n,
        n_coeffs=p,
    )


# --- law fits ---------------------------------------------------------------


def _sorted_obs(obs) -> list[OptimumObservation]:
    items = list(obs)
    if not items:
        raise ArgumentError("no observations given")
    items.sort(key=lambda o: (o.n_params, o.d_tokens, o.opt_lr, o.opt_bs_tokens))
    return items


def _log_columns(items):
    log_n = np.array([math.log(o.n_params) for o in items])
    log_d = np.array([math.log(o.d_tokens) for o in items])
    log_lr = np.array([math.log(o.opt_lr) for o in items])
    log_bs = np.array([math.log(o.opt_bs_tokens) for o in items])
    return log_n, log_d, log_lr, log_bs


def _check_lr_span(items) -> None:
    if len(items) < 4:
        raise DegenerateDesignError(
            f"learning-rate law needs >= 4 observations, got {len(items)}"
        )
    if len({o.n_params for o in items}) < 2 or len({o.d_tokens for o in items}) < 2:
        raise DegenerateDesignError(
            "learning-rate law needs >= 2 distinct N and >= 2 distinct D"
        )


def fit_lr_law(obs) -> LrLawFit:
    """Point estimate of (log c, alpha, beta) from observed optima."""
    items = _sorted_obs(obs)
    _check_lr_span(items)
    log_n, log_d, log_lr, _ = _log_columns(items)
    design = np.column_stack([np.ones(len(items)), log_n, log_d])
    sol = ols(design, log_lr)
    return LrLawFit(*sol.coefficients)


def fit_bs_law(obs) -> BsLawFit:
    """Point estimate of (log d, gamma) from observed optima.

    Two observations with distinct D give the exact line through both
    points; more observations are fitted by least squares.
    """
    items = _sorted_obs(obs)
    if len({o.d_tokens for o in items}) < 2:
        raise DegenerateDesignError("batch-size law needs >= 2 distinct D")
    _, log_d, _, log_bs = _log_columns(items)
    if len(items) == 2:
        gamma = (log_bs[1] - log_bs[0]) / (log_d[1] - log_d[0])
        return BsLawFit(log_d=float(log_bs[0] - gamma * log_d[0]), gamma=float(gamma))
    design = np.column_stack([np.ones(len(items)), log_d])
    sol = ols(design, log_bs)
    return BsLawFit(*sol.coefficients)


# --- bootstrap ---------------------------------------------------------------


def resample_indices(n: int, resamples: int, seed: int, degenerate):
    """The bootstrap index matrix: row i lists resample i's observations.

    One generator, default_rng(seed), draws all (resamples, n) indices at
    once, and each row is sorted. degenerate(rows, idx) gets row numbers
    and their index rows and returns a mask of those to draw again; they
    are redrawn from the same generator, all at once in ascending row
    order, up to 10 times. Returns the final matrix and the ascending
    numbers of the redrawn rows.
    """
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.integers(0, n, (resamples, n)), axis=1)
    pending = redrawn = np.flatnonzero(degenerate(np.arange(resamples), idx))
    for _ in range(_MAX_REDRAWS):
        if pending.size == 0:
            break
        idx[pending] = np.sort(rng.integers(0, n, (pending.size, n)), axis=1)
        pending = pending[degenerate(pending, idx[pending])]
    if pending.size:
        raise BootstrapFailureError(
            f"{pending.size} resamples stayed degenerate after "
            f"{_MAX_REDRAWS} redraws (first index {int(pending[0])})"
        )
    return idx, redrawn


def _batched_fits(lr_table, bs_table, index_matrix):
    """Solve both laws for every resample at once via stacked QR.

    lr_table has the columns (1, log N, log D, log lr) and bs_table
    (1, log D, log bs). Only R of each resample's QR is formed: its
    leading block is the design's R and its last column is Q^T y.

    Returns (params, bad) where params is (resamples, 5) holding
    (log_c, alpha, beta, log_d, gamma) and bad flags rank-deficient
    learning-rate designs.
    """
    # np.take gathers the rows about 10x faster than lr_table[index_matrix]
    r3 = np.linalg.qr(np.take(lr_table, index_matrix, axis=0), mode="r")  # (resamples, 4, 4)
    diag3 = np.abs(np.diagonal(r3[:, :3, :3], axis1=-2, axis2=-1))
    bad = diag3.min(axis=-1) <= _RANK_TOL * np.maximum(diag3.max(axis=-1), 1.0)

    params = np.full((index_matrix.shape[0], 5), np.nan)
    good = ~bad
    if good.any():
        params[good, :3] = np.linalg.solve(r3[good, :3, :3], r3[good, :3, 3:])[..., 0]
        r2 = np.linalg.qr(np.take(bs_table, index_matrix[good], axis=0), mode="r")
        params[good, 3:] = np.linalg.solve(r2[:, :2, :2], r2[:, :2, 2:])[..., 0]
    return params, bad


def bootstrap_fit(obs, resamples: int = 1000, seed: int = 0) -> FitResult:
    """Bootstrap both laws over `resamples` draws with replacement.

    resample_indices draws every resample's indices from one generator
    seeded with `seed`, so the result is a pure function of the sorted
    observations, resamples and seed. Degenerate resamples (design rank
    below 3, which covers the all-same-N and all-same-D cases) are redrawn
    from that generator, up to 10 times, keeping the resample count
    intact; FitResult.redraws counts them. resamples must be an integer
    (not a bool) in 1..MAX_RESAMPLES, checked before anything is allocated.
    """
    if (
        isinstance(resamples, bool)
        or not isinstance(resamples, numbers.Integral)
        or not 1 <= resamples <= MAX_RESAMPLES
    ):
        raise ArgumentError(
            f"resamples must be an integer between 1 and {MAX_RESAMPLES:,}, "
            f"got {resamples!r:.40}"
        )
    check_seed(seed)
    items = _sorted_obs(obs)
    _check_lr_span(items)
    log_n, log_d, log_lr, log_bs = _log_columns(items)
    ones = np.ones(len(items))
    lr_table = np.column_stack([ones, log_n, log_d, log_lr])
    bs_table = np.column_stack([ones, log_d, log_bs])

    params = np.full((resamples, 5), np.nan)

    def degenerate(rows, idx):
        got, bad = _batched_fits(lr_table, bs_table, idx)
        params[rows[~bad]] = got[~bad]
        return bad

    _, redrawn = resample_indices(len(items), resamples, seed, degenerate)

    means = params.mean(axis=0)
    lo, hi = np.percentile(params, [2.5, 97.5], axis=0)
    names = ("log_c", "alpha", "beta", "log_d", "gamma")
    ci = {}
    try:
        for k, name in enumerate(names):
            if name in ("log_c", "log_d"):
                ci[name.removeprefix("log_")] = (math.exp(lo[k]), math.exp(hi[k]))
            else:
                ci[name] = (float(lo[k]), float(hi[k]))
        c, d = math.exp(means[0]), math.exp(means[3])
    except OverflowError:  # steep data can fit log c or log d past ~709
        raise DomainError(
            f"fitted c or d overflows a float (log c {means[0]:.6g}, log d {means[3]:.6g})"
        ) from None
    return FitResult(
        c=c,
        alpha=float(means[1]),
        beta=float(means[2]),
        d=d,
        gamma=float(means[4]),
        ci=ci,
        resamples=resamples,
        seed=seed,
        redraws=int(redrawn.size),
        samples={name: params[:, k].copy() for k, name in enumerate(names)},
    )


# --- observation CSV ----------------------------------------------------------

_OBS_HEADER = ["n_params", "d_tokens", "opt_lr", "opt_bs_tokens"]


def load_observations(source) -> list[OptimumObservation]:
    """Parse observations from CSV text, bytes, or a readable stream.

    Lines split and number as errors.decode_csv says, with no CSV quoting;
    '#' metadata is ignored. Errors name the line.
    """
    csv = decode_csv(source)
    if csv.header is None:
        raise ParseError("empty observations file")
    header = [c.strip() for c in csv.header.split(",")]
    if header != _OBS_HEADER:
        raise ParseError(
            f"bad header {header!r:.40}; expected {_OBS_HEADER}", line=csv.header_line
        )
    out = []
    for lineno, line in zip(csv.row_lines, csv.rows):
        row = [c.strip() for c in line.split(",")]
        if len(row) != 4:
            raise ParseError(f"expected 4 columns, found {len(row)}", line=lineno)
        try:
            values = [float(c) for c in row]
        except ValueError as exc:  # float() quotes the whole cell: keep 40 chars
            raise ParseError(f"non-numeric value: {exc!s:.75}", line=lineno) from exc
        try:
            out.append(OptimumObservation(*values))
        except ArgumentError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    if not out:
        raise ParseError("no observation rows found")
    return out


def observations_to_csv(obs) -> str:
    lines = [",".join(_OBS_HEADER)]
    for o in obs:
        lines.append(
            f"{o.n_params!r},{o.d_tokens!r},{o.opt_lr!r},{o.opt_bs_tokens!r}"
        )
    return "\n".join(lines) + "\n"
