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

Every fit reads one table, _log_table: math.log of (N, D, lr, bs), rows
sorted by the raw values, so results are bit-identical under input
reordering. Every fit is one solve, _solve: for a design X with p columns
and response y it takes R of the QR of [X | y] and solves
R[:p, :p] b = R[:p, p], never forming the normal equations. The design is
rank deficient when some |diag R[:p, :p]| <= 1e-10 * max(max |diag|, 1).
ols, fit_lr_law and fit_bs_law solve one R (two observations give the
exact line); the bootstrap solves a stack of every resample's R at once.

One generator, seeded with the bootstrap seed, draws the whole index
matrix (resample_indices). The whole sample must pass the learning-rate
fit first, so a rank-deficient sample raises SingularityError at once;
a rank-deficient resample is drawn again.
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


# --- the one solve -------------------------------------------------------------


def _log_table(obs) -> np.ndarray:
    """Observations as an (n, 4) table of math.log N, D, lr and bs.

    Rows are sorted by the raw (N, D, lr, bs), so every fit depends only on
    the observations, not on their order.
    """
    rows = sorted((o.n_params, o.d_tokens, o.opt_lr, o.opt_bs_tokens) for o in obs)
    if not rows:
        raise ArgumentError("no observations given")
    return np.array([[math.log(v) for v in row] for row in rows])


def _solve(r):
    """Coefficients and rank verdicts from a stack of R factors of [X | y].

    r has shape (k, m, p + 1) with m >= p. Fit i solves
    R[:p, :p] b = R[:p, p]; bad[i] is true, and its coefficients NaN, when
    some |diag R[:p, :p]| <= _RANK_TOL * max(max |diag|, 1).
    """
    p = r.shape[-1] - 1
    diag = np.abs(np.diagonal(r[:, :p, :p], axis1=-2, axis2=-1))
    bad = diag.min(axis=-1) <= _RANK_TOL * np.maximum(diag.max(axis=-1), 1.0)
    coeffs = np.full((r.shape[0], p), np.nan)
    coeffs[~bad] = np.linalg.solve(r[~bad, :p, :p], r[~bad, :p, p:])[..., 0]
    return coeffs, bad


def _least_squares(xy):
    """One fit of xy's last column on the others: (coefficients, R of xy)."""
    r = np.linalg.qr(xy, mode="r")
    coeffs, bad = _solve(r[None])
    if bad[0]:
        raise SingularityError("design matrix is rank deficient")
    return coeffs[0], r


def ols(design, response) -> OlsSolution:
    """Least squares of response on a design matrix with intercept column.

    Needs finite numbers, at least one column, more rows than columns and
    full column rank.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if x.ndim != 2:
        raise ArgumentError("design must be a 2-D matrix")
    n, p = x.shape
    if y.shape != (n,):
        raise ArgumentError(f"response must have shape ({n},), got {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ArgumentError("design and response must be finite")
    if p == 0:
        raise DegenerateDesignError("design must have at least one column")
    if n <= p:
        raise DegenerateDesignError(f"need more observations than coefficients ({n} <= {p})")

    coeffs, r = _least_squares(np.column_stack([x, y]))
    resid = y - x @ coeffs
    rss = float(resid @ resid)

    df = n - p
    r_inv = np.linalg.solve(r[:p, :p], np.eye(p))
    se = np.sqrt(np.maximum(np.diag(rss / df * (r_inv @ r_inv.T)), 0.0))

    # a constant y has TSS 0, though its float mean can miss it by an ulp
    tss = float(np.sum((y - y.mean()) ** 2)) if np.ptp(y) > 0 else 0.0
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return OlsSolution(
        coefficients=tuple(coeffs.tolist()),
        residuals=tuple(resid.tolist()),
        rss=rss,
        standard_errors=tuple(se.tolist()),
        r_squared=r2,
        adjusted_r_squared=1.0 - (1.0 - r2) * (n - 1) / df,
        n_obs=n,
        n_coeffs=p,
    )


# --- law fits ---------------------------------------------------------------


def _lr_design(table):
    """[1, log N, log D | log lr] for the learning-rate law, after its span checks."""
    if len(table) < 4:
        raise DegenerateDesignError(
            f"learning-rate law needs >= 4 observations, got {len(table)}"
        )
    if (np.ptp(table[:, :2], axis=0) == 0).any():
        raise DegenerateDesignError(
            "learning-rate law needs >= 2 distinct N and >= 2 distinct D"
        )
    return np.column_stack([np.ones(len(table)), table[:, :3]])


def _bs_design(table):
    """[1, log D | log bs] for the batch-size law."""
    return np.column_stack([np.ones(len(table)), table[:, 1::2]])


def fit_lr_law(obs) -> LrLawFit:
    """Point estimate of (log c, alpha, beta) from observed optima."""
    coeffs, _ = _least_squares(_lr_design(_log_table(obs)))
    return LrLawFit(*coeffs.tolist())


def fit_bs_law(obs) -> BsLawFit:
    """Point estimate of (log d, gamma) from observed optima.

    Two observations with distinct D give the exact line through both
    points; more observations are fitted by least squares.
    """
    table = _log_table(obs)
    if np.ptp(table[:, 1]) == 0:
        raise DegenerateDesignError("batch-size law needs >= 2 distinct D")
    coeffs, _ = _least_squares(_bs_design(table))
    return BsLawFit(*coeffs.tolist())


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


def bootstrap_fit(obs, resamples: int = 1000, seed: int = 0) -> FitResult:
    """Bootstrap both laws over `resamples` draws with replacement.

    resample_indices draws every resample's indices from one generator
    seeded with `seed`, so the result is a pure function of the sorted
    observations, resamples and seed. The whole sample must pass the
    learning-rate fit first, as no resample has a higher rank. Degenerate
    resamples (design rank below 3, which covers the all-same-N and
    all-same-D cases) are redrawn from that generator, up to 10 times,
    keeping the resample count intact; FitResult.redraws counts them.
    resamples must be an integer (not a bool) in 1..MAX_RESAMPLES, checked
    before anything is allocated.
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
    table = _log_table(obs)
    lr_xy, bs_xy = _lr_design(table), _bs_design(table)
    _least_squares(lr_xy)

    params = np.full((resamples, 5), np.nan)

    def degenerate(rows, idx):
        # Stacked QR of every resample at once; a rank-deficient learning-
        # rate design is redrawn, so only full-rank ones reach the bs solve.
        # np.take gathers the rows about 10x faster than lr_xy[idx].
        lr, bad = _solve(np.linalg.qr(np.take(lr_xy, idx, axis=0), mode="r"))
        good = ~bad
        params[rows[good], :3] = lr[good]
        r_bs = np.linalg.qr(np.take(bs_xy, idx[good], axis=0), mode="r")
        params[rows[good], 3:] = _solve(r_bs)[0]
        return bad

    _, redrawn = resample_indices(len(table), resamples, seed, degenerate)

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
