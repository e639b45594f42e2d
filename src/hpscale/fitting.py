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
fit_lr_law and fit_bs_law return one point fit as a dict under the same
names (log_c, alpha, beta; log_d, gamma), and ols returns its solution
and the goodness of fit of it and of each prefix model as a dict.

Every fit reads one table, _log_table: math.log of (N, D, lr, bs), rows
sorted by the raw values, so results are bit-identical under input
reordering. Every fit is one factorization and one solve. _qr_r takes a
Householder QR of [X | y] in elementwise numpy, for a whole stack of
matrices at once; every sum runs along one matrix's own column, so each
R depends only on that matrix's entries, not on the stack around it nor
on which LAPACK or BLAS kernel the host would pick. _solve then solves
R[:p, :p] b = R[:p, p] by back-substitution. The design is rank deficient
when some |diag R[:p, :p]| <= 1e-10 * max(max |diag|, 1). Two
observations give the exact batch-size line. ols reads the RSS of the
model on the first k columns of X off the same QR: sum_{j >= k} R[j, p]**2
(Golub & Van Loan, Matrix Computations, 5.3), which no longer model exceeds.

The bootstrap takes one QR per resample, of its rows of [1, log D, log N
| log lr, log bs]. A reflection changes only the columns right of its
own, and rows below those it has fixed, so the first two reflections
leave in columns 1, log D and log bs the R of the batch-size law's
[1, log D | log bs], and all three leave in the first four columns the R
of the learning-rate law with log N and log D swapped; its coefficients
are put back in (log c, alpha, beta) order.

Resample i's indices are philox.indices of the bootstrap seed: a pure
function of (seed, i, attempt), so resample i is the same whatever the
number of resamples or the block it is drawn in. A bootstrap of more than
MAX_BOOTSTRAP_CELLS resamples x observations is refused before anything is
drawn. The resamples are drawn, gathered, factored and solved in blocks of
at most _BLOCK_CELLS resamples x observations, so only the (resamples, 5)
fits grow with the bootstrap; as each R depends only on its own matrix,
the block size changes no bit. The whole sample must pass the
learning-rate fit first, so a rank-deficient sample raises
SingularityError at once; a rank-deficient resample is drawn again on the
next attempt, up to _MAX_REDRAWS times. The bands are read off one sort of
the fits (_bands) and widened to hold the mean.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import philox
from .errors import (
    ArgumentError,
    BootstrapFailureError,
    DegenerateDesignError,
    DomainError,
    RowError,
    SingularityError,
    check_seed,
    decode_table,
    hold_number,
)

DEFAULT_RESAMPLES = 1000
MAX_RESAMPLES = 100_000
# resamples x observations: the bootstrap's time grows with the cells, its
# memory with the resamples. Its tracemalloc peak was 3.8 and 2.9 bytes per
# cell at 10,000 and 100,000 resamples of 30 observations, mostly the
# (resamples, 5) fits and their samples, 80 bytes a resample, so it stays
# near 10 MB; this bounds its time and admits MAX_RESAMPLES of the paper's 30
MAX_BOOTSTRAP_CELLS = 4_000_000
# resamples x observations gathered, factored and solved at once
_BLOCK_CELLS = 8_192
_LR_NAMES = ("log_c", "alpha", "beta")
_BS_NAMES = ("log_d", "gamma")
_MAX_REDRAWS = 10
_MAGNITUDE_BITS = np.int64(2**63 - 1)
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
            hold_number(self, name, "positive")


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


def _rank_bound(diag):
    """The rank rule's bound on |diag R| for each row of a stack of diagonals."""
    return _RANK_TOL * np.maximum(diag.max(axis=-1), 1.0)


def _solve(r):
    """Coefficients and rank verdicts from a stack of R factors of [X | y].

    r has shape (k, m, p + 1) with m >= p and is upper triangular in its
    first p rows. Fit i solves R[:p, :p] b = R[:p, p] by back-substitution;
    bad[i] is true, and its coefficients NaN, when some |diag R[:p, :p]| is
    at most _rank_bound of that diagonal.
    """
    p = r.shape[-1] - 1
    diag = np.abs(np.diagonal(r[:, :p, :p], axis1=-2, axis2=-1))
    bad = diag.min(axis=-1) <= _rank_bound(diag)
    coeffs = np.full((r.shape[0], p), np.nan)
    coeffs[~bad] = _back_substitute(r[~bad, :p])
    return coeffs, bad


def _back_substitute(u):
    """b with U[:, :p] b = U[:, p] for each (p, p + 1) U of a stack, upper
    triangular in its first p columns, without the rank rule."""
    p = u.shape[-1] - 1
    b = u[:, :, p].copy()
    for j in range(p - 1, -1, -1):
        b[:, j] /= u[:, j, j]
        b[:, :j] -= b[:, j, None] * u[:, :j, j]
    return b


def _qr_r(a, p):
    """First p rows of R from a Householder QR of every matrix in a stack.

    a[c, k, i] holds row i of column c of matrix k, so each column is
    contiguous; its first p columns are reflected in place. Returns a
    (k, p, q) stack of rows, upper triangular in its first p columns. A
    column that is zero on and below the diagonal is left as it is.
    """
    for j in range(p):
        x = a[j, :, j:]
        norm = np.sqrt(np.einsum("ki,ki->k", x, x))
        # v = x - alpha e_0 with alpha = -sign(x_0) |x|; 2 / (v.v) is tau
        alpha = -np.copysign(norm, x[:, 0])
        scale = norm * (norm + np.abs(x[:, 0]))
        tau = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)
        x[:, 0] -= alpha
        rest = a[j + 1 :, :, j:]
        rest -= (tau * np.einsum("ki,cki->ck", x, rest))[:, :, None] * x
        x[:, 0] = alpha
        x[:, 1:] = 0.0
    return a[:, :, :p].transpose(1, 2, 0)


def _least_squares(cols):
    """One fit of the last of cols, a (q, n) stack of columns, on the
    others: (coefficients, R of the scaled columns, the column exponents).

    Column c is scaled by 2**-exponents[c] to a largest |entry| in
    [0.5, 1) before the QR, and R's columns are scaled back for the solve.
    Householder QR commutes exactly with such a scaling, so the solve sees
    the bits of an unscaled QR wherever that one neither overflows nor
    underflows, and no sum of squares overflows for columns past 1e154.
    With n >= q the last column is reflected too, and no coefficient moves.
    """
    exponents = np.frexp(np.abs(cols).max(axis=1))[1]
    scaled = _qr_r(np.ldexp(cols, -exponents[:, None])[:, None].copy(), min(cols.shape))
    coeffs, bad = _solve(np.ldexp(scaled, exponents))
    if bad[0]:
        raise SingularityError("design matrix is rank deficient")
    return coeffs[0], scaled[0], exponents


def ols(design, response) -> dict:
    """Least squares of response on a design whose column 0 is the intercept.

    Returns a dict of coefficients, residuals, standard_errors, rss,
    r_squared, adjusted_r_squared, df_resid (n_obs minus its p columns),
    n_obs and nested: the fits on columns 0 .. k - 1 for 0 < k < p, each as
    rss, r_squared, adjusted_r_squared and df_resid. Needs finite numbers,
    at least one column, more rows than columns, full column rank and a
    column 0 that is one nonzero constant.
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
    # TSS is the RSS of the model on column 0, so that column must be the intercept
    if x[0, 0] == 0 or (x[:, 0] != x[0, 0]).any():
        raise ArgumentError("design column 0 must be the intercept, one nonzero constant")

    coeffs, r, exponents = _least_squares(np.vstack([x.T, y]))
    resid = y - (x * coeffs).sum(axis=1)
    # rss[k] is the RSS on columns 0 .. k - 1; TSS is rss[1], or 0 for a
    # constant y, whose QR can leave an ulp of residual
    rss = np.ldexp(np.cumsum(r[::-1, p] ** 2)[::-1], 2 * exponents[p]).tolist()
    tss = rss[1] if np.ptp(y) > 0 else 0.0
    r2 = [1.0 - v / tss if tss > 0 else 1.0 for v in rss]
    *nested, full = [{"rss": rss[k], "r_squared": r2[k],
                      "adjusted_r_squared": 1.0 - (1.0 - r2[k]) * (n - 1) / (n - k),
                      "df_resid": n - k} for k in range(1, p + 1)]  # fmt: skip

    # row i of r_inv solves R b = e_i for the scaled R, which passed the rank
    # rule unscaled: it is column i of that R's inverse, whose row k is
    # 2**exponents[k] times row k of R^-1
    systems = np.concatenate([np.broadcast_to(r[:p, :p], (p, p, p)), np.eye(p)[..., None]], axis=2)
    r_inv = _back_substitute(systems)
    se = np.sqrt(full["rss"] / full["df_resid"] * (r_inv * r_inv).sum(axis=0))
    return {
        "coefficients": tuple(coeffs.tolist()),
        "residuals": tuple(resid.tolist()),
        "standard_errors": tuple(np.ldexp(se, -exponents[:p]).tolist()),
        **full,
        "n_obs": n,
        "nested": nested,
    }


# --- law fits ---------------------------------------------------------------


def _design(table, what, columns, response):
    """Columns [1, listed | response] of a _log_table (log N, D, lr, bs) once
    each listed N or D column spans >= 2 values, else a DegenerateDesignError naming what."""
    if (np.ptp(table[:, columns], axis=0) == 0).any():
        raise DegenerateDesignError(
            f"{what} needs " + " and ".join(f">= 2 distinct {'ND'[c]}" for c in columns)
        )
    return np.vstack([np.ones(len(table)), table[:, [*columns, response]].T])


def _lr_design(table):
    """Columns [1, log N, log D | log lr] of the learning-rate law, after its span checks."""
    if len(table) < 4:
        raise DegenerateDesignError(
            f"learning-rate law needs >= 4 observations, got {len(table)}"
        )
    return _design(table, "learning-rate law", [0, 1], 2)


def fit_lr_law(obs) -> dict:
    """Point estimate {"log_c", "alpha", "beta"} from observed optima."""
    coeffs = _least_squares(_lr_design(_log_table(obs)))[0]
    return dict(zip(_LR_NAMES, coeffs.tolist()))


def fit_bs_law(obs) -> dict:
    """Point estimate {"log_d", "gamma"} from observed optima.

    Two observations with distinct D give the exact line through both
    points; more observations are fitted by least squares.
    """
    coeffs = _least_squares(_design(_log_table(obs), "batch-size law", [1], 3))[0]
    return dict(zip(_BS_NAMES, coeffs.tolist()))


# --- bootstrap ---------------------------------------------------------------


def bootstrap_fit(obs, resamples: int = DEFAULT_RESAMPLES, seed: int = 0) -> FitResult:
    """Bootstrap both laws over `resamples` draws with replacement.

    Resample i's indices are philox.indices(seed, [i], attempt, n), so the
    result is a pure function of the sorted observations, resamples and
    seed, and resample i is the same for every resamples > i. The whole
    sample must pass the learning-rate fit first, as no resample has a
    higher rank. A degenerate resample (design rank below 3, which covers
    the all-same-N and all-same-D cases) is drawn again on attempts 1 to
    10, keeping the resample count intact; FitResult.redraws counts those
    whose attempt-0 draw was degenerate, and a resample still degenerate
    after 10 redraws raises BootstrapFailureError once every block has run.
    resamples must be an integer (not a bool) in 1..MAX_RESAMPLES, and
    resamples x observations at most MAX_BOOTSTRAP_CELLS, both checked
    before any resample is drawn.

    Each resample is fitted by one _qr_r of its rows of [1, log D, log N |
    log lr, log bs] (see the module docstring), then _solve for each law,
    a block of at most _BLOCK_CELLS resamples x observations at a time.
    The bands are the 2.5/97.5 percentiles of the fits (_bands), widened
    where needed to hold the mean, in log space for c and d: on exact data
    the mean of the rounding noise can fall outside its percentiles. A CI
    end or mean of log c or log d whose exp overflows a float raises
    DomainError naming that quantity.
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
    cells = resamples * len(table)
    if cells > MAX_BOOTSTRAP_CELLS:
        raise ArgumentError(
            f"{resamples:,} resamples x {len(table):,} observations = {cells:,} "
            f"cells exceeds the bootstrap limit of {MAX_BOOTSTRAP_CELLS:,}"
        )
    _least_squares(_lr_design(table))

    cols = np.vstack([np.ones(len(table)), table[:, [1, 0, 2, 3]].T])
    params = np.full((resamples, 5), np.nan)
    step = max(1, _BLOCK_CELLS // len(table))
    redraws, stuck = 0, []
    for start in range(0, resamples, step):
        rows = np.arange(start, min(start + step, resamples))
        pending = _fit_resamples(cols, seed, rows, 0, params)
        redraws += pending.size
        for attempt in range(1, _MAX_REDRAWS + 1):
            if pending.size == 0:
                break
            pending = _fit_resamples(cols, seed, pending, attempt, params)
        stuck += pending.tolist()
    if stuck:
        raise BootstrapFailureError(
            f"{len(stuck)} resamples stayed degenerate after "
            f"{_MAX_REDRAWS} redraws (first index {stuck[0]})"
        )

    means = params.mean(axis=0)
    lo, hi = _bands(params)
    lo, hi = np.minimum(lo, means), np.maximum(hi, means)
    names = _LR_NAMES + _BS_NAMES
    c, d = _exp(means[0], "fitted c"), _exp(means[3], "fitted d")
    ci = {}
    for k, name in enumerate(names):
        if name in ("log_c", "log_d"):
            coeff = name.removeprefix("log_")
            ci[coeff] = (_exp(lo[k], f"lower CI end of {coeff}"),
                         _exp(hi[k], f"upper CI end of {coeff}"))  # fmt: skip
        else:
            ci[name] = (float(lo[k]), float(hi[k]))
    return FitResult(
        c=c,
        alpha=float(means[1]),
        beta=float(means[2]),
        d=d,
        gamma=float(means[4]),
        ci=ci,
        resamples=int(resamples),
        seed=int(seed),
        redraws=redraws,
        samples={name: params[:, k].copy() for k, name in enumerate(names)},
    )


def _fit_resamples(cols, seed, rows, attempt, params):
    """Draw the listed resamples on one attempt and fit those of full rank.

    cols is the (5, n) table [1, log D, log N | log lr, log bs]; each
    resample's (log c, alpha, beta, log d, gamma) goes to its row of
    params. Returns the numbers of the resamples that were degenerate.
    """
    idx = philox.indices(seed, rows, attempt, cols.shape[1])
    r = _qr_r(np.take(cols, idx, axis=1), 3)
    lr, bad = _solve(r[:, :, :4])
    bs = _solve(r[:, :2, [0, 1, 4]])[0]
    fitted = rows[~bad]
    params[fitted, :3] = lr[~bad][:, [0, 2, 1]]
    params[fitted, 3:] = bs[~bad]
    return rows[bad]


def _bands(params):
    """The 2.5 and 97.5 percentiles of each column of params, from one sort.

    These are np.percentile(params, [2.5, 97.5], axis=0) by its default
    linear method, method 7 of Hyndman & Fan (Am. Stat. 50, 1996): at the
    virtual index (n - 1) q, between the sorted values a below and b above
    it and with t its fractional part, a + (b - a) t when t < 0.5, else
    b - (b - a) (1 - t), as numpy interpolates. A lone value is its own
    band, read from the upper branch as numpy reads it. params holds no
    NaN. The values sort as integers in IEEE 754 total order, so -0.0
    comes before +0.0, which a float sort ties in whatever order its
    kernel leaves; that sign of a zero band end is the only bit in which
    the bands can differ from numpy's.
    """
    ordered = _total_order(params.view(np.int64))
    ordered.sort(axis=0)
    last = len(ordered) - 1
    at = last * np.array([0.025, 0.975])
    below = np.floor(at).astype(np.intp)
    t = (at - below if last else np.ones(2))[:, None]
    a, b = _total_order(ordered[[below, np.minimum(below + 1, last)]]).view(np.float64)
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _total_order(bits):
    """The int64 views of float64s, as integers in the floats' IEEE 754
    total order, or those integers back as views: with each negative's
    magnitude bits flipped."""
    return bits ^ (bits >> 63 & _MAGNITUDE_BITS)


def _exp(log_value, what):
    """math.exp of a fitted log c or log d, or a DomainError naming what overflowed."""
    try:
        return math.exp(log_value)
    except OverflowError:  # steep data can fit log c or log d past ~709
        raise DomainError(f"{what} overflows a float (its log is {log_value:.6g})") from None


# --- observation CSV ----------------------------------------------------------

_OBS_HEADER = ("n_params", "d_tokens", "opt_lr", "opt_bs_tokens")


def load_observations(source) -> list[OptimumObservation]:
    """Parse observations from CSV text, bytes, or a readable stream.

    errors.decode_table reads the table; '#' metadata is ignored. Errors name
    the first row read that is not an OptimumObservation, else the first unread line.
    """
    return decode_table(source, (_OBS_HEADER,), _observations)[1]


def _observations(values: np.ndarray, missing: np.ndarray) -> list[OptimumObservation]:
    """decode_table's rows as OptimumObservations; a row that is none is a RowError."""
    out = []
    for row, cells in enumerate(values.tolist()):
        try:
            out.append(OptimumObservation(*cells))
        except ArgumentError as exc:
            raise RowError(row, str(exc)) from exc
    return out


def observations_to_csv(obs) -> str:
    lines = [",".join(_OBS_HEADER)]
    for o in obs:
        lines.append(
            f"{o.n_params!r},{o.d_tokens!r},{o.opt_lr!r},{o.opt_bs_tokens!r}"
        )
    return "\n".join(lines) + "\n"
