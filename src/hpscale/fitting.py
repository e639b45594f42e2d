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
and response y it takes an upper-triangular R of [X | y] and solves
R[:p, :p] b = R[:p, p] by back-substitution. The design is rank deficient
when some |diag R[:p, :p]| <= 1e-10 * max(max |diag|, 1). ols, fit_lr_law
and fit_bs_law take R from a QR of [X | y] (two observations give the
exact line).

The bootstrap takes each resample's R from its Gram matrix instead: the
draw counts times the outer products z_i z_i^T of z_i = [1, log N - mean,
log D - mean, log lr - mean, log bs - mean], centred on the whole
sample's means. Up to row signs, the Cholesky factor of a Gram matrix of
[X | y] is the R of its QR, and only its first p rows are formed, so the
y pivot, zero for an exactly law-consistent resample, is never taken.
Centring is safe: subtracting a multiple of the intercept column from
column j changes only row 0 of R, so every |diag R| is the one a QR of
the raw design gives and the rank rule reads the same pivots, while the
Gram matrix avoids the large, nearly equal entries of raw logs. The
intercept is shifted back from the means after the solve. Normal
equations square the condition number, so a resample goes through a
stacked QR of its raw design after all when some pivot keeps at most
1e-2 of its column's norm sqrt(G_jj), or its smallest pivot is within
1e4 of the rank bound; there the QR's rank verdict is the one used, and
elsewhere the two verdicts agree.

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
    SingularityError,
    check_number,
    check_seed,
    decode_table,
)

MAX_RESAMPLES = 100_000
_MAX_REDRAWS = 10
_RANK_TOL = 1e-10
# A Gram pivot is trusted when it keeps more than _GRAM_SHARE of its
# column's norm and lies more than _GRAM_MARGIN times above the rank bound.
_GRAM_SHARE = 1e-2
_GRAM_MARGIN = 1e4
# (row, column) of the bootstrap Gram entries that _gram_r reads: the
# upper triangle of columns 0-3 less the log lr pivot (3, 3), and (0, 4)
# and (2, 4) for the batch-size law
_GRAM_ENTRIES = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3),
                 (0, 4), (2, 4))  # fmt: skip


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
    u = r[~bad, :p]
    b = u[:, :, p].copy()
    for j in range(p - 1, -1, -1):
        b[:, j] /= u[:, j, j]
        b[:, :j] -= b[:, j, None] * u[:, :j, j]
    coeffs = np.full((r.shape[0], p), np.nan)
    coeffs[~bad] = b
    return coeffs, bad


def _gram_r(gram):
    """R of [X | y], up to row signs, from a stack of its Gram matrices.

    gram has shape (p + 1, p + 1, k), fit k last; only its upper
    triangle, less the y pivot gram[p, p], is read. Returns the first p rows
    of each Cholesky factor as a (k, p, p + 1) stack, built column by
    column (a pivot that rounds below zero is zero, and its row stays
    zero), and a mask of the fits whose pivots are not trusted: some pivot
    is at most _GRAM_SHARE of its column's norm sqrt(gram[j, j]), or the
    smallest is within _GRAM_MARGIN of the rank bound. Those fits must go
    through a QR.
    """
    q, _, k = gram.shape
    p = q - 1
    r = np.zeros((p, q, k))
    for j in range(p):
        above = r[:j, j]
        pivot = np.sqrt(np.maximum(gram[j, j] - (above * above).sum(axis=0), 0.0))
        rest = gram[j, j + 1 :] - (above[:, None] * r[:j, j + 1 :]).sum(axis=0)
        r[j, j] = pivot
        np.divide(rest, pivot, out=r[j, j + 1 :], where=pivot > 0)
    pivots = r[range(p), range(p)].T
    norms = np.sqrt(gram[range(p), range(p)].T)
    untrusted = (pivots <= _GRAM_SHARE * norms).any(axis=1)
    untrusted |= pivots.min(axis=1) <= _GRAM_MARGIN * _rank_bound(pivots)
    return r.transpose(2, 0, 1), untrusted


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

    Each resample is fitted from its count-weighted Gram matrix of the
    centred columns (see the module docstring): one bincount, one einsum
    and the column-by-column Cholesky of _gram_r for every resample at
    once, then _solve. Only the resamples whose pivots _gram_r does not
    trust are fitted by a stacked QR of their gathered rows, so the rank
    verdicts, the redraws and the index matrix are those a QR of every
    resample gives.
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

    # z = [1, log N, log D, log lr, log bs], centred on the sample means;
    # the lr law reads columns 0-3 of its Gram matrix, the bs law 0, 2, 4,
    # and only the entries _gram_r reads are summed
    n = len(table)
    centre = table.mean(axis=0)
    z = np.column_stack([np.ones(n), table - centre])
    ii, jj = np.array(_GRAM_ENTRIES).T
    outer = (z[:, ii] * z[:, jj]).T.copy()
    bs_cols = np.array([0, 2, 4])
    params = np.full((resamples, 5), np.nan)

    def degenerate(rows, idx):
        # Count-weighted Gram matrices of every resample at once. einsum
        # sums each row in one order whatever the number of rows, so a
        # resample's fit does not depend on how many are drawn (a BLAS
        # matmul does not promise that).
        k = len(rows)
        counts = np.bincount((idx + n * np.arange(k)[:, None]).ravel(), minlength=k * n)
        gram = np.zeros((5, 5, k))
        gram[ii, jj] = np.einsum("ji,ki->jk", outer, counts.reshape(k, n).astype(float))
        lr_r, lr_qr = _gram_r(gram[:4, :4])
        bs_r, bs_qr = _gram_r(gram[bs_cols[:, None], bs_cols])
        lr, bad = _solve(lr_r)
        bs = _solve(bs_r)[0]
        lr[:, 0] += centre[2] - lr[:, 1] * centre[0] - lr[:, 2] * centre[1]
        bs[:, 0] += centre[3] - bs[:, 1] * centre[1]
        qr = lr_qr | bs_qr
        if qr.any():
            # Stacked QR of the raw designs; np.take gathers the rows about
            # 10x faster than lr_xy[idx].
            lr[qr], bad[qr] = _solve(np.linalg.qr(np.take(lr_xy, idx[qr], axis=0), mode="r"))
            bs[qr] = _solve(np.linalg.qr(np.take(bs_xy, idx[qr], axis=0), mode="r"))[0]
        good = ~bad
        params[rows[good], :3] = lr[good]
        params[rows[good], 3:] = bs[good]
        return bad

    _, redrawn = resample_indices(n, resamples, seed, degenerate)

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

_OBS_HEADER = ("n_params", "d_tokens", "opt_lr", "opt_bs_tokens")


def load_observations(source) -> list[OptimumObservation]:
    """Parse observations from CSV text, bytes, or a readable stream.

    errors.decode_table reads the table; '#' metadata is ignored. Errors name
    the first row read that is not an OptimumObservation, else the first unread line.
    """
    table = decode_table(source, (_OBS_HEADER,))
    out = []
    for row, values in enumerate(table.values.tolist()):
        try:
            out.append(OptimumObservation(*values))
        except ArgumentError as exc:
            raise table.error(row, str(exc)) from exc
    if table.fault is not None:
        raise table.error(*table.fault)
    return out


def observations_to_csv(obs) -> str:
    lines = [",".join(_OBS_HEADER)]
    for o in obs:
        lines.append(
            f"{o.n_params!r},{o.d_tokens!r},{o.opt_lr!r},{o.opt_bs_tokens!r}"
        )
    return "\n".join(lines) + "\n"
