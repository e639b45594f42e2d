"""Closed-form hyperparameter rules for LLM pre-training.

Implements the step power law for optimal peak learning rate and token
batch size,

    lr(N, D) = c * N**alpha * D**beta        (c=1.79, alpha=-0.713, beta=0.307)
    bs(D)    = d * D**gamma                  (d=0.58,  gamma=0.571)

together with six published baseline rules (openai, microsoft, deepseek,
porian, minicpm, meituan), compute-budget derivation, and snapping of
predictions onto a sweep grid.

The published coefficients live in one read-only table, DEFAULT_LAWS;
meituan has none, and takes its four coefficients from AuxInputs.

All evaluation happens in log space (exp of a linear combination of logs)
so predictions stay finite out to D ~ 1e13 and beyond.
"""

from __future__ import annotations

import bisect
import math
from types import MappingProxyType
from typing import Mapping

from .errors import ArgumentError, DomainError, Record, _set, check_number, decode_json, hold_number

LAW_METHODS = ("step", "openai", "microsoft", "deepseek", "porian", "minicpm", "meituan")

# FLOPs per parameter per token in compute_budget's C = factor * N * D
DEFAULT_FLOPS_FACTOR = 6.0

# law name -> coefficient name -> value, the shape of DEFAULT_LAWS
LawTable = Mapping[str, Mapping[str, float]]

# meituan's coefficients travel in AuxInputs.meituan_params, in this order
_MEITUAN_KEYS = ("lambda", "alpha", "lambda_b", "alpha_b")


class ModelScale(Record):
    """Training budget of one run family.

    n_params counts non-vocabulary parameters; for MoE models this is the
    total count, not the activated count (n_active carries the latter,
    which compute_budget can use).
    """

    __slots__ = _fields = ("n_params", "d_tokens", "n_active")

    def __init__(self, n_params: float, d_tokens: float, n_active: float | None = None):
        hold_number(self, "n_params", n_params, "positive")
        hold_number(self, "d_tokens", d_tokens, "positive")
        if n_active is None:
            _set(self, "n_active", None)
        elif hold_number(self, "n_active", n_active, "positive") > self.n_params:
            raise ArgumentError(f"n_active must lie in (0, n_params], got {self.n_active}")


class AuxInputs(Record):
    """Optional side inputs required by some baseline rules.

    expected_loss is the cross-entropy value consumed by the
    loss-parameterized batch-size rules; meituan_params is the
    (lambda, alpha, lambda_b, alpha_b) quadruple of the meituan law, each
    named in errors by its law-override key.
    """

    __slots__ = _fields = ("expected_loss", "meituan_params")

    def __init__(
        self,
        expected_loss: float | None = None,
        meituan_params: tuple[float, float, float, float] | None = None,
    ):
        if expected_loss is None:
            _set(self, "expected_loss", None)
        else:
            hold_number(self, "expected_loss", expected_loss, "positive")
        if meituan_params is not None:
            if not isinstance(meituan_params, (list, tuple)) or len(meituan_params) != 4:
                raise ArgumentError(
                    f"meituan_params must be four numbers ({', '.join(_MEITUAN_KEYS)}), "
                    f"got {meituan_params!r:.40}"
                )
            meituan_params = tuple(
                check_number(v, f"meituan_params {k}", "positive")
                for k, v in zip(_MEITUAN_KEYS, meituan_params)
            )
        _set(self, "meituan_params", meituan_params)


class Prediction(Record):
    """Recommended (learning rate, batch size) from one law.

    lr is absent only for the minicpm rule, which defines no learning-rate
    formula; bs_tokens is absent only for rules without a batch-size
    formula (microsoft).
    """

    __slots__ = _fields = ("lr", "bs_tokens", "method", "snapped")

    def __init__(
        self, lr: float | None, bs_tokens: float | None, method: str, snapped: bool = False
    ):
        if lr is not None:
            check_number(lr, "lr", "positive")
        if bs_tokens is not None:
            check_number(bs_tokens, "bs_tokens", "positive")
        if lr is None and bs_tokens is None:
            raise ArgumentError("prediction must carry at least one of lr, bs")
        _set(self, "lr", lr)
        _set(self, "bs_tokens", bs_tokens)
        _set(self, "method", method)
        _set(self, "snapped", snapped)


class GridSpec(Record):
    """Sweep grid for learning rate and batch size: two strictly increasing
    axes of positive values, each given as a list or tuple and held as a
    tuple of the values given.

    The default grid is the paper's sweep design: learning rates 2**e for
    e = -10.5, -10.0, ..., -7.0 and batch sizes from 32,768 growing by
    sqrt(2) up to 4,194,304. A surface's own axes form a grid too
    (LossSurface.grid, its bs values ints).

    log_lr and log_bs hold math.log of each node, taken once here for
    every reader of a grid's logs, and left out of eq, hash and repr. The
    nearest node to a value is the first at the least float distance
    |log value - log node|: ties and equal logs go to the smaller node,
    and a value past either end to that end (or to a smaller node at the
    same rounded distance).
    """

    _fields = ("lr_values", "bs_values")
    __slots__ = (*_fields, "log_lr", "log_bs")

    def __init__(self, lr_values: tuple[float, ...], bs_values: tuple[float, ...]):
        for name, values in (("lr_values", lr_values), ("bs_values", bs_values)):
            if not isinstance(values, (list, tuple)):
                raise ArgumentError(f"{name} must be a list of numbers, got {values!r:.40}")
            if not values:
                raise ArgumentError(f"{name} must be non-empty")
            for v in values:
                check_number(v, name, "positive")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ArgumentError(f"{name} must be strictly increasing")
        _set(self, "lr_values", tuple(lr_values))
        _set(self, "bs_values", tuple(bs_values))
        _set(self, "log_lr", tuple(map(math.log, self.lr_values)))
        _set(self, "log_bs", tuple(map(math.log, self.bs_values)))

    @classmethod
    def default(cls) -> "GridSpec":
        """The standard sweep grid: 8 learning rates, 15 batch sizes."""
        return _DEFAULT_GRID


_DEFAULT_GRID = GridSpec(
    tuple(2.0 ** (-10.5 + 0.5 * k) for k in range(8)),
    tuple(32768.0 * 2.0 ** (k / 2.0) for k in range(15)),
)


# --- law parameterizations -------------------------------------------------
#
# Every rule is a power law (or log-linear rule) evaluated in log space.
# DEFAULT_LAWS holds the published coefficients: law name -> coefficient
# name -> value, read-only at both levels. law_overrides_from_dict returns
# a read-only copy with some values replaced; the defaults never change.


def _table(laws: LawTable) -> LawTable:
    return MappingProxyType({name: MappingProxyType(p) for name, p in laws.items()})


DEFAULT_LAWS = _table({
    "step": {"c": 1.79, "alpha": -0.713, "beta": 0.307, "d": 0.58, "gamma": 0.571},
    # lr = intercept - slope * ln(N); bs = bs_coef * L**bs_exp
    "openai": {"intercept": 3.239e-3, "slope": 1.395e-4, "bs_coef": 2e18, "bs_exp": -4.76190},
    # Leading coefficient is configurable: the published magnitude gives
    # lr ~ 3e-11 at (1e9, 1e11) and may be a transcription artifact.
    "microsoft": {"coef": 1.3192e-5, "n_exp": -0.23, "d_exp": -0.32},
    "deepseek": {"lr_coef": 0.3188, "lr_exp": -0.1250, "bs_coef": 0.2920, "bs_exp": 0.3271},
    "porian": {"lr_coef": 3.7, "lr_exp": -0.36, "bs_coef": 0.7576, "bs_exp": 0.703},
    "minicpm": {"bs_coef": 2e18, "bs_exp": -6.24},
})  # fmt: skip

# Coefficients that must be positive: power-law leading coefficients go
# through log(), and openai's slope divides its non-positive-lr threshold.
_POSITIVE_FIELDS = {"c", "d", "slope", "bs_coef", "coef", "lr_coef"}


def law_overrides_from_dict(doc: Mapping) -> tuple[LawTable, AuxInputs]:
    """Build a law table (and meituan aux, if present) from a JSON document.

    Accepts either the nested form {"step": {"c": ..., ...}, "microsoft":
    {...}, "meituan": {...}} or a flat fit-result document carrying
    c/alpha/beta/d/gamma at top level, which is treated as a step-law
    override so fitted laws can be fed straight back into prediction. A
    flat document's other keys (ci, meta, seed, ...) are ignored, but one
    that also names a law is refused: that law's override would be lost.
    Each law, meituan too, accepts only its own coefficient names. Every
    value must be a finite number, and leading coefficients positive;
    meituan's four values are the returned AuxInputs' to check. The
    table returned is a read-only copy; DEFAULT_LAWS never changes.
    """
    if not isinstance(doc, Mapping):
        raise ArgumentError("law overrides must be a JSON object")
    step_keys = DEFAULT_LAWS["step"].keys()
    if step_keys <= doc.keys():
        named = [name for name in doc if name in LAW_METHODS]
        if named:
            raise ArgumentError(f"flat fit document also overrides law {named[0]!r:.40}")
        doc = {"step": {k: doc[k] for k in step_keys}}

    laws = {name: dict(p) for name, p in DEFAULT_LAWS.items()}
    meituan: tuple[float, float, float, float] | None = None
    for name, params in doc.items():
        if name != "meituan" and name not in laws:
            raise ArgumentError(f"unknown law {name!r:.40} in overrides")
        if not isinstance(params, Mapping):
            raise ArgumentError(f"overrides for law {name!r} must be a JSON object")
        if name == "meituan":
            if any(k not in params for k in _MEITUAN_KEYS):
                raise ArgumentError("meituan overrides need lambda, alpha, lambda_b, alpha_b")
            meituan = tuple(params[k] for k in _MEITUAN_KEYS)
        unknown = set(params) - set(_MEITUAN_KEYS if name == "meituan" else laws[name])
        if unknown:
            raise ArgumentError(f"unknown keys {sorted(unknown)!r:.40} for law {name!r}")
        if name != "meituan":
            for k, v in params.items():
                sign = "positive" if k in _POSITIVE_FIELDS else ""
                laws[name][k] = check_number(v, f"{name}.{k}", sign)
    return _table(laws), AuxInputs(meituan_params=meituan)


def load_law_overrides(raw) -> tuple[LawTable, AuxInputs]:
    """Parse law-override JSON bytes; see law_overrides_from_dict."""
    return law_overrides_from_dict(decode_json(raw, "law overrides"))


# --- evaluation ------------------------------------------------------------


def _powerlaw(coef: float, *terms: tuple[float, float]) -> float:
    # coef * prod(base**exp) evaluated as exp(log coef + sum(exp * log base))
    acc = math.log(coef)
    for base, exponent in terms:
        acc += exponent * math.log(base)
    try:
        value = math.exp(acc)
    except OverflowError:  # an override exponent can push acc past ~709
        value = math.inf
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"power-law evaluation not finite (log value {acc})")
    return value


def step_law(scale: ModelScale, params: Mapping[str, float] | None = None) -> Prediction:
    """Evaluate the step law at (n_params, d_tokens).

    Uses the total non-vocabulary parameter count even for MoE models;
    batch size depends on d_tokens alone.
    """
    p = params if params is not None else DEFAULT_LAWS["step"]
    lr = _powerlaw(p["c"], (scale.n_params, p["alpha"]), (scale.d_tokens, p["beta"]))
    bs = _powerlaw(p["d"], (scale.d_tokens, p["gamma"]))
    return Prediction(lr=lr, bs_tokens=bs, method="step")


def compute_budget(
    scale: ModelScale, flops_factor: float = DEFAULT_FLOPS_FACTOR, use_active: bool = False
) -> float:
    """FLOPs budget C = flops_factor * N * D.

    N is n_params, or n_active when use_active is set. The factor defaults
    to the conventional 6 but stays caller-configurable.
    """
    check_number(flops_factor, "flops_factor", "positive")
    if use_active:
        if scale.n_active is None:
            raise ArgumentError("use_active requires n_active on the scale")
        n_eff = scale.n_active
    else:
        n_eff = scale.n_params
    flops = flops_factor * n_eff * scale.d_tokens
    if flops == math.inf:  # valid factors can still overflow a float
        raise DomainError(f"compute budget {flops_factor} * N * D overflows a float")
    return check_number(flops, "flops", "positive")


def baseline_predict(
    method: str,
    scale: ModelScale,
    budget: float | None = None,
    aux: AuxInputs | None = None,
    laws: LawTable | None = None,
) -> Prediction:
    """Evaluate one of the published baseline rules.

    deepseek needs a compute budget (FLOPs, as compute_budget returns
    them); the openai/minicpm/meituan batch-size rules need
    aux.expected_loss; meituan additionally needs its coefficient
    quadruple. laws is a table shaped like DEFAULT_LAWS.
    """
    if budget is not None:
        budget = check_number(budget, "flops", "positive")
    aux = aux if aux is not None else AuxInputs()
    lib = laws if laws is not None else DEFAULT_LAWS

    if method == "step":
        return step_law(scale, lib["step"])
    if method == "openai":
        p = lib["openai"]
        lr = p["intercept"] - p["slope"] * math.log(scale.n_params)
        if lr <= 0:
            threshold = math.exp(p["intercept"] / p["slope"])
            raise DomainError(
                f"openai learning rate is non-positive for n_params >= "
                f"{threshold:.6e} (got {scale.n_params:.6e})"
            )
        bs = _powerlaw(p["bs_coef"], (_require_loss(aux, method), p["bs_exp"]))
        return Prediction(lr=lr, bs_tokens=bs, method=method)
    if method == "microsoft":
        p = lib["microsoft"]
        lr = _powerlaw(p["coef"], (scale.n_params, p["n_exp"]), (scale.d_tokens, p["d_exp"]))
        return Prediction(lr=lr, bs_tokens=None, method=method)
    if method == "deepseek":
        if budget is None:
            raise ArgumentError("deepseek law requires a compute budget")
        p = lib["deepseek"]
        lr = _powerlaw(p["lr_coef"], (budget, p["lr_exp"]))
        bs = _powerlaw(p["bs_coef"], (budget, p["bs_exp"]))
        return Prediction(lr=lr, bs_tokens=bs, method=method)
    if method == "porian":
        p = lib["porian"]
        lr = _powerlaw(p["lr_coef"], (scale.n_params, p["lr_exp"]))
        bs = _powerlaw(p["bs_coef"], (scale.n_params, p["bs_exp"]))
        return Prediction(lr=lr, bs_tokens=bs, method=method)
    if method == "minicpm":
        p = lib["minicpm"]
        bs = _powerlaw(p["bs_coef"], (_require_loss(aux, method), p["bs_exp"]))
        return Prediction(lr=None, bs_tokens=bs, method=method)
    if method == "meituan":
        if aux.meituan_params is None:
            raise ArgumentError("meituan law requires meituan_params")
        lam, alpha, lam_b, alpha_b = aux.meituan_params
        loss = _require_loss(aux, method)
        lr = _powerlaw(lam, (loss, -alpha))
        bs = _powerlaw(lam_b, (loss, -1.0 / alpha_b))
        return Prediction(lr=lr, bs_tokens=bs, method=method)
    raise ArgumentError(f"unknown method {method!r:.40}; expected one of {LAW_METHODS}")


def _require_loss(aux: AuxInputs, method: str) -> float:
    if aux.expected_loss is None:
        raise ArgumentError(f"{method} batch-size rule requires expected_loss")
    return aux.expected_loss


def _nearest(values: tuple, logs: tuple[float, ...], q: float):
    """The node of values (whose logs are logs) nearest log value q, by the
    rule GridSpec states: the first node at the least float distance."""
    i = bisect.bisect_left(logs, q)
    if i == len(logs) or (i > 0 and q - logs[i - 1] <= logs[i] - q):
        i -= 1  # the nearest lies below q; an earlier node may round to its distance
        while i > 0 and q - logs[i - 1] == q - logs[i]:
            i -= 1
    return values[i]


def snap_to_grid(p: Prediction, grid: GridSpec) -> Prediction:
    """Map lr and bs to the nearest grid nodes in log space (see GridSpec).

    Ties break toward the smaller value (undershooting the learning rate
    is the safer direction); values beyond the grid clamp to its
    endpoints. Snapping an already snapped prediction is a no-op.
    """
    lr, bs = p.lr, p.bs_tokens
    if lr is not None:
        lr = _nearest(grid.lr_values, grid.log_lr, math.log(lr))
    if bs is not None:
        bs = _nearest(grid.bs_values, grid.log_bs, math.log(bs))
    return Prediction(lr=lr, bs_tokens=bs, method=p.method, snapped=True)
