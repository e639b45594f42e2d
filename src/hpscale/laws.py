"""Closed-form hyperparameter rules for LLM pre-training.

Implements the step power law for optimal peak learning rate and token
batch size,

    lr(N, D) = c * N**alpha * D**beta        (c=1.79, alpha=-0.713, beta=0.307)
    bs(D)    = d * D**gamma                  (d=0.58,  gamma=0.571)

together with six published baseline rules (openai, microsoft, deepseek,
porian, minicpm, meituan), compute-budget derivation, snapping of
predictions onto the standard sweep grid, and warmup+cosine learning-rate
schedule evaluation.

All evaluation happens in log space (exp of a linear combination of logs)
so predictions stay finite out to D ~ 1e13 and beyond.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import ArgumentError, DomainError

LAW_METHODS = ("step", "openai", "microsoft", "deepseek", "porian", "minicpm", "meituan")


@dataclass(frozen=True)
class ModelScale:
    """Training budget of one run family.

    n_params counts non-vocabulary parameters; for MoE models this is the
    total count, not the activated count (n_active carries the latter).
    flops_per_token is the optional non-embedding FLOPs/token figure.
    """

    n_params: float
    d_tokens: float
    n_active: float | None = None
    flops_per_token: float | None = None

    def __post_init__(self):
        if not (self.n_params > 0):
            raise ArgumentError(f"n_params must be positive, got {self.n_params}")
        if not (self.d_tokens > 0):
            raise ArgumentError(f"d_tokens must be positive, got {self.d_tokens}")
        if self.n_active is not None and not (0 < self.n_active <= self.n_params):
            raise ArgumentError(
                f"n_active must lie in (0, n_params], got {self.n_active}"
            )
        if self.flops_per_token is not None and not (self.flops_per_token > 0):
            raise ArgumentError(
                f"flops_per_token must be positive, got {self.flops_per_token}"
            )


@dataclass(frozen=True)
class ComputeBudget:
    """Total training compute in FLOPs."""

    flops: float

    def __post_init__(self):
        if not (self.flops > 0):
            raise ArgumentError(f"flops must be positive, got {self.flops}")


@dataclass(frozen=True)
class AuxInputs:
    """Optional side inputs required by some baseline rules.

    expected_loss is the cross-entropy value consumed by the
    loss-parameterized batch-size rules; meituan_params is the
    (lam, alpha, lam_b, alpha_b) quadruple of the meituan law.
    """

    expected_loss: float | None = None
    meituan_params: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.expected_loss is not None and not (self.expected_loss > 0):
            raise ArgumentError(
                f"expected_loss must be positive, got {self.expected_loss}"
            )
        if self.meituan_params is not None:
            if len(self.meituan_params) != 4 or not all(
                p > 0 for p in self.meituan_params
            ):
                raise ArgumentError(
                    "meituan_params must be four positive numbers "
                    f"(lam, alpha, lam_b, alpha_b), got {self.meituan_params}"
                )


@dataclass(frozen=True)
class Prediction:
    """Recommended (learning rate, batch size) from one law.

    lr is absent only for the minicpm rule, which defines no learning-rate
    formula; bs_tokens is absent only for rules without a batch-size
    formula (microsoft).
    """

    lr: float | None
    bs_tokens: float | None
    method: str
    snapped: bool = False

    def __post_init__(self):
        if self.lr is not None and not (self.lr > 0):
            raise ArgumentError(f"lr must be positive, got {self.lr}")
        if self.bs_tokens is not None and not (self.bs_tokens > 0):
            raise ArgumentError(f"bs_tokens must be positive, got {self.bs_tokens}")
        if self.lr is None and self.bs_tokens is None:
            raise ArgumentError("prediction must carry at least one of lr, bs")


_GEOM_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Geometric sweep grid for learning rate and batch size.

    Both value sets must be strictly increasing with a constant ratio
    (within 1e-12 relative), matching the sweep design: learning rates
    2**e for e = -10.5, -10.0, ..., -7.0 and batch sizes from 32,768
    growing by sqrt(2) up to 4,194,304.
    """

    lr_values: tuple[float, ...]
    bs_values: tuple[float, ...]

    def __post_init__(self):
        for name, values in (("lr_values", self.lr_values), ("bs_values", self.bs_values)):
            if not values:
                raise ArgumentError(f"{name} must be non-empty")
            if any(v <= 0 for v in values):
                raise ArgumentError(f"{name} must be positive")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ArgumentError(f"{name} must be strictly increasing")
            ratios = [b / a for a, b in zip(values, values[1:])]
            if ratios and any(
                abs(r / ratios[0] - 1.0) > _GEOM_RATIO_TOL for r in ratios
            ):
                raise ArgumentError(f"{name} must be geometric (constant ratio)")

    @classmethod
    def default(cls) -> "GridSpec":
        """The standard sweep grid: 8 learning rates, 15 batch sizes."""
        lrs = tuple(2.0 ** (-10.5 + 0.5 * k) for k in range(8))
        bss = tuple(32768.0 * 2.0 ** (k / 2.0) for k in range(15))
        return cls(lrs, bss)


@dataclass(frozen=True)
class ScheduleSpec:
    """Warmup + cosine decay schedule.

    min_mode "fixed_min" ends at lr_min_fixed (default 1e-5) regardless of
    the peak; "conventional" ends at lr_max / 10.
    """

    lr_max: float
    total_steps: int
    warmup_steps: int = 2000
    min_mode: str = "fixed_min"
    lr_min_fixed: float = 1e-5

    def __post_init__(self):
        if self.min_mode not in ("fixed_min", "conventional"):
            raise ArgumentError(f"unknown min_mode {self.min_mode!r}")
        if not (self.lr_max > 0):
            raise ArgumentError(f"lr_max must be positive, got {self.lr_max}")
        if not (0 < self.warmup_steps < self.total_steps):
            raise ArgumentError(
                f"need 0 < warmup_steps < total_steps, got "
                f"{self.warmup_steps} / {self.total_steps}"
            )
        if not (self.lr_max > self.lr_min):
            raise ArgumentError(
                f"lr_max {self.lr_max} must exceed lr_min {self.lr_min}"
            )

    @property
    def lr_min(self) -> float:
        if self.min_mode == "fixed_min":
            return self.lr_min_fixed
        return self.lr_max / 10.0


# --- law parameterizations -------------------------------------------------
#
# Every rule is a power law (or log-linear rule) evaluated in log space.
# The dataclasses below hold the published coefficients; each one can be
# overridden through the JSON documents accepted by load_law_overrides.


@dataclass(frozen=True)
class StepParams:
    c: float = 1.79
    alpha: float = -0.713
    beta: float = 0.307
    d: float = 0.58
    gamma: float = 0.571


@dataclass(frozen=True)
class OpenaiParams:
    # lr = intercept - slope * ln(N); bs = bs_coef * L**bs_exp
    intercept: float = 3.239e-3
    slope: float = 1.395e-4
    bs_coef: float = 2e18
    bs_exp: float = -4.76190


@dataclass(frozen=True)
class MicrosoftParams:
    # Leading coefficient is configurable: the published magnitude gives
    # lr ~ 3e-11 at (1e9, 1e11) and may be a transcription artifact.
    coef: float = 1.3192e-5
    n_exp: float = -0.23
    d_exp: float = -0.32


@dataclass(frozen=True)
class DeepseekParams:
    lr_coef: float = 0.3188
    lr_exp: float = -0.1250
    bs_coef: float = 0.2920
    bs_exp: float = 0.3271


@dataclass(frozen=True)
class PorianParams:
    lr_coef: float = 3.7
    lr_exp: float = -0.36
    bs_coef: float = 0.7576
    bs_exp: float = 0.703


@dataclass(frozen=True)
class MinicpmParams:
    bs_coef: float = 2e18
    bs_exp: float = -6.24


@dataclass(frozen=True)
class LawLibrary:
    """Coefficient set for every law, with override support."""

    step: StepParams = field(default_factory=StepParams)
    openai: OpenaiParams = field(default_factory=OpenaiParams)
    microsoft: MicrosoftParams = field(default_factory=MicrosoftParams)
    deepseek: DeepseekParams = field(default_factory=DeepseekParams)
    porian: PorianParams = field(default_factory=PorianParams)
    minicpm: MinicpmParams = field(default_factory=MinicpmParams)


DEFAULT_LAWS = LawLibrary()

_OVERRIDE_FIELDS = {
    "step": ("c", "alpha", "beta", "d", "gamma"),
    "openai": ("intercept", "slope", "bs_coef", "bs_exp"),
    "microsoft": ("coef", "n_exp", "d_exp"),
    "deepseek": ("lr_coef", "lr_exp", "bs_coef", "bs_exp"),
    "porian": ("lr_coef", "lr_exp", "bs_coef", "bs_exp"),
    "minicpm": ("bs_coef", "bs_exp"),
}
# Coefficients that must be positive: power-law leading coefficients go
# through log(), and openai's slope divides its non-positive-lr threshold.
_POSITIVE_FIELDS = {"c", "d", "slope", "bs_coef", "coef", "lr_coef"}


def _override_value(law: str, key: str, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ArgumentError(f"{law}.{key} must be a finite number, got {value!r}")
    if key in _POSITIVE_FIELDS and not number > 0:
        raise ArgumentError(f"{law}.{key} must be positive, got {value!r}")
    return number


def law_overrides_from_dict(doc: Mapping) -> tuple[LawLibrary, AuxInputs]:
    """Build a LawLibrary (and meituan aux, if present) from a JSON document.

    Accepts either the nested form {"step": {"c": ..., ...}, "microsoft":
    {...}, "meituan": {...}} or a flat fit-result document carrying
    c/alpha/beta/d/gamma at top level, which is treated as a step-law
    override so fitted laws can be fed straight back into prediction.
    Every value must be a finite number, and leading coefficients positive.
    """
    if not isinstance(doc, Mapping):
        raise ArgumentError("law overrides must be a JSON object")
    if {"c", "alpha", "beta", "d", "gamma"} <= set(doc.keys()):
        doc = {"step": {k: doc[k] for k in ("c", "alpha", "beta", "d", "gamma")}}

    laws = LawLibrary()
    meituan: tuple[float, float, float, float] | None = None
    for name, params in doc.items():
        if name != "meituan" and name not in _OVERRIDE_FIELDS:
            raise ArgumentError(f"unknown law {name!r} in overrides")
        if not isinstance(params, Mapping):
            raise ArgumentError(f"overrides for law {name!r} must be a JSON object")
        if name == "meituan":
            keys = ("lambda", "alpha", "lambda_b", "alpha_b")
            if any(k not in params for k in keys):
                raise ArgumentError(
                    "meituan overrides need lambda, alpha, lambda_b, alpha_b"
                )
            meituan = tuple(_override_value(name, k, params[k]) for k in keys)
            continue
        allowed = _OVERRIDE_FIELDS[name]
        unknown = set(params) - set(allowed)
        if unknown:
            raise ArgumentError(f"unknown keys {sorted(unknown)} for law {name!r}")
        current = getattr(laws, name)
        updated = replace(
            current, **{k: _override_value(name, k, v) for k, v in params.items()}
        )
        laws = replace(laws, **{name: updated})
    aux = AuxInputs(meituan_params=meituan)
    return laws, aux


def load_law_overrides(path) -> tuple[LawLibrary, AuxInputs]:
    """Parse a law-override JSON file; see law_overrides_from_dict."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"invalid JSON in {path}: {exc}") from exc
    return law_overrides_from_dict(doc)


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


def step_law(scale: ModelScale, params: StepParams | None = None) -> Prediction:
    """Evaluate the step law at (n_params, d_tokens).

    Uses the total non-vocabulary parameter count even for MoE models;
    batch size depends on d_tokens alone.
    """
    p = params if params is not None else DEFAULT_LAWS.step
    lr = _powerlaw(p.c, (scale.n_params, p.alpha), (scale.d_tokens, p.beta))
    bs = _powerlaw(p.d, (scale.d_tokens, p.gamma))
    return Prediction(lr=lr, bs_tokens=bs, method="step")


def compute_budget(
    scale: ModelScale, flops_factor: float = 6.0, use_active: bool = False
) -> ComputeBudget:
    """FLOPs budget C = flops_factor * N * D.

    N is n_params, or n_active when use_active is set. The factor defaults
    to the conventional 6 but stays caller-configurable.
    """
    if not (flops_factor > 0):
        raise ArgumentError(f"flops_factor must be positive, got {flops_factor}")
    if use_active:
        if scale.n_active is None:
            raise ArgumentError("use_active requires n_active on the scale")
        n_eff = scale.n_active
    else:
        n_eff = scale.n_params
    return ComputeBudget(flops=flops_factor * n_eff * scale.d_tokens)


def baseline_predict(
    method: str,
    scale: ModelScale,
    budget: ComputeBudget | None = None,
    aux: AuxInputs | None = None,
    laws: LawLibrary | None = None,
) -> Prediction:
    """Evaluate one of the published baseline rules.

    deepseek needs a compute budget; the openai/minicpm/meituan batch-size
    rules need aux.expected_loss; meituan additionally needs its
    coefficient quadruple.
    """
    aux = aux if aux is not None else AuxInputs()
    lib = laws if laws is not None else DEFAULT_LAWS

    if method == "step":
        return step_law(scale, lib.step)
    if method == "openai":
        p = lib.openai
        lr = p.intercept - p.slope * math.log(scale.n_params)
        if lr <= 0:
            threshold = math.exp(p.intercept / p.slope)
            raise DomainError(
                f"openai learning rate is non-positive for n_params >= "
                f"{threshold:.6e} (got {scale.n_params:.6e})"
            )
        bs = _powerlaw(p.bs_coef, (_require_loss(aux, method), p.bs_exp))
        return Prediction(lr=lr, bs_tokens=bs, method=method)
    if method == "microsoft":
        p = lib.microsoft
        lr = _powerlaw(p.coef, (scale.n_params, p.n_exp), (scale.d_tokens, p.d_exp))
        return Prediction(lr=lr, bs_tokens=None, method=method)
    if method == "deepseek":
        if budget is None:
            raise ArgumentError("deepseek law requires a compute budget")
        p = lib.deepseek
        lr = _powerlaw(p.lr_coef, (budget.flops, p.lr_exp))
        bs = _powerlaw(p.bs_coef, (budget.flops, p.bs_exp))
        return Prediction(lr=lr, bs_tokens=bs, method=method)
    if method == "porian":
        p = lib.porian
        lr = _powerlaw(p.lr_coef, (scale.n_params, p.lr_exp))
        bs = _powerlaw(p.bs_coef, (scale.n_params, p.bs_exp))
        return Prediction(lr=lr, bs_tokens=bs, method=method)
    if method == "minicpm":
        p = lib.minicpm
        bs = _powerlaw(p.bs_coef, (_require_loss(aux, method), p.bs_exp))
        return Prediction(lr=None, bs_tokens=bs, method=method)
    if method == "meituan":
        if aux.meituan_params is None:
            raise ArgumentError("meituan law requires meituan_params")
        lam, alpha, lam_b, alpha_b = aux.meituan_params
        loss = _require_loss(aux, method)
        lr = _powerlaw(lam, (loss, -alpha))
        bs = _powerlaw(lam_b, (loss, -1.0 / alpha_b))
        return Prediction(lr=lr, bs_tokens=bs, method=method)
    raise ArgumentError(f"unknown method {method!r}; expected one of {LAW_METHODS}")


def _require_loss(aux: AuxInputs, method: str) -> float:
    if aux.expected_loss is None:
        raise ArgumentError(f"{method} batch-size rule requires expected_loss")
    return aux.expected_loss


def _snap_value(value: float, grid: tuple[float, ...]) -> float:
    log_v = math.log(value)
    best = grid[0]
    best_dist = abs(log_v - math.log(grid[0]))
    for g in grid[1:]:
        dist = abs(log_v - math.log(g))
        if dist < best_dist:  # ties keep the earlier (smaller) value
            best, best_dist = g, dist
    return best


def snap_to_grid(p: Prediction, grid: GridSpec) -> Prediction:
    """Map lr and bs to the nearest grid values in log space.

    Ties break toward the smaller value (undershooting the learning rate
    is the safer direction); values beyond the grid clamp to its
    endpoints. Snapping an already snapped prediction is a no-op.
    """
    lr = _snap_value(p.lr, grid.lr_values) if p.lr is not None else None
    bs = _snap_value(p.bs_tokens, grid.bs_values) if p.bs_tokens is not None else None
    return Prediction(lr=lr, bs_tokens=bs, method=p.method, snapped=True)


def schedule_value(step: int, spec: ScheduleSpec) -> float:
    """Learning rate at an integer step of the warmup+cosine schedule.

    Linear warmup to lr_max over warmup_steps, then cosine decay to
    spec.lr_min at total_steps.
    """
    if step < 0:
        raise ArgumentError(f"step must be >= 0, got {step}")
    if step > spec.total_steps:
        raise ArgumentError(
            f"step {step} exceeds total_steps {spec.total_steps}"
        )
    if step <= spec.warmup_steps:
        return spec.lr_max * step / spec.warmup_steps
    lr_min = spec.lr_min
    phase = (step - spec.warmup_steps) / (spec.total_steps - spec.warmup_steps)
    return lr_min + 0.5 * (spec.lr_max - lr_min) * (1.0 + math.cos(math.pi * phase))
