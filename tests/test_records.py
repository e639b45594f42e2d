"""The eight records on errors.Record keep the behaviour they had as
frozen dataclasses: the same constructor signature, repr, eq and hash,
no setting or deleting a field, and copies that pass the checks again.

The signature and repr strings were recorded on the dataclass records.
"""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from hpscale.errors import ArgumentError, Record
from hpscale.fitting import FitResult, OptimumObservation
from hpscale.laws import AuxInputs, GridSpec, ModelScale, Prediction
from hpscale.synth import ObservationSpec, SurfaceSpec

_CI = {"c": (1.5, 2.0)}
_SAMPLES = {"log_c": np.array([0.5])}

# class: (build one, its repr, a change that makes a different value, a
# change its checks refuse or None, the signature)
RECORDS = {
    FitResult: (
        lambda: FitResult(1.79, -0.713, 0.307, 0.58, 0.571, _CI, 10, 3, 1, _SAMPLES),
        "FitResult(c=1.79, alpha=-0.713, beta=0.307, d=0.58, gamma=0.571, ci={'c': (1.5, 2.0)}, "
        "resamples=10, seed=3, redraws=1, samples={'log_c': array([0.5])})",
        {"redraws": 2},
        None,
        "(c: 'float', alpha: 'float', beta: 'float', d: 'float', gamma: 'float', "
        "ci: 'dict[str, tuple[float, float]]', resamples: 'int', seed: 'int', redraws: 'int', "
        "samples: 'dict[str, np.ndarray]') -> None",
    ),
    OptimumObservation: (
        lambda: OptimumObservation(1e9, 1e10, 1e-3, 262144),
        "OptimumObservation(n_params=1000000000.0, d_tokens=10000000000.0, opt_lr=0.001, "
        "opt_bs_tokens=262144.0)",
        {"opt_lr": 2e-3},
        {"opt_bs_tokens": 0},
        "(n_params: 'float', d_tokens: 'float', opt_lr: 'float', opt_bs_tokens: 'float') -> None",
    ),
    ModelScale: (
        lambda: ModelScale(1e9, 1e10, 5e8),
        "ModelScale(n_params=1000000000.0, d_tokens=10000000000.0, n_active=500000000.0)",
        {"n_active": None},
        {"n_active": 2e9},
        "(n_params: 'float', d_tokens: 'float', n_active: 'float | None' = None) -> None",
    ),
    AuxInputs: (
        lambda: AuxInputs(2.5, [0.1, 0.2, 0.3, 0.4]),
        "AuxInputs(expected_loss=2.5, meituan_params=(0.1, 0.2, 0.3, 0.4))",
        {"expected_loss": 3.0},
        {"meituan_params": (1.0, 2.0)},
        "(expected_loss: 'float | None' = None, "
        "meituan_params: 'tuple[float, float, float, float] | None' = None) -> None",
    ),
    Prediction: (
        lambda: Prediction(1e-3, None, "step"),
        "Prediction(lr=0.001, bs_tokens=None, method='step', snapped=False)",
        {"snapped": True},
        {"lr": None},
        "(lr: 'float | None', bs_tokens: 'float | None', method: 'str', "
        "snapped: 'bool' = False) -> None",
    ),
    GridSpec: (
        lambda: GridSpec([1e-3, 2e-3], (32768, 65536)),
        "GridSpec(lr_values=(0.001, 0.002), bs_values=(32768, 65536))",
        {"bs_values": (32768, 131072)},
        {"lr_values": (2e-3, 1e-3)},
        "(lr_values: 'tuple[float, ...]', bs_values: 'tuple[float, ...]') -> None",
    ),
    SurfaceSpec: (
        lambda: SurfaceSpec(1e-3, 2e5, val_offset=0.05, scale=ModelScale(2e9, 3e10)),
        "SurfaceSpec(opt_lr=0.001, opt_bs=200000.0, curvature_lr=1.0, curvature_bs=1.0, "
        "cross_term=0.0, base_loss=2.0, noise_sigma=0.0, seed=0, val_offset=0.05, "
        "scale=ModelScale(n_params=2000000000.0, d_tokens=30000000000.0, n_active=None))",
        {"seed": 1},
        {"seed": -1},
        "(opt_lr: 'float', opt_bs: 'float', curvature_lr: 'float' = 1.0, "
        "curvature_bs: 'float' = 1.0, cross_term: 'float' = 0.0, base_loss: 'float' = 2.0, "
        "noise_sigma: 'float' = 0.0, seed: 'int' = 0, val_offset: 'float | None' = None, "
        "scale: 'ModelScale' = ModelScale(n_params=1000000000.0, d_tokens=100000000000.0, "
        "n_active=None)) -> None",
    ),
    ObservationSpec: (
        lambda: ObservationSpec(
            n_values=[1e8, 1e9], d_values=(1e9, 1e10), noise_sigma=0.1, seed=7, snap=True
        ),
        "ObservationSpec(c=1.79, alpha=-0.713, beta=0.307, d_coef=0.58, gamma=0.571, "
        "n_values=(100000000.0, 1000000000.0), d_values=(1000000000.0, 10000000000.0), "
        "noise_sigma=0.1, seed=7, snap=True)",
        {"seed": 8},
        {"seed": -1},
        "(c: 'float' = 1.79, alpha: 'float' = -0.713, beta: 'float' = 0.307, "
        "d_coef: 'float' = 0.58, gamma: 'float' = 0.571, n_values: 'tuple[float, ...]' = (), "
        "d_values: 'tuple[float, ...]' = (), noise_sigma: 'float' = 0.0, seed: 'int' = 0, "
        "snap: 'bool' = False) -> None",
    ),
}
CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@CLASSES
def test_signature_is_kept(cls):
    assert str(inspect.signature(cls)) == RECORDS[cls][4]
    assert issubclass(cls, Record)
    assert tuple(inspect.signature(cls).parameters) == cls._fields


@CLASSES
def test_repr_is_kept(cls):
    assert repr(RECORDS[cls][0]()) == RECORDS[cls][1]


@CLASSES
def test_eq_and_hash_are_over_the_fields(cls):
    build, _, change, _, _ = RECORDS[cls]
    record, same, other = build(), build(), build().replace(**change)
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != tuple(getattr(record, name) for name in cls._fields)
    if cls is FitResult:  # its ci and samples are dicts
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(same)
        assert len({record, same, other}) == 2


@CLASSES
def test_fields_cannot_be_set_or_deleted(cls):
    record = RECORDS[cls][0]()
    for name in (cls._fields[0], "unknown"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, name)
    assert repr(record) == RECORDS[cls][1]


@CLASSES
def test_replace_builds_through_the_constructor(cls):
    build, _, change, refused, _ = RECORDS[cls]
    values = {name: getattr(build(), name) for name in cls._fields}
    assert build().replace(**change) == cls(**{**values, **change})
    assert build().replace() == build()
    if refused is not None:
        with pytest.raises(ArgumentError):
            build().replace(**refused)
    with pytest.raises(TypeError, match=f"^{cls.__name__}.__init__"):
        build().replace(unknown=1)


def test_replace_holds_the_checked_floats():
    spec = SurfaceSpec(1e-3, 2e5).replace(opt_bs=262144, noise_sigma=np.float32(0.5))
    assert type(spec.opt_bs) is float and type(spec.noise_sigma) is float
    assert type(ModelScale(1e9, 1e10).replace(n_params=2).n_params) is float


@CLASSES
@pytest.mark.parametrize(
    "clone",
    [lambda record: pickle.loads(pickle.dumps(record)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_are_equal_records(cls, clone):
    record = RECORDS[cls][0]()
    copied = clone(record)
    assert type(copied) is cls and copied == record and repr(copied) == repr(record)
    if cls is GridSpec:
        assert (copied.log_lr, copied.log_bs) == (record.log_lr, record.log_bs)


def test_grid_holds_its_logs_outside_its_fields():
    grid = GridSpec([1e-3, 2e-3], (32768, 65536))
    assert grid.log_lr == (math.log(1e-3), math.log(2e-3))
    assert grid.log_bs == (math.log(32768), math.log(65536))
    assert grid._fields == ("lr_values", "bs_values") and "log" not in repr(grid)
