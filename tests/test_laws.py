import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpscale import (
    ArgumentError,
    AuxInputs,
    DomainError,
    GridSpec,
    ModelScale,
    Prediction,
    baseline_predict,
    compute_budget,
    law_overrides_from_dict,
    load_law_overrides,
    snap_to_grid,
    step_law,
)
from hpscale.laws import _POSITIVE_FIELDS, DEFAULT_LAWS, LAW_METHODS

# Expected values frozen from 50-digit evaluation of the closed forms.
STEP_CASES = [
    (6.51e9, 1.0e10, 2.1172385170686054e-4, 297459.60271499162),
    (6.51e9, 1.3e11, 4.6531858127535448e-4, 1286736.580747063),
    (4.29e8, 8.0e9, 1.3745470422781061e-3, 261873.99652189916),
]


@pytest.mark.parametrize("n, d, lr, bs", STEP_CASES)
def test_step_law_frozen_points(n, d, lr, bs):
    pred = step_law(ModelScale(n, d))
    assert pred.lr == pytest.approx(lr, rel=1e-12)
    assert pred.bs_tokens == pytest.approx(bs, rel=1e-12)
    assert pred.method == "step"
    assert not pred.snapped


def test_step_law_reference_optima():
    # 6.5B/1e10 sweep found (2.12e-4, 294912); the law lands within a few
    # per-mille of both.
    pred = step_law(ModelScale(6.51e9, 1.0e10))
    assert pred.lr == pytest.approx(2.12e-4, rel=0.01)
    assert pred.bs_tokens == pytest.approx(294912, rel=0.03)


def test_step_law_unit_inputs_expose_coefficients():
    pred = step_law(ModelScale(1.0, 1.0))
    assert pred.lr == pytest.approx(1.79, rel=1e-14)
    assert pred.bs_tokens == pytest.approx(0.58, rel=1e-14)


def test_step_law_monotonicity_on_lattice():
    n_grid = [math.exp(v) for v in _linspace(math.log(1e7), math.log(1e12), 100)]
    d_grid = [math.exp(v) for v in _linspace(math.log(1e8), math.log(1e13), 100)]
    lrs_n = [step_law(ModelScale(n, 1e10)).lr for n in n_grid]
    assert all(a > b for a, b in zip(lrs_n, lrs_n[1:]))  # decreasing in N
    lrs_d = [step_law(ModelScale(1e9, d)).lr for d in d_grid]
    assert all(a < b for a, b in zip(lrs_d, lrs_d[1:]))  # increasing in D
    bss = [step_law(ModelScale(1e9, d)).bs_tokens for d in d_grid]
    assert all(a < b for a, b in zip(bss, bss[1:]))


@pytest.mark.parametrize("k", [2.0, 10.0, 100.0])
def test_step_law_power_homogeneity(k):
    base = step_law(ModelScale(3.3e8, 7e9))
    scaled = step_law(ModelScale(k * 3.3e8, 7e9))
    assert scaled.lr / base.lr == pytest.approx(k**-0.713, rel=1e-12)


def test_step_law_bs_independent_of_n():
    a = step_law(ModelScale(1e8, 5e9)).bs_tokens
    b = step_law(ModelScale(9e11, 5e9)).bs_tokens
    assert a == b  # bit-identical


def test_step_law_no_overflow_at_large_scale():
    pred = step_law(ModelScale(1e12, 1e13))
    assert math.isfinite(pred.lr) and math.isfinite(pred.bs_tokens)


# --- baselines ---------------------------------------------------------------


def test_porian_frozen_point():
    pred = baseline_predict("porian", ModelScale(1.07e9, 1e10))
    assert pred.lr == pytest.approx(2.0778948375830036e-3, rel=1e-12)
    assert pred.bs_tokens == pytest.approx(1686928.8347515972, rel=1e-12)


def test_deepseek_frozen_point():
    pred = baseline_predict("deepseek", ModelScale(1e9, 1e10), budget=1e20)
    assert pred.lr == pytest.approx(1.0081341180616793e-3, rel=1e-12)
    assert pred.bs_tokens == pytest.approx(1017144.9599051544, rel=1e-12)


def test_deepseek_requires_budget():
    with pytest.raises(ArgumentError, match="budget"):
        baseline_predict("deepseek", ModelScale(1e9, 1e10))


def test_openai_lr_and_bs():
    aux = AuxInputs(expected_loss=2.2)
    pred = baseline_predict("openai", ModelScale(1e9, 1e10), aux=aux)
    assert pred.lr == pytest.approx(3.4810441574597564e-4, rel=1e-12)
    assert pred.bs_tokens == pytest.approx(4.6821727369647819e16, rel=1e-12)


def test_openai_nonpositive_lr_reports_threshold():
    # the lr rule crosses zero at N = exp(intercept / slope)
    threshold = math.exp(3.239e-3 / 1.395e-4)
    assert threshold == pytest.approx(1.212624553259057e10, rel=1e-12)
    with pytest.raises(DomainError, match="1.21262"):
        baseline_predict(
            "openai", ModelScale(2e10, 1e10), aux=AuxInputs(expected_loss=2.0)
        )


def test_openai_requires_expected_loss():
    with pytest.raises(ArgumentError, match="expected_loss"):
        baseline_predict("openai", ModelScale(1e9, 1e10))


def test_microsoft_lr_only():
    pred = baseline_predict("microsoft", ModelScale(1e9, 1e11))
    assert pred.lr == pytest.approx(3.3908661166286851e-11, rel=1e-12)
    assert pred.bs_tokens is None


def test_minicpm_bs_only():
    pred = baseline_predict(
        "minicpm", ModelScale(1e9, 1e10), aux=AuxInputs(expected_loss=2.2)
    )
    assert pred.lr is None
    assert pred.bs_tokens == pytest.approx(1.4598642294592105e16, rel=1e-12)


def test_meituan_rules():
    aux = AuxInputs(expected_loss=2.0, meituan_params=(0.01, 2.0, 1e5, 0.5))
    pred = baseline_predict("meituan", ModelScale(1e9, 1e10), aux=aux)
    assert pred.lr == pytest.approx(0.0025, rel=1e-12)
    assert pred.bs_tokens == pytest.approx(25000.0, rel=1e-12)


def test_meituan_requires_params_and_loss():
    with pytest.raises(ArgumentError, match="meituan_params"):
        baseline_predict(
            "meituan", ModelScale(1e9, 1e10), aux=AuxInputs(expected_loss=2.0)
        )
    with pytest.raises(ArgumentError, match="expected_loss"):
        baseline_predict(
            "meituan",
            ModelScale(1e9, 1e10),
            aux=AuxInputs(meituan_params=(0.01, 2.0, 1e5, 0.5)),
        )


def test_unknown_method():
    with pytest.raises(ArgumentError, match="unknown method"):
        baseline_predict("chinchilla", ModelScale(1e9, 1e10))


def test_unknown_method_quotes_a_short_excerpt():
    with pytest.raises(ArgumentError, match="unknown method 'qqq") as info:
        baseline_predict("q" * 100_000, ModelScale(1e9, 1e10))
    assert len(str(info.value)) < 200


# --- compute budget ----------------------------------------------------------


def test_compute_budget_default_factor():
    assert compute_budget(ModelScale(1e9, 1e10)) == pytest.approx(6e19)


def test_compute_budget_active_params():
    scale = ModelScale(6.51e9, 1e10, n_active=7.26e8)
    budget = compute_budget(scale, use_active=True)
    assert budget == pytest.approx(4.356e19, rel=1e-12)
    pred = baseline_predict("deepseek", scale, budget=budget)
    assert pred.lr == pytest.approx(1.118490574969613e-3, rel=1e-12)


def test_compute_budget_errors():
    with pytest.raises(ArgumentError, match="flops_factor"):
        compute_budget(ModelScale(1e9, 1e10), flops_factor=0.0)
    with pytest.raises(ArgumentError, match="n_active"):
        compute_budget(ModelScale(1e9, 1e10), use_active=True)


# --- grid + snapping ---------------------------------------------------------


def test_default_grid_shape():
    grid = GridSpec.default()
    assert len(grid.lr_values) == 8
    assert grid.lr_values[0] == pytest.approx(2.0**-10.5, rel=0)
    assert grid.lr_values[-1] == pytest.approx(2.0**-7, rel=0)
    assert len(grid.bs_values) == 15
    assert grid.bs_values[0] == 32768.0
    assert grid.bs_values[-1] == 4194304.0
    for values in (grid.lr_values, grid.bs_values):
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(abs(r / ratios[0] - 1.0) <= 1e-12 for r in ratios)


def test_default_grid_is_built_once():
    assert GridSpec.default() is GridSpec.default()


def test_grid_validation(fig3_surface):
    with pytest.raises(ArgumentError, match="increasing"):
        GridSpec((2.0, 1.0), (1.0, 2.0))
    # a surface's own axes are a grid, even rounded ones without a constant ratio
    grid = fig3_surface.grid
    assert grid == GridSpec(grid.lr_values, grid.bs_values)
    assert grid.lr_values[:2] == (0.000488, 0.000690)
    with pytest.raises(ArgumentError, match="non-empty"):
        GridSpec((), (1.0,))


@pytest.mark.parametrize(
    "lr_values, bs_values, match",
    [
        ((1.0,), (), "^bs_values must be non-empty$"),
        ((1.0, 1.0), (1.0,), "^lr_values must be strictly increasing$"),
        ((1.0,), (1.0, 3.0, 2.0), "^bs_values must be strictly increasing$"),
        ((0.0, 1.0), (1.0,), "^lr_values must be a positive finite number"),
        ((1.0,), (-2.0, 1.0), "^bs_values must be a positive finite number"),
        (np.array([1e-3, 2e-3]), (1.0,), r"^lr_values must be a list of numbers, got array\("),
        ((1.0,), np.array([1.0, 2.0]), r"^bs_values must be a list of numbers, got array\("),
    ],
    ids=["bs-empty", "lr-repeated", "bs-unsorted", "lr-zero", "bs-negative", "lr-array",
         "bs-array"],
)
def test_grid_rejects_each_axis_rule(lr_values, bs_values, match):
    with pytest.raises(ArgumentError, match=match):
        GridSpec(lr_values, bs_values)


def test_grid_holds_its_axes_as_tuples():
    lr_values, bs_values = [1e-3, 2e-3], [65536, 131072]
    grid = GridSpec(lr_values, bs_values)
    assert hash(grid) == hash(GridSpec((1e-3, 2e-3), (65536, 131072)))
    lr_values.append(1e-4)  # the caller's list is not the grid's
    assert (grid.lr_values, grid.log_lr) == ((1e-3, 2e-3), (math.log(1e-3), math.log(2e-3)))
    # the values are held as given: an int bs axis stays int
    assert [type(v) for v in grid.bs_values] == [int, int]


_UNEVEN = GridSpec((1.0, 2.0, 10.0, 11.0), (1.0, 2.0, 10.0, 11.0))


@pytest.mark.parametrize(
    "value, expected",
    [
        (1.45, 2.0),  # nearer 1.0 on a linear scale, nearer 2.0 in log space
        (4.0, 2.0),
        (5.0, 10.0),
        (10.4, 10.0),
        (0.1, 1.0),
        (100.0, 11.0),
    ],
)
def test_snap_on_uneven_grid_is_nearest_in_log_space(value, expected):
    snapped = snap_to_grid(Prediction(lr=value, bs_tokens=value, method="x"), _UNEVEN)
    assert snapped.lr == expected
    assert snapped.bs_tokens == expected


@given(
    axis=st.lists(st.floats(min_value=1e-6, max_value=1e7), min_size=1, max_size=12, unique=True),
    value=st.floats(min_value=1e-8, max_value=1e9),
)
def test_snap_picks_a_node_no_other_node_beats(axis, value):
    axis = tuple(sorted(axis))
    grid = GridSpec(axis, (1.0,))
    snapped = snap_to_grid(Prediction(lr=value, bs_tokens=None, method="x"), grid)
    assert snapped.lr in axis
    best = abs(math.log(value) - math.log(snapped.lr))
    assert all(abs(math.log(value) - math.log(g)) >= best for g in axis)


def test_snap_to_grid_examples():
    grid = GridSpec.default()
    pred = Prediction(lr=1.374e-3, bs_tokens=262144.0, method="step")
    snapped = snap_to_grid(pred, grid)
    assert snapped.lr == 2.0**-9.5
    assert snapped.bs_tokens == 262144.0
    assert snapped.snapped
    clamped = snap_to_grid(Prediction(lr=1.0, bs_tokens=1e9, method="x"), grid)
    assert clamped.lr == 2.0**-7
    assert clamped.bs_tokens == 4194304.0


def test_snap_tie_breaks_to_smaller_value():
    grid = GridSpec((1.0, 4.0), (1.0, 4.0))
    snapped = snap_to_grid(Prediction(lr=2.0, bs_tokens=2.0, method="x"), grid)
    assert snapped.lr == 1.0
    assert snapped.bs_tokens == 1.0


@given(
    lr=st.floats(min_value=1e-6, max_value=1.0),
    bs=st.floats(min_value=1e3, max_value=1e8),
)
def test_snap_idempotent(lr, bs):
    grid = GridSpec.default()
    once = snap_to_grid(Prediction(lr=lr, bs_tokens=bs, method="x"), grid)
    twice = snap_to_grid(once, grid)
    assert once.lr == twice.lr
    assert once.bs_tokens == twice.bs_tokens


def test_snap_keeps_partial_predictions():
    grid = GridSpec.default()
    snapped = snap_to_grid(Prediction(lr=None, bs_tokens=1e5, method="minicpm"), grid)
    assert snapped.lr is None
    assert snapped.bs_tokens in grid.bs_values


# --- types + overrides -------------------------------------------------------


def test_model_scale_validation():
    with pytest.raises(ArgumentError):
        ModelScale(0.0, 1e10)
    with pytest.raises(ArgumentError):
        ModelScale(1e9, -1.0)
    with pytest.raises(ArgumentError):
        ModelScale(1e9, 1e10, n_active=2e9)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_model_scale_rejects_non_finite(bad):
    for kwargs in (
        {"n_params": bad, "d_tokens": 1e10},
        {"n_params": 1e9, "d_tokens": bad},
        {"n_params": 1e9, "d_tokens": 1e10, "n_active": bad},
    ):
        with pytest.raises(ArgumentError, match="finite|n_active"):
            ModelScale(**kwargs)


def test_prediction_validation():
    with pytest.raises(ArgumentError):
        Prediction(lr=-1.0, bs_tokens=None, method="x")
    with pytest.raises(ArgumentError):
        Prediction(lr=None, bs_tokens=None, method="x")


def test_aux_inputs_validation():
    with pytest.raises(ArgumentError):
        AuxInputs(expected_loss=0.0)
    with pytest.raises(ArgumentError):
        AuxInputs(meituan_params=(1.0, 1.0, 1.0))
    with pytest.raises(ArgumentError):
        AuxInputs(meituan_params=(1.0, -1.0, 1.0, 1.0))


def test_law_overrides_nested():
    laws, aux = law_overrides_from_dict(
        {
            "step": {"c": 2.0, "alpha": -0.7, "beta": 0.3, "d": 0.5, "gamma": 0.6},
            "microsoft": {"coef": 1.0e-3},
            "meituan": {"lambda": 0.01, "alpha": 2.0, "lambda_b": 1e5, "alpha_b": 0.5},
        }
    )
    assert laws["step"]["c"] == 2.0
    assert laws["microsoft"]["coef"] == 1.0e-3
    assert laws["microsoft"]["n_exp"] == -0.23  # untouched default
    assert aux.meituan_params == (0.01, 2.0, 1e5, 0.5)
    pred = step_law(ModelScale(1.0, 1.0), laws["step"])
    assert pred.lr == pytest.approx(2.0, rel=1e-14)


def test_law_overrides_flat_fit_document():
    doc = {"c": 1.5, "alpha": -0.7, "beta": 0.3, "d": 0.6, "gamma": 0.55, "seed": 1}
    laws, _ = load_law_overrides(json.dumps(doc).encode("utf-8"))
    assert laws["step"]["c"] == 1.5
    assert laws["step"]["gamma"] == 0.55


def test_law_overrides_errors():
    with pytest.raises(ArgumentError, match="unknown law"):
        law_overrides_from_dict({"mup": {"coef": 1.0}})
    with pytest.raises(ArgumentError, match="unknown keys"):
        law_overrides_from_dict({"step": {"cc": 1.0}})
    with pytest.raises(ArgumentError, match="lambda"):
        law_overrides_from_dict({"meituan": {"lambda": 1.0}})
    with pytest.raises(ArgumentError, match="JSON object"):
        law_overrides_from_dict({"step": 5})
    with pytest.raises(ArgumentError, match="JSON object"):
        law_overrides_from_dict({"meituan": [1.0, 1.0, 1.0, 1.0]})
    for bad in ("abc", None, [1.0], {"x": 1}, math.nan, math.inf, "inf", 10**400, "2", True):
        with pytest.raises(ArgumentError, match="finite number"):
            law_overrides_from_dict({"step": {"beta": bad}})


# --- the coefficient table ------------------------------------------------------

_TABLE_KEYS = [(law, key) for law, params in DEFAULT_LAWS.items() for key in params]
_PUBLISHED = {law: dict(params) for law, params in DEFAULT_LAWS.items()}
_AT = ModelScale(1e9, 1e10)


def _predict(law, laws=None):
    aux = AuxInputs(expected_loss=2.5)
    pred = baseline_predict(law, _AT, compute_budget(_AT), aux, laws)
    return pred.lr, pred.bs_tokens


def test_table_holds_every_law_but_meituan():
    # meituan has no published defaults: its coefficients come in AuxInputs
    assert tuple(DEFAULT_LAWS) == LAW_METHODS[:-1]
    assert dict(DEFAULT_LAWS["step"]) == {
        "c": 1.79, "alpha": -0.713, "beta": 0.307, "d": 0.58, "gamma": 0.571
    }  # fmt: skip


@pytest.mark.parametrize("law,key", _TABLE_KEYS)
def test_override_sign_rule_for_every_table_key(law, key):
    for value in (0, -1.5):
        if key in _POSITIVE_FIELDS:
            with pytest.raises(ArgumentError, match=f"^{law}.{key} must be a positive finite"):
                law_overrides_from_dict({law: {key: value}})
        else:  # exponents and the openai intercept may be zero or negative
            laws, _ = law_overrides_from_dict({law: {key: value}})
            assert laws[law][key] == value


@pytest.mark.parametrize("law,key", _TABLE_KEYS)
def test_every_table_key_is_read(law, key):
    laws, _ = law_overrides_from_dict({law: {key: DEFAULT_LAWS[law][key] * 1.01}})
    assert _predict(law, laws) != _predict(law)
    assert {name: dict(params) for name, params in DEFAULT_LAWS.items()} == _PUBLISHED


def test_law_tables_are_read_only():
    laws, _ = law_overrides_from_dict({"step": {"c": 2.0}})
    for table in (DEFAULT_LAWS, laws):
        with pytest.raises(TypeError):
            table["step"] = {"c": 3.0}
        with pytest.raises(TypeError):
            table["step"]["c"] = 3.0
    assert laws["step"]["c"] == 2.0
    assert DEFAULT_LAWS["step"]["c"] == 1.79


def test_meituan_override_rejects_unknown_keys():
    doc = {"meituan": {"lambda": 0.01, "alpha": 2, "lambda_b": 1e5, "alpha_b": 0.5, "lamda": 7}}
    with pytest.raises(ArgumentError, match=r"^unknown keys \['lamda'\] for law 'meituan'$"):
        law_overrides_from_dict(doc)


def test_flat_fit_document_naming_a_law_is_refused():
    flat = {"c": 1.79, "alpha": -0.713, "beta": 0.307, "d": 0.58, "gamma": 0.571}
    for law in LAW_METHODS:
        with pytest.raises(ArgumentError, match=f"law '{law}'"):
            law_overrides_from_dict({**flat, law: {}})
    # the other keys of a fit result are not laws, and stay ignored
    laws, _ = law_overrides_from_dict({**flat, "ci": {}, "meta": {}, "seed": 1, "redraws": 0})
    assert dict(laws["step"]) == flat


@pytest.mark.parametrize("alpha", [1e5, -1e5])
def test_override_exponent_out_of_float_range_is_domain_error(alpha):
    laws, _ = law_overrides_from_dict({"step": {"alpha": alpha}})
    with pytest.raises(DomainError, match="not finite"):
        baseline_predict("step", ModelScale(1e9, 1e10), laws=laws)


def _linspace(a, b, num):
    step = (b - a) / (num - 1)
    return [a + step * k for k in range(num)]
