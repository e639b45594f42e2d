"""hpscale: scaling-law toolkit for LLM pre-training hyperparameters.

Predicts optimal learning rate and batch size from model/dataset scale,
fits such power laws from grid-search optima with bootstrap confidence
bands, and analyzes loss surfaces for convexity, plateaus, and relative
error.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ArgumentError,
    BootstrapFailureError,
    DegenerateDesignError,
    DomainError,
    GridShapeError,
    HpscaleError,
    OutOfHullError,
    ParseError,
    SingularityError,
)
from .fitting import (
    FitResult,
    OptimumObservation,
    bootstrap_fit,
    fit_bs_law,
    fit_lr_law,
    load_observations,
    observations_to_csv,
    ols,
)
from .laws import (
    AuxInputs,
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
from .stats import (
    compare_formulations,
    f_sf,
    regress,
    regularized_incomplete_beta,
    student_t_critical,
    student_t_two_sided_p,
)
from .surface import (
    LossSurface,
    OptimumReport,
    SweepPoint,
    analyze_report,
    argmin_consistency,
    compare_rows,
    convexity_report,
    find_optimum,
    interpolate_loss,
    load_surface,
    plateau,
    relative_error,
    surface_to_csv,
)
from .synth import (
    ObservationSpec,
    SurfaceSpec,
    generate_observations,
    generate_surface,
    load_spec_file_bytes,
)

__version__ = "0.1.0"

# the names imported above, not the submodules those imports bind
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
