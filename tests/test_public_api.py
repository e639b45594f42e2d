"""The public names of hpscale: exactly these, and no submodule among them.

A name joins or leaves the package's exports only with an edit here.
"""

import types

import hpscale

EXPORTS = {
    # errors
    "ArgumentError", "BootstrapFailureError", "DegenerateDesignError", "DomainError",
    "GridShapeError", "HpscaleError", "OutOfHullError", "ParseError", "SingularityError",
    # fitting
    "FitResult", "OptimumObservation", "bootstrap_fit", "fit_bs_law", "fit_lr_law",
    "load_observations", "observations_to_csv", "ols",
    # laws
    "AuxInputs", "GridSpec", "ModelScale", "Prediction",
    "baseline_predict", "compute_budget", "law_overrides_from_dict", "load_law_overrides",
    "snap_to_grid", "step_law",
    # stats
    "compare_formulations", "f_sf", "regress", "regularized_incomplete_beta",
    "student_t_critical", "student_t_two_sided_p",
    # surface
    "LossSurface", "OptimumReport", "SweepPoint", "analyze_report", "argmin_consistency",
    "compare_rows", "convexity_report", "find_optimum", "interpolate_loss", "load_surface",
    "plateau", "relative_error", "surface_to_csv",
    # synth
    "ObservationSpec", "SurfaceSpec", "generate_observations", "generate_surface",
    "load_spec_file_bytes",
}  # fmt: skip


def test_all_is_exactly_the_public_names():
    assert hpscale.__all__ == sorted(EXPORTS)


def test_star_import_binds_the_exports_and_no_module():
    namespace = {}
    exec("from hpscale import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == EXPORTS
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
