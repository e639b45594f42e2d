"""Command-line interface.

Subcommands: predict, fit, stats, analyze, compare, synth
(surface|observations), plot. Reports are JSON (sorted keys, two-space
indent); synth emits the CSV schemas consumed by the other commands so
whole pipelines can run through files or pipes. Every command is
deterministic given its arguments, inputs, and --seed.

Exit codes: 0 ok, 2 argument/parse error, 3 domain error, 4 write failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .errors import ArgumentError, DomainError, HpscaleError, OutOfHullError
from .fitting import bootstrap_fit, load_observations, observations_to_csv
from .laws import (
    AuxInputs,
    GridSpec,
    LAW_METHODS,
    ModelScale,
    baseline_predict,
    compute_budget,
    load_law_overrides,
    snap_to_grid,
)
from .stats import compare_formulations
from .surface import (
    argmin_consistency,
    convexity_report,
    find_optimum,
    interpolate_loss,
    load_surface,
    plateau,
    relative_error,
    surface_to_csv,
)
from .svgplot import DEFAULT_LEVELS_PERMILLE, render_surface_svg
from .synth import ObservationSpec, SurfaceSpec, generate_observations, generate_surface


def _read_input(path: str) -> bytes:
    """Read an input file (or stdin for '-'), mapping OS errors to exit 2."""
    try:
        if path == "-":
            return sys.stdin.buffer.read()
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from exc


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _meta(seed, input_bytes: bytes) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "input_digest": _digest(input_bytes),
    }


def _emit(text: str, out_path: str | None) -> None:
    # OSErrors here are genuine write failures (exit 4)
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc: dict, out_path: str | None) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def _comma_floats(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ArgumentError(f"bad {what} {text!r}: {exc}") from exc


def _load_laws(args) -> tuple:
    if args.laws:
        return load_law_overrides(args.laws)
    from .laws import DEFAULT_LAWS

    return DEFAULT_LAWS, AuxInputs()


def _build_aux(args, laws_aux: AuxInputs) -> AuxInputs:
    meituan = laws_aux.meituan_params
    if getattr(args, "meituan_params", None):
        values = _comma_floats(args.meituan_params, "--meituan-params")
        if len(values) != 4:
            raise ArgumentError("--meituan-params needs four comma-separated values")
        meituan = tuple(values)
    return AuxInputs(expected_loss=getattr(args, "loss", None), meituan_params=meituan)


# --- subcommands --------------------------------------------------------------


def cmd_predict(args) -> int:
    laws, laws_aux = _load_laws(args)
    aux = _build_aux(args, laws_aux)
    scale = ModelScale(
        n_params=args.n, d_tokens=args.d, n_active=args.n_active
    )
    budget = None
    if args.method == "deepseek":
        budget = compute_budget(scale, args.budget_factor, use_active=args.use_active)
    pred = baseline_predict(args.method, scale, budget=budget, aux=aux, laws=laws)
    if args.snap:
        pred = snap_to_grid(pred, GridSpec.default())
    _emit_json(
        {
            "method": pred.method,
            "lr": pred.lr,
            "bs": pred.bs_tokens,
            "snapped": pred.snapped,
        },
        args.out,
    )
    return 0


def cmd_fit(args) -> int:
    raw = _read_input(args.observations)
    obs = load_observations(raw)
    result = bootstrap_fit(obs, resamples=args.bootstrap, seed=args.seed)
    doc = result.to_json_dict()
    doc["meta"] = _meta(args.seed, raw)
    _emit_json(doc, args.out)
    return 0


def cmd_stats(args) -> int:
    raw = _read_input(args.observations)
    obs = load_observations(raw)
    comparison = compare_formulations(obs)
    doc = {
        "meta": _meta(args.seed, raw),
        "formulations": [
            {
                "name": f.name,
                "r_squared": f.r_squared,
                "adjusted_r_squared": f.adjusted_r_squared,
                "delta_adj_r2_vs_full": f.delta_adj_r2_vs_full,
                "f_statistic": f.f_statistic,
            }
            for f in comparison.formulations
        ],
        "nested_tests": [
            {
                "restricted": t.restricted,
                "full": t.full,
                "f_statistic": t.f_statistic,
                "p_value": t.p_value,
            }
            for t in comparison.nested_tests
        ],
        "full_model": {
            "n": comparison.full_report.n_obs,
            "r_squared": comparison.full_report.r_squared,
            "adjusted_r_squared": comparison.full_report.adjusted_r_squared,
            "f_statistic": comparison.full_report.f_statistic,
            "f_pvalue": comparison.full_report.f_pvalue,
            "predictors": [
                {
                    "name": row.name,
                    "coefficient": row.coefficient,
                    "standard_error": row.standard_error,
                    "t_value": row.t_value,
                    "p_value": row.p_value,
                    "ci95": list(row.ci95),
                }
                for row in comparison.full_report.predictors
            ],
        },
    }
    _emit_json(doc, args.out)
    return 0


def cmd_analyze(args) -> int:
    raw = _read_input(args.surface)
    surf = load_surface(raw)
    opt = find_optimum(surf, args.metric)
    region = plateau(surf, args.delta, args.metric)
    convex = convexity_report(surf, args.epsilon, args.metric)
    doc = {
        "meta": _meta(args.seed, raw),
        "optimum": {
            "lr": opt.hp[0],
            "bs": opt.hp[1],
            "loss": opt.loss,
            "metric": opt.metric,
        },
        "plateau": {
            "delta": region.delta,
            "members": sorted([lr, bs] for lr, bs in region.members),
        },
        "convexity": {
            "row_unimodal_fraction": convex.row_unimodal_fraction,
            "col_unimodal_fraction": convex.col_unimodal_fraction,
            "epsilon": convex.tolerance,
            "violations": sorted(
                [v.axis, v.fixed_value, v.index] for v in convex.violations
            ),
        },
        "argmin_consistency": None,
    }
    if surf.has_full_val():
        rep = argmin_consistency(surf)
        doc["argmin_consistency"] = {
            "consistent": rep.consistent,
            "train_opt": list(rep.train_opt.hp),
            "val_opt": list(rep.val_opt.hp),
        }
    _emit_json(doc, args.out)
    return 0


def compare_rows(
    surf,
    methods,
    laws,
    aux,
    metric: str = "train",
    budget_factor: float = 6.0,
    use_snapped: bool = False,
) -> list[dict]:
    """One CompareRow dict per method; relative error only when status ok."""
    if not methods:
        raise ArgumentError("method list must not be empty")
    grid = GridSpec.default()
    rows = []
    for method in methods:
        if method not in LAW_METHODS:
            raise ArgumentError(
                f"unknown method {method!r}; expected one of {LAW_METHODS}"
            )
        row = {
            "method": method,
            "predicted": None,
            "snapped": None,
            "loss": None,
            "relative_error_permille": None,
            "status": None,
            "note": None,
        }
        try:
            budget = (
                compute_budget(surf.scale, budget_factor)
                if method == "deepseek"
                else None
            )
            pred = baseline_predict(method, surf.scale, budget=budget, aux=aux, laws=laws)
        except (ArgumentError, DomainError) as exc:
            row["status"] = "unsupported"
            row["note"] = str(exc)
            rows.append(row)
            continue
        row["predicted"] = {"lr": pred.lr, "bs": pred.bs_tokens}
        snapped = snap_to_grid(pred, grid)
        row["snapped"] = {"lr": snapped.lr, "bs": snapped.bs_tokens}
        if pred.lr is None or pred.bs_tokens is None:
            row["status"] = "unsupported"
            row["note"] = f"{method} does not predict both lr and bs"
            rows.append(row)
            continue
        point = snapped if use_snapped else pred
        try:
            loss = interpolate_loss(surf, point.lr, point.bs_tokens, metric)
            rel = relative_error(surf, (point.lr, point.bs_tokens), metric)
        except OutOfHullError as exc:
            row["status"] = "out_of_hull"
            row["note"] = str(exc)
            rows.append(row)
            continue
        row["loss"] = loss
        row["relative_error_permille"] = rel * 1000.0
        row["status"] = "ok"
        rows.append(row)
    return rows


def cmd_compare(args) -> int:
    raw = _read_input(args.surface)
    surf = load_surface(raw)
    laws, laws_aux = _load_laws(args)
    aux = _build_aux(args, laws_aux)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = compare_rows(
        surf,
        methods,
        laws,
        aux,
        metric=args.metric,
        budget_factor=args.budget_factor,
        use_snapped=args.use_snapped,
    )
    doc = {"meta": _meta(args.seed, raw), "rows": rows}
    _emit_json(doc, args.out)
    if args.csv:
        header = (
            "method,predicted_lr,predicted_bs,snapped_lr,snapped_bs,"
            "loss,relative_error_permille,status"
        )
        lines = [header]
        for row in rows:
            def cell(group, key):
                block = row[group]
                if block is None or block.get(key) is None:
                    return ""
                return repr(block[key])

            lines.append(
                ",".join(
                    [
                        row["method"],
                        cell("predicted", "lr"),
                        cell("predicted", "bs"),
                        cell("snapped", "lr"),
                        cell("snapped", "bs"),
                        "" if row["loss"] is None else repr(row["loss"]),
                        ""
                        if row["relative_error_permille"] is None
                        else repr(row["relative_error_permille"]),
                        row["status"],
                    ]
                )
            )
        _emit("\n".join(lines) + "\n", args.csv)
    return 0


def cmd_synth(args) -> int:
    raw = _read_input(args.spec)
    spec = load_spec_file_bytes(raw)
    if args.seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    if args.kind == "surface":
        if not isinstance(spec, SurfaceSpec):
            raise ArgumentError('spec has "kind": "observations" but surface requested')
        surf = generate_surface(spec)
        text = surface_to_csv(surf)
        header = (
            f"# version={__version__}\n"
            f"# seed={spec.seed}\n"
            f"# spec_digest={_digest(raw)}\n"
        )
        _emit(header + text, args.out)
    else:
        if not isinstance(spec, ObservationSpec):
            raise ArgumentError('spec has "kind": "surface" but observations requested')
        obs = generate_observations(spec)
        header = (
            f"# version={__version__}\n"
            f"# seed={spec.seed}\n"
            f"# spec_digest={_digest(raw)}\n"
        )
        _emit(header + observations_to_csv(obs), args.out)
    return 0


def load_spec_file_bytes(raw: bytes):
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"invalid spec JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArgumentError("spec must be a JSON object")
    kind = doc.pop("kind", None)
    if kind == "surface":
        return SurfaceSpec.from_json_dict(doc)
    if kind == "observations":
        return ObservationSpec.from_json_dict(doc)
    raise ArgumentError('spec JSON needs "kind": "surface" or "observations"')


def cmd_plot(args) -> int:
    raw = _read_input(args.surface)
    surf = load_surface(raw)
    levels = (
        _comma_floats(args.levels, "--levels")
        if args.levels
        else DEFAULT_LEVELS_PERMILLE
    )
    overlays = None
    if args.overlay:
        overlay_raw = _read_input(args.overlay)
        try:
            overlay_doc = json.loads(overlay_raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArgumentError(f"invalid overlay JSON: {exc}") from exc
        overlays = overlay_doc.get("rows", overlay_doc)
        if not isinstance(overlays, list):
            raise ArgumentError("overlay JSON must hold a list of compare rows")
    svg = render_surface_svg(
        surf,
        metric=args.metric,
        levels_permille=levels,
        overlays=overlays,
        use_snapped=args.use_snapped,
    )
    _emit(svg, args.out)
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpscale",
        description="Hyperparameter scaling-law toolkit for LLM pre-training.",
    )
    parser.add_argument("--version", action="version", version=f"hpscale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_default=None):
        p.add_argument("--seed", type=int, default=seed_default, help="random seed")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("predict", help="evaluate one law at (N, D)")
    p.add_argument("--method", required=True, choices=LAW_METHODS)
    p.add_argument("--n", type=float, required=True, help="non-vocabulary parameters")
    p.add_argument("--d", type=float, required=True, help="dataset size in tokens")
    p.add_argument("--loss", type=float, help="expected loss for loss-based rules")
    p.add_argument("--budget-factor", type=float, default=6.0)
    p.add_argument("--n-active", type=float, help="activated parameters (MoE)")
    p.add_argument("--use-active", action="store_true")
    p.add_argument("--meituan-params", help="lambda,alpha,lambda_b,alpha_b")
    p.add_argument("--snap", action="store_true", help="snap onto the sweep grid")
    p.add_argument("--laws", help="JSON file with law coefficient overrides")
    add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fit", help="bootstrap-fit both laws from observations CSV")
    p.add_argument("--observations", default="-", help="CSV path or - for stdin")
    p.add_argument("--bootstrap", type=int, default=1000)
    add_common(p, seed_default=0)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("stats", help="batch-size N-independence diagnostics")
    p.add_argument("--observations", default="-", help="CSV path or - for stdin")
    add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("analyze", help="optimum, plateau, convexity of a surface")
    p.add_argument("--surface", required=True, help="surface CSV path or -")
    p.add_argument("--metric", default="train", choices=("train", "val"))
    p.add_argument("--delta", type=float, default=0.0025)
    p.add_argument("--epsilon", type=float, default=1e-3)
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="score law predictions against a surface")
    p.add_argument("--surface", required=True, help="surface CSV path or -")
    p.add_argument("--methods", required=True, help="comma-separated law ids")
    p.add_argument("--metric", default="train", choices=("train", "val"))
    p.add_argument("--loss", type=float, help="expected loss for loss-based rules")
    p.add_argument("--budget-factor", type=float, default=6.0)
    p.add_argument("--meituan-params", help="lambda,alpha,lambda_b,alpha_b")
    p.add_argument("--use-snapped", action="store_true", help="score snapped points")
    p.add_argument("--csv", help="also write rows as CSV to this path")
    p.add_argument("--laws", help="JSON file with law coefficient overrides")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate synthetic surfaces or observations")
    p.add_argument("kind", choices=("surface", "observations"))
    p.add_argument("--spec", required=True, help="spec JSON path or -")
    add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plot", help="SVG contour plot of a surface")
    p.add_argument("--surface", required=True, help="surface CSV path or -")
    p.add_argument("--metric", default="train", choices=("train", "val"))
    p.add_argument("--levels", help="comma-separated per-mille contour levels")
    p.add_argument("--overlay", help="compare JSON whose rows to overlay")
    p.add_argument("--use-snapped", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArgumentError, HpscaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
