"""Command-line interface.

Subcommands: predict, fit, stats, analyze, compare, synth
(surface|observations), plot. synth emits the CSV schemas consumed by
the other commands so whole pipelines can run through files or pipes:
every input option (--observations, --surface, --spec, --overlay,
--laws) reads stdin when given '-'. Every command is deterministic given
its arguments and inputs; --seed exists on fit (bootstrap draws) and
synth (spec seed override) only, the two commands that draw random
numbers.

Reports are strict JSON written by one encoder, _encode_json. Its bytes
equal json.dumps(doc, indent=2, sort_keys=True), except that a
non-finite float, such as an infinite --delta or the F statistic of an
exact fit, is written as null. It exists because on Python 3.11 any
indent sends json.dumps to its pure-Python encoder (the C encoder ignores
indent). On a 2-vCPU VM the 62 reports of one paper_corpus benchmark
pass (108,584 bytes) took a median of 3.6 ms through _encode_json and
6.5 ms through json.dumps, with identical bytes.

compare snaps each prediction to the nearest node, in log space, of the
surface's own grid, so its snapped point is a run that was swept.
predict --snap has no surface and snaps to the default sweep grid.

Exit codes: 0 ok, 2 argument/parse error, 3 domain error, 4 write failure.
A malformed input file (spec, observations, surface, overlay, law
overrides) exits 2, and a well-formed one whose numbers overflow a float
exits 3; no input file ends in a traceback. Files are opened here only;
the loaders parse the bytes through the input boundary in errors.py.

_emit is the one writer. It takes every output of a command at once
(compare --csv has two), encodes them all and opens every file target
before it writes a byte, so a target that cannot be opened leaves nothing
written. It rewrites a file in place: the file is opened without
truncating it to zero, every byte is written, and the file is cut to the
text's length only when it was longer. /dev/null, FIFOs and other
targets of size 0 are never cut. The reason is cost: on ext4, truncating
an existing file to zero is slow in open, and with auto_da_alloc (the
default) the close then starts writeback. On a 2-vCPU VM a 900-byte
rewrite took a median of 108 us through open(path, "w") and 7 us in
place; writing a new file costs the same either way (about 60 us). The
write is not atomic and not fsynced: a reader can see a half-written
report, and a crash can lose it.

main() may be called many times in one process (the benchmark, notebooks,
driver scripts): the argument parser is built once and shared, and each
call parses into a fresh namespace, so no flag or default carries over
from one command to the next. Consecutive commands on the same surface
bytes parse them once (see load_surface).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import (
    ArgumentError,
    DomainError,
    HpscaleError,
    OutOfHullError,
    check_number,
    decode_json,
)
from .fitting import MAX_RESAMPLES, bootstrap_fit, load_observations, observations_to_csv
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
from .synth import (
    ObservationSpec,
    SurfaceSpec,
    generate_observations,
    generate_surface,
    load_spec_file_bytes,
)


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


def _meta(input_bytes: bytes) -> dict:
    return {"version": __version__, "input_digest": _digest(input_bytes)}


_STDOUT = (None, "-")


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, target) output of one command. A target of None
    or "-" is stdout; a file target is rewritten in place (see the module
    doc).

    Every text is encoded and every file target opened before the first
    write, so a target that cannot be opened (a missing directory, a
    directory) fails the command with nothing on stdout, an existing file
    left byte for byte as it was, and a file this call created removed.
    A write that fails after the opens can still leave a file written.
    With one file target there is one os.open and nothing else. OSErrors
    here are genuine write failures (exit 4).
    """
    # an encode error leaves every file untouched
    files = [(path, memoryview(text.encode("utf-8"))) for text, path in outputs
             if path not in _STDOUT]  # fmt: skip
    fds, created = [], []
    try:
        for k, (path, _) in enumerate(files):
            # a later open can still fail, so note whether this one makes the file
            new = k + 1 < len(files) and not os.path.exists(path)
            fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
            if new:
                created.append(path)
    except OSError:
        for fd in fds:
            os.close(fd)
        for path in created:
            os.unlink(os.path.realpath(path))  # a dangling link keeps its link
        raise
    try:
        for text, path in outputs:
            if path in _STDOUT:
                sys.stdout.write(text)
        for fd, (_, data) in zip(fds, files):
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            # a regular file longer than the text; /dev/null and FIFOs read size 0
            if os.fstat(fd).st_size > len(data):
                os.ftruncate(fd, len(data))
    finally:
        for fd in fds:
            os.close(fd)


def _encode_json(value, newline: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, but
    with every non-finite float written as null.

    newline is the line break plus the indent of value's own line.
    Containers and str are dispatched on their exact type. A float or an
    int may be a subclass (numpy.float64, an IntEnum): it is written by
    float.__repr__ or int.__repr__, as json writes it. A non-str key or
    any other value raises TypeError.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        # encode_basestring_ascii raises TypeError for a non-str key
        items = [encode_basestring_ascii(key) + ": " + _encode_json(value[key], inner)
                 for key in sorted(value)]  # fmt: skip
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_encode_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{kind.__name__} is not JSON serializable")


def _comma_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        # float() quotes the bad cell: keep 75 characters of its message
        raise ArgumentError(f"bad {what} {text!r:.40}: {exc!s:.75}") from exc
    return [check_number(v, what) for v in values]


def _load_laws(args) -> tuple:
    if args.laws:
        return load_law_overrides(_read_input(args.laws))
    from .laws import DEFAULT_LAWS

    return DEFAULT_LAWS, AuxInputs()


def _build_aux(args, laws_aux: AuxInputs) -> AuxInputs:
    meituan = laws_aux.meituan_params
    if getattr(args, "meituan_params", None):
        meituan = tuple(_comma_floats(args.meituan_params, "--meituan-params"))
    return AuxInputs(expected_loss=getattr(args, "loss", None), meituan_params=meituan)


# --- subcommands --------------------------------------------------------------


def cmd_predict(args) -> int:
    check_number(args.budget_factor, "--budget-factor", "positive")
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
    doc = {"method": pred.method, "lr": pred.lr, "bs": pred.bs_tokens, "snapped": pred.snapped}
    _emit((_encode_json(doc) + "\n", args.out))
    return 0


def cmd_fit(args) -> int:
    raw = _read_input(args.observations)
    obs = load_observations(raw)
    result = bootstrap_fit(obs, resamples=args.bootstrap, seed=args.seed)
    doc = result.to_json_dict()
    doc["meta"] = _meta(raw)
    _emit((_encode_json(doc) + "\n", args.out))
    return 0


def cmd_stats(args) -> int:
    raw = _read_input(args.observations)
    obs = load_observations(raw)
    comparison = compare_formulations(obs)
    report = comparison.full_report
    doc = {
        "meta": _meta(raw),
        "formulations": [dataclasses.asdict(f) for f in comparison.formulations],
        "nested_tests": [dataclasses.asdict(t) for t in comparison.nested_tests],
        # full_model renames n_obs to n and leaves out rss and df_resid
        "full_model": {
            "n": report.n_obs,
            "r_squared": report.r_squared,
            "adjusted_r_squared": report.adjusted_r_squared,
            "f_statistic": report.f_statistic,
            "f_pvalue": report.f_pvalue,
            "predictors": [dataclasses.asdict(row) for row in report.predictors],
        },
    }
    _emit((_encode_json(doc) + "\n", args.out))
    return 0


def cmd_analyze(args) -> int:
    raw = _read_input(args.surface)
    surf = load_surface(raw)
    opt = find_optimum(surf, args.metric)
    region = plateau(surf, args.delta, args.metric)
    convex = convexity_report(surf, args.epsilon, args.metric)
    doc = {
        "meta": _meta(raw),
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
    _emit((_encode_json(doc) + "\n", args.out))
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
    """One CompareRow dict per method, snapped to the surface's own grid;
    relative error only when status ok."""
    if not methods:
        raise ArgumentError("method list must not be empty")
    check_number(budget_factor, "--budget-factor", "positive")
    grid = GridSpec(surf.lr_values(), surf.bs_values())
    rows = []
    for method in methods:
        if method not in LAW_METHODS:
            raise ArgumentError(
                f"unknown method {method!r:.40}; expected one of {LAW_METHODS}"
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
    doc = {"meta": _meta(raw), "rows": rows}
    outputs = [(_encode_json(doc) + "\n", args.out)]
    if args.csv:
        lines = ["method,predicted_lr,predicted_bs,snapped_lr,snapped_bs,"
                 "loss,relative_error_permille,status"]  # fmt: skip
        for row in rows:
            pred, snap = row["predicted"] or {}, row["snapped"] or {}
            values = (pred.get("lr"), pred.get("bs"), snap.get("lr"), snap.get("bs"),
                      row["loss"], row["relative_error_permille"])  # fmt: skip
            cells = ["" if v is None else repr(v) for v in values]
            lines.append(",".join([row["method"], *cells, row["status"]]))
        outputs.append(("\n".join(lines) + "\n", args.csv))
    _emit(*outputs)
    return 0


def cmd_synth(args) -> int:
    raw = _read_input(args.spec)
    spec = load_spec_file_bytes(raw)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    if args.kind == "surface":
        if not isinstance(spec, SurfaceSpec):
            raise ArgumentError('spec has "kind": "observations" but surface requested')
        text = surface_to_csv(generate_surface(spec))
    else:
        if not isinstance(spec, ObservationSpec):
            raise ArgumentError('spec has "kind": "surface" but observations requested')
        text = observations_to_csv(generate_observations(spec))
    header = (
        f"# version={__version__}\n"
        f"# seed={spec.seed}\n"
        f"# spec_digest={_digest(raw)}\n"
    )
    _emit((header + text, args.out))
    return 0


# a character XML 1.0 forbids: a C0 control but \t\n\r, a surrogate, U+FFFE or U+FFFF
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _check_overlay_row(row, index: int) -> None:
    """An overlay row is an object. Its method, the SVG label, if given is a
    str of characters XML 1.0 allows; its predicted and snapped are objects
    or null, holding lr and bs that are positive finite numbers or null."""
    if not isinstance(row, dict):
        raise ArgumentError(f"overlay row {index} must be a JSON object")
    label = row.get("method", "")
    if not isinstance(label, str) or _NOT_XML_CHAR.search(label):
        raise ArgumentError(f"overlay row {index}: method must be XML text, got {label!r:.40}")
    for group in ("predicted", "snapped"):
        block = row.get(group)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ArgumentError(f"overlay row {index}: {group} must be an object or null")
        for key in ("lr", "bs"):
            if block.get(key) is not None:
                check_number(block[key], f"overlay row {index}: {group}.{key}", "positive")


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
        overlay_doc = decode_json(_read_input(args.overlay), "overlay")
        if isinstance(overlay_doc, dict):
            overlay_doc = overlay_doc.get("rows", overlay_doc)
        if not isinstance(overlay_doc, list):
            raise ArgumentError("overlay JSON must hold a list of compare rows")
        for i, row in enumerate(overlay_doc):
            _check_overlay_row(row, i)
        overlays = overlay_doc
    svg = render_surface_svg(
        surf,
        metric=args.metric,
        levels_permille=levels,
        overlays=overlays,
        use_snapped=args.use_snapped,
    )
    _emit((svg, args.out))
    return 0


# --- parser -------------------------------------------------------------------

# A Python string literal, as argparse quotes a bad value with %r.
_QUOTED = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")
# argparse joins the extra argv after this unquoted
_UNRECOGNIZED = "unrecognized arguments: "


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors quote at most 40 characters of
    a bad value, as the loaders' errors do; subparsers share the class."""

    def error(self, message):
        if message.startswith(_UNRECOGNIZED):
            message = message[: len(_UNRECOGNIZED) + 40]
        super().error(_QUOTED.sub(lambda m: m[0][:40], message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hpscale argument parser, built once per process and shared.

    Every caller gets the same object, so it must not be mutated (no
    add_argument, set_defaults or attribute writes); parse_args returns a
    fresh namespace on each call and is safe to call repeatedly.
    """
    parser = _Parser(
        prog="hpscale",
        description="Hyperparameter scaling-law toolkit for LLM pre-training.",
    )
    parser.add_argument("--version", action="version", version=f"hpscale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
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
    p.add_argument("--laws", help="law override JSON path or -")
    add_out(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fit", help="bootstrap-fit both laws from observations CSV")
    p.add_argument("--observations", default="-", help="CSV path or - for stdin")
    p.add_argument(
        "--bootstrap", type=int, default=1000,
        help=f"number of resamples, 1 to {MAX_RESAMPLES:,} (default: 1000)",
    )
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    add_out(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("stats", help="batch-size N-independence diagnostics")
    p.add_argument("--observations", default="-", help="CSV path or - for stdin")
    add_out(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("analyze", help="optimum, plateau, convexity of a surface")
    p.add_argument("--surface", required=True, help="surface CSV path or -")
    p.add_argument("--metric", default="train", choices=("train", "val"))
    p.add_argument("--delta", type=float, default=0.0025)
    p.add_argument("--epsilon", type=float, default=1e-3)
    add_out(p)
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
    p.add_argument("--laws", help="law override JSON path or -")
    add_out(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate synthetic surfaces or observations")
    p.add_argument("kind", choices=("surface", "observations"))
    p.add_argument("--spec", required=True, help="spec JSON path or -")
    p.add_argument("--seed", type=int, help="replaces the spec's seed")
    add_out(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plot", help="SVG contour plot of a surface")
    p.add_argument("--surface", required=True, help="surface CSV path or -")
    p.add_argument("--metric", default="train", choices=("train", "val"))
    p.add_argument("--levels", help="comma-separated per-mille contour levels")
    p.add_argument("--overlay", help="compare JSON whose rows to overlay")
    p.add_argument("--use-snapped", action="store_true")
    add_out(p)
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
