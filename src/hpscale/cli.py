"""Command-line interface.

Subcommands: predict, fit, stats, analyze, compare, synth
(surface|observations), plot. synth emits the CSV schemas consumed by
the other commands so whole pipelines can run through files or pipes:
every input option (--observations, --surface, --spec, --overlay,
--laws) reads stdin when given '-'. Every command is deterministic given
its arguments and inputs; --seed exists on fit (bootstrap draws) and
synth (spec seed override) only, the two commands that draw random
numbers.

This module keeps argv parsing, file bytes, the encoder and exit codes;
each report body is built where its numbers are computed. analyze, compare
and stats take theirs from surface.analyze_report, surface.compare_rows
and stats.compare_formulations, fit from FitResult.to_json_dict, and each
adds only its meta (version and input digest), through _report. predict's
four fields are the one body assembled here.

One table, _COMMANDS, declares every command: its function, its help line
and its options in order, --out last. An option that two commands take is
defined once, above the table. A command function reads its namespace and
its input files and returns its outputs, a list of (text, target) pairs;
a target of None or "-" is stdout. It writes nothing itself: main hands
the outputs to _emit, and maps every error to its exit code in one place.

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

_emit is the one writer, and main its one caller. It takes every output
of a command at once (compare --csv has two), encodes them all and opens
every file target before it writes a byte, so a target that cannot be
opened leaves nothing written. It rewrites a file in place: the file is
opened without truncating it to zero, every byte is written, and the file
is cut to the text's length only when it was longer. /dev/null, FIFOs and
other targets of size 0 are never cut. The reason is cost: on ext4, truncating
an existing file to zero is slow in open, and with auto_da_alloc (the
default) the close then starts writeback. On a 2-vCPU VM a 900-byte
rewrite took a median of 108 us through open(path, "w") and 7 us in
place; writing a new file costs the same either way (about 60 us). The
write is not atomic and not fsynced: a reader can see a half-written
report, and a crash can lose it.

main() may be called many times in one process (the benchmark, notebooks,
driver scripts): the argument parser is built once and shared, and each
call parses into a fresh namespace, so no flag or default carries over
from one command to the next. An argv that starts with a command name is
scanned once, by that command's parser; only an argv that names no
command (-h, --version, a leading --, an unknown command, an empty argv)
goes through the top-level parser (see _parse). Consecutive commands on
the same surface bytes parse them once (see load_surface).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import re
import stat
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import ArgumentError, DomainError, HpscaleError, check_number, decode_json
from .fitting import (
    DEFAULT_RESAMPLES,
    MAX_RESAMPLES,
    bootstrap_fit,
    load_observations,
    observations_to_csv,
)
from .laws import (
    AuxInputs,
    DEFAULT_FLOPS_FACTOR,
    DEFAULT_LAWS,
    GridSpec,
    LAW_METHODS,
    LawTable,
    ModelScale,
    baseline_predict,
    compute_budget,
    load_law_overrides,
    snap_to_grid,
)
from .stats import compare_formulations
from .surface import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    METRICS,
    analyze_report,
    compare_rows,
    load_surface,
    surface_to_csv,
)
from .svgplot import DEFAULT_LEVELS_PERMILLE, MAX_LEVELS, render_surface_svg
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
# a command's outputs are (text, target) pairs; a target in _STDOUT is stdout
_Output = tuple[str, str | None]


def _emit(*outputs: _Output) -> None:
    """Write each (text, target) output of one command. A target of None
    or "-" is stdout; a file target is rewritten in place (see the module
    doc).

    Every text is encoded and every file target opened before the first
    write, so a target that cannot be opened (a missing directory, a
    directory) fails the command with nothing on stdout, an existing file
    left byte for byte as it was, and a file this call created removed.
    Two targets that are one regular file (a repeated path, a symlink, a
    hard link, or stdout redirected onto a file target) are an
    ArgumentError (exit 2), with the same cleanup. A write that fails after
    the opens can still leave a file written. With one file target and no
    stdout output there is one os.open and nothing else. OSErrors here are
    genuine write failures (exit 4).
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
        names, checked = [p for p, _ in files], list(fds)
        if fds and len(files) < len(outputs):  # stdout is written too
            try:
                checked.append(sys.stdout.fileno())
                names.append("stdout")
            except (AttributeError, ValueError, OSError):  # no file behind it (a StringIO)
                pass
        stats = [os.fstat(fd) for fd in checked] if len(checked) > 1 else []
        ids = [(st.st_dev, st.st_ino) for st in stats if stat.S_ISREG(st.st_mode)]
        if len(set(ids)) < len(ids):
            raise ArgumentError(f"outputs {' and '.join(names)} are the same file")
    except (OSError, ArgumentError):
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
    if not values:
        raise ArgumentError(f"{what} must list at least one number, got {text!r:.40}")
    return [check_number(v, what, "positive") for v in values]


def _law_inputs(args) -> tuple[LawTable, AuxInputs]:
    """The law table and aux inputs of predict and compare: --laws's
    overrides (the defaults without it), with --loss and --meituan-params
    on top. The laws file is read before --meituan-params is parsed."""
    laws, aux = DEFAULT_LAWS, AuxInputs()
    if args.laws:
        laws, aux = load_law_overrides(_read_input(args.laws))
    meituan = aux.meituan_params
    if args.meituan_params is not None:
        meituan = _comma_floats(args.meituan_params, "--meituan-params")
    return laws, AuxInputs(expected_loss=args.loss, meituan_params=meituan)


def _report(doc: dict, raw: bytes, target: str | None) -> _Output:
    """The output of a JSON report read off the input bytes raw: doc with
    its meta added, encoded."""
    doc["meta"] = _meta(raw)
    return _encode_json(doc) + "\n", target


# --- subcommands --------------------------------------------------------------


def cmd_predict(args) -> list[_Output]:
    check_number(args.budget_factor, "--budget-factor", "positive")
    laws, aux = _law_inputs(args)
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
    return [(_encode_json(doc) + "\n", args.out)]


def cmd_fit(args) -> list[_Output]:
    raw = _read_input(args.observations)
    obs = load_observations(raw)
    result = bootstrap_fit(obs, resamples=args.bootstrap, seed=args.seed)
    return [_report(result.to_json_dict(), raw, args.out)]


def cmd_stats(args) -> list[_Output]:
    raw = _read_input(args.observations)
    return [_report(compare_formulations(load_observations(raw)), raw, args.out)]


def cmd_analyze(args) -> list[_Output]:
    raw = _read_input(args.surface)
    doc = analyze_report(load_surface(raw), args.metric, args.delta, args.epsilon)
    return [_report(doc, raw, args.out)]


def cmd_compare(args) -> list[_Output]:
    check_number(args.budget_factor, "--budget-factor", "positive")
    raw = _read_input(args.surface)
    surf = load_surface(raw)
    laws, aux = _law_inputs(args)
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
    outputs = [_report({"rows": rows}, raw, args.out)]
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
    return outputs


def cmd_synth(args) -> list[_Output]:
    raw = _read_input(args.spec)
    spec = load_spec_file_bytes(raw)
    if args.seed is not None:
        spec = spec.replace(seed=args.seed)
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
    return [(header + text, args.out)]


def cmd_plot(args) -> list[_Output]:
    raw = _read_input(args.surface)
    surf = load_surface(raw)
    levels = (
        _comma_floats(args.levels, "--levels")
        if args.levels is not None
        else DEFAULT_LEVELS_PERMILLE
    )
    if len(levels) > MAX_LEVELS:
        raise ArgumentError(f"--levels lists {len(levels)} levels; the legend holds {MAX_LEVELS}")
    overlays = None
    if args.overlay:
        overlays = decode_json(_read_input(args.overlay), "overlay")
        if isinstance(overlays, dict):
            overlays = overlays.get("rows", overlays)
        if not isinstance(overlays, list):
            raise ArgumentError("overlay JSON must hold a list of compare rows")
    svg = render_surface_svg(
        surf,
        metric=args.metric,
        levels_permille=levels,
        overlays=overlays,
        use_snapped=args.use_snapped,
    )
    return [(svg, args.out)]


# --- the command table --------------------------------------------------------

# An option is its flag and its add_argument keywords. Each one that two
# commands take is defined once, here.
_SURFACE = "--surface", dict(required=True, help="surface CSV path or -")
_METRIC = "--metric", dict(default="train", choices=METRICS)
_OBSERVATIONS = "--observations", dict(default="-", help="CSV path or - for stdin")
_LOSS = "--loss", dict(type=float, help="expected loss for loss-based rules")
_BUDGET_FACTOR = "--budget-factor", dict(type=float, default=DEFAULT_FLOPS_FACTOR)
_MEITUAN_PARAMS = "--meituan-params", dict(help="lambda,alpha,lambda_b,alpha_b")
_LAWS = "--laws", dict(help="law override JSON path or -")
_OUT = "--out", dict(help="output path (default: stdout)")

# name: (function, help, options in order); every command takes _OUT last
_COMMANDS = {
    "predict": (cmd_predict, "evaluate one law at (N, D)", [
        ("--method", dict(required=True, choices=LAW_METHODS)),
        ("--n", dict(type=float, required=True, help="non-vocabulary parameters")),
        ("--d", dict(type=float, required=True, help="dataset size in tokens")),
        _LOSS,
        _BUDGET_FACTOR,
        ("--n-active", dict(type=float, help="activated parameters (MoE)")),
        ("--use-active", dict(action="store_true")),
        _MEITUAN_PARAMS,
        ("--snap", dict(action="store_true", help="snap onto the sweep grid")),
        _LAWS,
    ]),
    "fit": (cmd_fit, "bootstrap-fit both laws from observations CSV", [
        _OBSERVATIONS,
        ("--bootstrap", dict(
            type=int, default=DEFAULT_RESAMPLES,
            help=f"number of resamples, 1 to {MAX_RESAMPLES:,} (default: {DEFAULT_RESAMPLES})",
        )),
        ("--seed", dict(type=int, default=0, help="bootstrap seed")),
    ]),
    "stats": (cmd_stats, "batch-size N-independence diagnostics", [_OBSERVATIONS]),
    "analyze": (cmd_analyze, "optimum, plateau, convexity of a surface", [
        _SURFACE,
        _METRIC,
        ("--delta", dict(type=float, default=DEFAULT_DELTA)),
        ("--epsilon", dict(type=float, default=DEFAULT_EPSILON)),
    ]),
    "compare": (cmd_compare, "score law predictions against a surface", [
        _SURFACE,
        ("--methods", dict(required=True, help="comma-separated law ids")),
        _METRIC,
        _LOSS,
        _BUDGET_FACTOR,
        _MEITUAN_PARAMS,
        ("--use-snapped", dict(action="store_true", help="score snapped points")),
        ("--csv", dict(help="also write rows as CSV to this path")),
        _LAWS,
    ]),
    "synth": (cmd_synth, "generate synthetic surfaces or observations", [
        ("kind", dict(choices=("surface", "observations"))),
        ("--spec", dict(required=True, help="spec JSON path or -")),
        ("--seed", dict(type=int, help="replaces the spec's seed")),
    ]),
    "plot": (cmd_plot, "SVG contour plot of a surface", [
        _SURFACE,
        _METRIC,
        ("--levels", dict(help="comma-separated per-mille contour levels")),
        ("--overlay", dict(help="compare JSON whose rows to overlay")),
        ("--use-snapped", dict(action="store_true")),
    ]),
}


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


def build_parser() -> argparse.ArgumentParser:
    """The hpscale argument parser, built once per process and shared.

    Every caller gets the same object, so it must not be mutated (no
    add_argument, set_defaults or attribute writes); parse_args returns a
    fresh namespace on each call and is safe to call repeatedly.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """build_parser's parser, and its subcommand parsers by command name."""
    parser = _Parser(
        prog="hpscale",
        description="Hyperparameter scaling-law toolkit for LLM pre-training.",
    )
    parser.add_argument("--version", action="version", version=f"hpscale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, keywords in (*options, _OUT):
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """The namespace build_parser().parse_args(argv) returns, with the same
    usage errors and exits, from one scan of argv.

    The top-level parser only hands the argv after a command name to that
    command's parser, which scans it again. So an argv whose first item is
    a command name goes straight to the command's parser; arguments it
    leaves over are reported through the top-level parser's error, as
    parse_args reports them. Any other argv (-h, --version, a leading --,
    an unknown command, an empty argv) goes through the top-level parser.
    """
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(_UNRECOGNIZED + " ".join(extras))
    args.command = argv[0]
    return args


# an error's exit code is that of the first kind it is an instance of
_EXIT_CODES = ((DomainError, 3), (HpscaleError, 2), (OSError, 4))


def main(argv=None) -> int:
    """Run one hpscale command line (sys.argv[1:] when argv is None), write
    its outputs and return its exit code; a usage error exits 2 through
    SystemExit."""
    args = _parse(argv)
    try:
        _emit(*args.func(args))
    except (HpscaleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
