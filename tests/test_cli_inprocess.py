"""The CLI called in-process, many times in one interpreter.

main() shares one argument parser across calls. These tests run every
subcommand through it repeatedly, in mixed order, against a subprocess
run of the same command, and fuzz the file inputs and the numeric flags
through it: whatever the bytes or the number, a command ends in exit 0,
2 or 3 and never in an exception, and a JSON report is strict JSON.
"""

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import stat
import subprocess
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIG3_PATH,
    LATTICE_D,
    LATTICE_N,
    fuzz_examples,
    independent_n_observations,
)
from hpscale import (
    analyze_report,
    bootstrap_fit,
    cli,
    compare_rows,
    compute_budget,
    convexity_report,
    interpolate_loss,
    load_surface,
    observations_to_csv,
    plateau,
)
from hpscale import philox
from hpscale import surface as surface_module
from hpscale.fitting import DEFAULT_RESAMPLES
from hpscale.laws import DEFAULT_FLOPS_FACTOR, LAW_METHODS
from hpscale.surface import DEFAULT_DELTA, DEFAULT_EPSILON, METRICS
from test_cli import CLI, CLI_ENV, run


JSON_COMMANDS = ("predict", "fit", "stats", "analyze", "compare")


def strict_json(stdout: bytes):
    """The parsed report; NaN and Infinity tokens fail the test."""

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    return json.loads(stdout, parse_constant=reject)


def captured(fn, *args):
    """(value or SystemExit code, stdout text, stderr text) of fn(*args)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            value = fn(*args)
        except SystemExit as exc:  # argparse errors, --help, --version
            value = exc.code
    return value, out.getvalue(), err.getvalue()


def main_inprocess(*argv):
    """(exit code, stdout bytes, stderr text) of cli.main; SystemExit counts."""
    rc, out, err = captured(cli.main, list(argv))
    return rc, out.encode("utf-8"), err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inprocess")
    surface_spec = root / "surface_spec.json"
    surface_spec.write_text(json.dumps({
        "kind": "surface", "opt_lr": 2.0**-9, "opt_bs": 262144.0,
        "noise_sigma": 0.01, "seed": 1, "val_offset": 0.02,
    }))  # fmt: skip
    obs_spec = root / "obs_spec.json"
    obs_spec.write_text(json.dumps({
        "kind": "observations", "n_values": list(LATTICE_N),
        "d_values": list(LATTICE_D), "noise_sigma": 0.05, "seed": 3,
    }))  # fmt: skip
    obs = root / "obs.csv"
    obs.write_bytes(run("synth", "observations", "--spec", str(obs_spec)).stdout)
    overlay = root / "compare.json"
    run("compare", "--surface", str(FIG3_PATH), "--methods", "step,porian,meituan",
        "--loss", "2.0", "--meituan-params", "0.01,2.0,1e9,0.5",
        "--out", str(overlay))  # fmt: skip
    return {"surface_spec": surface_spec, "obs": obs, "overlay": overlay}


def _commands(inputs):
    surf, obs = str(FIG3_PATH), str(inputs["obs"])
    spec, overlay = str(inputs["surface_spec"]), str(inputs["overlay"])
    return [
        ("predict", "--method", "step", "--n", "1e9", "--d", "1e10", "--snap"),
        ("predict", "--method", "step", "--n", "1e9", "--d", "1e10"),
        ("predict", "--method", "openai", "--n", "1e9", "--d", "1e10"),  # exit 2
        ("predict", "--method", "step", "--n", "1e9", "--d", "inf"),  # exit 2
        ("fit", "--observations", obs, "--bootstrap", "40", "--seed", "5"),
        ("fit", "--observations", obs, "--bootstrap", "40"),
        ("stats", "--observations", obs),
        ("analyze", "--surface", surf, "--metric", "val"),
        ("analyze", "--surface", surf),
        ("compare", "--surface", surf, "--methods", "step,porian", "--use-snapped"),
        ("compare", "--surface", surf, "--methods", "step,porian"),
        ("synth", "surface", "--spec", spec, "--seed", "7"),
        ("synth", "surface", "--spec", spec),
        ("plot", "--surface", surf, "--overlay", overlay, "--use-snapped"),
        ("plot", "--surface", surf, "--levels", "2,20"),
        ("analyze", "--surface", surf, "--laws", "x"),  # argparse exit 2
    ]


def test_main_reuses_one_parser_and_matches_subprocess(inputs):
    assert cli.build_parser() is cli.build_parser()
    commands = _commands(inputs)
    expected = {}
    for argv in commands:
        proc = subprocess.run(CLI + list(argv), capture_output=True, env=CLI_ENV)
        expected[argv] = (proc.returncode, proc.stdout)
    # twice through, the second time interleaved from both ends
    order = commands + [c for pair in zip(commands[::-1], commands) for c in pair]
    for argv in order:
        rc, stdout, stderr = main_inprocess(*argv)
        assert (rc, stdout) == expected[argv], argv
        assert "Traceback" not in stderr
    assert cli.build_parser() is cli.build_parser()


def test_parsed_flags_do_not_leak_between_calls():
    parser = cli.build_parser()
    snapped = parser.parse_args(["compare", "--surface", "s", "--methods", "step",
                                 "--use-snapped", "--metric", "val"])  # fmt: skip
    assert snapped.use_snapped is True and snapped.metric == "val"
    plain = parser.parse_args(["compare", "--surface", "s", "--methods", "step"])
    assert plain.use_snapped is False and plain.metric == "train"
    assert plain.csv is None and plain.laws is None
    assert parser.parse_args(["fit", "--seed", "9"]).seed == 9
    assert parser.parse_args(["fit"]).seed == 0
    assert plain is not parser.parse_args(["compare", "--surface", "s", "--methods", "step"])


def test_main_dispatches_as_the_top_level_parser_parses(inputs, monkeypatch):
    surf = str(FIG3_PATH)
    argvs = _commands(inputs) + [
        ("analyze", "--surf", surf),  # an abbreviation
        ("analyze", "--surface", surf, "--bogus"),
        ("analyze", "--surface", surf, "extra"),
        ("analyze", "--surface", surf, "x" * 100_000),
        ("analyze", "--surface", surf, "--version"),  # a top-level option after a command
        ("analyze", "--surface", surf, "--", "extra"),
        ("analyze", "-h"),
        ("--version",),
        ("--", "analyze", "--surface", surf),
        ("nosuch",),
        (),
    ]
    parser = cli.build_parser()
    for argv in argvs:
        # the same namespace, or the same exit and usage text
        assert captured(cli._parse, list(argv)) == captured(parser.parse_args, list(argv)), argv
    dispatched = [main_inprocess(*argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse", parser.parse_args)
    assert dispatched == [main_inprocess(*argv) for argv in argvs]
    # main() with no argv reads sys.argv
    argv = ("analyze", "--surface", surf, "extra")
    proc = subprocess.run(CLI + list(argv), capture_output=True, env=CLI_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == main_inprocess(*argv)
    assert proc.returncode == 2 and "unrecognized arguments: extra" in proc.stderr.decode()


def test_parsed_defaults_are_the_library_defaults():
    parse = cli.build_parser().parse_args
    analyze = parse(["analyze", "--surface", "x"])
    assert (analyze.delta, analyze.epsilon) == (DEFAULT_DELTA, DEFAULT_EPSILON)
    compare = parse(["compare", "--surface", "x", "--methods", "step"])
    predict = parse(["predict", "--method", "step", "--n", "1", "--d", "1"])
    assert compare.budget_factor == predict.budget_factor == DEFAULT_FLOPS_FACTOR
    assert parse(["fit"]).bootstrap == DEFAULT_RESAMPLES
    fit_help = " ".join(cli._parsers()[1]["fit"].format_help().split())
    assert f"(default: {DEFAULT_RESAMPLES})" in fit_help
    for argv in (["analyze", "--surface", "x"], ["plot", "--surface", "x"],
                 ["compare", "--surface", "x", "--methods", "step"]):  # fmt: skip
        rc, _, stderr = main_inprocess(*argv, "--metric", "bogus")
        assert rc == 2 and f"choose from {', '.join(map(repr, METRICS))}" in stderr
    # the library functions default to the same constants
    for function, parameter, value in (
        (plateau, "delta", DEFAULT_DELTA),
        (convexity_report, "epsilon", DEFAULT_EPSILON),
        (analyze_report, "delta", DEFAULT_DELTA),
        (analyze_report, "epsilon", DEFAULT_EPSILON),
        (compute_budget, "flops_factor", DEFAULT_FLOPS_FACTOR),
        (compare_rows, "budget_factor", DEFAULT_FLOPS_FACTOR),
        (bootstrap_fit, "resamples", DEFAULT_RESAMPLES),
    ):
        assert inspect.signature(function).parameters[parameter].default == value, function


@pytest.mark.parametrize("use_snapped", [False, True])
def test_compare_interpolates_each_scored_law_once(use_snapped, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return interpolate_loss(*args)

    # compare_rows and relative_error both call it by surface's name
    monkeypatch.setattr(surface_module, "interpolate_loss", counted)
    argv = ["compare", "--surface", str(FIG3_PATH), "--methods", ",".join(LAW_METHODS),
            "--loss", "2.0", "--meituan-params", "0.01,2.0,1e9,0.5"]  # fmt: skip
    rc, stdout, _ = main_inprocess(*argv, *(["--use-snapped"] if use_snapped else []))
    statuses = [row["status"] for row in strict_json(stdout)["rows"]]
    assert rc == 0 and "ok" in statuses
    assert len(calls) == sum(status in ("ok", "out_of_hull") for status in statuses)


@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "--method", "step", "--n", "1e9", "--d", "1e10"),
        ("stats", "--observations", "x"),
        ("analyze", "--surface", "x"),
        ("compare", "--surface", "x", "--methods", "step"),
        ("plot", "--surface", "x"),
    ],
)
def test_seed_option_only_where_it_seeds(argv):
    rc, _, stderr = main_inprocess(*argv, "--seed", "1")
    assert rc == 2 and "unrecognized arguments: --seed" in stderr


# every command with each option it declares set, {name} standing for an input
# or output path
_EVERY_OPTION = {
    "predict": ("predict", "--method", "deepseek", "--n", "1e9", "--d", "1e11", "--loss", "2.5",
                "--budget-factor", "8", "--n-active", "5e8", "--use-active",
                "--meituan-params", "0.006,1.0,1e8,0.2", "--snap", "--laws", "{laws}",
                "--out", "{out}"),
    "fit": ("fit", "--observations", "{obs}", "--bootstrap", "20", "--seed", "3",
            "--out", "{out}"),
    "stats": ("stats", "--observations", "{obs}", "--out", "{out}"),
    "analyze": ("analyze", "--surface", "{surface}", "--metric", "val", "--delta", "0.02",
                "--epsilon", "0.001", "--out", "{out}"),
    "compare": ("compare", "--surface", "{surface}", "--methods", "step,meituan",
                "--metric", "val", "--loss", "2.5", "--budget-factor", "8",
                "--meituan-params", "0.006,1.0,1e8,0.2", "--use-snapped", "--csv", "{csv}",
                "--laws", "{laws}", "--out", "{out}"),
    "synth": ("synth", "surface", "--spec", "{surface_spec}", "--seed", "4", "--out", "{out}"),
    "plot": ("plot", "--surface", "{surface}", "--metric", "val", "--levels", "5,10",
             "--overlay", "{overlay}", "--use-snapped", "--out", "{out}"),
}  # fmt: skip


def test_every_command_is_run_with_every_option():
    assert sorted(_EVERY_OPTION) == sorted(cli._parsers()[1])


@pytest.mark.parametrize("name", sorted(_EVERY_OPTION))
def test_no_option_is_accepted_but_ignored(inputs, tmp_path, monkeypatch, name):
    # each option the command declares is read off its namespace
    laws = tmp_path / "laws.json"
    laws.write_text('{"step": {"c": 2.0}}')
    paths = {"surface": str(FIG3_PATH), "obs": str(inputs["obs"]), "laws": str(laws),
             "surface_spec": str(inputs["surface_spec"]), "overlay": str(inputs["overlay"]),
             "out": str(tmp_path / "out"), "csv": str(tmp_path / "out.csv")}  # fmt: skip
    argv = [arg.format(**paths) for arg in _EVERY_OPTION[name]]
    flags = [a.option_strings for a in cli._parsers()[1][name]._actions if a.dest != "help"]
    assert [f for f in flags if f and not set(f) & set(argv)] == []
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attr):
            read.add(attr)
            return super().__getattribute__(attr)

    parse = cli._parse
    parsed = vars(parse(argv))
    monkeypatch.setattr(cli, "_parse", lambda line: Recording(**vars(parse(line))))
    assert main_inprocess(*argv) == (0, b"", "")
    # command and func are set by the parser, not by an option
    assert set(parsed) - {"command", "func"} - read == set()


# --- malformed inputs that once ended in a traceback ------------------------------


@pytest.mark.parametrize(
    "overlay",
    [
        b"[1,2]",
        b'{"rows": [1]}',
        b'{"rows": [{"method": "x", "predicted": [1, 2], "status": "ok"}]}',
        b'{"rows": [{"method": "x", "predicted": {"lr": "x", "bs": 1}}]}',
        b'{"rows": [{"method": "x", "snapped": {"lr": 1e-3, "bs": 0}}]}',
        b'{"rows": [{"method": "x", "predicted": {"lr": true, "bs": 1}}]}',
        b'{"rows": [{"method": "x", "predicted": {"lr": NaN, "bs": 1}}]}',
        b'{"rows": [{"method": 5}]}',
        b'{"rows": [{"method": null}]}',
        b'{"rows": [{"method": "x", "predicted": {"lr": 1.0, "bs": 1e9}, '
        b'"status": "out_of_hul"}]}',
        b'{"rows": [{"method": "x", "predicted": {"lr": 1e-3, "bs": 262144}, "status": 5}]}',
        b'{"rows": [{"method": "x", "predicted": {"lr": 1e-3, "bs": 262144}, "status": [1]}]}',
        b'{"rows": [{"method": "x", "predicted": {"lr": 1e-3, "bs": 262144}, "status": {}}]}',
    ],
)
def test_plot_bad_overlay_exit_2(tmp_path, overlay):
    path = tmp_path / "overlay.json"
    path.write_bytes(overlay)
    rc, _, stderr = main_inprocess("plot", "--surface", str(FIG3_PATH),
                                   "--overlay", str(path))  # fmt: skip
    assert rc == 2 and stderr.startswith("error: ")


_SVG = "{http://www.w3.org/2000/svg}"


def _overlay(tmp_path, method: bytes):
    path = tmp_path / "overlay.json"
    path.write_bytes(b'{"rows": [{"method": "%s", "status": "ok", '
                     b'"predicted": {"lr": 0.001, "bs": 262144}}]}' % method)  # fmt: skip
    return str(path)


def test_plot_overlay_label_is_escaped_text(tmp_path):
    label = "a<b & </text><script>alert(1)</script>"
    rc, stdout, _ = main_inprocess("plot", "--surface", str(FIG3_PATH),
                                   "--overlay", _overlay(tmp_path, label.encode()))  # fmt: skip
    svg = ET.fromstring(stdout)
    assert rc == 0 and not list(svg.iter(_SVG + "script"))
    assert [t.text for t in svg.iter(_SVG + "text")][-1] == label


@pytest.mark.parametrize("method", [b"x\\u0001y", b"x\\ud800", b"x\\uffff"],
                         ids=["control", "lone-surrogate", "noncharacter"])  # fmt: skip
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_plot_overlay_label_outside_xml_exit_2(tmp_path, method, to_file):
    out = tmp_path / "plot.svg"
    argv = ["--out", str(out)] if to_file else []
    rc, stdout, stderr = main_inprocess("plot", "--surface", str(FIG3_PATH),
                                        "--overlay", _overlay(tmp_path, method), *argv)  # fmt: skip
    assert rc == 2 and stdout == b"" and not out.exists()
    assert stderr.startswith("error: overlay row 0: method must be XML text, got ")


def test_plot_overlay_row_without_an_lr_draws_no_marker(tmp_path):
    path = tmp_path / "overlay.json"
    path.write_bytes(b'{"rows": [{"method": "x", "status": "ok", '
                     b'"predicted": {"lr": null, "bs": 262144}}]}')  # fmt: skip
    rc, stdout, _ = main_inprocess("plot", "--surface", str(FIG3_PATH), "--overlay", str(path))
    assert rc == 0 and stdout == main_inprocess("plot", "--surface", str(FIG3_PATH))[1]


def test_compare_with_no_method_exit_2():
    rc, stdout, stderr = main_inprocess("compare", "--surface", str(FIG3_PATH), "--methods", ",")
    assert (rc, stdout, stderr) == (2, b"", "error: method list must not be empty\n")


def test_extreme_losses_analyze_and_plot_without_overflow(tmp_path):
    # a subnormal minimum and losses near the float maximum pass the row rule;
    # every relative error but the optimum's overflows to inf
    path = tmp_path / "extreme.csv"
    path.write_text("# n_params=1e9\n# d_tokens=1e10\nlr,bs_tokens,train_smooth_loss\n"
                    "1e-3,65536,1e-320\n1e-3,131072,1e308\n"
                    "2e-3,65536,1e308\n2e-3,131072,1e308\n")  # fmt: skip
    rc, stdout, stderr = main_inprocess("analyze", "--surface", str(path))
    assert rc == 0, stderr
    assert strict_json(stdout)["plateau"]["members"] == [[1e-3, 65536]]
    rc, stdout, stderr = main_inprocess("plot", "--surface", str(path))
    assert rc == 0, stderr
    ET.fromstring(stdout)


def test_compare_snapped_to_equal_log_lr_nodes_exit_0(tmp_path):
    # lr nodes 1e300 and the next float share one log: the step law snaps
    # to the first, and the loss read there is that node's
    path = tmp_path / "equal_log.csv"
    lr2 = math.nextafter(1e300, math.inf)
    path.write_text("# n_params=1e9\n# d_tokens=1e11\nlr,bs_tokens,train_smooth_loss\n"
                    f"1e300,131072,2.0\n1e300,262144,2.01\n"
                    f"{lr2!r},131072,2.1\n{lr2!r},262144,2.11\n")  # fmt: skip
    rc, stdout, stderr = main_inprocess("compare", "--surface", str(path), "--methods",
                                        "step", "--use-snapped")  # fmt: skip
    assert rc == 0, stderr
    (row,) = strict_json(stdout)["rows"]
    assert row["snapped"] == {"lr": 1e300, "bs": 262144}
    assert row["status"] == "ok" and row["loss"] == 2.01


def test_surface_past_the_cell_limit_exit_2(tmp_path):
    path = tmp_path / "diagonal.csv"
    path.write_text("# n_params=1e9\n# d_tokens=1e10\nlr,bs_tokens,train_smooth_loss\n"
                    + "".join(f"{k * 1e-6!r},{k},2.0\n" for k in range(1, 1002)))  # fmt: skip
    rc, _, stderr = main_inprocess("analyze", "--surface", str(path))
    assert rc == 2 and stderr.startswith("error: ") and "exceeds the limit" in stderr


@pytest.mark.parametrize(
    "kind,spec",
    [
        ("surface", {"opt_lr": 1e-3, "opt_bs": 2e5, "n_params": "abc"}),
        ("observations", {"n_values": "ab", "d_values": [1e9, 1e10]}),
        ("observations", {"n_values": 5, "d_values": [1e9, 1e10]}),
        ("observations", {"n_values": [1e8, 1e9], "d_values": [1e9, 1e10],
                          "noise_sigma": 0.1, "seed": "x"}),
    ],
)  # fmt: skip
def test_synth_bad_spec_types_exit_2(tmp_path, kind, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": kind, **spec}))
    rc, _, stderr = main_inprocess("synth", kind, "--spec", str(path))
    assert rc == 2 and stderr.startswith("error: ")


def test_synth_negative_seed_exit_2(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "surface", "opt_lr": 1e-3, "opt_bs": 2e5,
                                "noise_sigma": 0.1}))  # fmt: skip
    rc, _, stderr = main_inprocess("synth", "surface", "--spec", str(path), "--seed", "-1")
    assert rc == 2 and "seed" in stderr


def test_fit_negative_seed_exit_2(inputs):
    rc, _, stderr = main_inprocess("fit", "--observations", str(inputs["obs"]), "--seed", "-1")
    assert rc == 2 and stderr.startswith("error: ") and "seed" in stderr


@pytest.mark.parametrize("levels", ["nan", "inf", "2,nan", "1e999"])
def test_plot_non_finite_levels_exit_2(levels):
    rc, stdout, stderr = main_inprocess("plot", "--surface", str(FIG3_PATH), "--levels", levels)
    assert rc == 2 and stdout == b"" and stderr.startswith("error: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("plot", "--surface", str(FIG3_PATH), "--levels", "0"),
         "--levels must be a positive finite number, got 0.0"),
        (("plot", "--surface", str(FIG3_PATH), "--levels", "1,nan"),
         "--levels must be a positive finite number, got nan"),
        # with "=", as argparse reads a bare -1,1,1,1 as an option
        (("predict", "--method", "meituan", "--n", "1e9", "--d", "1e10", "--loss", "2",
          "--meituan-params=-1,1,1,1"),
         "--meituan-params must be a positive finite number, got -1.0"),
        (("predict", "--method", "meituan", "--n", "1e9", "--d", "1e10", "--loss", "2",
          "--meituan-params=1,0,1,1"),
         "--meituan-params must be a positive finite number, got 0.0"),
    ],
    ids=["levels-zero", "levels-nan", "meituan-params-negative", "meituan-params-zero"],
)  # fmt: skip
def test_comma_list_names_its_flag_and_takes_positive_numbers(argv, message):
    rc, stdout, stderr = main_inprocess(*argv)
    assert (rc, stdout, stderr) == (2, b"", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("plot", "--surface", str(FIG3_PATH), "--levels", ","),
        ("plot", "--surface", str(FIG3_PATH), "--levels", " , ,"),
        ("plot", "--surface", str(FIG3_PATH), "--levels", ""),
        ("predict", "--n", "1e9", "--d", "1e10", "--method", "meituan", "--loss", "2.0",
         "--meituan-params", ","),
        ("predict", "--n", "1e9", "--d", "1e10", "--method", "step", "--meituan-params", ""),
    ],
    ids=["levels", "levels-blank", "levels-empty", "meituan-params", "meituan-params-empty"],
)  # fmt: skip
def test_comma_list_with_no_number_exit_2(tmp_path, argv):
    out = tmp_path / "out"
    rc, stdout, stderr = main_inprocess(*argv, "--out", str(out))
    assert rc == 2 and stdout == b"" and not out.exists()
    assert stderr.startswith(f"error: {argv[-2]} must list at least one number, got ")


# a document of each JSON option with %s where a number goes
_NUMBER_SLOTS = {
    "--laws": b'{"step": {"c": %s}}',
    "--spec": b'{"kind": "surface", "opt_lr": %s, "opt_bs": 200000}',
    "--overlay": b'{"rows": [{"method": "step", "predicted": {"lr": %s, "bs": 1}}]}',
}


@pytest.mark.parametrize(
    "option,payload",
    [
        *[pytest.param(option, payload, id=f"{option[2:]}-{name}")
          for option, slot in _NUMBER_SLOTS.items()
          for name, payload in (("deep", b"[" * 100_000),
                                ("5000-digit", slot % (b"9" * 5000)),
                                ("not-utf8", b"\xff"))],
        pytest.param("--laws", b'{"__class__": {}}', id="laws-dunder"),
    ],
)  # fmt: skip
def test_hostile_json_exit_2(tmp_path, option, payload):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    for argv in _fuzz_commands(option, str(path)):
        rc, _, stderr = main_inprocess(*argv)
        assert rc == 2, (argv, stderr)
        assert stderr.startswith("error: ") and "Traceback" not in stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "--method", "deepseek", "--n", "1e9", "--d", "1e10"),
        ("predict", "--method", "step", "--n", "1e9", "--d", "1e10"),
        ("compare", "--surface", str(FIG3_PATH), "--methods", "step,deepseek"),
    ],
    ids=["predict-deepseek", "predict-step", "compare"],
)
def test_bad_budget_factor_exit_2(argv, value):
    rc, stdout, stderr = main_inprocess(*argv, f"--budget-factor={value}")
    assert rc == 2 and stdout == b"" and "--budget-factor must be a positive finite" in stderr


def test_overflowing_budget_keeps_deepseek_row_unsupported():
    rc, stdout, _ = main_inprocess("compare", "--surface", str(FIG3_PATH), "--methods",
                                   "step,deepseek", "--budget-factor", "1e300")  # fmt: skip
    rows = {row["method"]: row for row in strict_json(stdout)["rows"]}
    assert rc == 0 and rows["deepseek"]["status"] == "unsupported"
    assert "overflows" in rows["deepseek"]["note"] and rows["step"]["status"] == "ok"
    rc, _, stderr = main_inprocess("predict", "--method", "deepseek", "--n", "1e9",
                                   "--d", "1e10", "--budget-factor", "1e300")  # fmt: skip
    assert rc == 3 and "overflows" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "--method", "openai", "--n", "1e9", "--d", "1e10", "--loss", "inf"),
        ("predict", "--method", "step", "--n", "1e9", "--d", "1e10", "--loss", "inf"),
        ("compare", "--surface", str(FIG3_PATH), "--methods", "step,openai", "--loss", "inf"),
        ("predict", "--method", "step", "--n", "1e9", "--d", "1e10", "--n-active", "inf"),
    ],
    ids=["predict-openai-loss", "predict-step-loss", "compare-loss", "n-active"],
)
def test_infinite_loss_or_active_count_exit_2(argv):
    rc, stdout, stderr = main_inprocess(*argv)
    assert rc == 2 and stdout == b"" and "must be a positive finite number" in stderr


@pytest.mark.parametrize("flag,key", [("--delta", "plateau"), ("--epsilon", "convexity")])
def test_infinite_tolerance_reported_as_null(flag, key):
    rc, stdout, _ = main_inprocess("analyze", "--surface", str(FIG3_PATH), flag, "inf")
    doc = strict_json(stdout)
    assert rc == 0 and doc[key][flag[2:]] is None
    if key == "plateau":  # every point lies within an infinite tolerance
        assert len(doc["plateau"]["members"]) == len(load_surface(FIG3_TEXT).points)


def test_stats_on_exact_lattice_is_strict_json(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "observations", "n_values": list(LATTICE_N),
                                "d_values": list(LATTICE_D)}))  # fmt: skip
    obs = tmp_path / "obs.csv"
    obs.write_bytes(main_inprocess("synth", "observations", "--spec", str(spec))[1])
    rc, stdout, _ = main_inprocess("stats", "--observations", str(obs))
    doc = strict_json(stdout)
    assert rc == 0 and doc["full_model"]["f_statistic"] is None
    assert b"Infinity" not in stdout and b": null" in stdout


_SPAN_ERROR = "error: batch-size regression needs >= 2 distinct N and >= 2 distinct D\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1e9,1e10,1e-3,1e5\n1e9,2e10,1e-3,1.5e5\n1e9,4e10,1e-3,2e5\n1e9,8e10,1e-3,3e5\n",
         _SPAN_ERROR),
        ("1e8,1e10,1e-3,1e5\n2e8,1e10,1e-3,1.5e5\n4e8,1e10,1e-3,2e5\n8e8,1e10,1e-3,3e5\n",
         _SPAN_ERROR),
        # N proportional to D: each spans 5 values, but log N - log D is constant
        ("1e8,1e10,1e-3,1e5\n2e8,2e10,1e-3,1.5e5\n4e8,4e10,1e-3,2e5\n8e8,8e10,1e-3,3e5\n"
         "1.6e9,1.6e11,1e-3,4e5\n", "error: design matrix is rank deficient\n"),
    ],
    ids=["one-N", "one-D", "N-proportional-to-D"],
)  # fmt: skip
def test_stats_degenerate_observations_exit_2(tmp_path, rows, message):
    path = tmp_path / "obs.csv"
    path.write_text("n_params,d_tokens,opt_lr,opt_bs_tokens\n" + rows)
    rc, stdout, stderr = main_inprocess("stats", "--observations", str(path))
    assert (rc, stdout, stderr) == (2, b"", message)


def test_finite_reports_are_unchanged_by_the_strict_encoder():
    rc, stdout, _ = main_inprocess("analyze", "--surface", str(FIG3_PATH))
    assert rc == 0
    assert stdout.decode() == json.dumps(strict_json(stdout), indent=2, sort_keys=True) + "\n"


# lr falls from 1e-3 at N=1e9 to 1e-53 at N=1e10: alpha = -50, log c = 1,029
STEEP_OBSERVATIONS = b"""n_params,d_tokens,opt_lr,opt_bs_tokens
1e9,1e10,1e-3,1e5
1e10,1e10,1e-53,1e5
1e9,1e11,1e-3,2e5
1e10,1e11,1e-53,2e5
1e9,1e12,1e-3,4e5
"""


def test_fit_overflowing_coefficient_exit_3(tmp_path):
    path = tmp_path / "steep.csv"
    path.write_bytes(STEEP_OBSERVATIONS)
    rc, stdout, stderr = main_inprocess("fit", "--observations", str(path), "--bootstrap", "50")
    assert rc == 3 and stdout == b"" and "fitted c" in stderr and "overflows" in stderr


def test_fit_overflowing_ci_end_is_named(tmp_path):
    # the mean log c and log d have finite exps; with log D near 691 a
    # small swing in a resample's gamma moves its log d by hundreds, past
    # 709 at the upper 97.5% end (on seed 0 the mean itself overflows)
    rows = [f"{1e8 * (1 + k)!r},{1e300 * (1 + k % 3)!r},1e-300,{1e300 * (1 + k % 2)!r}"
            for k in range(6)]  # fmt: skip
    path = tmp_path / "wide.csv"
    path.write_text("n_params,d_tokens,opt_lr,opt_bs_tokens\n" + "\n".join(rows) + "\n")
    rc, stdout, stderr = main_inprocess(
        "fit", "--observations", str(path), "--bootstrap", "50", "--seed", "1"
    )
    assert rc == 3 and stdout == b""
    assert stderr.startswith("error: upper CI end of d overflows a float (its log is ")


@pytest.mark.parametrize("command", ["fit", "stats"])
def test_oversized_observation_field_exit_2(tmp_path, command):
    path = tmp_path / "obs.csv"
    path.write_bytes(b"n_params,d_tokens,opt_lr,opt_bs_tokens\n1e9,1e10,1e-3," + b"7" * 131_073)
    rc, stdout, stderr = main_inprocess(command, "--observations", str(path))
    assert rc == 2 and stdout == b"" and stderr.startswith("error: line 2: ")


_LONG = "x" * 131_073
_META = "# n_params=1e9\n# d_tokens=1e10\n"
_SURFACE_HEADER = "lr,bs_tokens,train_smooth_loss\n"
_OBS_HEADER = "n_params,d_tokens,opt_lr,opt_bs_tokens\n"


@pytest.mark.parametrize(
    "option,text,prefix",
    [
        ("--surface", f"{_META}{_SURFACE_HEADER}1e-3,32768,{_LONG}\n",
         "error: line 4: non-numeric value: "),
        ("--observations", f"{_OBS_HEADER}1e9,1e10,1e-3,{_LONG}\n",
         "error: line 2: non-numeric value: "),
        ("--surface", f"{_META}lr,{_LONG}\n", "error: line 3: bad header "),
        ("--observations", f"n_params,{_LONG}\n", "error: line 1: bad header "),
        ("--surface", f"{_META}{_SURFACE_HEADER}1e-3,1.{'5' * 131_073},2.0\n",
         "error: line 4: bs_tokens must be integral, got 1.555"),
        ("--surface", f"# n_params={_LONG}\n# d_tokens=1e10\n{_SURFACE_HEADER}1e-3,32768,2.0\n",
         "error: bad metadata: "),
    ],
    ids=["surface-cell", "observation-cell", "surface-header", "observation-header",
         "bs-tokens", "metadata"],
)  # fmt: skip
def test_parse_errors_quote_a_short_excerpt(tmp_path, option, text, prefix):
    path = tmp_path / "input.csv"
    path.write_text(text)
    for argv in _fuzz_commands(option, str(path)):
        rc, stdout, stderr = main_inprocess(*argv)
        assert rc == 2 and stdout == b"" and stderr.startswith(prefix), (argv, stderr[:300])
        assert len(stderr.encode("utf-8")) < 300, argv


_HUGE = "q" * 100_000


@pytest.mark.parametrize(
    "argv,file_text",
    [
        (["compare", f"--surface={FIG3_PATH}", "--methods", _HUGE], None),
        (["plot", f"--surface={FIG3_PATH}", "--levels", _HUGE[:50_000]], None),
        (["predict", "--method=meituan", "--n=1e9", "--d=1e10", "--loss=2",
          "--meituan-params", _HUGE], None),
        (["predict", "--method=step", "--n=1e9", "--d=1e10", "--laws", "FILE"],
         json.dumps({_HUGE: {}})),
        (["compare", f"--surface={FIG3_PATH}", "--methods=step", "--laws", "FILE"],
         json.dumps({"step": {_HUGE: 1.0}})),
        (["synth", "surface", "--spec", "FILE"], json.dumps({"kind": "surface", _HUGE: 1})),
        (["synth", "observations", "--spec", "FILE"],
         json.dumps({"kind": "observations", "n_values": [1, 2], "d_values": [1, 2], _HUGE: 1})),
    ],
    ids=["methods", "levels", "meituan-params", "law-name", "law-keys", "surface-spec",
         "observation-spec"],
)  # fmt: skip
def test_argument_errors_quote_a_short_excerpt(tmp_path, argv, file_text):
    if file_text is not None:
        path = tmp_path / "input.json"
        path.write_text(file_text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    rc, stdout, stderr = main_inprocess(*argv)
    assert rc == 2 and stdout == b"" and stderr.startswith("error: "), stderr[:300]
    assert len(stderr.encode("utf-8")) < 300, stderr[:300]


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--method", "VALUE", "--n=1e9", "--d=1e10"],
        ["fit", "--bootstrap", "VALUE"],
        ["predict", "--method=step", "--n", "VALUE", "--d=1e10"],
        ["VALUE"],
    ],
    ids=["choice", "int", "float", "command"],
)
def test_usage_errors_quote_a_short_excerpt(argv):
    def usage_error(value):
        rc, stdout, stderr = main_inprocess(*[value if a == "VALUE" else a for a in argv])
        assert rc == 2 and stdout == b"" and "invalid" in stderr, stderr[:300]
        return stderr

    huge = usage_error(_HUGE)
    assert len(huge.encode("utf-8")) < 1024, huge[:300]
    # argparse's own message, the value's quote cut after 40 characters
    assert huge == usage_error(_HUGE[:39]).replace(f"'{_HUGE[:39]}'", f"'{_HUGE[:39]}")


def test_unrecognized_arguments_quote_a_short_excerpt():
    def extra_argv_error(extra):
        rc, stdout, stderr = main_inprocess("predict", "--method=step", "--n", "1", "--d=1", extra)
        assert rc == 2 and stdout == b"", stderr[:300]
        return stderr

    huge = extra_argv_error(_HUGE)
    assert len(huge.encode("utf-8")) < 1024, huge[:300]
    # argparse's own message, the extra argv cut after 40 characters
    assert huge == extra_argv_error(_HUGE[:40])
    assert huge.endswith(f"error: unrecognized arguments: {_HUGE[:40]}\n")


def test_fit_resample_cap_is_stated_and_enforced(inputs):
    rc, stdout, _ = main_inprocess("fit", "--help")
    assert rc == 0 and b"1 to 100,000" in stdout
    for count in ("100001", "1000000000"):
        rc, stdout, stderr = main_inprocess(
            "fit", f"--observations={inputs['obs']}", f"--bootstrap={count}"
        )
        assert rc == 2 and stdout == b"" and "between 1 and 100,000" in stderr


def test_fit_bootstrap_past_the_cell_limit_exit_2(tmp_path, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a resample was drawn")

    path = tmp_path / "wide.csv"
    path.write_text(observations_to_csv(independent_n_observations(0, n=3000)))
    monkeypatch.setattr(philox, "indices", no_draws)
    rc, stdout, stderr = main_inprocess("fit", f"--observations={path}", "--bootstrap=100000")
    assert rc == 2 and stdout == b"" and stderr.startswith("error: ")
    assert "300,000,000 cells exceeds the bootstrap limit" in stderr


def test_synth_observations_past_the_lattice_limit_exit_2(tmp_path):
    # 1,000 x 1,000 nodes from a 39 KB spec: refused before any observation
    # is built, which would take about 500 bytes each
    path = tmp_path / "lattice.json"
    values = [1e8 + k for k in range(1000)]
    path.write_text(json.dumps({"kind": "observations", "n_values": values, "d_values": values}))
    tracemalloc.start()
    try:
        rc, stdout, stderr = main_inprocess("synth", "observations", "--spec", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2 and stdout == b""
    assert stderr == ("error: the N x D lattice of 1,000 x 1,000 = 1,000,000 nodes "
                      "exceeds the limit of 100,000\n")  # fmt: skip
    assert peak < 5_000_000


@pytest.mark.parametrize("flag,value", [("--d", "inf"), ("--n", "nan"), ("--n", "inf")])
def test_predict_non_finite_scale_exit_2(flag, value):
    argv = {"--n": "1e9", "--d": "1e10", flag: value}
    rc, _, stderr = main_inprocess("predict", "--method", "step",
                                   *[t for kv in argv.items() for t in kv])  # fmt: skip
    assert rc == 2 and "finite" in stderr


def test_stats_keys(inputs):
    rc, stdout, _ = main_inprocess("stats", "--observations", str(inputs["obs"]))
    doc = json.loads(stdout)
    assert rc == 0
    assert {tuple(sorted(f)) for f in doc["formulations"]} == {(
        "adjusted_r_squared", "delta_adj_r2_vs_full", "f_statistic", "name",
        "r_squared",
    )}  # fmt: skip
    assert {tuple(sorted(t)) for t in doc["nested_tests"]} == {
        ("f_statistic", "full", "p_value", "restricted")
    }
    full = doc["full_model"]
    assert sorted(full) == ["adjusted_r_squared", "f_pvalue", "f_statistic", "n",
                            "predictors", "r_squared"]  # fmt: skip
    assert {tuple(sorted(p)) for p in full["predictors"]} == {(
        "ci95", "coefficient", "name", "p_value", "standard_error", "t_value",
    )}  # fmt: skip


# --- the one writer: --out and --csv files --------------------------------------

# every command that writes a file, with the flag naming that file last
WRITERS = {
    "analyze": ("analyze", "--surface", "{surface}", "--out"),
    "compare --out": ("compare", "--surface", "{surface}", "--methods", "step", "--out"),
    "compare --csv": ("compare", "--surface", "{surface}", "--methods", "step",
                      "--out", os.devnull, "--csv"),  # fmt: skip
    "plot": ("plot", "--surface", "{surface}", "--out"),
    "fit": ("fit", "--observations", "{obs}", "--bootstrap", "20", "--out"),
    "stats": ("stats", "--observations", "{obs}", "--out"),
    "predict": ("predict", "--method", "step", "--n", "1e9", "--d", "1e10", "--out"),
    "synth": ("synth", "surface", "--spec", "{surface_spec}", "--out"),
}


def _writer_argv(inputs, writer, target):
    paths = {"surface": str(FIG3_PATH), "obs": str(inputs["obs"]),
             "surface_spec": str(inputs["surface_spec"])}  # fmt: skip
    return [arg.format(**paths) for arg in WRITERS[writer]] + [str(target)]


@pytest.mark.parametrize("prior_factor", [3.0, 0.1])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_out_rewrites_an_existing_file_to_the_fresh_bytes(inputs, tmp_path, writer, prior_factor):
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    assert main_inprocess(*_writer_argv(inputs, writer, fresh)) == (0, b"", "")
    report = fresh.read_bytes()
    existing.write_bytes(b"\xff" * max(1, int(prior_factor * len(report))))
    assert main_inprocess(*_writer_argv(inputs, writer, existing)) == (0, b"", "")
    assert existing.read_bytes() == report


def test_out_keeps_the_inode_and_its_hard_links(tmp_path):
    out, link = tmp_path / "report.json", tmp_path / "link.json"
    out.write_bytes(b"{}" * 5000)
    os.link(out, link)
    inode = out.stat().st_ino
    stdout = main_inprocess("analyze", "--surface", str(FIG3_PATH))[1]
    assert main_inprocess("analyze", "--surface", str(FIG3_PATH), "--out", str(out))[0] == 0
    assert out.stat().st_ino == inode
    assert link.read_bytes() == out.read_bytes() == stdout


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_out_creates_a_new_file_with_mode_666_less_umask(tmp_path, umask):
    out = tmp_path / "new.svg"
    old = os.umask(umask)
    try:
        rc, _, _ = main_inprocess("plot", "--surface", str(FIG3_PATH), "--out", str(out))
    finally:
        os.umask(old)
    assert rc == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_out_to_dev_null_exit_0(inputs, writer):
    assert main_inprocess(*_writer_argv(inputs, writer, os.devnull)) == (0, b"", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("target", ["missing_parent", "directory"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_failure_exit_4(inputs, tmp_path, writer, target):
    path = tmp_path / "missing" / "report" if target == "missing_parent" else tmp_path
    rc, stdout, stderr = main_inprocess(*_writer_argv(inputs, writer, path))
    assert (rc, stdout) == (4, b"")
    assert stderr.startswith("error: ")


@pytest.mark.parametrize("target", ["missing_parent", "directory"])
@pytest.mark.parametrize("report", ["absent", "present", "dangling_link", "stdout"])
def test_write_failure_exit_4_writes_no_report(tmp_path, report, target):
    # the CSV target cannot be opened: the JSON report is not written either
    out = tmp_path / "r.json"
    if report == "present":
        out.write_bytes(b"an earlier report\n" * 100)
    elif report == "dangling_link":
        out.symlink_to(tmp_path / "target.json")
    before = out.read_bytes() if report == "present" else None
    csv = tmp_path / "missing" / "x.csv" if target == "missing_parent" else tmp_path
    argv = ["compare", "--surface", str(FIG3_PATH), "--methods", "step", "--csv", str(csv)]
    if report != "stdout":
        argv += ["--out", str(out)]
    rc, stdout, stderr = main_inprocess(*argv)
    assert (rc, stdout) == (4, b"")
    assert stderr.startswith("error: ")
    assert (out.read_bytes() if out.exists() else None) == before
    left = ["r.json"] if report in ("present", "dangling_link") else []
    assert sorted(p.name for p in tmp_path.iterdir()) == left


@pytest.mark.parametrize(
    "link,present",
    [("same_path", False), ("same_path", True), ("symlink", False), ("symlink", True),
     ("hard_link", True)],
)  # fmt: skip
def test_outputs_naming_one_file_exit_2_and_write_nothing(tmp_path, link, present):
    csv = tmp_path / "f"
    if present:
        csv.write_bytes(b"an earlier report\n" * 100)
    out = csv if link == "same_path" else tmp_path / "link"
    if link == "symlink":
        out.symlink_to(csv)
    elif link == "hard_link":
        os.link(csv, out)
    before = sorted(p.name for p in tmp_path.iterdir())
    rc, stdout, stderr = main_inprocess("compare", "--surface", str(FIG3_PATH), "--methods",
                                        "step", "--out", str(out), "--csv", str(csv))  # fmt: skip
    assert (rc, stdout) == (2, b"")
    assert stderr.startswith("error: ") and "same file" in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if present:
        assert csv.read_bytes() == b"an earlier report\n" * 100


def test_both_outputs_to_dev_null_exit_0():
    compare = ["compare", "--surface", str(FIG3_PATH), "--methods", "step"]
    assert main_inprocess(*compare, "--out", os.devnull, "--csv", os.devnull) == (0, b"", "")


def test_one_open_per_file_target(tmp_path, monkeypatch):
    calls = []
    real_open, real_exists = os.open, os.path.exists
    monkeypatch.setattr(os, "open", lambda *a: calls.append("open") or real_open(*a))
    monkeypatch.setattr(os.path, "exists", lambda p: calls.append("exists") or real_exists(p))
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    compare = ["compare", "--surface", str(FIG3_PATH), "--methods", "step"]
    assert main_inprocess(*compare, "--out", str(out))[0] == 0
    assert calls == ["open"]
    calls.clear()
    assert main_inprocess(*compare, "--out", str(out), "--csv", str(csv))[0] == 0
    assert calls == ["exists", "open", "open"]
    assert out.read_bytes().startswith(b"{\n") and csv.read_bytes().startswith(b"method,")


# --- in-process fuzz of every file input ---------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**20), max_value=10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
_numbers = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-5, 10**6)
# spec-like values: mostly numbers and lists of numbers, sometimes anything
_spec_values = _numbers | st.lists(_numbers, max_size=5) | json_values


def _json_bytes(strategy):
    return strategy.map(lambda doc: json.dumps(doc).encode("utf-8"))


def _objects_with(keys, values, required=None):
    return st.fixed_dictionaries(
        required or {}, optional={k: values for k in keys}
    )


_SPEC_KEYS = (
    "opt_lr", "opt_bs", "curvature_lr", "curvature_bs", "cross_term", "base_loss",
    "noise_sigma", "seed", "val_offset", "n_params", "d_tokens", "c", "alpha",
    "beta", "d_coef", "gamma", "n_values", "d_values", "snap", "scale",
)  # fmt: skip
spec_docs = _objects_with(
    _SPEC_KEYS, _spec_values,
    required={"kind": st.sampled_from(["surface", "observations"])},
)  # fmt: skip
law_docs = st.dictionaries(
    st.sampled_from(LAW_METHODS),
    _objects_with(
        ("c", "alpha", "beta", "d", "gamma", "intercept", "slope", "bs_coef",
         "bs_exp", "coef", "n_exp", "d_exp", "lr_coef", "lr_exp", "lambda",
         "lambda_b", "alpha_b"),
        _numbers | json_values,
    ),
    max_size=3,
)  # fmt: skip
_coords = _objects_with(("lr", "bs"), _numbers | json_values) | json_values
overlay_docs = st.fixed_dictionaries({
    "rows": st.lists(
        _objects_with(
            ("method", "predicted", "snapped", "status"), _coords
        ) | json_values,
        max_size=4,
    )
})  # fmt: skip


def _csv_rows(header, width):
    cell = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-5, 10**12).map(str),
        st.sampled_from(["", "x", "1e999", " 1", "nan"]),
    )
    rows = st.lists(st.lists(cell, min_size=width - 1, max_size=width + 1), max_size=12)
    return rows.map(
        lambda rs: (header + "".join(",".join(r) + "\n" for r in rs)).encode("utf-8")
    )


observation_csvs = _csv_rows("n_params,d_tokens,opt_lr,opt_bs_tokens\n", 4)
surface_csvs = _csv_rows(
    "# n_params=1e9\n# d_tokens=1e10\nlr,bs_tokens,train_smooth_loss,val_loss\n", 4
)
FIG3_TEXT = FIG3_PATH.read_bytes()


def _fuzz_commands(option, path):
    fig3 = str(FIG3_PATH)
    return {
        "--laws": [
            ("predict", "--method", "step", "--n", "1e9", "--d", "1e10",
             "--laws", path),
            ("compare", "--surface", fig3, "--methods", ",".join(LAW_METHODS),
             "--loss", "2.5", "--laws", path),
        ],
        "--spec": [
            ("synth", "surface", "--spec", path),
            ("synth", "observations", "--spec", path),
        ],
        "--observations": [
            ("fit", "--observations", path, "--bootstrap", "20"),
            ("stats", "--observations", path),
        ],
        "--surface": [
            ("analyze", "--surface", path, "--metric", "val"),
            ("compare", "--surface", path, "--methods", "step,porian"),
            ("plot", "--surface", path),
        ],
        "--overlay": [("plot", "--surface", fig3, "--overlay", path)],
    }[option]  # fmt: skip


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_payloads = {
    "--laws": _json_bytes(law_docs | json_values),
    "--spec": _json_bytes(spec_docs | json_values),
    "--observations": observation_csvs,
    "--surface": surface_csvs | st.just(FIG3_TEXT).flatmap(
        lambda text: st.integers(0, len(text)).map(lambda k: text[:k])
    ),
    "--overlay": _json_bytes(overlay_docs | json_values),
}


@settings(max_examples=fuzz_examples(150))
@given(
    option=st.sampled_from(sorted(_payloads)),
    data=st.data(),
)
def test_file_inputs_never_escape_the_exit_code_contract(fuzz_dir, option, data):
    payload = data.draw(_payloads[option] | st.binary(max_size=64), label="payload")
    path = fuzz_dir / "input"
    path.write_bytes(payload)
    for argv in _fuzz_commands(option, str(path)):
        rc, stdout, stderr = main_inprocess(*argv)
        assert rc in (0, 2, 3), (argv, payload, stderr)
        assert "Traceback" not in stderr
        if rc == 0 and argv[0] in JSON_COMMANDS:
            strict_json(stdout)


# --- in-process fuzz of the numeric flags ---------------------------------------

_flag_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, math.nan, math.inf, -math.inf]).map(repr),
    st.sampled_from(["1e999", "-1e999", "NaN", "-inf", "0x10", "1_0", " 2", "", "x"]),
)
# --bootstrap sizes the index matrix: keep it small, or past the cap, where
# it is rejected before anything is allocated
_bootstrap_counts = st.integers(-3, 2000).map(str) | st.sampled_from(
    ["1e3", "nan", "x", "100001", "1000000000", "9" * 40]
)
_NUMERIC_FLAGS = {
    "predict": ("--n", "--d", "--loss", "--n-active", "--budget-factor"),
    "compare": ("--loss", "--budget-factor"),
    "analyze": ("--delta", "--epsilon"),
    "plot": ("--levels",),
    "fit": ("--bootstrap",),
}


@settings(max_examples=fuzz_examples(200))
@given(command=st.sampled_from(sorted(_NUMERIC_FLAGS)), data=st.data())
def test_numeric_flags_never_escape_the_exit_code_contract(inputs, command, data):
    fig3, meituan = str(FIG3_PATH), "--meituan-params=0.01,2.0,1e9,0.5"
    argv = {
        "predict": ["predict", f"--method={data.draw(st.sampled_from(LAW_METHODS))}",
                    "--n=1e9", "--d=1e10", meituan],
        "compare": ["compare", f"--surface={fig3}", f"--methods={','.join(LAW_METHODS)}",
                    meituan],
        "analyze": ["analyze", f"--surface={fig3}"],
        "plot": ["plot", f"--surface={fig3}"],
        "fit": ["fit", f"--observations={inputs['obs']}"],
    }[command]  # fmt: skip
    for flag in _NUMERIC_FLAGS[command]:
        if flag == "--bootstrap":
            value = data.draw(_bootstrap_counts, label=flag)
        elif flag == "--levels":
            value = ",".join(data.draw(st.lists(_flag_numbers, min_size=1, max_size=3)))
        elif data.draw(st.booleans(), label=f"set {flag}"):
            value = data.draw(_flag_numbers, label=flag)
        else:
            continue
        argv.append(f"{flag}={value}")
        if flag == "--n-active":
            argv.append("--use-active")
    rc, stdout, stderr = main_inprocess(*argv)
    assert rc in (0, 2, 3), (argv, stderr)
    assert "Traceback" not in stderr
    if rc == 0 and command in JSON_COMMANDS:
        strict_json(stdout)
