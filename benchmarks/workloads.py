"""Workload plans, their two executors, and the output checks.

A plan is the ordered list of steps in one pass over a workload's corpus.
A step is an `hpscale` command line (Cmd), a batch of library calls
(Api), or benchmark-side glue between commands (Glue). The same plan runs
in-process through hpscale.cli.main, or as a replay of each command's
public calls under the tracer. Paths in a plan are relative to the
corpus directory, which is the working directory while passes run.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from hpscale import (
    ArgumentError,
    AuxInputs,
    DomainError,
    GridSpec,
    HpscaleError,
    OptimumObservation,
    OutOfHullError,
    argmin_consistency,
    baseline_predict,
    bootstrap_fit,
    compare_formulations,
    compute_budget,
    convexity_report,
    find_optimum,
    interpolate_loss,
    load_observations,
    load_surface,
    observations_to_csv,
    plateau,
    relative_error,
    snap_to_grid,
)
from hpscale import cli
from hpscale.svgplot import DEFAULT_LEVELS_PERMILLE, LEVEL_COLORS, render_surface_svg

from corpus import MEITUAN, METHODS

SVG_NS = "{http://www.w3.org/2000/svg}"
STATUSES = ("ok", "out_of_hull", "unsupported")


class CheckFailed(Exception):
    pass


@dataclass
class Cmd:
    argv: list[str]
    check: Callable[[bytes], dict]

    @property
    def key(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


@dataclass
class Api:
    key: str
    run: Callable  # run(tracer) -> output bytes
    ops: int
    check: Callable[[bytes], dict]


@dataclass
class Glue:
    run: Callable[[], None]


# --- checks -------------------------------------------------------------------


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _json(data: bytes, keys) -> dict:
    doc = json.loads(data)
    missing = [k for k in keys if k not in doc]
    _require(not missing, f"missing keys {missing}")
    return doc


def check_analyze(planted_node):
    def check(data):
        doc = _json(data, ("meta", "optimum", "plateau", "convexity", "argmin_consistency"))
        opt = [doc["optimum"]["lr"], doc["optimum"]["bs"]]
        _require(opt in doc["plateau"]["members"], "optimum outside its plateau")
        # every corpus surface has a val column
        _require(doc["argmin_consistency"] is not None, "argmin_consistency missing")
        if planted_node is not None:
            _require(opt == planted_node, f"optimum {opt} is not the planted node {planted_node}")
        return {}

    return check


def check_compare(data):
    doc = _json(data, ("meta", "rows"))
    rows = doc["rows"]
    _require([r["method"] for r in rows] == METHODS.split(","), "compare methods")
    for r in rows:
        _require(r["status"] in STATUSES, f"status {r['status']!r}")
        if r["status"] == "ok":
            rel = r["relative_error_permille"]
            _require(math.isfinite(rel) and rel >= 0, f"{r['method']} relative error {rel}")
    # every planted optimum lies inside the hull, so the step law is scored
    _require(rows[0]["status"] == "ok", "step law not scored")
    return {"rows": len(rows), "scored": sum(r["status"] == "ok" for r in rows)}


def check_plot(data):
    root = ET.fromstring(data)
    _require(root.tag == SVG_NS + "svg", f"root element {root.tag}")
    segments = sum(
        1 for el in root.iter(SVG_NS + "line") if el.get("stroke") in LEVEL_COLORS
    )
    return {"svg_bytes": len(data), "segments": segments}


def check_fit(resamples: int):
    def check(data):
        doc = _json(data, ("c", "alpha", "beta", "d", "gamma", "ci", "resamples", "meta"))
        _require(doc["resamples"] == resamples, "resample count")
        for name in ("c", "alpha", "beta", "d", "gamma"):
            lo, hi = doc["ci"][name]
            _require(lo <= doc[name] <= hi, f"CI of {name} does not bracket the mean")
        return {}

    return check


def check_stats(data):
    doc = _json(data, ("meta", "formulations", "nested_tests", "full_model"))
    _require(len(doc["formulations"]) == 3, "formulation count")
    _require(len(doc["nested_tests"]) == 2, "nested test count")
    return {}


def check_queries(data):
    values = json.loads(data)
    _require(all(math.isfinite(v) and v >= 0 for v in values), "query relative error")
    return {}


# --- plans --------------------------------------------------------------------


def _compare_argv(entry, out, *extra):
    return [
        "compare", "--surface", entry["file"], "--methods", METHODS,
        "--loss", repr(entry["loss"]), "--meituan-params", MEITUAN,
        *extra, "--out", out,
    ]  # fmt: skip


def _paper_plan(m) -> list:
    steps = []
    for k, s in enumerate(m["surfaces"]):
        steps.append(Cmd(["analyze", "--surface", s["file"], "--out", f"a{k:02d}.json"],
                         check_analyze(s["planted_node"])))  # fmt: skip
        steps.append(Cmd(_compare_argv(s, f"c{k:02d}.json"), check_compare))
        steps.append(Cmd(["plot", "--surface", s["file"], "--out", f"p{k:02d}.svg"], check_plot))

    def write_argmins():
        obs = []
        for k, s in enumerate(m["surfaces"]):
            opt = json.loads(Path(f"a{k:02d}.json").read_bytes())["optimum"]
            obs.append(OptimumObservation(s["n"], s["d"], opt["lr"], opt["bs"]))
        Path("argmins.csv").write_text(observations_to_csv(obs), encoding="utf-8")

    resamples = m["resamples"]
    return steps + [
        Glue(write_argmins),
        Cmd(["fit", "--observations", "argmins.csv", "--bootstrap", str(resamples),
             "--seed", str(m["fit_seed"]), "--out", "fit.json"], check_fit(resamples)),
        Cmd(["stats", "--observations", "argmins.csv", "--out", "stats.json"], check_stats),
    ]  # fmt: skip


def _dense_plan(m) -> list:
    queries = [tuple(q) for q in m["queries"]]
    steps = []
    for k, s in enumerate(m["surfaces"]):
        rows, snapped, svg = f"c{k}.json", f"cs{k}.json", f"p{k}.svg"
        steps += [
            Cmd(["analyze", "--surface", s["file"], "--out", f"a{k}.json"],
                check_analyze(s["planted_node"])),
            Cmd(_compare_argv(s, rows), check_compare),
            Cmd(_compare_argv(s, snapped, "--use-snapped"), check_compare),
            Cmd(["plot", "--surface", s["file"], "--overlay", rows, "--out", svg], check_plot),
            Api("queries", _query_batch(s["file"], queries), 1 + len(queries), check_queries),
        ]  # fmt: skip
    return steps


def _query_batch(path: str, queries):
    def run(tr):
        surf = tr.call("surface.load_surface", load_surface, Path(path).read_bytes())
        tr.count("surface.points_parsed", len(surf.points))
        tr.count("surface.queries", len(queries))
        values = [tr.call("surface.relative_error", relative_error, surf, q) for q in queries]
        return json.dumps(values).encode()

    return run


PLANS = {
    "paper_corpus": _paper_plan,
    "dense_grid": _dense_plan,
}


def build_plan(manifest: dict) -> list:
    return PLANS[manifest["workload"]](manifest)


# --- executors ----------------------------------------------------------------


@dataclass
class StepResult:
    step: object
    seconds: float
    ok: bool
    output: bytes | None = None


def run_cli(step: Cmd) -> StepResult:
    """One in-process `hpscale` command through cli.main."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(step.argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception:  # a traceback is a failed command, not the end of the run
        traceback.print_exc()
        rc = None
    return StepResult(step, time.perf_counter() - t0, rc == 0)


def run_api(step: Api, tr) -> StepResult:
    t0 = time.perf_counter()
    try:
        output = step.run(tr)
    except HpscaleError:
        traceback.print_exc()
        output = None
    return StepResult(step, time.perf_counter() - t0, output is not None, output)


def execute(steps, tr) -> list[StepResult]:
    """Run Cmd steps through cli.main, Api steps under tr, and Glue steps."""
    results = []
    for step in steps:
        if isinstance(step, Glue):
            try:
                step.run()
            except (OSError, ValueError, KeyError):  # the failed command is counted
                traceback.print_exc()
        elif isinstance(step, Api):
            results.append(run_api(step, tr))
        else:
            results.append(run_cli(step))
    return results


def check_results(results: list[StepResult]):
    """Check every output; return (ops, failed ops, pass digest input, stats)."""
    ops = failed = 0
    parts = []
    stats: dict[str, float] = {}
    for r in results:
        step = r.step
        ops += step.ops if isinstance(step, Api) else 1
        try:
            if not r.ok:
                raise CheckFailed("nonzero exit")
            data = r.output if isinstance(step, Api) else Path(step.out).read_bytes()
            parts.append(data)
            for k, v in step.check(data).items():
                stats[k] = stats.get(k, 0) + v
            if isinstance(step, Cmd):
                stats["out_bytes"] = stats.get("out_bytes", 0) + len(data)
        except (
            CheckFailed, HpscaleError, OSError, ValueError, KeyError, TypeError, ET.ParseError
        ) as exc:  # fmt: skip
            failed += 1
            print(f"check failed: {step.key}: {exc!r}", file=sys.stderr)
    return ops, failed, parts, stats


# --- replay -------------------------------------------------------------------


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _load_surface(tr, path):
    surf = tr.call("surface.load_surface", load_surface, _read(path))
    tr.count("surface.points_parsed", len(surf.points))
    return surf


def _replay_analyze(tr, a):
    surf = _load_surface(tr, a.surface)
    tr.call("surface.find_optimum", find_optimum, surf, a.metric)
    tr.call("surface.plateau", plateau, surf, a.delta, a.metric)
    tr.call("surface.convexity_report", convexity_report, surf, a.epsilon, a.metric)
    if surf.has_full_val():
        tr.call("surface.argmin_consistency", argmin_consistency, surf)


def _replay_compare(tr, a):
    surf = _load_surface(tr, a.surface)
    meituan = tuple(float(v) for v in a.meituan_params.split(",")) if a.meituan_params else None
    aux = AuxInputs(expected_loss=a.loss, meituan_params=meituan)
    grid = GridSpec.default()
    for method in a.methods.split(","):
        budget = compute_budget(surf.scale, a.budget_factor) if method == "deepseek" else None
        try:
            pred = tr.call(
                "laws.baseline_predict", baseline_predict, method, surf.scale, budget, aux
            )
        except (ArgumentError, DomainError):
            continue
        snapped = tr.call("laws.snap_to_grid", snap_to_grid, pred, grid)
        if pred.lr is None or pred.bs_tokens is None:
            continue
        point = snapped if a.use_snapped else pred
        hp = (point.lr, point.bs_tokens)
        try:
            tr.count("surface.queries", 1)
            tr.call("surface.interpolate_loss", interpolate_loss, surf, *hp, a.metric)
            tr.count("surface.queries", 1)
            tr.call("surface.relative_error", relative_error, surf, hp, a.metric)
        except OutOfHullError:
            pass


def _replay_plot(tr, a):
    surf = _load_surface(tr, a.surface)
    overlays = json.loads(_read(a.overlay))["rows"] if a.overlay else None
    levels = DEFAULT_LEVELS_PERMILLE
    if a.levels is not None:
        levels = tuple(float(v) for v in a.levels.split(","))
    tr.call(
        "svgplot.render_surface_svg",
        render_surface_svg, surf, a.metric, levels, overlays, a.use_snapped,
    )  # fmt: skip


def _replay_fit(tr, a):
    obs = tr.call("fitting.load_observations", load_observations, _read(a.observations))
    tr.call("fitting.bootstrap_fit", bootstrap_fit, obs, a.bootstrap, a.seed)
    tr.count("fitting.resamples", a.bootstrap)


def _replay_stats(tr, a):
    obs = tr.call("fitting.load_observations", load_observations, _read(a.observations))
    tr.call("stats.compare_formulations", compare_formulations, obs)


REPLAY = {
    "analyze": _replay_analyze,
    "compare": _replay_compare,
    "plot": _replay_plot,
    "fit": _replay_fit,
    "stats": _replay_stats,
}


def replay(steps, tr) -> tuple[float, int, int]:
    """One pass as public calls, one span per call; returns (seconds, ops, failed)."""
    ops = failed = 0
    t0 = time.perf_counter()
    with tr.span("pass"):
        for step in steps:
            if isinstance(step, Glue):
                continue
            ops += step.ops if isinstance(step, Api) else 1
            try:
                with tr.span("cmd." + step.key):
                    if isinstance(step, Api):
                        step.run(tr)
                    else:
                        parser = tr.call("cli.build_parser", cli.build_parser)
                        args = tr.call("cli.parse_args", parser.parse_args, step.argv)
                        REPLAY[step.argv[0]](tr, args)
            except Exception as exc:  # a replay that diverges from the CLI is a failure
                failed += 1
                print(f"replay failed: {step.key}: {exc!r}", file=sys.stderr)
    return time.perf_counter() - t0, ops, failed
