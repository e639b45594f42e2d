"""Benchmark of the hpscale pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload paper_corpus --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's corpus from --seed, sets it up
several times in fresh interpreters (setup_s is their median), then runs
passes in a closed loop (one client, the next pass starts when the last
one ends) for --seconds, checking every output. Each timed set-up and
pass is bracketed by a fixed calibration loop, and its time is scaled to
a host on which that loop takes CALIBRATION_S; see calibrate(). With
--trace 0 it prints the end-to-end metrics; with --trace 1 it
interleaves untimed CLI passes with an untraced and a traced replay of
the same pass as public calls, and prints the per-layer metrics. The
last stdout line is the result object; the line before it holds the
environment and sample counts.
Generated files, results and spans go to .bench_work/ in the checkout.
The workloads, the layers each one exercises, and which end-to-end
metric each per-layer metric should move are described in README.md
beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("paper_corpus", "dense_grid")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUPS = 15  # fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPLAYS = 3  # traced in-process set-ups in a --trace 1 run
IMPORT_PROBES = 7  # interpreter starts with and without `import hpscale`
MIN_SAMPLES = 11  # a tail with ten samples beyond it needs at least eleven
MAX_PASS_SECONDS = 120  # keeps a run well inside its time limit
CALIBRATION_LOOPS = 100_000
CALIBRATION_ROUNDS = 6
CALIBRATION_S = 0.012  # calibrate() on a 2-vCPU Xeon VM in its fast mode
_CALIBRATION_DOC = {f"k{i}": [i * j / 7.0 for j in range(20)] for i in range(60)}
COMMANDS = ("analyze", "compare", "plot", "fit", "stats")

# per-call self time: metric -> (span name, seconds-to-unit factor)
PER_CALL = {
    "cli.build_parser_us": ("cli.build_parser", 1e6),
    "surface.load_surface_ms": ("surface.load_surface", 1e3),
    "surface.find_optimum_us": ("surface.find_optimum", 1e6),
    "surface.plateau_us": ("surface.plateau", 1e6),
    "surface.convexity_report_us": ("surface.convexity_report", 1e6),
    "surface.argmin_consistency_us": ("surface.argmin_consistency", 1e6),
    "surface.interpolate_loss_us": ("surface.interpolate_loss", 1e6),
    "surface.relative_error_us": ("surface.relative_error", 1e6),
    "laws.baseline_predict_us": ("laws.baseline_predict", 1e6),
    "laws.snap_to_grid_us": ("laws.snap_to_grid", 1e6),
    "fitting.load_observations_us": ("fitting.load_observations", 1e6),
    "fitting.bootstrap_fit_ms": ("fitting.bootstrap_fit", 1e3),
    "stats.compare_formulations_us": ("stats.compare_formulations", 1e6),
    "synth.generate_surface_8x15_ms": ("synth.generate_surface_8x15", 1e3),
    "synth.generate_surface_60x70_ms": ("synth.generate_surface_60x70", 1e3),
    "svgplot.render_surface_svg_ms": ("svgplot.render_surface_svg", 1e3),
}
# counts recorded by the tracer, reported per traced pass
PER_PASS_COUNTS = ("surface.points_parsed", "surface.queries", "fitting.resamples")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", help=argparse.SUPPRESS)  # set-up child mode
    return p.parse_args(argv)


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at nproc for this process and its children."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        caps[var] = max(1, min(current, nproc))
        os.environ[var] = str(caps[var])
    return caps


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bytes_digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def tree_digest(paths) -> str:
    return bytes_digest(x for p in paths for x in (p.name.encode(), p.read_bytes()))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    xs = sorted(samples)
    k = max(0, len(xs) - 11)
    return 100.0 * (k + 1) / len(xs), xs[k]


def calibrate() -> float:
    """Seconds for a fixed stdlib-only loop: the host's speed right now.

    The host this benchmark was built on switches between a fast mode and
    one ~1.5x slower every few seconds, and drifts over minutes; CPU time
    slows with wall time, so this is contention, not steal. A pass's or
    set-up's wall time divided by the mean of calibrate() just before and
    just after it, times CALIBRATION_S, cancels most of that. The loop
    mixes integer arithmetic with JSON, string formatting, sorting and
    dict building, the kind of work a pass spends its time on; it runs no
    hpscale code and imports nothing, so a change to hpscale cannot move it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    for _ in range(CALIBRATION_ROUNDS):
        back = json.loads(json.dumps(_CALIBRATION_DOC))
        rows = sorted(f"{k}:{v[1]:.6g}" for k, v in back.items())
        s += len({r: len(r) for r in rows})
    return time.perf_counter() - t0


def timed(fn):
    """Run fn() between two calibrations; return (raw seconds, scaled seconds, result)."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    scale = 2 * CALIBRATION_S / (before + calibrate())
    return seconds, seconds * scale, result


def setup_child(workload: str, seed: int, out: Path) -> int:
    def setup():
        import corpus  # imports hpscale: part of the measured set-up
        from tracer import Tracer

        corpus.write(workload, seed, out, Tracer(enabled=False))

    raw, scaled, _ = timed(setup)
    digest = tree_digest(sorted(out.iterdir()))
    print(json.dumps({"raw": raw, "seconds": scaled, "digest": digest}))
    return 0


def run_setups(args, corpus_dir: Path) -> tuple[list[dict], str]:
    runs = []
    for _ in range(SETUPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-into", str(corpus_dir)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        raise RuntimeError(f"set-up is not deterministic: {sorted(digests)}")
    return [{k: r[k] for k in ("raw", "seconds")} for r in runs], digests.pop()


def import_ms() -> float:
    """`import hpscale` in a fresh interpreter, minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        for code, out in (("pass", bare), ("import hpscale", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], stdin=subprocess.DEVNULL, check=True)
            out.append(time.perf_counter() - t0)
    return (median(full) - median(bare)) * 1e3


class Run:
    """Counts of operations and failures, and the pass digest invariant."""

    def __init__(self, steps):
        self.steps = steps
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.stats: dict[str, float] = defaultdict(float)
        self.checked_passes = 0

    def check(self, results) -> None:
        import workloads

        ops, failed, parts, stats = workloads.check_results(results)
        self.attempted += ops
        self.failed += failed
        self.checked_passes += 1
        for k, v in stats.items():
            self.stats[k] += v
        if failed:  # already counted; the digest compares clean passes only
            return
        digest = bytes_digest(parts)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.fail(f"output digest changed between passes: {digest}")

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"check failed: {what}", file=sys.stderr)


def timed_run(run: Run, seconds: float) -> dict:
    """Untraced closed loop; returns the end-to-end timing metrics."""
    import workloads
    from tracer import Tracer

    off = Tracer(enabled=False)
    raw, samples = [], []
    run.check(workloads.execute(run.steps, off))  # warm-up pass, untimed
    start = time.perf_counter()
    while True:
        raw_s, scaled, results = timed(lambda: workloads.execute(run.steps, off))
        raw.append(raw_s)
        samples.append(scaled)
        run.check(results)
        spent = time.perf_counter() - start
        if (spent >= seconds and len(samples) >= MIN_SAMPLES) or spent >= MAX_PASS_SECONDS:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pct, tail_s = tail(samples)
    return {
        "metrics": {
            "pass_s": median(samples),
            "pass_tail_s": tail_s,
            "peak_rss_mb": rss_kb / 1024,
        },
        "samples": len(samples),
        "tail_percentile": pct,
        "raw_pass_s": median(raw),
        "pass_seconds": samples,
        "raw_pass_seconds": raw,
    }


def traced_run(run: Run, args, work: Path) -> dict:
    """CLI passes interleaved with untraced and traced replays; per-layer metrics."""
    import corpus
    import workloads
    from tracer import LAYERS, Tracer

    tr, off = Tracer(enabled=True), Tracer(enabled=False)
    for i in range(SETUP_REPLAYS):
        tr.pass_id = f"setup{i}"
        with tr.span("pass"), tr.span("cmd.setup"):
            corpus.write(args.workload, args.seed, work / "replay_setup", tr)
    cold_import_ms = import_ms()

    cli_times = defaultdict(list)
    cli_pass, untraced, traced = [], [], []
    run.check(workloads.execute(run.steps, off))  # warm-up pass
    start, k = time.perf_counter(), 0
    while True:
        results = workloads.execute(run.steps, off)
        commands = [r for r in results if isinstance(r.step, workloads.Cmd)]
        for r in commands:
            cli_times[r.step.key].append(r.seconds)
        cli_pass.append(sum(r.seconds for r in commands))
        run.check(results)
        order = ((off, untraced), (tr, traced))
        for tracer, out in order if k % 2 == 0 else order[::-1]:
            tracer.pass_id = k
            seconds, ops, failed = workloads.replay(run.steps, tracer)
            out.append(seconds)
            run.attempted += ops
            run.failed += failed
        k += 1
        spent = time.perf_counter() - start
        if (spent >= args.seconds and k >= MIN_SAMPLES) or spent >= MAX_PASS_SECONDS:
            break
    tr.dump(work / "spans.json")

    own = tr.self_times()
    per_call, layer_self = defaultdict(list), defaultdict(float)
    layer_under_cli = 0.0  # layer time inside replayed CLI commands
    for span, t in zip(tr.spans, own):
        name, pass_id = span[2], span[3]
        per_call[name].append(t)
        layer = name.split(".")[0]
        if not isinstance(pass_id, int) or layer not in LAYERS:
            continue
        layer_self[layer] += t
        parent = tr.spans[span[1]][2]
        if layer != "cli" and parent.startswith("cmd.") and parent != "cmd.queries":
            layer_under_cli += t

    def count(name, in_setup=False):
        return sum(
            v
            for (pass_id, n), v in tr.counts.items()
            if n == name and isinstance(pass_id, str) == in_setup
        )

    m = {name: median(per_call[span]) * scale for name, (span, scale) in PER_CALL.items()}
    for layer in ("laws", "surface", "fitting", "stats", "svgplot"):
        m[f"{layer}.self_ms"] = layer_self[layer] / k * 1e3
    for name in PER_PASS_COUNTS:
        m[name] = count(name) / k
    m["synth.points"] = count("synth.points", in_setup=True) / SETUP_REPLAYS
    resamples = count("fitting.resamples")
    m["fitting.us_per_resample"] = (
        sum(per_call["fitting.bootstrap_fit"]) / resamples * 1e6 if resamples else 0.0
    )
    passes = run.checked_passes
    m["laws.scored_ratio"] = run.stats["scored"] / run.stats["rows"] if run.stats["rows"] else 0.0
    m["svgplot.svg_bytes"] = run.stats["svg_bytes"] / passes
    m["svgplot.segments"] = run.stats["segments"] / passes
    m["cli.out_bytes"] = run.stats["out_bytes"] / passes
    for cmd in COMMANDS:
        m[f"cli.{cmd}_ms"] = median(cli_times[cmd]) * 1e3
    m["cli.import_ms"] = cold_import_ms
    m["cli.overhead_ms"] = (statistics.mean(cli_pass) - layer_under_cli / k) * 1e3
    m["trace.traced_pass_ms"] = median(traced) * 1e3
    m["trace.untraced_pass_ms"] = median(untraced) * 1e3
    m["trace.overhead_ratio"] = median(traced) / median(untraced)
    return {"metrics": m, "samples": k}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hpscale" / "__init__.py").is_file():
        print(f"error: no hpscale sources at {SRC}", file=sys.stderr)
        return 2
    caps = cap_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    if args.setup_into:
        return setup_child(args.workload, args.seed, Path(args.setup_into))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # the build: bytecode for the package and the benchmark, so every run and
    # every child interpreter imports from the same warm cache
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)
    work = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    corpus_dir = work / "corpus"
    setup_runs, corpus_digest = run_setups(args, corpus_dir)

    import hpscale
    import numpy

    if Path(hpscale.__file__).resolve().parent != SRC / "hpscale":
        print(f"error: imported hpscale from {hpscale.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import corpus
    import workloads

    manifest = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
    run = Run(workloads.build_plan(manifest))
    os.chdir(corpus_dir)
    if args.trace:
        out = traced_run(run, args, work)
        wanted = spec["per_layer"]
    else:
        out = timed_run(run, args.seconds)
        refit, fit = corpus.paper_refit(args.seed)
        run.attempted += 1
        if manifest["workload"] == "paper_corpus":
            # the pipeline's own fit must be the one the metric scores
            cli_fit, lib_fit = json.loads(Path("fit.json").read_bytes()), fit.to_json_dict()
            if any(cli_fit[k] != lib_fit[k] for k in ("c", "alpha", "beta", "d", "gamma")):
                run.fail("CLI refit differs from the library refit")
        out["metrics"]["setup_s"] = median([r["seconds"] for r in setup_runs])
        out["metrics"]["refit_relerr_permille"] = refit
        wanted = spec["end_to_end"]

    # byte-determinism across runs: same sources and seed, same outputs
    src_digest = tree_digest(sorted(SRC.rglob("*.py")))
    store = WORK / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
    key = f"{args.workload}:{args.seed}:{corpus_digest}:{src_digest}"
    if run.digest is not None and known.setdefault(key, run.digest) != run.digest:
        run.fail(f"outputs differ from an earlier run with seed {args.seed}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")

    metrics = {
        m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "thread_caps": caps,
        },
        "samples": out["samples"],
        "tail_percentile": out.get("tail_percentile"),
        "raw_pass_s": out.get("raw_pass_s"),
        "setup_seconds": setup_runs,
        "corpus_digest": corpus_digest,
        "output_digest": run.digest,
        "fail_frac": run.failed / run.attempted,
    }
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({**details, **out, "metrics": metrics}, indent=1), encoding="utf-8"
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
