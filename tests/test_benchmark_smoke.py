"""One small pass of each benchmark workload through the benchmark's own code.

benchmarks/ calls hpscale's public functions by name, in-process and as a
traced replay. A name removed or a signature changed under it fails the
benchmark run; this test fails first. It runs each workload's corpus at
seed 1 in a temporary directory and requires no failed operation.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
LAW_KEYS = ("c", "alpha", "beta", "d", "gamma")


@pytest.mark.parametrize("workload", ["paper_corpus", "dense_grid"])
def test_a_workload_pass_runs_clean(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    corpus = importlib.import_module("corpus")
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")

    manifest = corpus.write(workload, 1, tmp_path, tracer.Tracer(enabled=False))
    monkeypatch.chdir(tmp_path)
    steps = workloads.build_plan(manifest)
    results = workloads.execute(steps, tracer.Tracer(enabled=False))
    ops, failed, parts, _ = workloads.check_results(results)
    assert failed == 0 and ops > 0 and len(parts) == len(results)

    traced = tracer.Tracer(enabled=True)
    _, replay_ops, replay_failed = workloads.replay(steps, traced)
    assert replay_failed == 0 and replay_ops == ops and traced.spans

    if workload == "paper_corpus":
        cli_fit = json.loads(Path("fit.json").read_bytes())
        lib_fit = corpus.paper_refit(1)[1].to_json_dict()
        assert {k: cli_fit[k] for k in LAW_KEYS} == {k: lib_fit[k] for k in LAW_KEYS}
