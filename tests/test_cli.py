import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import hpscale
from conftest import FIG3_PATH, LATTICE_D, LATTICE_N, point_at
from hpscale import (
    ModelScale,
    SurfaceSpec,
    baseline_predict,
    compute_budget,
    find_optimum,
    generate_surface,
    load_surface,
    step_law,
    surface_to_csv,
)

CLI = [sys.executable, "-m", "hpscale"]
# the CLI subprocess imports the same hpscale these tests imported
_SRC = str(Path(hpscale.__file__).resolve().parents[1])
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}


def run(*args, input_bytes=None, expect=0):
    proc = subprocess.run(
        CLI + list(args), input=input_bytes, capture_output=True, env=CLI_ENV
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr.decode())
    return proc


def run_json(*args, input_bytes=None):
    return json.loads(run(*args, input_bytes=input_bytes).stdout)


@pytest.fixture(scope="module")
def bowl_csv(tmp_path_factory):
    """Surface whose minimum is planted at the step-law point for its scale."""
    pred = step_law(ModelScale(4.29e8, 8e9))
    spec = SurfaceSpec(
        opt_lr=pred.lr,
        opt_bs=pred.bs_tokens,
        curvature_lr=0.8,
        curvature_bs=0.5,
        scale=ModelScale(4.29e8, 8e9),
    )
    path = tmp_path_factory.mktemp("data") / "bowl.csv"
    path.write_text(surface_to_csv(generate_surface(spec)))
    return path


@pytest.fixture(scope="module")
def obs_csv(tmp_path_factory):
    spec = {
        "kind": "observations",
        "n_values": list(LATTICE_N),
        "d_values": list(LATTICE_D),
        "noise_sigma": 0.05,
        "seed": 3,
    }
    spec_path = tmp_path_factory.mktemp("data") / "obs_spec.json"
    spec_path.write_text(json.dumps(spec))
    out = run("synth", "observations", "--spec", str(spec_path))
    path = spec_path.parent / "obs.csv"
    path.write_bytes(out.stdout)
    return path


# --- predict -------------------------------------------------------------------


def test_predict_step():
    doc = run_json("predict", "--method", "step", "--n", "6.51e9", "--d", "1e10")
    assert doc["lr"] == pytest.approx(2.1172385170686054e-4, rel=1e-12)
    assert doc["bs"] == pytest.approx(297459.60271499162, rel=1e-12)
    assert doc["method"] == "step"
    assert doc["snapped"] is False


def test_predict_microsoft_bs_null():
    doc = run_json("predict", "--method", "microsoft", "--n", "1e9", "--d", "1e11")
    assert doc["bs"] is None
    assert doc["lr"] == pytest.approx(3.3908661166286851e-11, rel=1e-12)


def test_predict_deepseek_default_budget():
    doc = run_json("predict", "--method", "deepseek", "--n", "1e9", "--d", "1e10")
    expected = baseline_predict("deepseek", ModelScale(1e9, 1e10), budget=6e19)
    assert doc["lr"] == pytest.approx(expected.lr, rel=1e-12)
    assert doc["bs"] == pytest.approx(expected.bs_tokens, rel=1e-12)


def test_predict_snap():
    doc = run_json(
        "predict", "--method", "step", "--n", "4.29e8", "--d", "8e9", "--snap"
    )
    assert doc["lr"] == 2.0**-9.5
    assert doc["bs"] == 262144.0
    assert doc["snapped"] is True


def test_predict_meituan():
    doc = run_json(
        "predict", "--method", "meituan", "--n", "1e9", "--d", "1e10",
        "--loss", "2.0", "--meituan-params", "0.01,2.0,1e5,0.5",
    )
    assert doc["lr"] == pytest.approx(0.0025, rel=1e-12)
    assert doc["bs"] == pytest.approx(25000.0, rel=1e-12)


def test_predict_openai_domain_error_exit_3():
    proc = run(
        "predict", "--method", "openai", "--n", "2e10", "--d", "1e10",
        "--loss", "2.0", expect=3,
    )
    err = proc.stderr.decode()
    assert err.startswith("error:") and err.count("\n") == 1


def test_predict_missing_aux_exit_2():
    run("predict", "--method", "openai", "--n", "1e9", "--d", "1e10", expect=2)


def test_predict_laws_override(tmp_path):
    laws = tmp_path / "laws.json"
    laws.write_text(json.dumps({"step": {"c": 3.58}}))
    doc = run_json(
        "predict", "--method", "step", "--n", "6.51e9", "--d", "1e10",
        "--laws", str(laws),
    )
    assert doc["lr"] == pytest.approx(2 * 2.1172385170686054e-4, rel=1e-12)


@pytest.mark.parametrize(
    "method,doc",
    [
        ("step", b'{"step": 5}'),
        ("step", b'{"step": {"c": "abc"}}'),
        ("step", b'{"step": {"c": -1}}'),
        ("step", b'{"step": {"d": 0}}'),
        ("step", b'{"step": {"gamma": null}}'),
        ("step", b'{"step": {"alpha": 1e999}}'),
        ("openai", b'{"openai": {"intercept": -1, "slope": 0}}'),
        ("meituan", b'{"meituan": {"lambda": "x", "alpha": 1, "lambda_b": 1, "alpha_b": 1}}'),
        ("step", b"\xff\xfe"),
        ("step", b"[1, 2]"),
    ],
)
def test_predict_bad_law_overrides_exit_2(tmp_path, method, doc):
    laws = tmp_path / "laws.json"
    laws.write_bytes(doc)
    proc = run(
        "predict", "--method", method, "--n", "1e9", "--d", "1e10", "--loss", "2.5",
        "--laws", str(laws), expect=2,
    )  # fmt: skip
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error:")


@pytest.mark.parametrize(
    "method,doc,message",
    [
        ("meituan",
         {"meituan": {"lambda": 0.01, "alpha": 2, "lambda_b": 1e5, "alpha_b": 0.5, "lamda": 7}},
         "unknown keys ['lamda'] for law 'meituan'"),
        ("microsoft",
         {"c": 1.79, "alpha": -0.713, "beta": 0.307, "d": 0.58, "gamma": 0.571,
          "microsoft": {"coef": 1e-3}},
         "law 'microsoft'"),
    ],
    ids=["meituan_unknown_key", "flat_fit_document_names_a_law"],
)
def test_predict_law_overrides_that_would_be_dropped_exit_2(tmp_path, method, doc, message):
    laws = tmp_path / "laws.json"
    laws.write_text(json.dumps(doc))
    proc = run(
        "predict", "--method", method, "--n", "1e9", "--d", "1e10", "--loss", "2.5",
        "--laws", str(laws), expect=2,
    )  # fmt: skip
    assert proc.stderr.startswith(b"error:")
    assert message in proc.stderr.decode()


def test_predict_law_override_overflow_exit_3(tmp_path):
    laws = tmp_path / "laws.json"
    laws.write_bytes(b'{"step": {"alpha": 1e5}}')
    proc = run("predict", "--method", "step", "--n", "1e9", "--d", "1e10",
               "--laws", str(laws), expect=3)  # fmt: skip
    assert b"Traceback" not in proc.stderr


def test_predict_reads_law_overrides_from_stdin():
    overrides = b'{"step": {"c": 2.0, "alpha": 0, "beta": 0}}'
    proc = run("predict", "--method", "step", "--n", "1e9", "--d", "1e10",
               "--laws", "-", input_bytes=overrides)  # fmt: skip
    assert json.loads(proc.stdout)["lr"] == pytest.approx(2.0, rel=1e-14)


def test_predict_missing_law_file_exit_2(tmp_path):
    run("predict", "--method", "step", "--n", "1e9", "--d", "1e10",
        "--laws", str(tmp_path / "absent.json"), expect=2)


@pytest.mark.parametrize(
    "argv",
    [
        ("fit", "--observations", "x"),
        ("stats", "--observations", "x"),
        ("analyze", "--surface", "x"),
        ("synth", "surface", "--spec", "x"),
        ("plot", "--surface", "x"),
    ],
)
def test_laws_option_only_where_laws_are_used(argv):
    proc = run(*argv, "--laws", "x", expect=2)
    assert b"unrecognized arguments: --laws" in proc.stderr


# --- fit / stats ----------------------------------------------------------------


def test_fit_deterministic_and_well_formed(obs_csv, tmp_path):
    a = run("fit", "--observations", str(obs_csv), "--bootstrap", "300",
            "--seed", "42")
    b = run("fit", "--observations", str(obs_csv), "--bootstrap", "300",
            "--seed", "42")
    assert a.stdout == b.stdout  # byte-identical
    doc = json.loads(a.stdout)
    assert set(doc) == {"c", "alpha", "beta", "d", "gamma", "ci", "resamples",
                        "seed", "redraws", "meta"}
    assert doc["meta"]["version"]
    assert doc["seed"] == 42
    assert doc["meta"]["input_digest"].startswith("sha256:")
    assert doc["resamples"] == 300
    assert doc["ci"]["alpha"][0] <= doc["alpha"] <= doc["ci"]["alpha"][1]


def test_fit_does_not_import_numpy_ma(obs_csv, tmp_path):
    # np.percentile imports numpy.ma through np.unique; no command needs it
    child = (
        "import sys; from hpscale import cli; "
        "rc = cli.main(['fit', '--observations', sys.argv[1], '--out', sys.argv[2]]); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    argv = [sys.executable, "-c", child, str(obs_csv), str(tmp_path / "fit.json")]
    proc = subprocess.run(argv, capture_output=True, env=CLI_ENV, text=True)
    assert proc.stdout == "0 False\n", proc.stderr


def test_fit_json_round_trips_as_law_overrides(obs_csv, tmp_path):
    fit_path = tmp_path / "fit.json"
    run("fit", "--observations", str(obs_csv), "--bootstrap", "100",
        "--seed", "7", "--out", str(fit_path))
    fitted = json.loads(fit_path.read_text())
    doc = run_json(
        "predict", "--method", "step", "--n", "5e8", "--d", "2e10",
        "--laws", str(fit_path),
    )
    expected_lr = math.exp(
        math.log(fitted["c"])
        + fitted["alpha"] * math.log(5e8)
        + fitted["beta"] * math.log(2e10)
    )
    expected_bs = math.exp(
        math.log(fitted["d"]) + fitted["gamma"] * math.log(2e10)
    )
    assert doc["lr"] == pytest.approx(expected_lr, rel=1e-12)
    assert doc["bs"] == pytest.approx(expected_bs, rel=1e-12)


def test_stats_output(obs_csv):
    doc = run_json("stats", "--observations", str(obs_csv))
    names = [f["name"] for f in doc["formulations"]]
    assert names == ["N-only", "D-only", "Full"]
    assert {t["restricted"] for t in doc["nested_tests"]} == {"N-only", "D-only"}
    rows = {p["name"]: p for p in doc["full_model"]["predictors"]}
    assert set(rows) == {"intercept", "logN", "logD"}
    assert rows["logD"]["p_value"] < 0.001
    assert doc["meta"]["input_digest"].startswith("sha256:")


# --- analyze / compare -----------------------------------------------------------


def test_analyze_matches_module(bowl_csv):
    doc = run_json("analyze", "--surface", str(bowl_csv), "--delta", "0.0025")
    surf = load_surface(bowl_csv.read_text())
    opt = find_optimum(surf)
    assert doc["optimum"]["lr"] == opt.hp[0]
    assert doc["optimum"]["bs"] == opt.hp[1]
    assert doc["optimum"]["loss"] == opt.loss
    assert doc["convexity"]["row_unimodal_fraction"] == 1.0
    assert doc["convexity"]["col_unimodal_fraction"] == 1.0
    assert [opt.hp[0], opt.hp[1]] in doc["plateau"]["members"]
    assert doc["argmin_consistency"] is None  # no val column in this fixture


def test_analyze_val_metric():
    doc = run_json("analyze", "--surface", str(FIG3_PATH), "--metric", "val")
    assert doc["optimum"]["lr"] == 0.001950
    assert doc["optimum"]["bs"] == 393216
    assert doc["argmin_consistency"]["consistent"] is True


def test_compare_step_beats_offset_law(bowl_csv):
    doc = run_json(
        "compare", "--surface", str(bowl_csv), "--methods", "step,porian"
    )
    rows = {r["method"]: r for r in doc["rows"]}
    assert rows["step"]["status"] == "ok"
    assert rows["porian"]["status"] == "ok"
    step_err = rows["step"]["relative_error_permille"]
    porian_err = rows["porian"]["relative_error_permille"]
    assert 0 <= step_err < 1.0  # essentially at the planted minimum
    assert step_err < porian_err


def test_compare_snaps_to_the_surface_grid(fig3_surface):
    # fig3's rounded axes are not the default grid: a snapped point must
    # still be a swept run, scored at that run's loss
    doc = run_json("compare", "--surface", str(FIG3_PATH),
                   "--methods", "step,deepseek,porian", "--use-snapped")  # fmt: skip
    ok = [row for row in doc["rows"] if row["status"] == "ok"]
    assert [row["method"] for row in ok] == ["step", "deepseek", "porian"]
    for row in ok:
        node = point_at(fig3_surface, row["snapped"]["lr"], row["snapped"]["bs"])
        assert row["loss"] == node.train_smooth_loss


def test_compare_statuses_and_csv(bowl_csv, tmp_path):
    csv_path = tmp_path / "rows.csv"
    doc = run_json(
        "compare", "--surface", str(bowl_csv),
        "--methods", "step,minicpm,meituan,microsoft",
        "--loss", "2.0", "--meituan-params", "0.01,2.0,1e9,0.5",
        "--csv", str(csv_path),
    )
    rows = {r["method"]: r for r in doc["rows"]}
    assert rows["minicpm"]["status"] == "unsupported"  # no lr rule
    assert rows["minicpm"]["relative_error_permille"] is None
    assert rows["microsoft"]["status"] == "unsupported"  # no bs rule
    assert rows["meituan"]["status"] == "out_of_hull"  # bs far beyond the grid
    assert rows["meituan"]["relative_error_permille"] is None
    assert rows["step"]["status"] == "ok"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("method,predicted_lr")
    assert len(lines) == 5


def test_compare_unsupported_without_aux(bowl_csv):
    doc = run_json("compare", "--surface", str(bowl_csv), "--methods", "openai")
    (row,) = doc["rows"]
    assert row["status"] == "unsupported"
    assert "expected_loss" in row["note"]


def test_compare_empty_methods_exit_2(bowl_csv):
    run("compare", "--surface", str(bowl_csv), "--methods", "", expect=2)
    run("compare", "--surface", str(bowl_csv), "--methods", "mup", expect=2)


def test_compare_missing_file_exit_2():
    run("compare", "--surface", "/no/such/file.csv", "--methods", "step", expect=2)


# --- synth ----------------------------------------------------------------------


def test_synth_surface_round_trip(tmp_path):
    spec = {
        "kind": "surface", "opt_lr": 2.0**-9, "opt_bs": 262144.0,
        "n_params": 1e9, "d_tokens": 1e10, "seed": 4,
    }
    spec_path = tmp_path / "surface_spec.json"
    spec_path.write_text(json.dumps(spec))
    out = run("synth", "surface", "--spec", str(spec_path))
    surf = load_surface(out.stdout)
    assert len(surf.points) == 120
    assert find_optimum(surf).hp == (2.0**-9, 262144)
    assert b"# version=" in out.stdout
    assert b"# spec_digest=sha256:" in out.stdout


def test_synth_fit_pipeline_recovers_coefficients(tmp_path):
    spec = {
        "kind": "observations",
        "n_values": list(LATTICE_N),
        "d_values": list(LATTICE_D),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    synth = run("synth", "observations", "--spec", str(spec_path))
    fit = run("fit", "--bootstrap", "200", "--seed", "42",
              input_bytes=synth.stdout)
    doc = json.loads(fit.stdout)
    assert doc["alpha"] == pytest.approx(-0.713, abs=1e-9)
    assert doc["beta"] == pytest.approx(0.307, abs=1e-9)
    assert doc["gamma"] == pytest.approx(0.571, abs=1e-9)
    assert doc["c"] == pytest.approx(1.79, rel=1e-9)
    assert doc["d"] == pytest.approx(0.58, rel=1e-9)


def test_synth_kind_mismatch_exit_2(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "surface", "opt_lr": 1e-3,
                                     "opt_bs": 2e5}))
    run("synth", "observations", "--spec", str(spec_path), expect=2)


def test_synth_seed_override(tmp_path):
    spec = {
        "kind": "observations",
        "n_values": [1e8, 1e9], "d_values": [1e9, 1e10],
        "noise_sigma": 0.1, "seed": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    a = run("synth", "observations", "--spec", str(spec_path))
    b = run("synth", "observations", "--spec", str(spec_path), "--seed", "2")
    assert a.stdout != b.stdout


# --- plot -----------------------------------------------------------------------


def _svg_root(data: bytes):
    root = ET.fromstring(data.decode("utf-8"))
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.attrib["version"] == "1.1"
    return root


def test_plot_valid_and_deterministic(bowl_csv):
    a = run("plot", "--surface", str(bowl_csv))
    b = run("plot", "--surface", str(bowl_csv))
    assert a.stdout == b.stdout
    _svg_root(a.stdout)
    text = a.stdout.decode()
    # contours at all four default levels around the planted bowl
    for color in ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728"):
        assert f'stroke="{color}"' in text
    assert 'stroke="red"' in text  # optimum marker


def test_plot_flat_surface_marker_only(tmp_path):
    spec = SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, curvature_lr=0.0,
                       curvature_bs=0.0, cross_term=0.0)
    path = tmp_path / "flat.csv"
    path.write_text(surface_to_csv(generate_surface(spec)))
    out = run("plot", "--surface", str(path))
    text = out.stdout.decode()
    assert 'stroke="#1f77b4"' not in text  # no contours on a flat field
    assert 'stroke="red"' in text
    # tie broken to the smallest lr and bs
    doc = run_json("analyze", "--surface", str(path))
    assert doc["optimum"]["lr"] == 2.0**-10.5
    assert doc["optimum"]["bs"] == 32768


def test_plot_overlay_out_of_hull_glyph(bowl_csv, tmp_path):
    compare_path = tmp_path / "compare.json"
    run("compare", "--surface", str(bowl_csv),
        "--methods", "step,meituan", "--loss", "2.0",
        "--meituan-params", "0.01,2.0,1e9,0.5", "--out", str(compare_path))
    out = run("plot", "--surface", str(bowl_csv), "--overlay", str(compare_path))
    text = out.stdout.decode()
    assert 'stroke="purple"' in text  # clamped triangle for out-of-hull row
    assert ">step</text>" in text
    assert ">meituan</text>" in text


def test_plot_custom_levels(bowl_csv):
    out = run("plot", "--surface", str(bowl_csv), "--levels", "2,20")
    text = out.stdout.decode()
    assert "2 permille" in text and "20 permille" in text
    assert "5 permille" not in text


def test_plot_coordinates_finite_where_relative_error_overflows(tmp_path):
    # (1e306 - 1) / 1 * 1000 is inf at three of the four nodes
    path = tmp_path / "overflow.csv"
    path.write_text(
        "# n_params=1e9\n# d_tokens=1e11\nlr,bs_tokens,train_smooth_loss,val_loss\n"
        "0.001,32768,1.0,\n0.001,65536,1e306,\n0.002,32768,1e306,\n0.002,65536,1e306,\n"
    )
    root = _svg_root(run("plot", "--surface", str(path)).stdout)
    lines = list(root.iter("{http://www.w3.org/2000/svg}line"))
    assert len(lines) == 4 + 4 + 2  # ticks, one segment per level, the marker
    for line in lines:
        for key in ("x1", "y1", "x2", "y2"):
            assert math.isfinite(float(line.attrib[key]))


def test_compare_csv_onto_stdout_file_exit_2(tmp_path):
    # the JSON report goes to stdout, which is the --csv file itself
    csv = tmp_path / "f.csv"
    with open(csv, "wb") as fh:
        proc = subprocess.run(
            CLI + ["compare", "--surface", str(FIG3_PATH), "--methods", "step",
                   "--csv", str(csv)],
            stdout=fh, stderr=subprocess.PIPE, env=CLI_ENV,
        )  # fmt: skip
    assert proc.returncode == 2
    assert b"same file" in proc.stderr
    assert csv.read_bytes() == b""


def test_plot_write_failure_exit_4(bowl_csv):
    run("plot", "--surface", str(bowl_csv),
        "--out", "/no_such_dir_hpscale/plot.svg", expect=4)


def test_plot_levels_must_be_positive(bowl_csv):
    run("plot", "--surface", str(bowl_csv), "--levels", "-1", expect=2)
