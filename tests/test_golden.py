"""Golden digests of what every report command and synth write.

analyze, compare, compare --use-snapped and plot (with the compare rows
overlaid at the predicted points, at the snapped points, and on the val
metric at seven levels) run on tests/data/fig3_style.csv and on the
60 x 70 surface the dense_grid benchmark sweeps, alone and one after
another in one process.
However a surface is held or read, every byte of their output must stay
as it is. plot is also pinned on a surface with one lr node, one with one
bs node, and one whose relative errors overflow. That dense surface carries the noise of synth's SeedSequence
generator, rebuilt in test_surface._dense_surface; the bytes synth's own
generator writes for it, and for noisy observations, are pinned apart.
fit, stats and predict are pinned on synth's 4 x 4 lattice observations,
noisy and exact; stats on the exact lattice writes a null F statistic
and null predictor t and p values. So is the -h text of hpscale and of
each command.
The fit and stats bytes must also be the same under every OpenBLAS
kernel, as no BLAS or LAPACK routine takes part in a fit, and with
numpy's SIMD dispatch cut back to each of its targets in turn. The analyze,
compare and stats bodies that the library builds, with the command's
meta added, must encode to the bytes the command writes.
"""

import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import FIG3_PATH, LATTICE_D, LATTICE_N
from hpscale import (
    AuxInputs,
    analyze_report,
    cli,
    compare_formulations,
    compare_rows,
    generate_surface,
    load_observations,
    load_surface,
    surface_to_csv,
)
from hpscale.laws import DEFAULT_LAWS, LAW_METHODS
from test_cli import CLI_ENV
from test_cli_inprocess import main_inprocess
from test_surface import DENSE_GRID, DENSE_SPEC, _dense_surface

DENSE_CSV_SHA256 = "a71159f1f2914fcb9fe6876a85d2cca09341a7f1d69aa2bd9bff2ab4eb507043"
SYNTH_DENSE_CSV_SHA256 = "44b1faebae0ace2aac2dbc08c2279981930157f6544a75981733c631f9c5b397"
SYNTH_OBSERVATIONS_SHA256 = "15d380200f224ea60c0b0037ac18f472fdce76a1055771126b5e1f9a488dfeb0"

GOLDEN_SHA256 = {
    "fig3": {
        "analyze": "e83e9d9e49f73a8515224e407a49da1ae9e59cd5921f8bab5affd5665312dcd9",
        "analyze-val": "cb9e4aa5124a6055ab7c4c16a43e4681a8b3ece80ee1ddf1075689e073d6d8f6",
        "compare": "9700117226dc6bacce6f92dd8027164bdabc37648dbf8f003d9a1ad4615edc3f",
        "compare-snapped": "93e3590154d1b68f7f0810c9c42912bb580efaf1769f621a62decb033bfbf7ff",
        "plot": "d882891098afa9210e4375a4fa882a50ed88055df8cf66726a4fb1059d819c81",
        "plot-snapped": "e34ead44078cd3e56fc9b79a5318ac44b74baf6b9e83264825879308be8b1a49",
        "plot-val": "a6d52f589f30b9aca3d40078af9c0f603c198054dad2c39e6f8700839f353c70",
    },
    "dense": {
        "analyze": "f3225fe8452c1049381bd961979c92f31205fb8526368828ef2b3b2e82eef568",
        "analyze-val": "8d8fafb43c34779cc0546968153fc69cf87f2fb5ebbb9b59ba52ef3ead8394df",
        "compare": "c98d62c449e027cc1c272f77f2297883f56a90831038669b173096648d954b9b",
        "compare-snapped": "13682e1c0e500b3a3956aec4dd5ef97d003e7db550f2bc9967d28d21a51fb471",
        "plot": "9164bbae9df01be2e8a00b642c2f154d5893e74f691327d5ffe295f9f7cf1d1f",
        "plot-snapped": "05d55d84ad906609e437c36c3ccd0aeb9d4c9216cb9802f558651426e15f4278",
        "plot-val": "996cfe1fea3f012c2384950eba88561ee1a8d6c19cfb1046aacbdf8edf9d70a6",
    },
}


OBSERVATION_REPORT_SHA256 = {
    "fit": "15664da13c667fc7232c0c635f839fd38b2ebbe0cb1d392c90c77889dc92d409",
    "fit-exact": "9422fee7ebe6c2249bd585370a0f41d3eede17ee1be064b9142ad66f06ab294a",
    "stats": "1e62e785439d0db907bbdb5d4d985ff21108b50850dc7b9da05f518c0d0a0443",
    "stats-exact": "3ea209b05386e8cccbc97ba81fb64cd471a887dc9fe58dfa1bfadb619c57768f",
    "predict-step": "9d2d84f104cdc494065912784d17d75d563d2702f1da63cb556606ff7a229c62",
}

# `hpscale -h` and each command's -h at COLUMNS=80: every option, its
# default and help, and their order
HELP_SHA256 = {
    "hpscale": "fa6f86733c85735c13b6057fa66edffa47edc9bf059227117f494f294bbde0f4",
    "predict": "a079015b43591dd658a114d75c787786cbfe391848602ad8f6f7baabe1f7af4c",
    "fit": "a461637dee1a97bf3b30717ac82c085e38de15e1566381ab721aef185011e1d7",
    "stats": "12f9b143adf134b8dbe0436c891e88f5be9c16d97622d360324cbd571c3ba2e0",
    "analyze": "cfb55b3bc6449b5c7b3bf6819ab84dba34aaed4eb7586e4398ca94f545ce2f91",
    "compare": "79d65c392d986dfb20a90cae5ef8482a609290201d6aba0af87a975678422506",
    "synth": "8d2ce8cc05e39a8c3fd490ca5bdb0c01e0f8cab1c9fe1a02e199286e1a9f8ede",
    "plot": "3a319cb0911bb294b5b3f48dfce28edf41c709eb22aec8e89eeb17d27718a548",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def dense_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "dense.csv"
    path.write_bytes(surface_to_csv(_dense_surface()).encode("utf-8"))
    return path


def test_dense_csv_bytes_are_pinned(dense_csv):
    assert _sha256(dense_csv.read_bytes()) == DENSE_CSV_SHA256


def test_synth_dense_csv_bytes_are_pinned():
    text = surface_to_csv(generate_surface(DENSE_SPEC, DENSE_GRID))
    assert _sha256(text.encode("utf-8")) == SYNTH_DENSE_CSV_SHA256


def _lattice_observations(tmp_path, noise_sigma: float) -> bytes:
    """synth's observations CSV for the 4 x 4 lattice, seed 11."""
    spec = tmp_path / "obs.json"
    spec.write_text(json.dumps({"kind": "observations", "n_values": list(LATTICE_N),
                                "d_values": list(LATTICE_D), "noise_sigma": noise_sigma,
                                "seed": 11}))  # fmt: skip
    rc, stdout, stderr = main_inprocess("synth", "observations", "--spec", str(spec))
    assert rc == 0, stderr
    return stdout


def test_synth_observations_output_is_pinned(tmp_path):
    assert _sha256(_lattice_observations(tmp_path, 0.05)) == SYNTH_OBSERVATIONS_SHA256


def _observation_commands(tmp_path) -> list[tuple[str, list[str]]]:
    """(key, argv) of each observation report command, on the noisy and
    exact lattice observations written under tmp_path."""
    noisy, exact = tmp_path / "noisy.csv", tmp_path / "exact.csv"
    noisy.write_bytes(_lattice_observations(tmp_path, 0.05))
    exact.write_bytes(_lattice_observations(tmp_path, 0.0))
    return [
        ("fit", ["fit", f"--observations={noisy}", "--bootstrap=200", "--seed=0"]),
        ("fit-exact", ["fit", f"--observations={exact}", "--bootstrap=200", "--seed=0"]),
        ("stats", ["stats", f"--observations={noisy}"]),
        ("stats-exact", ["stats", f"--observations={exact}"]),
        ("predict-step", ["predict", "--method=step", "--n=1e9", "--d=1e11"]),
    ]


def test_observation_command_output_is_pinned(tmp_path):
    outputs = {}
    for key, argv in _observation_commands(tmp_path):
        rc, stdout, stderr = main_inprocess(*argv)
        assert rc == 0, stderr
        if key == "stats-exact":
            full = json.loads(stdout)["full_model"]
            assert full["f_statistic"] is None
            rows = full["predictors"]
            assert {(row["t_value"], row["p_value"]) for row in rows} == {(None, None)}
        outputs[key] = _sha256(stdout)
    assert outputs == OBSERVATION_REPORT_SHA256


# Run in a child process: the sha256 of what each (key, argv) in the JSON
# list argv[1] writes to stdout, as one JSON object.
_DIGEST_CHILD = """\
import contextlib, hashlib, io, json, sys
from hpscale import cli
digests = {}
for key, argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, key
    digests[key] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
print(json.dumps(digests))
"""


# Prepended to _DIGEST_CHILD: first prints the numpy SIMD dispatch targets
# that are on, as a JSON list.
_SIMD_CHILD = """\
import json
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy before 2.0
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps([name for name in __cpu_dispatch__ if __cpu_features__.get(name)]))
"""


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.26 only prints its build config
        return "an unreported BLAS"


def test_observation_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernels for the CPU it runs on, and
    # OPENBLAS_CORETYPE overrides that pick; it is set in the children only
    blas = _blas_name()
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is built on {blas}, not OpenBLAS: OPENBLAS_CORETYPE picks nothing")
    commands = json.dumps([c for c in _observation_commands(tmp_path) if c[0] != "predict-step"])
    base = {k: v for k, v in CLI_ENV.items() if not k.startswith("OPENBLAS_")}
    digests, cores = {}, []
    for kernel in (None, "Haswell", "Nehalem", "Prescott"):
        env = {**base, "OPENBLAS_VERBOSE": "2"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run([sys.executable, "-c", _DIGEST_CHILD, commands],
                              capture_output=True, env=env)  # fmt: skip
        assert proc.returncode == 0, proc.stderr.decode()
        digests[kernel] = json.loads(proc.stdout)
        cores += re.findall(r"^Core: (\S+)", proc.stderr.decode(), flags=re.MULTILINE)
    if not cores:
        pytest.skip("OpenBLAS reported no core, so it ignores OPENBLAS_CORETYPE")
    assert len(digests[None]) == 4
    for kernel in ("Haswell", "Nehalem", "Prescott"):
        assert digests[kernel] == digests[None], kernel


def test_observation_reports_do_not_depend_on_the_simd_dispatch(tmp_path):
    # numpy picks a SIMD loop for the CPU it runs on, from the dispatch
    # targets it was built with; NPY_DISABLE_CPU_FEATURES turns targets off.
    # Each run turns off one more, from the top, down to the build's baseline
    commands = json.dumps([c for c in _observation_commands(tmp_path) if c[0] != "predict-step"])

    def run(disabled):
        env = {**CLI_ENV, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
        proc = subprocess.run([sys.executable, "-c", _SIMD_CHILD + _DIGEST_CHILD, commands],
                              capture_output=True, env=env)  # fmt: skip
        assert proc.returncode == 0, proc.stderr.decode()
        on, digests = proc.stdout.decode().splitlines()
        return json.loads(on), json.loads(digests)

    targets, base = run([])
    if not targets:
        pytest.skip("this CPU runs none of numpy's SIMD dispatch targets")
    assert len(base) == 4
    for k in reversed(range(len(targets))):
        on, digests = run(targets[k:])
        assert not set(on) & set(targets[k:]), f"{targets[k:]} stayed on"
        assert digests == base, targets[k:]


def test_help_text_is_pinned(monkeypatch):
    # argparse wraps help at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    digests = {}
    for name in HELP_SHA256:
        rc, stdout, stderr = main_inprocess(*([] if name == "hpscale" else [name]), "-h")
        assert (rc, stderr) == (0, "")
        digests[name] = _sha256(stdout)
    assert digests == HELP_SHA256


def _surface_commands(path, rows) -> list[tuple[str, list[str]]]:
    """(key, argv) of each surface command on the surface at path; the
    plots overlay the compare rows written to rows."""
    compare = ["compare", f"--surface={path}", "--methods", ",".join(LAW_METHODS),
               "--loss=2.5", "--meituan-params=0.006,1.0,1e8,0.2"]  # fmt: skip
    return [
        ("analyze", ["analyze", f"--surface={path}"]),
        ("analyze-val", ["analyze", f"--surface={path}", "--metric=val", "--delta=0.02",
                         "--epsilon=0"]),
        ("compare", compare),
        ("compare-snapped", [*compare, "--use-snapped"]),
        ("plot", ["plot", f"--surface={path}", f"--overlay={rows}"]),
        ("plot-snapped", ["plot", f"--surface={path}", f"--overlay={rows}", "--use-snapped"]),
        ("plot-val", ["plot", f"--surface={path}", f"--overlay={rows}", "--metric=val",
                      "--levels=0.5,1,2.5,5,10,20,40"]),
    ]


def _surface_command_digests(path, tmp_path) -> dict[str, str]:
    """sha256 of what each surface command writes for the surface at path."""
    rows = tmp_path / "rows.json"
    outputs = {}
    for key, argv in _surface_commands(path, rows):
        rc, stdout, stderr = main_inprocess(*argv)
        assert rc == 0, stderr
        if key == "compare":
            rows.write_bytes(stdout)
        outputs[key] = _sha256(stdout)
    return outputs


@pytest.mark.parametrize("name", ["fig3", "dense"])
def test_surface_command_output_is_pinned(dense_csv, tmp_path, name):
    path = FIG3_PATH if name == "fig3" else dense_csv
    assert _surface_command_digests(path, tmp_path) == GOLDEN_SHA256[name]


def test_surface_command_output_is_pinned_across_a_sequence(dense_csv, tmp_path):
    # one process, the surface changing between runs of the commands
    for name in ("fig3", "dense", "fig3"):
        path = FIG3_PATH if name == "fig3" else dense_csv
        assert _surface_command_digests(path, tmp_path) == GOLDEN_SHA256[name], name


def _written(body: dict, raw: bytes) -> bytes:
    """What a command writes for a report body built from the input raw."""
    return (cli._encode_json({**body, "meta": cli._meta(raw)}) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", ["fig3", "dense"])
def test_surface_report_bodies_are_the_command_output(dense_csv, tmp_path, name):
    path = FIG3_PATH if name == "fig3" else dense_csv
    raw = path.read_bytes()
    surf = load_surface(raw)
    aux = AuxInputs(expected_loss=2.5, meituan_params=(0.006, 1.0, 1e8, 0.2))  # compare's flags
    bodies = {
        "analyze": analyze_report(surf),
        "analyze-val": analyze_report(surf, "val", 0.02, 0.0),
        "compare": {"rows": compare_rows(surf, LAW_METHODS, DEFAULT_LAWS, aux)},
        "compare-snapped": {
            "rows": compare_rows(surf, LAW_METHODS, DEFAULT_LAWS, aux, use_snapped=True)
        },
    }
    for key, argv in _surface_commands(path, tmp_path / "rows.json"):
        if key in bodies:
            rc, stdout, stderr = main_inprocess(*argv)
            assert (rc, stderr) == (0, "")
            assert _written(bodies[key], raw) == stdout, key


@pytest.mark.parametrize("noise_sigma", [0.05, 0.0], ids=["noisy", "exact"])
def test_stats_report_body_is_the_command_output(tmp_path, noise_sigma):
    raw = _lattice_observations(tmp_path, noise_sigma)
    path = tmp_path / "obs.csv"
    path.write_bytes(raw)
    rc, stdout, stderr = main_inprocess("stats", f"--observations={path}")
    assert (rc, stderr) == (0, "")
    assert _written(compare_formulations(load_observations(raw)), raw) == stdout


# plot on the surfaces the goldens above miss: one lr node and one bs node,
# where a pixel sits at the middle of its one-node axis, each under an ok
# row, an out_of_hull row and a row with no method (label "?"); and the
# extreme-loss surface, whose relative errors but the optimum's are inf
EDGE_PLOT_SHA256 = {
    "one-lr": "bc9fe978034d4382c02abd939238b8a23d5e7d5974b32515cb137648739a2def",
    "one-bs": "fbd1bca3e4dc9226d305ef803c1c1a37257de3c006656ce99aa9924c2b5f1c37",
    "extreme": "7ec30e414e7edd8702a1c43fc36c7c51e638c7977df98ee80953cbb9d1397d35",
}

_EDGE_SURFACES = {
    "one-lr": "1e-3,65536,2.1\n1e-3,131072,2.0\n1e-3,262144,2.05\n",
    "one-bs": "1e-3,65536,2.1\n2e-3,65536,2.0\n4e-3,65536,2.05\n",
    "extreme": "1e-3,65536,1e-320\n1e-3,131072,1e308\n2e-3,65536,1e308\n2e-3,131072,1e308\n",
}

_EDGE_ROWS = {
    "rows": [
        {"method": "step", "status": "ok", "predicted": {"lr": 1.5e-3, "bs": 100000}},
        {"method": "far", "status": "out_of_hull", "predicted": {"lr": 1.0, "bs": 1e9}},
        {"status": "ok", "predicted": {"lr": 2e-3, "bs": 70000}},
    ]
}


@pytest.mark.parametrize("name", sorted(EDGE_PLOT_SHA256))
def test_edge_plot_output_is_pinned(tmp_path, name):
    path = tmp_path / "surface.csv"
    path.write_text("# n_params=1e9\n# d_tokens=1e10\nlr,bs_tokens,train_smooth_loss\n"
                    + _EDGE_SURFACES[name])  # fmt: skip
    argv = ["plot", f"--surface={path}"]
    if name != "extreme":
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps(_EDGE_ROWS))
        argv.append(f"--overlay={rows}")
    rc, stdout, stderr = main_inprocess(*argv)
    assert (rc, stderr) == (0, "")
    assert _sha256(stdout) == EDGE_PLOT_SHA256[name]
