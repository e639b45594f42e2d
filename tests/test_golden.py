"""Golden digests of what every report command and synth write.

analyze, compare, compare --use-snapped and plot (with the compare rows
overlaid) run on tests/data/fig3_style.csv and on the 60 x 70 surface the
dense_grid benchmark sweeps, alone and one after another in one process.
However a surface is held or read, every byte of their output must stay
as it is. That dense surface carries the noise of synth's SeedSequence
generator, rebuilt in test_surface._dense_surface; the bytes synth's own
generator writes for it, and for noisy observations, are pinned apart.
fit, stats and predict are pinned on synth's 4 x 4 lattice observations,
noisy and exact; stats on the exact lattice writes a null F statistic.
"""

import hashlib
import json

import pytest

from conftest import FIG3_PATH, LATTICE_D, LATTICE_N
from hpscale import generate_surface, surface_to_csv
from hpscale.laws import LAW_METHODS
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
    },
    "dense": {
        "analyze": "f3225fe8452c1049381bd961979c92f31205fb8526368828ef2b3b2e82eef568",
        "analyze-val": "8d8fafb43c34779cc0546968153fc69cf87f2fb5ebbb9b59ba52ef3ead8394df",
        "compare": "c98d62c449e027cc1c272f77f2297883f56a90831038669b173096648d954b9b",
        "compare-snapped": "13682e1c0e500b3a3956aec4dd5ef97d003e7db550f2bc9967d28d21a51fb471",
        "plot": "9164bbae9df01be2e8a00b642c2f154d5893e74f691327d5ffe295f9f7cf1d1f",
    },
}


OBSERVATION_REPORT_SHA256 = {
    "fit": "7e930907d6df9e7d0954b474b97ebddfda1a47304af501f2ecdd18c8b86853a9",
    "fit-exact": "7faa80af3dfbd90543e6007b61de31fd0a48af5971bb3432349ac9c2c07e629d",
    "stats": "73d1aded84e340ce8c22f7af5f50f046239b093c8dedaed4774a4040311444f0",
    "stats-exact": "5c3d1f8f435f940962db6eddacdaba33feb4a73ddc052bf2f2fe239f1f017762",
    "predict-step": "9d2d84f104cdc494065912784d17d75d563d2702f1da63cb556606ff7a229c62",
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


def test_observation_command_output_is_pinned(tmp_path):
    noisy, exact = tmp_path / "noisy.csv", tmp_path / "exact.csv"
    noisy.write_bytes(_lattice_observations(tmp_path, 0.05))
    exact.write_bytes(_lattice_observations(tmp_path, 0.0))
    outputs = {}
    for key, argv in (
        ("fit", ["fit", f"--observations={noisy}", "--bootstrap=200", "--seed=0"]),
        ("fit-exact", ["fit", f"--observations={exact}", "--bootstrap=200", "--seed=0"]),
        ("stats", ["stats", f"--observations={noisy}"]),
        ("stats-exact", ["stats", f"--observations={exact}"]),
        ("predict-step", ["predict", "--method=step", "--n=1e9", "--d=1e11"]),
    ):
        rc, stdout, stderr = main_inprocess(*argv)
        assert rc == 0, stderr
        if key == "stats-exact":
            assert json.loads(stdout)["full_model"]["f_statistic"] is None
        outputs[key] = _sha256(stdout)
    assert outputs == OBSERVATION_REPORT_SHA256


def _surface_command_digests(path, tmp_path) -> dict[str, str]:
    """sha256 of what each surface command writes for the surface at path."""
    compare = ["compare", f"--surface={path}", "--methods", ",".join(LAW_METHODS),
               "--loss=2.5", "--meituan-params=0.006,1.0,1e8,0.2"]  # fmt: skip
    rows = tmp_path / "rows.json"
    outputs = {}
    for key, argv in (
        ("analyze", ["analyze", f"--surface={path}"]),
        ("analyze-val", ["analyze", f"--surface={path}", "--metric=val", "--delta=0.02",
                         "--epsilon=0"]),
        ("compare", compare),
        ("compare-snapped", [*compare, "--use-snapped"]),
        ("plot", ["plot", f"--surface={path}", f"--overlay={rows}"]),
    ):
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
