"""Golden digests of what the surface commands write.

analyze, compare, compare --use-snapped and plot (with the compare rows
overlaid) run on tests/data/fig3_style.csv and on the 60 x 70 surface the
dense_grid benchmark sweeps. However a surface is held or read, every
byte of their output must stay as it is.
"""

import hashlib

import pytest

from conftest import FIG3_PATH
from hpscale import surface_to_csv
from hpscale.laws import LAW_METHODS
from test_cli_inprocess import main_inprocess
from test_surface import _dense_surface

DENSE_CSV_SHA256 = "a71159f1f2914fcb9fe6876a85d2cca09341a7f1d69aa2bd9bff2ab4eb507043"

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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def dense_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "dense.csv"
    path.write_bytes(surface_to_csv(_dense_surface()).encode("utf-8"))
    return path


def test_dense_csv_bytes_are_pinned(dense_csv):
    assert _sha256(dense_csv.read_bytes()) == DENSE_CSV_SHA256


@pytest.mark.parametrize("name", ["fig3", "dense"])
def test_surface_command_output_is_pinned(dense_csv, tmp_path, name):
    path = str(FIG3_PATH if name == "fig3" else dense_csv)
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
    assert outputs == GOLDEN_SHA256[name]
