"""The input boundary: the one number rule (errors.check_number, and every
field that uses it), the decoding of outside bytes (errors.decode_text),
and the one CSV reader (errors.decode_table), with its line rule, that
both CSV loaders share."""

import io
import math
import re
import sys

import numpy as np
import pytest

from conftest import FIG3_PATH
from hpscale import (
    ArgumentError,
    ParseError,
    load_observations,
    load_surface,
    AuxInputs,
    GridSpec,
    ModelScale,
    ObservationSpec,
    OptimumObservation,
    Prediction,
    SurfaceSpec,
    baseline_predict,
    compute_budget,
    generate_surface,
    interpolate_loss,
)
from hpscale.errors import RowError, check_number, decode_json, decode_table
from hpscale.svgplot import render_surface_svg


@pytest.mark.parametrize(
    "value,sign,expected",
    [
        (3, "", 3.0),
        (-2.5, "", -2.5),
        (0, "non-negative", 0.0),
        (-0.0, "non-negative", -0.0),
        (1e-300, "positive", 1e-300),
        (10**300, "positive", 1e300),
        (np.int64(7), "positive", 7.0),
        (np.float32(0.5), "positive", 0.5),
    ],
)
def test_check_number_accepts(value, sign, expected):
    got = check_number(value, "x", sign)
    assert got == expected and type(got) is float


@pytest.mark.parametrize(
    "value,sign",
    [
        (math.nan, ""), (math.inf, ""), (-math.inf, ""), (True, ""), ("1", ""),
        (None, ""), (10**400, ""), (0, "positive"), (-0.0, "positive"),
        (-1e-300, "non-negative"), (np.bool_(True), ""), (np.float64("nan"), ""),
    ],
)  # fmt: skip
def test_check_number_rejects(value, sign):
    kind = f"a {sign} finite number" if sign else "a finite number"
    with pytest.raises(ArgumentError, match=f"^x must be {kind}, got "):
        check_number(value, "x", sign)


_BOWL = generate_surface(SurfaceSpec(opt_lr=2.0**-9, opt_bs=262144.0))
_LATTICE = {"n_values": (1e8, 1e9), "d_values": (1e9, 1e10)}


def _surface_spec(**field):
    return SurfaceSpec(opt_lr=1e-3, opt_bs=2e5, **field)


def _observation_spec(**field):
    return ObservationSpec(**{**_LATTICE, **field})


def _observation(name, value):
    row = {"n_params": 1e9, "d_tokens": 1e10, "opt_lr": 1e-3, "opt_bs_tokens": 2e5}
    return OptimumObservation(**{**row, name: value})


# (owner, where the error points, its domain, a build that puts the value there)
_FIELDS = [
    ("ModelScale", "n_params", "positive", lambda v: ModelScale(v, 1e10)),
    ("ModelScale", "d_tokens", "positive", lambda v: ModelScale(1e9, v)),
    ("ModelScale", "n_active", "positive", lambda v: ModelScale(1e9, 1e10, n_active=v)),
    ("baseline_predict", "flops", "positive",
     lambda v: baseline_predict("deepseek", ModelScale(1e9, 1e10), budget=v)),
    ("compute_budget", "flops_factor", "positive",
     lambda v: compute_budget(ModelScale(1e9, 1e10), v)),
    ("AuxInputs", "expected_loss", "positive", lambda v: AuxInputs(expected_loss=v)),
    ("AuxInputs", "meituan_params lambda_b", "positive",
     lambda v: AuxInputs(meituan_params=(1, 2, v, 1))),
    ("Prediction", "lr", "positive", lambda v: Prediction(v, None, "x")),
    ("Prediction", "bs_tokens", "positive", lambda v: Prediction(None, v, "x")),
    ("GridSpec", "lr_values", "positive", lambda v: GridSpec((v,), (1.0,))),
    ("GridSpec", "bs_values", "positive", lambda v: GridSpec((1.0,), (1.0, v))),
    ("SurfaceSpec", "opt_lr", "positive", lambda v: SurfaceSpec(opt_lr=v, opt_bs=2e5)),
    ("SurfaceSpec", "opt_bs", "positive", lambda v: SurfaceSpec(opt_lr=1e-3, opt_bs=v)),
    ("SurfaceSpec", "curvatures: curvature_lr", "non-negative",
     lambda v: _surface_spec(curvature_lr=v)),
    ("SurfaceSpec", "curvatures: curvature_bs", "non-negative",
     lambda v: _surface_spec(curvature_bs=v)),
    ("SurfaceSpec", "cross_term", "", lambda v: _surface_spec(cross_term=v)),
    ("SurfaceSpec", "base_loss", "positive", lambda v: _surface_spec(base_loss=v)),
    ("SurfaceSpec", "noise_sigma", "non-negative", lambda v: _surface_spec(noise_sigma=v)),
    ("SurfaceSpec", "val_offset", "", lambda v: _surface_spec(val_offset=v)),
    ("ObservationSpec", "law coefficients: c", "positive", lambda v: _observation_spec(c=v)),
    ("ObservationSpec", "alpha", "", lambda v: _observation_spec(alpha=v)),
    ("ObservationSpec", "beta", "", lambda v: _observation_spec(beta=v)),
    ("ObservationSpec", "law coefficients: d_coef", "positive",
     lambda v: _observation_spec(d_coef=v)),
    ("ObservationSpec", "gamma", "", lambda v: _observation_spec(gamma=v)),
    ("ObservationSpec", "n_values", "positive", lambda v: _observation_spec(n_values=(1e8, v))),
    ("ObservationSpec", "d_values", "positive", lambda v: _observation_spec(d_values=(v, 1e10))),
    ("ObservationSpec", "noise_sigma", "non-negative",
     lambda v: _observation_spec(noise_sigma=v)),
    *[("OptimumObservation", name, "positive", lambda v, name=name: _observation(name, v))
      for name in ("n_params", "d_tokens", "opt_lr", "opt_bs_tokens")],
    ("interpolate_loss", "query lr", "positive", lambda v: interpolate_loss(_BOWL, v, 2e5)),
    ("interpolate_loss", "query bs", "positive", lambda v: interpolate_loss(_BOWL, 2e-3, v)),
    ("render_surface_svg", "contour level", "positive",
     lambda v: render_surface_svg(_BOWL, levels_permille=(1.0, v))),
]  # fmt: skip


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True], ids=repr)
@pytest.mark.parametrize(
    "where,sign,build",
    [pytest.param(*case[1:], id=f"{case[0]}.{case[1]}") for case in _FIELDS],
)
def test_every_number_field_rejects_nan_inf_and_bool(where, sign, build, value):
    kind = f"a {sign} finite number" if sign else "a finite number"
    with pytest.raises(ArgumentError, match=f"^{re.escape(where)} must be {kind}, got "):
        build(value)


# the records that hold each number field as the float check_number returns
_HOLDERS = ("ModelScale", "OptimumObservation", "SurfaceSpec", "ObservationSpec", "AuxInputs")


def _held_numbers(record):
    """Each number a record holds; the seed, the snap flag and the scale
    are not number fields, and a tuple's numbers count one by one."""
    for name in record._fields:
        value = getattr(record, name)
        if name not in ("seed", "snap", "scale") and value is not None:
            yield from value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5)], ids=repr)
@pytest.mark.parametrize(
    "build",
    [pytest.param(case[3], id=f"{case[0]}.{case[1]}") for case in _FIELDS if case[0] in _HOLDERS],
)
def test_every_record_holds_its_numbers_as_floats(build, value):
    held = list(_held_numbers(build(value)))
    assert held and [type(v) for v in held] == [float] * len(held)


# --- decoding ------------------------------------------------------------------


def _values(values, missing):
    """A decode_table build that returns the values as lists."""
    return values.tolist()


_DECODERS = [
    pytest.param(load_surface, FIG3_PATH.read_bytes(), id="load_surface"),
    pytest.param(load_observations,
                 b"n_params,d_tokens,opt_lr,opt_bs_tokens\n1e9,1e10,1e-3,262144\n",
                 id="load_observations"),
    pytest.param(lambda raw: decode_json(raw, "test"), '{"a": [1, 2.5, "\u00b5"]}'.encode(),
                 id="decode_json"),
    pytest.param(lambda raw: decode_table(raw, (("x", "y"),), _values), b"# a=1\nx,y\n1,2\n",
                 id="decode_table"),
]  # fmt: skip


@pytest.mark.parametrize("buffer", [bytearray, memoryview])
@pytest.mark.parametrize("decode,data", _DECODERS)
def test_decoders_take_any_bytes_like_input(decode, data, buffer):
    assert decode(buffer(data)) == decode(data)


@pytest.mark.parametrize("value", [5, None, 2.5, ["text"]], ids=repr)
@pytest.mark.parametrize("decode,data", _DECODERS)
def test_decoders_refuse_input_that_is_neither_text_nor_bytes(decode, data, value):
    got = type(value).__name__
    with pytest.raises(ArgumentError, match=f"input must be text or bytes, got {got}$"):
        decode(value)


# --- the CSV line rule ------------------------------------------------------------

# lines 1-10: a comment, a blank line, the padded header, a comment with no
# '=', a blank line, a row, two metadata lines and a row; CRLF on some
_CSV_TEXT = "# n=1\r\n\r\n  h1,h2 \r\n# note\n\n1,2\r\n#k = v = w\n# n = 2\n 3,4\n"

_FORMS = pytest.mark.parametrize(
    "form",
    [str, str.encode, io.StringIO, lambda text: io.BytesIO(text.encode())],
    ids=["str", "bytes", "text-stream", "bytes-stream"],
)


@_FORMS
def test_decode_table_reads_metadata_and_data_lines(form):
    meta, values = decode_table(form(_CSV_TEXT), (("h1", "h2"),), _values)
    assert meta == {"n": "2", "k": "v = w"}  # the last n wins; '# note' holds no '='
    assert values == [[1, 2], [3, 4]]


@_FORMS
def test_decode_table_names_the_stripped_header_and_its_line(form):
    # the header line loses its padding and its CRLF end
    with pytest.raises(ParseError) as err:
        decode_table(form(_CSV_TEXT), (("a", "b"),), _values)
    assert str(err.value) == "line 3: bad header 'h1,h2'; expected 'a,b'"
    assert err.value.line == 3


@pytest.mark.parametrize("row,line", [(0, 6), (1, 9)])
def test_decode_table_names_the_line_of_a_row_error_from_build(row, line):
    def build(values, missing):
        raise RowError(row, "row rule broken")

    with pytest.raises(ParseError) as err:
        decode_table(_CSV_TEXT, (("h1", "h2"),), build)
    assert str(err.value) == f"line {line}: row rule broken" and err.value.line == line


def test_decode_table_of_comments_alone_has_no_header():
    with pytest.raises(ParseError, match=r"^no header found \(empty file\?\)$"):
        decode_table("\n# a\r\n#\n\n", (("h1", "h2"),), _values)


def test_decode_table_does_not_build_when_no_row_was_read():
    calls = []
    with pytest.raises(ParseError) as err:
        decode_table("h1,h2\nx,2\n3,4\n", (("h1", "h2"),), lambda *rows: calls.append(rows))
    assert err.value.line == 2 and calls == []


def test_decode_table_holds_no_line_text_while_it_builds():
    # a 60 x 70 surface's lines are about 0.2 MB: build's peak must not hold them
    def build(values, missing):
        held = sys._getframe(1).f_locals.values()
        return [v for v in held if isinstance(v, list) and v and isinstance(v[0], str)]

    assert decode_table("h1,h2\n1,2\n3,4\n", (("h1", "h2"),), build)[1] == []


_OBS_HEADER = "n_params,d_tokens,opt_lr,opt_bs_tokens"


@pytest.mark.parametrize(
    "bad,line",
    [
        ({"surface": "lr,bs_tokens,train_smooth_loss\n1e-3,x,2.0",
          "obs": _OBS_HEADER + "\n1e9,x,1e-3,262144"}, 7),
        ({"surface": "lr,bs\n1e-3,65536", "obs": "n,d\n1e9,1e10"}, 4),
    ],
    ids=["row", "header"],
)  # fmt: skip
def test_both_loaders_number_lines_alike(bad, line):
    # the same blank lines, comments and line ends around a bad line
    layout = "\n# a comment\r\n\n{header}\r\n# k=v\n\n{row}\n"
    got = []
    for load, key in ((load_surface, "surface"), (load_observations, "obs")):
        header, row = bad[key].split("\n")
        with pytest.raises(ParseError) as err:
            load(layout.format(header=header, row=row))
        got.append(err.value.line)
    assert got == [line, line]


# each loader's header, a valid data row, and the header its errors expect;
# the metadata lines are the surface's and observations ignore them
_TABLES = {
    "surface": (load_surface, "lr,bs_tokens,train_smooth_loss", "1e-3,65536,2.0",
                "'lr,bs_tokens,train_smooth_loss[,val_loss]'"),
    "observations": (load_observations, _OBS_HEADER, "1e9,1e10,1e-3,262144",
                     f"'{_OBS_HEADER}'"),
}  # fmt: skip
_TABLE_META = "# n_params=1e9\n# d_tokens=1e10\n"


def _first_cell(row, cell):
    return ",".join([cell, *row.split(",")[1:]])


@pytest.mark.parametrize(
    "build,message,line",
    [
        (lambda header, row: "", "no header found (empty file?)", None),
        (lambda header, row: "# a=1\r\n#\n\n", "no header found (empty file?)", None),
        (lambda header, row: f"{_TABLE_META}x, y\n{row}\n",
         "line 3: bad header 'x, y'; expected {expected}", 3),
        (lambda header, row: f"{_TABLE_META}{header}\n# {row}\n", "no data rows found", None),
        (lambda header, row: f"{_TABLE_META}{header}\n{row}\n{row},7\n",
         "line 5: expected {width} columns, found {wider}", 5),
        (lambda header, row: f"{_TABLE_META}{header}\n{row}\n{_first_cell(row, ' 2x ')}\n",
         "line 5: non-numeric value: could not convert string to float: '2x'", 5),
        (lambda header, row: f"{_TABLE_META}{header}\n\n{_first_cell(row, '  ')}\n",
         "line 5: non-numeric value: could not convert string to float: ''", 5),
    ],
    ids=["empty", "comments-only", "bad-header", "no-rows", "wide-row", "non-numeric",
         "blank-required"],
)  # fmt: skip
@pytest.mark.parametrize("kind", sorted(_TABLES))
def test_both_loaders_share_each_table_fault(kind, build, message, line):
    load, header, row, expected = _TABLES[kind]
    width = header.count(",") + 1
    with pytest.raises(ParseError) as err:
        load(build(header, row))
    assert str(err.value) == message.format(expected=expected, width=width, wider=width + 1)
    assert err.value.line == line


@pytest.mark.parametrize(
    "odd,plain",
    [("1_000", "1000"), ("\u0663", "3"), ("\x1f 2.5\t", "2.5"), (" 1E+1 ", "10")],
    ids=["underscore", "arabic-indic-digit", "padded", "exponent"],
)
@pytest.mark.parametrize("kind", sorted(_TABLES))
def test_both_loaders_accept_the_same_odd_cells(kind, odd, plain):
    load, header, row, _ = _TABLES[kind]
    # the odd cell goes last, the train loss or the batch size, a positive float
    cells = row.split(",")
    got, want = (load(f"{_TABLE_META}{header}\n{','.join([*cells[:-1], cell])}\n")
                 for cell in (odd, plain))  # fmt: skip
    assert got == want
