"""Exception hierarchy shared by all hpscale modules, and the input boundary.

The CLI maps these onto process exit codes: ArgumentError (and its
subclasses) exit 2, DomainError exits 3, write failures exit 4. The
surface and stats analytics each return their report section as a dict
of plain values or raise one of these errors: the CLI encodes the one
and maps the other onto an exit code.

Outside bytes become checked values here and nowhere else: decode_text
turns bytes into text, decode_json parses a JSON document, decode_csv
splits a CSV text into its metadata, header and data lines, decode_table
checks a CSV header and reads the data cells as numbers, check_number
accepts a number and check_seed a random seed. Each turns every
malformed input into an ArgumentError, so one rule covers every spec,
law-override, overlay and CSV input and none ends in a traceback. The
loaders parse bytes; only the CLI opens files.

The number rule lives in check_number, and every numeric input field
and argument goes through it, with two exceptions: the rows of a loss
surface, which surface._check_rows checks as one array however the
surface is built, and the delta and epsilon of plateau and
convexity_report, which may be infinite by design.
"""

from __future__ import annotations

import json
import math
import numbers
from typing import NamedTuple

import numpy as np


class HpscaleError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(HpscaleError, ValueError):
    """Invalid argument, missing required input, or precondition violation."""


class ParseError(ArgumentError):
    """Malformed input file. Messages name the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GridShapeError(ArgumentError):
    """Surface points do not form a complete rectangular grid."""


class DegenerateDesignError(ArgumentError):
    """Observations lack the span needed to identify the regression."""


class SingularityError(ArgumentError):
    """Design matrix is rank deficient."""


class BootstrapFailureError(ArgumentError):
    """A bootstrap resample stayed degenerate after the retry budget."""


class DomainError(HpscaleError, ValueError):
    """Mathematically invalid result (non-finite value, negative rate, ...)."""


class OutOfHullError(DomainError):
    """Query point lies outside the surface grid hull.

    Carries the nearest grid corner so callers can report or clamp.
    """

    def __init__(self, message: str, nearest_corner: tuple[float, float]):
        super().__init__(message)
        self.nearest_corner = nearest_corner


# --- input boundary -------------------------------------------------------------


def decode_text(source) -> str:
    """Text of a str, of UTF-8 in any bytes-like object (bytes, bytearray,
    memoryview, ...), or of a readable stream of either."""
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, str):
        return data
    try:
        raw = data if isinstance(data, bytes) else memoryview(data).tobytes()
    except TypeError:
        raise ArgumentError(
            f"input must be text or bytes, got {type(data).__name__:.40}"
        ) from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc


def decode_json(raw, what: str):
    """The JSON document in raw (see decode_text).

    Non-UTF-8 bytes, malformed JSON, nesting too deep to decode and
    integers past the int-conversion digit limit are all ParseErrors that
    name `what`.
    """
    try:
        return json.loads(decode_text(raw))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid {what} JSON: {exc}") from exc


class CsvLines(NamedTuple):
    """A CSV text's stripped lines, numbered from 1, as decode_csv splits them."""

    meta: dict[str, str]  # key=value of the '#' lines; the last key wins
    header: str | None  # the first line neither blank nor a comment
    header_line: int  # its number, 0 when there is none
    rows: list[str]  # the later lines neither blank nor a comment
    row_lines: list[int]  # their numbers


def decode_csv(raw) -> CsvLines:
    """The lines of the CSV text in raw (see decode_text), in one scan.

    Each line is stripped, so a CRLF line end goes, and blank lines are
    skipped. A '#' line is a comment, whose key=value, if it holds one, is
    metadata. The first other line is the header; the rest are data lines.
    """
    meta: dict[str, str] = {}
    header, header_line, rows, row_lines = None, 0, [], []
    for number, line in enumerate(map(str.strip, decode_text(raw).split("\n")), start=1):
        if not line:
            continue
        if line[0] == "#":
            key, eq, value = line.lstrip("#").partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif header is None:
            header, header_line = line, number
        else:
            rows.append(line)
            row_lines.append(number)
    return CsvLines(meta, header, header_line, rows, row_lines)


class CsvTable(NamedTuple):
    """The metadata and data cells of a CSV text, as decode_table reads them."""

    meta: dict[str, str]  # as decode_csv gives it
    values: np.ndarray  # float64, (rows read, columns of the longest header)
    missing: np.ndarray  # its shape: True where an optional cell is blank or absent
    row_lines: list[int]  # the number of every data line, read or not
    fault: tuple[int, str] | None  # (row, message) of the first unread line

    def error(self, row: int, message: str) -> ParseError:
        """A ParseError that names data row `row`'s line."""
        return ParseError(message, line=self.row_lines[row])


def decode_table(raw, headers: tuple[tuple[str, ...], ...]) -> CsvTable:
    """The table of the CSV text in raw (see decode_csv), whose header is
    one of headers, each a prefix of the longest. A column that not every
    header has is optional: its blank or absent cells are NaN and missing.
    np.loadtxt reads the data lines, or, if it refuses them, the row loop."""
    columns, required = max(headers, key=len), min(map(len, headers))
    csv = decode_csv(raw)
    if csv.header is None:
        raise ParseError("no header found (empty file?)")
    header = tuple(c.strip() for c in csv.header.split(","))
    if header not in headers:
        expected = ",".join(columns[:required]) + "".join(f"[,{c}]" for c in columns[required:])
        raise ParseError(
            f"bad header {csv.header!r:.40}; expected {expected!r}", line=csv.header_line
        )
    if not csv.rows:
        raise ParseError("no data rows found")
    width = len(header)
    values, missing, fault = _bulk_table(csv.rows, width) or _row_table(csv.rows, width, required)
    if width < len(columns):  # the columns the header lacks
        pad = (len(values), len(columns) - width)
        values = np.hstack((values, np.full(pad, np.nan)))
        missing = np.hstack((missing, np.ones(pad, dtype=bool)))
    return CsvTable(csv.meta, values, missing, csv.row_lines, fault)


def _bulk_table(lines: list[str], width: int) -> tuple | None:
    """_row_table's triple for data lines numpy reads all of in one call;
    None when numpy refuses them."""
    try:
        # comments=None: a '#' inside a row fails here as it does in the row loop
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(lines), width):
        return None
    return table, np.zeros(table.shape, dtype=bool), None


def _row_table(lines: list[str], width: int, required: int) -> tuple:
    """The row loop: the values and missing of the lines float() reads, up
    to the first it cannot, and that one's (row, message), or None. A blank
    cell past the first `required` is missing; float() also reads
    underscores and non-ASCII digits. Cells are stripped first, as float()
    keeps the separators U+001C to U+001F that strip() removes."""
    rows, fault = [], None
    for k, line in enumerate(lines):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != width:
            fault = (k, f"expected {width} columns, found {len(cells)}")
            break
        try:
            rows.append([float(c) if c or j < required else None for j, c in enumerate(cells)])
        except ValueError as exc:  # float() quotes the whole cell: keep 40 chars
            fault = (k, f"non-numeric value: {exc!s:.75}")
            break
    missing = np.array([[v is None for v in row] for row in rows], dtype=bool)
    values = np.array(rows, dtype=np.float64)  # a None is NaN
    return values.reshape(-1, width), missing.reshape(-1, width), fault


def check_number(value, where: str, sign: str = "") -> float:
    """value as a float, if it is a finite number in the domain sign names.

    sign is "" (any finite number), "positive" or "non-negative". Bools
    and strings are not numbers, and an integer too large for a float is
    not finite. The error names `where`. int and float are tested first,
    so only other types (numpy scalars) pay for the numbers.Real check.
    """
    if not isinstance(value, bool) and isinstance(value, (int, float, numbers.Real)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and (
            not sign or number > 0 or (number == 0 and sign == "non-negative")
        ):
            return number
    kind = f"a {sign} finite number" if sign else "a finite number"
    raise ArgumentError(f"{where} must be {kind}, got {value!r:.40}")


def check_seed(seed) -> None:
    """A seed is a non-negative integer (not a bool)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ArgumentError(f"seed must be a non-negative integer, got {seed!r:.40}")
