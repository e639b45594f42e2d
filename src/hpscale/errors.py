"""Exception hierarchy shared by all hpscale modules, and the input boundary.

The CLI maps these onto process exit codes: ArgumentError (and its
subclasses) exit 2, DomainError exits 3, write failures exit 4.

Outside bytes become checked values here and nowhere else: decode_text
turns bytes into text, decode_json parses a JSON document, decode_csv
splits a CSV text into its metadata, header and data lines, check_number
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
