"""Exception hierarchy shared by all hpscale modules, and the input boundary.

The CLI maps these onto process exit codes: ArgumentError (and its
subclasses) exit 2, DomainError exits 3, write failures exit 4. The
surface and stats analytics each return their report section as a dict
of plain values or raise one of these errors: the CLI encodes the one
and maps the other onto an exit code.

Outside bytes become checked values here and nowhere else: decode_text
turns bytes into text, decode_json parses a JSON document, decode_table
takes a CSV text to its metadata and the checked rows its caller builds,
check_number accepts a number and check_seed a random seed. Each turns
every malformed input into an ArgumentError, so one rule covers every
spec, law-override, overlay and CSV input and none ends in a traceback.
A loader's build raises RowError for the first row that breaks its row
rule, and decode_table names that row's line. The loaders parse bytes;
only the CLI opens files.

The number rule lives in check_number, and every numeric input field
and argument goes through it, with two exceptions: the rows of a loss
surface, which surface._check_rows checks as one array however the
surface is built, and the delta and epsilon of plateau and
convexity_report, which may be infinite by design. A record holds the
float check_number returns: the constructors of ModelScale, AuxInputs,
OptimumObservation, SurfaceSpec and ObservationSpec set their number
fields through hold_number, in declaration order, and are their only
check, whether Python code or a JSON loader builds them. GridSpec and
Prediction keep the numbers they are given, as a surface's bs axis
holds ints.

Record is the base of the package's eight frozen records: FitResult and
OptimumObservation (fitting), ModelScale, AuxInputs, Prediction and
GridSpec (laws), SurfaceSpec and ObservationSpec (synth). A record names
its fields in _fields and __slots__, and its own __init__ checks and sets
each field in turn, through hold_number or _set. Record adds eq, hash and
repr over _fields, refuses any later set or delete with an
AttributeError, and copies, pickles and replace()s by calling __init__
again, so a changed value is checked as a new one is. A record class is
a plain class: importing its module generates no code for it.
"""

from __future__ import annotations

import json
import math
import numbers

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


class RowError(ArgumentError):
    """Row `row` of a table's input breaks its row rule, as the message
    says; decode_table names the row's line instead."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


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


def decode_table(raw, headers: tuple[tuple[str, ...], ...], build):
    """(meta, build(values, missing)) of the CSV text in raw (see decode_text).

    Lines are stripped, so CRLF ends go, and blank ones skipped. A '#' line
    is a comment; its key=value, if it holds one, goes into meta, the last
    key winning. The first other line is the header, one of headers, each
    a prefix of the longest; the rest are data lines, which np.loadtxt
    reads or, if it refuses them, the row loop. values is float64 (rows
    read, columns of the longest header); missing, its shape, marks the
    blank or absent cells of an optional column (one that not every header
    has), which are NaN. build runs if a row was read; a RowError from it
    names its row's line, ahead of the first unread line's fault.
    """
    columns, required = max(headers, key=len), min(map(len, headers))
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
    if header is None:
        raise ParseError("no header found (empty file?)")
    names = tuple(c.strip() for c in header.split(","))
    if names not in headers:
        expected = ",".join(columns[:required]) + "".join(f"[,{c}]" for c in columns[required:])
        raise ParseError(f"bad header {header!r:.40}; expected {expected!r}", line=header_line)
    if not rows:
        raise ParseError("no data rows found")
    width = len(names)
    values, missing, fault = _bulk_table(rows, width) or _row_table(rows, width, required)
    del rows  # hold no line text while build allocates
    if width < len(columns):  # the columns the header lacks
        pad = (len(values), len(columns) - width)
        values = np.hstack((values, np.full(pad, np.nan)))
        missing = np.hstack((missing, np.ones(pad, dtype=bool)))
    try:  # with no row read, the first line is the fault
        built = build(values, missing) if len(values) else None
    except RowError as bad:
        raise ParseError(str(bad), line=row_lines[bad.row]) from None
    if fault is not None:  # raised after the rows: an earlier row-rule break wins
        raise ParseError(fault[1], line=row_lines[fault[0]])
    return meta, built


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


# sets a field of a Record, whose own __setattr__ refuses; only the
# records' __init__ call it
_set = object.__setattr__


class Record:
    """A frozen record of the fields its class names in _fields.

    A subclass declares __slots__ (the fields, and any value derived from
    them that eq and repr leave out) and an __init__ that takes the fields
    in _fields order and sets each one. Two records are equal when they
    are of one class and their fields are equal; the hash is that of the
    fields' tuple, and the repr is Name(field=value, ...).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # inspect.signature(cls) reads "(...) -> None", the None object
        # that postponed annotations would make the string 'None'
        cls.__init__.__annotations__["return"] = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A record of this class with changes to some fields, built again
        through __init__, so every value is checked again."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


def hold_number(record, name: str, value, sign: str = "", where: str = "") -> float:
    """Set the field name of the Record record to the float check_number
    returns for value, and return that float; the error names where, or
    name when where is empty."""
    number = check_number(value, where or name, sign)
    _set(record, name, number)
    return number


def check_seed(seed) -> None:
    """A seed is a non-negative integer (not a bool)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ArgumentError(f"seed must be a non-negative integer, got {seed!r:.40}")
