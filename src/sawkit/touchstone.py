"""One-port Touchstone (version 1) reader and writer.

A supported file is any number of '!' comment lines, one '#' option line,
then rows of three whitespace-separated numbers; blank lines, '!' comment
lines and inline '!' comments may appear anywhere.  The option line reads
'# <unit> S <format> R <ohms>', tokens in any order and case, each optional.
A file's TouchstoneFormat is its unit and value encoding; the reference
impedance R lives only on the trace, as its z0, and must be positive and
finite.  Value encodings are RI (real/imag), MA (linear magnitude / angle
in degrees) and DB (20*log10 magnitude / angle in degrees).  Frequencies
are converted to Hz on read.  Touchstone v2 keywords, parameter kinds
other than S and multi-port row shapes are rejected.

The reader walks the header once, to the option line and the body's exact
offset (see _read_header).  An ASCII body in the writer's own layout
converts in numpy (see _writer_rows):
rows of three '-?d.dddddddddddde[+-]dd' tokens, one space between them and
'\\n' after each row.  Every file sawkit writes is in it unless some
value's exponent takes three digits; a file from another writer, such as
a VNA export, need not be.  A block's tokens are gathered into one
(n, 18) byte matrix, and one subtract-and-compare against per-column
ranges checks every byte.  One float64 product of those bytes, less each
range's lowest, with an (18, 2) weight matrix gives each token's 13-digit
mantissa m and the sign and digits of its exponent e: each term is a
digit times 10**k, k <= 12, and each partial sum an integer below
10**13 < 2**53, so the product is exact in whatever order the sum is
taken.  The value is m * 10**-k, k = 12 - e; for |k| <= 22, 10**|k| is
exact in a double, so one multiplication or division gives the correctly
rounded value, bit for bit what np.loadtxt gives (Clinger's fast path).
Tokens outside that window go to float().  The body is read in blocks of
whole rows of at most 64 KiB: the same conversion over the whole body at
once ran slower than np.loadtxt in a parse-and-extract loop, and faster
once glibc's malloc thresholds were raised, so the likely cost is the
allocator returning those buffers and faulting them in again.

Any other body, and the body of any text that is not ASCII, is split into
lines and converted in one np.loadtxt call; a body whose first row or last
byte leaves the layout gets there after checking that one row.  Only a bad
body is walked, to name its offending line, numbered on from the option
line.  The header walk and that body walk read lines through one
classifier, _line_kind.

A trace's rules each have one home, and no value is checked twice.  The
grid rule (1-D, at least 2 finite, positive, strictly increasing
frequencies) is _as_frequency_grid, and the reference impedance is held
to errors.POSITIVE_FINITE.  A trace a caller builds is checked by its
constructor: grid, S11 shape and finiteness, z0 and comments.
parse_touchstone checks the same from the file, where each failure names
the file's fault, and builds the trace through _trusted without checking
again.  A trace derived from a checked grid (network's s_to_y, y_to_s and
renormalize; mbvd's synthesis, after it checks its caller's grid) reuses
that grid through _trusted and checks only what it computes.

The writer prints every value as '%.12e' would, byte for byte, but with
numpy instead of Python's formatter (see _format_pass).  For magnitudes
from 1e-10 to just below 1e13 the 13-digit mantissa is the rint of one
product with an exact power of ten, 10**(12 - e), whose one rounding (at
most 2**-10) cannot change the rounding unless the scaled value lies
within 1e-3 of a .5 tie.  Those values, and zeros, nan, inf and every
other magnitude, go to Python's own '%' in one call per pass.  Each other
value becomes one 20-byte record of table words (its sign or the
separator before it, the 18 bytes of 'd.dddddddddddde+dd', its
separator), and one fancy assignment writes a pass's records at their
running offsets.  A pass is 4096 rows; its two (n, 5) scratch arrays,
about 0.7 MB, are allocated once per call, and the text is decoded once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyData,
    MalformedOptionLine,
    NonMonotonicFrequency,
    POSITIVE_FINITE,
    WrongColumnCount,
    require,
)

_UNIT_SCALE = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
_VALUE_FORMATS = ("RI", "MA", "DB")
_OTHER_PARAMETER_KINDS = ("Y", "Z", "G", "H")
# option-line token -> the slot it fills, named as its duplicate error names it;
# a slot is filled at most once, and R also takes the next token as its value
_OPTION_SLOTS = {
    **dict.fromkeys(_UNIT_SCALE, "frequency unit"),
    **dict.fromkeys(_VALUE_FORMATS, "value format"),
    "S": "parameter kind",
    "R": "reference resistance",
}
# floor keeps the dB column of a true zero finite (parses back to ~0)
_DB_MAG_FLOOR = 1e-300

# Body formatter (see _format_rows).  Magnitudes it converts in numpy: their
# exponent e lies in [-10, 12], where 10**(12 - e) is exact in a double
_FAST_MIN, _FAST_MAX = 1e-10, 9.999999999999e12
# just above 2**-10, the most the product's one rounding moves a value below 2**44
_TIE_MARGIN = 1e-3
# rows per formatting pass: in a parse-fit-write loop over 16001-row traces 2048
# and 8192 ran no faster, and a pass's two scratch arrays stay near 0.7 MB
_PASS_ROWS = 4096

# Reader.  Characters split first in the search for the option line (see
# _read_header), and most converted at once (see _writer_rows): a block's largest
# temporary is its (n, 18) float64 token matrix, about 0.5 MB, where a whole
# body at once ran slower (see the module docstring).
_PROBE_CHARS = 4096
_BLOCK_CHARS = 65536
# most rows a block holds: a writer row takes at least 3 * 18 + 3 characters
_BLOCK_ROWS = _BLOCK_CHARS // 57


@functools.cache
def _tables(columns: int, delimiter: str) -> tuple[np.ndarray, ...]:
    """The formatter's tables for rows of `columns` values, built on first use.

    pow10 is 10**k for k in [0, 23].  words holds the 4-byte words a record
    is made of, ASCII bytes viewed as native words so that a record reads in
    byte order on any endianness:
    - [0, 10**4): the four digits of n;
    - [10**4, 11000): the three digits of n, then 'e';
    - per column c, 200 words centred on head_at: at s * h, for a value of
      sign s whose leading two digits are h, '-' (or for s = +1 the
      separator before column c), the first digit, '.', the second digit;
    - per column c, 24 words centred on tail_at: at e in [-11, 12], the
      exponent's sign, its two digits and the separator after column c.
    head_at and tail_at give those centres for each value of a pass, and
    after the separator after each column.
    """
    pow10 = np.array([float("1e%d" % k) for k in range(24)])
    quad = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")).T
    tri = np.column_stack((quad[:1000, 1:], np.full(1000, ord("e"), dtype=np.uint8)))
    after = np.full(columns, ord(delimiter), dtype=np.uint8)
    after[-1] = ord("\n")
    h = np.abs(np.arange(-100, 100))
    head = np.empty((columns, h.size, 4), dtype=np.uint8)
    head[:, :100, 0] = ord("-")
    head[:, 100:, 0] = np.roll(after, 1)[:, None]
    head[:, :, 1] = h // 10 % 10 + ord("0")
    head[:, :, 2] = ord(".")
    head[:, :, 3] = h % 10 + ord("0")
    e = np.arange(-11, 13)
    tail = np.empty((columns, e.size, 4), dtype=np.uint8)
    tail[:, :, 0] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, :, 1] = np.abs(e) // 10 + ord("0")
    tail[:, :, 2] = np.abs(e) % 10 + ord("0")
    tail[:, :, 3] = after[:, None]
    words = np.concatenate([quad.ravel(), tri.ravel(), head.ravel(), tail.ravel()])
    column = np.tile(np.arange(columns, dtype=float), _PASS_ROWS)
    head_at = len(quad) + len(tri) + 100.0 + h.size * column
    tail_at = len(quad) + len(tri) + h.size * columns + 11.0 + e.size * column
    return pow10, words.view(np.uint32), head_at, tail_at, after


def _as_frequency_grid(values) -> np.ndarray:
    """The one grid rule: a 1-D float array of at least 2 finite, positive,
    strictly increasing frequencies, else ValueError naming what fails."""
    freqs = np.asarray(values, dtype=float)
    if freqs.ndim != 1:
        raise ValueError("frequency grid must be one-dimensional")
    if freqs.size < 2:
        raise ValueError("frequency grid needs at least 2 samples")
    if not (np.all(np.isfinite(freqs)) and freqs[0] > 0.0 and np.all(np.diff(freqs) > 0.0)):
        raise ValueError("frequencies must be positive and strictly increasing")
    return freqs


def _trusted(cls, **fields):
    """A frozen trace of class cls from all its fields, which the caller has
    already held to cls's rules and types: __post_init__ does not run again.
    """
    trace = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(trace, name, value)
    return trace


@dataclass(frozen=True)
class TouchstoneFormat:
    """How a file spells its values: frequency unit and value encoding.

    The option line's R is not part of it: it is the trace's z0.
    """

    frequency_unit: str = "GHZ"
    value_format: str = "RI"

    def __post_init__(self):
        unit = self.frequency_unit.upper()
        if unit not in _UNIT_SCALE:
            raise ValueError(f"unknown frequency unit {self.frequency_unit!r}")
        fmt = self.value_format.upper()
        if fmt not in _VALUE_FORMATS:
            raise ValueError(f"unknown value format {self.value_format!r}")
        object.__setattr__(self, "frequency_unit", unit)
        object.__setattr__(self, "value_format", fmt)


@dataclass(frozen=True)
class OnePortTrace:
    """Sampled one-port reflection: frequency grid in Hz, complex S11, z0."""

    frequencies: np.ndarray
    s11: np.ndarray
    z0: float
    comments: tuple[str, ...] = ()

    def __post_init__(self):
        freqs = _as_frequency_grid(self.frequencies)
        s11 = np.asarray(self.s11, dtype=complex)
        if s11.shape != freqs.shape:
            raise ValueError("frequencies and s11 must have the same length")
        if not np.all(np.isfinite(s11)):
            raise ValueError("s11 must be finite")
        require("z0", self.z0)
        comments = tuple(self.comments)
        for comment in comments:
            # written verbatim above the option line, so anything else breaks the file
            if not comment.startswith("!") or comment.splitlines() != [comment]:
                raise ValueError(f"comment {comment!r} must be one line starting with '!'")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "s11", s11)
        object.__setattr__(self, "z0", float(self.z0))
        object.__setattr__(self, "comments", comments)


def _parse_option_line(line: str, lineno: int) -> tuple[TouchstoneFormat, float]:
    """The format and reference resistance an option line declares."""
    tokens = line[1:].split()
    found: dict[str, str] = {}
    resistance = 50.0
    i = 0
    while i < len(tokens):
        tok = tokens[i].upper()
        slot = _OPTION_SLOTS.get(tok)
        if slot is None:
            if tok in _OTHER_PARAMETER_KINDS:
                raise MalformedOptionLine(
                    f"line {lineno}: only S-parameter files are supported, got {tok!r}"
                )
            raise MalformedOptionLine(f"line {lineno}: unknown option token {tokens[i]!r}")
        if slot in found:
            raise MalformedOptionLine(f"line {lineno}: duplicate {slot}")
        found[slot] = tok
        if tok == "R":
            i += 1
            if i >= len(tokens):
                raise MalformedOptionLine(f"line {lineno}: R token needs a value")
            try:
                resistance = float(tokens[i])
            except ValueError:
                raise MalformedOptionLine(
                    f"line {lineno}: reference resistance {tokens[i]!r} is not a number"
                ) from None
            in_range, requirement = POSITIVE_FINITE
            if not in_range(resistance):
                raise MalformedOptionLine(f"line {lineno}: reference resistance {requirement}")
        i += 1
    fmt = TouchstoneFormat(found.get("frequency unit", "GHZ"), found.get("value format", "MA"))
    return fmt, resistance


def _to_complex(value_format: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if value_format == "RI":
        return a + 1j * b
    phase = np.exp(1j * np.deg2rad(b))
    if value_format == "MA":
        return a * phase
    return 10.0 ** (a / 20.0) * phase


def _from_complex(value_format: str, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if value_format == "RI":
        return s.real, s.imag
    angle = np.degrees(np.angle(s))
    angle = np.where(angle <= -180.0, angle + 360.0, angle)
    magnitude = np.abs(s)
    if value_format == "MA":
        return magnitude, angle
    return 20.0 * np.log10(np.maximum(magnitude, _DB_MAG_FLOOR)), angle


def _line_kind(raw: str) -> tuple[str, str]:
    """A line's kind and stripped text; an option line's or data row's text
    loses any inline comment.

    The kinds: "" blank, "!" comment, "#" option line, "[" v2 keyword, "row".
    """
    line = raw.strip()
    kind = line[:1]
    if kind in ("", "!", "["):
        return kind, line
    return kind if kind == "#" else "row", line.split("!", 1)[0].rstrip()


def _misplaced(kind: str, text: str, lineno: int) -> MalformedOptionLine:
    """The error for a '[' line, a second '#' line or a row above the first."""
    if kind == "[":
        keyword = text.split("]", 1)[0].lstrip("[")
        return MalformedOptionLine(
            f"line {lineno}: Touchstone v2 keyword [{keyword}] is not supported"
        )
    if kind == "#":
        return MalformedOptionLine(f"line {lineno}: duplicate option line")
    return MalformedOptionLine(f"line {lineno}: data row before the option line")


def _read_header(text: str) -> tuple[list[str], TouchstoneFormat, float, int, int]:
    """Comments, option-line format and R, the option line's number and the
    body's offset.  The walk reads the lines of the first _PROBE_CHARS
    characters but the last, which may be cut, and splits the rest of the
    text only when the option line lies past them."""
    comments = []
    lineno = at = 0
    for lines in (text[:_PROBE_CHARS].splitlines(keepends=True)[:-1], None):
        if lines is None:
            lines = text[at:].splitlines(keepends=True)
        for raw in lines:
            lineno += 1
            at += len(raw)
            kind, line = _line_kind(raw)
            if kind == "!":
                comments.append(line)
            elif kind == "#":
                return comments, *_parse_option_line(line, lineno), lineno, at
            elif kind:
                raise _misplaced(kind, line, lineno)
    raise MalformedOptionLine("missing option line")


def _table(lines: list[str]) -> np.ndarray:
    """Whitespace-separated numbers, one row per line; '!' starts a comment."""
    return np.loadtxt(lines, comments="!", ndmin=2)


def _body_error(lines: list[str], start: int, nonfinite_row: int | None = None) -> Exception:
    """The error naming the bad line of the body lines, which follow line start.

    That is a '#' or '[' line anywhere in it; else, if the body did not
    convert to three columns, its first row that does not on its own; else
    data row nonfinite_row, whose S11 is not finite.
    """
    rows = []
    for lineno, raw in enumerate(lines, start=start + 1):
        kind, text = _line_kind(raw)
        if kind in ("#", "["):
            return _misplaced(kind, text, lineno)
        if kind == "row":
            rows.append((lineno, text))
    if nonfinite_row is not None:
        return WrongColumnCount(f"line {rows[nonfinite_row][0]}: non-finite value in data row")
    for lineno, text in rows:
        columns = len(text.split())
        if columns != 3:
            return WrongColumnCount(f"line {lineno}: one-port data needs 3 columns, got {columns}")
        try:
            _table([text])
        except ValueError:
            break
    return WrongColumnCount(f"line {lineno}: non-numeric value in data row")


@functools.cache
def _reader_tables() -> tuple[np.ndarray, ...]:
    """The body reader's tables, built on the first read.

    separators is ' ', ' ', '\\n' for every row a block can hold.  low and
    span give each byte of a token its range, low <= byte <= low + span,
    column by column and tiled for as many tokens: d '.' d*12 'e' '+'..'-'
    d d.  A token's bytes less low, times weights, are (m, a + 100 * t): m
    its 13-digit mantissa, a its exponent digits and t 1 for '-', 0 for
    '+'.  Each product is a digit times 10**k, k <= 12, and each partial sum
    an integer below 10**13 < 2**53, so the float64 product is exact in any
    order of summation.

    A token with mantissa sign s, exponent sign t and exponent digits a, so
    e = a or -a, is at j = a + 100 * t + 200 * s.  With k = 12 - e, mul is
    the token's sign and div is 10**k for k in [0, 22]; for k in [-22, 0),
    mul is the signed 10**-k and div is 1.  Every factor is exact, so
    m * mul / div rounds once.  Any other k has mul nan, which sends the
    token to float().
    """
    low = np.frombuffer(b"0.000000000000e+00", np.uint8)
    high = np.frombuffer(b"9.999999999999e-99", np.uint8)
    pow10 = np.array([float("1e%d" % k) for k in range(23)])
    weights = np.zeros((18, 2))
    weights[[0, *range(2, 14)], 0] = pow10[12::-1]
    # the exponent sign less '+' is 0, or 2 for '-'
    weights[15:, 1] = 50.0, 10.0, 1.0
    k = 12 - np.concatenate([np.arange(100), -np.arange(100)])
    div = np.where((k >= 0) & (k <= 22), pow10[np.clip(k, 0, 22)], 1.0)
    mul = np.where(k < 0, pow10[np.clip(-k, 0, 22)], 1.0)
    mul[np.abs(k) > 22] = np.nan
    return (
        np.tile(np.array([32, 32, 10], np.uint8), _BLOCK_ROWS),
        np.tile(low, 3 * _BLOCK_ROWS),
        np.tile(high - low, 3 * _BLOCK_ROWS),
        weights,
        np.concatenate([mul, -mul]),
        np.concatenate([div, div]),
    )


def _block_values(raw: bytes) -> np.ndarray | None:
    """The values of a block of writer rows in file order, or None if any
    byte departs from the layout (see _writer_rows).  The block must end in
    '\\n', as _writer_rows's blocks do: bytes after the last one are not read."""
    separators, low, span, weights, mul, div = _reader_tables()
    codes = np.frombuffer(raw, np.uint8)
    sep = np.flatnonzero(codes <= 32)
    # more separators than a block's rows can hold leave the layout too
    if sep.size % 3 or sep.size > separators.size or not (codes[sep] == separators[: sep.size]).all():
        return None
    start = np.empty_like(sep)
    start[0] = 0
    start[1:] = sep[:-1] + 1
    negative = codes[start] == ord("-")
    first = start + negative
    if not (sep - first == 18).all():
        return None
    tokens = np.ndarray((codes.size - 17,), "V18", raw, 0, (1,))[first].view(np.uint8)
    # a byte below its range wraps above it; between '+' and '-' lies ',' at 1
    tokens -= low[: tokens.size]
    if not ((tokens <= span[: tokens.size]).all() and (tokens[15::18] != 1).all()):
        return None
    mantissa, exponent = (tokens.reshape(-1, 18).astype(float) @ weights).T
    index = exponent.astype(np.intp) + negative * 200
    values = mantissa * mul[index] / div[index]
    for i in np.flatnonzero(np.isnan(values)):
        values[i] = float(raw[start[i] : sep[i]])
    return values


def _writer_rows(text: str, at: int) -> np.ndarray | None:
    """The (n, 3) values of the body text[at:] if it is in the writer's
    layout, else None.

    That layout is what write_touchstone prints: rows of three tokens
    -?d.dddddddddddde[+-]dd, one space between them and '\\n' after each
    row, nothing else.  A body that leaves it in its first row or lacks the
    final '\\n', as files from other writers do (CRLF, tabs, other
    precisions), is turned away before any block is converted.  Else the
    body is taken in blocks of whole rows of at most _BLOCK_CHARS
    characters, each encoded on its own.
    """
    if not text.endswith("\n"):
        return None
    tokens = text[at : text.find("\n", at)].split(" ")
    if len(tokens) != 3 or any(len(t) - (t[:1] == "-") != 18 for t in tokens):
        return None
    blocks = []
    while at < len(text):
        if len(text) - at <= _BLOCK_CHARS:
            stop = len(text)
        else:
            stop = text.rfind("\n", at, at + _BLOCK_CHARS) + 1
            if stop <= at:
                return None
        values = _block_values(text[at:stop].encode("ascii"))
        if values is None:
            return None
        blocks.append(values)
        at = stop
    return np.concatenate([np.empty(0), *blocks]).reshape(-1, 3)


def parse_touchstone(text: str) -> tuple[OnePortTrace, TouchstoneFormat]:
    """Parse one-port Touchstone text into a trace and its declared format.

    The option line's R (50 if absent) becomes the trace's z0; the format
    holds its unit and value encoding.  The header is walked once, line by
    line up to the option line, which gives the body's offset.  An ASCII
    body in write_touchstone's layout ('%.12e %.12e %.12e\\n' rows,
    exponents of two digits) is converted exactly in numpy, 64 KiB of
    whole rows at a time: every byte of a block is range-checked column by
    column; one float64 matrix product, exact because every partial sum is
    an integer below 2**53, gives each token's 13-digit mantissa m and its
    exponent; m is scaled once by an exact 10**|k|, |k| <= 22, and any
    token beyond that goes to float().  Any other body goes to one
    np.loadtxt call, and its '!' lines follow the header's on the trace,
    verbatim and in file order.  Both give the same values, bit for bit.
    Only a bad body is walked, to name the offending line.  Errors, first
    match wins:

    1. MalformedOptionLine: a bad header, or a '#' or '[' line in the body;
    2. WrongColumnCount: the first row without 3 numeric columns;
    3. EmptyData: fewer than 2 rows;
    4. NonMonotonicFrequency: frequencies not finite, positive, increasing;
    5. WrongColumnCount: the first row whose S11 is not finite.
    """
    comments, fmt, z0, start, at = _read_header(text)
    data = _writer_rows(text, at) if text.isascii() else None
    if data is None:
        body = text[at:].splitlines()
        if text.find("!", at) >= 0:
            marked = (_line_kind(raw) for raw in body if "!" in raw)
            comments += [note for kind, note in marked if kind == "!"]
        data = np.empty((0, 3))
        # numpy warns on input without rows, so a body of comments never gets there
        if any(_line_kind(raw)[0] not in ("", "!") for raw in body):
            try:
                data = _table(body)
            except ValueError:
                raise _body_error(body, start) from None
            if data.shape[1] != 3:
                raise _body_error(body, start)
    if len(data) < 2:
        raise EmptyData(f"need at least 2 data rows, got {len(data)}")
    try:
        freqs = _as_frequency_grid(data[:, 0] * _UNIT_SCALE[fmt.frequency_unit])
    except ValueError as exc:
        raise NonMonotonicFrequency(str(exc)) from None
    with np.errstate(over="ignore", invalid="ignore"):
        s11 = _to_complex(fmt.value_format, data[:, 1], data[:, 2])
    bad = np.flatnonzero(~np.isfinite(s11))
    if bad.size:
        raise _body_error(text[at:].splitlines(), start, int(bad[0]))
    # z0 passed POSITIVE_FINITE as a float, and each comment is one stripped '!' line
    trace = _trusted(OnePortTrace, frequencies=freqs, s11=s11, z0=z0, comments=tuple(comments))
    return trace, fmt


def write_touchstone(trace: OnePortTrace, fmt: TouchstoneFormat) -> str:
    """Serialize a trace in the requested format; inverse of parse_touchstone.

    The option line's R token is the trace's z0, in text that reads back to
    the same float; renormalize the trace to write another reference
    impedance.  Each row is exactly what '%.12e %.12e %.12e' prints: a numpy
    formatter (see _format_rows) writes the body 4096 rows at a time, and
    hands the few values it cannot round with certainty (within 1e-3 of a
    .5 tie after scaling, whose error is at most 2**-10) and every
    magnitude outside [1e-10, 1e13) to Python's '%'.
    """
    # R as '%.12g' wherever that reads back to z0 ('R 50', 'R 37.5'), else as repr, the
    # shortest text that does
    r = f"{trace.z0:.12g}"
    if float(r) != trace.z0:
        r = repr(trace.z0)
    header = [*trace.comments, f"# {fmt.frequency_unit} S {fmt.value_format} R {r}"]
    freqs = trace.frequencies / _UNIT_SCALE[fmt.frequency_unit]
    col_a, col_b = _from_complex(fmt.value_format, trace.s11)
    return _format_rows(np.column_stack((freqs, col_a, col_b)), head="\n".join(header) + "\n")


def _format_exactly(values: np.ndarray) -> np.ndarray:
    """'%.12e' of each value by Python's own formatter, as ASCII codes with
    a 0 after each value's text."""
    text = ("%.12e\0" * values.size) % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).copy()


def _format_rows(rows: np.ndarray, delimiter: str = " ", head: str = "") -> str:
    """head, then '%.12e' of each value of an (n, k) array, byte for byte.

    A row's values are joined by the one-character delimiter and each row
    ends in a newline, so an (n, 3) array with the default gives the
    Touchstone body rows '%.12e %.12e %.12e\\n'.  head is empty or ends in
    a newline, the separator before a row.  The rows are formatted
    _PASS_ROWS at a time (see _format_pass) into one buffer after head,
    which is decoded once.
    """
    tables = _tables(rows.shape[1], delimiter)
    values = rows.ravel()
    head_bytes = head.encode()
    # a spare byte, head, at most 21 bytes a value ('-d.dddddddddddde-ddd' and
    # its separator), and 20 bytes where the records of slow values land
    out = np.empty(1 + len(head_bytes) + 21 * values.size + 20, dtype=np.uint8)
    out[1 : 1 + len(head_bytes)] = np.frombuffer(head_bytes, dtype=np.uint8)
    step = _PASS_ROWS * rows.shape[1]
    # a pass's table indices and records, allocated once
    index = np.empty((min(step, values.size), 5), dtype=np.intp)
    records = np.empty(index.shape, dtype=np.uint32)
    end = len(head_bytes)
    for i in range(0, values.size, step):
        end = _format_pass(values[i : i + step], tables, out, end, index, records)
    return str(out[1 : end + 1], "utf-8")


def _format_pass(
    values: np.ndarray,
    tables: tuple[np.ndarray, ...],
    out: np.ndarray,
    end: int,
    index: np.ndarray,
    records: np.ndarray,
) -> int:
    """Write the text of some whole rows' values into out after its first
    end + 1 bytes, and return end plus the text's length.

    With e = floor(log10 |v|), the mantissa is m = rint(|v| * 10**(12 - e)).
    For |v| in [_FAST_MIN, _FAST_MAX] the power is exact, so the product is
    within half an ulp, 2**-10, of the exact scaled value, and rint rounds it
    as '%.12e' does unless its fraction lies within _TIE_MARGIN of one half.
    Those values, every scaled value outside [1e12, 1e13 - 0.5) (log10 missed
    e next to a power of ten, or m carries into e) and every other |v|
    (zeros, nan, inf, 3-digit exponents) are slow: _format_exactly prints
    them, in one call.

    Every other value is one 20-byte record of five table words: its sign,
    or for a positive value the separator before it; the 18 bytes of
    'd.dddddddddddde+dd'; its own separator.  The digit groups are float
    floor(m / 10**k) splits of m < 2**53, all exact.  One fancy assignment
    writes the records at cumsum(19 + negative) - 19 past end, so a
    positive record's first byte lands on its predecessor's separator, the
    same byte.  The slow values' text, of any length, is placed by one byte
    scatter, and their records land in the 20 bytes at the end of out.
    """
    pow10, words, head_at, tail_at, after = tables
    n = values.size
    magnitude = np.abs(values)
    scaled = np.fmax(magnitude, _FAST_MIN)
    np.fmin(scaled, _FAST_MAX, out=scaled)
    slow = scaled != magnitude
    exponent = np.log10(scaled)
    np.floor(exponent, out=exponent)
    scaled *= pow10[np.subtract(12.0, exponent, out=np.empty(n, np.intp), casting="unsafe")]
    mantissa = np.rint(scaled)
    slow |= scaled < 1e12
    slow |= scaled >= 1e13 - 0.5
    scaled -= mantissa
    slow |= np.abs(scaled, out=scaled) > 0.5 - _TIE_MARGIN

    # each value's five word indices: sign and leading digits, four digits,
    # four digits, three digits and 'e', exponent and separator
    index = index[:n]
    lead = np.floor(mantissa / 1e11, out=magnitude)
    rest = mantissa - lead * 1e11
    np.add(np.copysign(lead, values, out=lead), head_at[:n], out=index[:, 0], casting="unsafe")
    group = np.floor(rest / 1e7, out=lead)
    index[:, 1] = group
    rest -= group * 1e7
    np.floor(rest / 1e3, out=group)
    index[:, 2] = group
    rest -= group * 1e3
    np.add(rest, 1e4, out=index[:, 3], casting="unsafe")
    np.add(exponent, tail_at[:n], out=index[:, 4], casting="unsafe")
    # a slow value's words are never written; wrap keeps its index in the table
    records = np.take(words, index, mode="wrap", out=records[:n])

    width = (values < 0.0) + 19
    slow = np.flatnonzero(slow)
    if slow.size:
        text = _format_exactly(values[slow])
        stops = np.flatnonzero(text == 0)
        text[stops] = after[slow % after.size]
        lengths = stops - np.concatenate(([-1], stops[:-1]))
        width[slow] = lengths
    width[0] += end - 19
    starts = np.cumsum(width, out=width)
    end = int(starts[-1]) + 19
    if slow.size:
        # a slow value's text ends, with its separator, where its record would
        out[np.arange(text.size) + np.repeat(starts[slow] + 19 - stops, lengths)] = text
        starts[slow] = out.size - 20
    # every 20-byte window of out
    slots = np.ndarray((out.size - 19,), dtype="V20", buffer=out, strides=(1,))
    slots[starts] = records.view("V20").ravel()
    return end
