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

The reader finds the option line in the text's first 4096 characters and
converts a body in the writer's own layout in numpy (see _writer_rows):
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

Any other body, and any text that is not ASCII or whose option line is not
in that prefix, is split into lines and converted in one np.loadtxt call;
a body whose first row or last byte leaves the layout gets there after
checking that one row.  Only a bad body is walked, to name its offending
line.  The header walks and that body walk read lines through one
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
numpy instead of Python's formatter: the decimal exponent and a 13-digit
integer mantissa come from one product with a correctly rounded power of
ten, whose error (at most 2u * 1e13, about 2.3e-3) cannot change the
rounding unless the scaled value lies within 4e-3 of a .5 tie.  Those
values, zeros and magnitudes outside [1e-280, 1e280] go to Python's own
'%' in one call.  The digits are assembled from ASCII tables in rows of
2048 at a time, so the temporaries stay below those of one '%' call over
the whole body.
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

# Body formatter (see _format_rows).  Magnitudes the vectorised path takes;
# outside them 10**(12 - e) would leave the normal range of the table.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# 2u * 1e13 bounds the scaling error; a wider margin leaves no doubt
_TIE_MARGIN = 4e-3
# rows per formatting pass, so temporaries stay small on long traces
_CHUNK_ROWS = 2048
# lowest k in the table of 10**k, and lowest exponent in the exponent table
_POW10_LOW = -270
_EXP_LOW = -282

# Body reader (see _writer_rows).  Characters of the prefix searched for the
# option line, and most characters converted at once: a block's largest
# temporary is its (n, 18) float64 token matrix, about 0.5 MB, where a whole
# body at once ran slower (see the module docstring).
_PROBE_CHARS = 4096
_BLOCK_CHARS = 65536
# most rows a block holds: a writer row takes at least 3 * 18 + 3 characters
_BLOCK_ROWS = _BLOCK_CHARS // 57


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The formatter's tables, built on the first write.

    The first is 10**k, correctly rounded, at [k - _POW10_LOW] for every k
    that an exponent in [-282, 282] asks for.  The others are ASCII bytes
    viewed as native words, so a cell assembled from them reads in byte
    order on any endianness; a 0 byte marks a position the value does not
    use.  Commands that never write do not pay for them.
    """
    pow10 = np.array([float("1e%d" % k) for k in range(_POW10_LOW, 295)])
    # row n holds the four digits of n, n < 10**4
    digits = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")).T.copy()
    # sign, leading digit, '.' at [lead + 10 * negative]
    head = np.zeros((2, 10, 4), dtype=np.uint8)
    head[1, :, 0] = ord("-")
    head[:, :, 1] = np.arange(10) + ord("0")
    head[:, :, 2] = ord(".")
    # 'e', exponent sign and two or three digits at [e - _EXP_LOW]
    e = np.arange(_EXP_LOW, -_EXP_LOW + 1)
    tail = np.zeros((e.size, 8), dtype=np.uint8)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, 2:5] = digits[np.abs(e), 1:]
    tail[np.abs(e) < 100, 2] = 0
    return (
        pow10,
        digits.view(np.uint32).ravel(),
        head.view(np.uint32).ravel(),
        tail.view(np.uint64).ravel(),
    )


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


def _read_header(lines: list[str]) -> tuple[list[str], TouchstoneFormat, float, int]:
    """Comments, option-line format and R, and the option line's number, which ends the header."""
    comments = []
    for lineno, raw in enumerate(lines, start=1):
        kind, text = _line_kind(raw)
        if kind == "!":
            comments.append(text)
        elif kind == "#":
            return comments, *_parse_option_line(text, lineno), lineno
        elif kind:
            raise _misplaced(kind, text, lineno)
    raise MalformedOptionLine("missing option line")


def _table(lines: list[str]) -> np.ndarray:
    """Whitespace-separated numbers, one row per line; '!' starts a comment."""
    return np.loadtxt(lines, comments="!", ndmin=2)


def _body_error(lines: list[str], start: int, nonfinite_row: int | None = None) -> Exception:
    """The error naming the bad line of the body lines[start:].

    That is a '#' or '[' line anywhere in it; else, if the body did not
    convert to three columns, its first row that does not on its own; else
    data row nonfinite_row, whose S11 is not finite.
    """
    rows = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
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


def _header_lines(text: str) -> list[str] | None:
    """The lines of an ASCII text up to its option line, ends kept, when
    its first _PROBE_CHARS characters hold that line whole; else None."""
    if not text.isascii():
        return None
    # the prefix's last line may be cut
    lines = text[:_PROBE_CHARS].splitlines(keepends=True)[:-1]
    for lineno, raw in enumerate(lines, start=1):
        if _line_kind(raw)[0] == "#":
            return lines[:lineno]
    return None


def parse_touchstone(text: str) -> tuple[OnePortTrace, TouchstoneFormat]:
    """Parse one-port Touchstone text into a trace and its declared format.

    The option line's R (50 if absent) becomes the trace's z0; the format
    holds its unit and value encoding.  The header is walked line by line
    up to the option line, within the first 4096 characters if it ends
    there.  A body in write_touchstone's layout ('%.12e %.12e %.12e\\n'
    rows, exponents of two digits) is converted exactly in numpy, 64 KiB of
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
    header = _header_lines(text)
    data = None
    if header is not None:
        comments, fmt, z0, start = _read_header(header)
        data = _writer_rows(text, sum(map(len, header)))
    if data is None:
        lines = text.splitlines()
        if header is None:
            comments, fmt, z0, start = _read_header(lines)
        body = lines[start:]
        # each header line ends in one or two characters, so the body starts at
        # or after this offset; a '!' found in the header instead only costs the walk
        body_at = sum(map(len, lines[:start])) + start
        if text.find("!", body_at) >= 0:
            marked = (_line_kind(raw) for raw in body if "!" in raw)
            comments += [note for kind, note in marked if kind == "!"]
        data = np.empty((0, 3))
        # numpy warns on input without rows, so a body of comments never gets there
        if any(_line_kind(raw)[0] not in ("", "!") for raw in body):
            try:
                data = _table(body)
            except ValueError:
                raise _body_error(lines, start) from None
            if data.shape[1] != 3:
                raise _body_error(lines, start)
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
        raise _body_error(text.splitlines(), start, int(bad[0]))
    # z0 passed POSITIVE_FINITE as a float, and each comment is one stripped '!' line
    trace = _trusted(OnePortTrace, frequencies=freqs, s11=s11, z0=z0, comments=tuple(comments))
    return trace, fmt


def write_touchstone(trace: OnePortTrace, fmt: TouchstoneFormat) -> str:
    """Serialize a trace in the requested format; inverse of parse_touchstone.

    The option line's R token is the trace's z0, in text that reads back to
    the same float; renormalize the trace to write another reference
    impedance.  Each row is exactly what
    '%.12e %.12e %.12e' prints: a numpy formatter (see _format_rows)
    writes the body 2048 rows at a time, and hands the few
    values it cannot round with certainty (within 4e-3 of a .5 tie after
    scaling, whose error is at most 2.3e-3) and zeros, subnormals and
    magnitudes beyond 1e280 to Python's '%'.
    """
    # R as '%.12g' wherever that reads back to z0 ('R 50', 'R 37.5'), else as repr, the
    # shortest text that does
    r = f"{trace.z0:.12g}"
    if float(r) != trace.z0:
        r = repr(trace.z0)
    header = [*trace.comments, f"# {fmt.frequency_unit} S {fmt.value_format} R {r}"]
    freqs = trace.frequencies / _UNIT_SCALE[fmt.frequency_unit]
    col_a, col_b = _from_complex(fmt.value_format, trace.s11)
    rows = np.column_stack((freqs, col_a, col_b))
    chunks = (_format_rows(rows[i : i + _CHUNK_ROWS]) for i in range(0, len(rows), _CHUNK_ROWS))
    return "".join(["\n".join(header) + "\n", *chunks])


def _format_exactly(values: np.ndarray) -> np.ndarray:
    """'%.12e' of each value by Python's own formatter, as (n, 21) ASCII codes.

    Every float formats to at most 20 characters; the padding is 0, which
    _format_rows drops.
    """
    text = ("%-21.12e" * values.size) % tuple(values.tolist())
    return np.frombuffer(text.replace(" ", "\0").encode("ascii"), dtype=np.uint8).reshape(-1, 21)


def _format_rows(rows: np.ndarray, delimiter: str = " ") -> str:
    """'%.12e' of each value of an (n, k) array, byte for byte.

    A row's values are joined by the one-character delimiter and each row
    ends in a newline, so an (n, 3) array with the default gives the
    Touchstone body rows '%.12e %.12e %.12e\\n'.

    With e = floor(log10 |v|), corrected by one where the scaled value
    leaves [1e12, 1e13), the mantissa is m = rint(|v| * 10**(12 - e)), and
    m = 10**13 carries into e.  The product by a correctly rounded power of
    ten is within 2u * 1e13 (about 2.3e-3) of the exact scaled value, so
    rint rounds it as '%.12e' does unless its fraction lies within
    _TIE_MARGIN of one half.  Those values, and every |v| outside
    [_FAST_MIN, _FAST_MAX] (zeros, subnormals, huge values), are formatted
    by _format_exactly instead.

    Each value fills a 24-byte cell of table words: sign, leading digit and
    '.'; three groups of four digits; 'e', exponent sign, two or three
    exponent digits and the separator.  Bytes a value does not use (a
    positive sign, a third exponent digit, padding) are 0, and one pass
    drops every 0 byte.
    """
    pow10, quad, head, tail = _tables()
    values = rows.ravel()
    magnitude = np.abs(values)
    fast = (magnitude >= _FAST_MIN) & (magnitude <= _FAST_MAX)
    magnitude[~fast] = 1.0
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    scaled = magnitude * pow10[12 - exponent - _POW10_LOW]
    exponent += scaled >= 1e13
    exponent -= scaled < 1e12
    scaled = magnitude * pow10[12 - exponent - _POW10_LOW]
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) >= _TIE_MARGIN
    mantissa = np.rint(scaled).astype(np.int64)
    carry = mantissa == 10**13
    mantissa[carry] = 10**12
    exponent += carry

    lead, rest = np.divmod(mantissa, 10**12)
    cells = np.empty((values.size, 3), dtype=np.uint64)
    words = cells.view(np.uint32)
    words[:, 0] = head[lead + 10 * (values < 0.0)]
    words[:, 1] = quad[rest // 10**8]
    words[:, 2] = quad[rest // 10**4 % 10**4]
    words[:, 3] = quad[rest % 10**4]
    cells[:, 2] = tail[exponent - _EXP_LOW]
    # the separator after each of a row's k cells, in the tail's sixth byte
    sep = np.zeros((rows.shape[1], 8), dtype=np.uint8)
    sep[:, 5] = ord(delimiter)
    sep[-1, 5] = ord("\n")
    cells.reshape(-1, rows.shape[1], 3)[:, :, 2] |= sep.view(np.uint64).ravel()
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells.view(np.uint8)[slow, :21] = _format_exactly(values[slow])
    return cells.tobytes().translate(None, b"\0").decode("ascii")
