"""One-port Touchstone (version 1) reader and writer.

A supported file is any number of '!' comment lines, one '#' option line,
then rows of three whitespace-separated numbers.  Value encodings are RI
(real/imag), MA (linear magnitude / angle in degrees) and DB
(20*log10 magnitude / angle in degrees).  Frequencies are converted to Hz
on read.  Touchstone v2 keywords and multi-port row shapes are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyData,
    MalformedOptionLine,
    NonMonotonicFrequency,
    WrongColumnCount,
)

_UNIT_SCALE = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
_VALUE_FORMATS = ("RI", "MA", "DB")
_OTHER_PARAMETER_KINDS = ("Y", "Z", "G", "H")
# floor keeps the dB column of a true zero finite (parses back to ~0)
_DB_MAG_FLOOR = 1e-300


def _as_frequency_grid(values) -> np.ndarray:
    freqs = np.asarray(values, dtype=float)
    if freqs.ndim != 1:
        raise ValueError("frequency grid must be one-dimensional")
    if freqs.size < 2:
        raise ValueError("frequency grid needs at least 2 samples")
    if not (np.all(np.isfinite(freqs)) and freqs[0] > 0.0 and np.all(np.diff(freqs) > 0.0)):
        raise ValueError("frequencies must be positive and strictly increasing")
    return freqs


@dataclass(frozen=True)
class TouchstoneFormat:
    """Option-line contents: unit, parameter kind, encoding, reference ohms."""

    frequency_unit: str = "GHZ"
    parameter_kind: str = "S"
    value_format: str = "RI"
    reference_resistance: float = 50.0

    def __post_init__(self):
        unit = self.frequency_unit.upper()
        if unit not in _UNIT_SCALE:
            raise ValueError(f"unknown frequency unit {self.frequency_unit!r}")
        if self.parameter_kind.upper() != "S":
            raise ValueError("only S-parameter data is supported")
        fmt = self.value_format.upper()
        if fmt not in _VALUE_FORMATS:
            raise ValueError(f"unknown value format {self.value_format!r}")
        if not self.reference_resistance > 0:
            raise ValueError("reference resistance must be positive")
        object.__setattr__(self, "frequency_unit", unit)
        object.__setattr__(self, "parameter_kind", "S")
        object.__setattr__(self, "value_format", fmt)
        object.__setattr__(self, "reference_resistance", float(self.reference_resistance))


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
        if not self.z0 > 0:
            raise ValueError("z0 must be positive")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "s11", s11)
        object.__setattr__(self, "z0", float(self.z0))
        object.__setattr__(self, "comments", tuple(self.comments))


def _parse_option_line(line: str, lineno: int) -> TouchstoneFormat:
    tokens = line[1:].split()
    unit = param = vfmt = None
    resistance = None
    i = 0
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok in _UNIT_SCALE:
            if unit is not None:
                raise MalformedOptionLine(f"line {lineno}: duplicate frequency unit")
            unit = tok
        elif tok in _VALUE_FORMATS:
            if vfmt is not None:
                raise MalformedOptionLine(f"line {lineno}: duplicate value format")
            vfmt = tok
        elif tok == "S":
            if param is not None:
                raise MalformedOptionLine(f"line {lineno}: duplicate parameter kind")
            param = tok
        elif tok in _OTHER_PARAMETER_KINDS:
            raise MalformedOptionLine(
                f"line {lineno}: only S-parameter files are supported, got {tok!r}"
            )
        elif tok == "R":
            if resistance is not None:
                raise MalformedOptionLine(f"line {lineno}: duplicate reference resistance")
            i += 1
            if i >= len(tokens):
                raise MalformedOptionLine(f"line {lineno}: R token needs a value")
            try:
                resistance = float(tokens[i])
            except ValueError:
                raise MalformedOptionLine(
                    f"line {lineno}: reference resistance {tokens[i]!r} is not a number"
                ) from None
            if resistance <= 0:
                raise MalformedOptionLine(f"line {lineno}: reference resistance must be positive")
        else:
            raise MalformedOptionLine(f"line {lineno}: unknown option token {tokens[i]!r}")
        i += 1
    return TouchstoneFormat(
        frequency_unit=unit or "GHZ",
        parameter_kind=param or "S",
        value_format=vfmt or "MA",
        reference_resistance=50.0 if resistance is None else resistance,
    )


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


def _data_rows(rows: list[str], linenos: list[int]) -> np.ndarray:
    """Convert the data rows in one call; on failure name the first bad row."""
    try:
        data = np.loadtxt(rows, ndmin=2, comments=None)
        if data.shape[1] == 3:
            return data
    except ValueError:
        pass
    for lineno, row in zip(linenos, rows):
        tokens = row.split()
        if len(tokens) != 3:
            raise WrongColumnCount(
                f"line {lineno}: one-port data needs 3 columns, got {len(tokens)}"
            )
        try:
            np.loadtxt([row], comments=None)
        except ValueError:
            raise WrongColumnCount(f"line {lineno}: non-numeric value in data row") from None
    raise AssertionError("rows failed to convert together but not one by one")


def parse_touchstone(text: str) -> tuple[OnePortTrace, TouchstoneFormat]:
    """Parse one-port Touchstone text into a trace and its declared format.

    Raises MalformedOptionLine, WrongColumnCount (also for a row whose S11
    is not finite), NonMonotonicFrequency or EmptyData.  Comment lines are
    preserved verbatim on the trace.
    """
    comments: list[str] = []
    fmt: TouchstoneFormat | None = None
    rows: list[str] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("!"):
            comments.append(line)
            continue
        if line.startswith("["):
            keyword = line.split("]", 1)[0].lstrip("[")
            raise MalformedOptionLine(
                f"line {lineno}: Touchstone v2 keyword [{keyword}] is not supported"
            )
        if line.startswith("#"):
            if fmt is not None:
                raise MalformedOptionLine(f"line {lineno}: duplicate option line")
            fmt = _parse_option_line(line, lineno)
            continue
        if "!" in line:
            line = line.split("!", 1)[0].strip()
            if not line:
                continue
        if fmt is None:
            raise MalformedOptionLine(f"line {lineno}: data row before the option line")
        rows.append(line)
        linenos.append(lineno)
    if fmt is None:
        raise MalformedOptionLine("missing option line")
    data = _data_rows(rows, linenos) if rows else np.empty((0, 3))
    if len(data) < 2:
        raise EmptyData(f"need at least 2 data rows, got {len(data)}")
    freqs = data[:, 0] * _UNIT_SCALE[fmt.frequency_unit]
    if not (np.all(np.isfinite(freqs)) and freqs[0] > 0.0 and np.all(np.diff(freqs) > 0.0)):
        raise NonMonotonicFrequency("frequencies must be positive and strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        s11 = _to_complex(fmt.value_format, data[:, 1], data[:, 2])
    bad = np.flatnonzero(~np.isfinite(s11))
    if bad.size:
        raise WrongColumnCount(f"line {linenos[bad[0]]}: non-finite value in data row")
    trace = OnePortTrace(freqs, s11, z0=fmt.reference_resistance, comments=tuple(comments))
    return trace, fmt


def write_touchstone(trace: OnePortTrace, fmt: TouchstoneFormat) -> str:
    """Serialize a trace in the requested format; inverse of parse_touchstone.

    The option line's R token is the trace's z0, so the two must agree;
    renormalize first to change the reference impedance.
    """
    if abs(fmt.reference_resistance - trace.z0) > 1e-12 * trace.z0:
        raise ValueError(
            f"format declares R {fmt.reference_resistance:g} but trace z0 is {trace.z0:g}; "
            "renormalize the trace first"
        )
    header = list(trace.comments)
    header.append(
        f"# {fmt.frequency_unit} S {fmt.value_format} R {fmt.reference_resistance:.12g}"
    )
    freqs = trace.frequencies / _UNIT_SCALE[fmt.frequency_unit]
    col_a, col_b = _from_complex(fmt.value_format, trace.s11)
    values = np.column_stack((freqs, col_a, col_b)).ravel().tolist()
    return "\n".join(header) + "\n" + ("%.12e %.12e %.12e\n" * freqs.size) % tuple(values)
