import numpy as np
import pytest

from sawkit import touchstone
from sawkit.errors import (
    EmptyData,
    MalformedOptionLine,
    NonMonotonicFrequency,
    WrongColumnCount,
)
from sawkit.touchstone import (
    OnePortTrace,
    TouchstoneFormat,
    parse_touchstone,
    write_touchstone,
)


def test_parse_ri_basic():
    text = "# HZ S RI R 50\n9.05e9 0.0 0.0\n9.06e9 0.1 -0.2\n"
    trace, fmt = parse_touchstone(text)
    np.testing.assert_allclose(trace.frequencies, [9.05e9, 9.06e9])
    assert trace.s11[0] == 0.0 + 0.0j
    np.testing.assert_allclose(trace.s11[1], 0.1 - 0.2j)
    assert trace.z0 == 50.0
    assert fmt.value_format == "RI"


def test_parse_ma_angle_in_degrees():
    text = "# MHZ S MA R 50\n1.0 1.0 180.0\n2.0 0.5 90.0\n"
    trace, _ = parse_touchstone(text)
    np.testing.assert_allclose(trace.frequencies, [1e6, 2e6])
    np.testing.assert_allclose(trace.s11[0], -1.0 + 0.0j, atol=1e-15)
    np.testing.assert_allclose(trace.s11[1], 0.5j, atol=1e-15)


def test_parse_db_magnitude():
    # -6.0206 dB is a factor of one half
    db = 20.0 * np.log10(0.5)
    text = f"# GHZ S DB R 50\n1.0 {db} 0.0\n2.0 0.0 0.0\n"
    trace, _ = parse_touchstone(text)
    np.testing.assert_allclose(abs(trace.s11[0]), 0.5, rtol=1e-12)
    np.testing.assert_allclose(trace.s11[1], 1.0 + 0.0j)


def test_option_line_defaults():
    # bare option line: GHz, S, MA, 50 ohms
    text = "#\n1.0 0.3 0.0\n2.0 0.3 10.0\n"
    trace, fmt = parse_touchstone(text)
    assert fmt.frequency_unit == "GHZ"
    assert fmt.value_format == "MA"
    assert trace.z0 == 50.0
    np.testing.assert_allclose(trace.frequencies, [1e9, 2e9])
    np.testing.assert_allclose(trace.s11[0], 0.3)


def test_option_line_case_and_order_insensitive():
    headers = ("# mhz s ri r 75", "# S RI MHZ R 75", "# r 75 ri s mhz", "# MHZ S RI R 75 ! inline")
    for header in headers:
        trace, fmt = parse_touchstone(header + "\n1 0 0\n2 0 0\n")
        assert fmt.frequency_unit == "MHZ"
        assert trace.z0 == 75.0


def test_unit_scaling():
    body = "\n1.0 0 0\n2.0 0 0\n"
    for unit, scale in (("HZ", 1.0), ("KHZ", 1e3), ("MHZ", 1e6), ("GHZ", 1e9)):
        trace, _ = parse_touchstone(f"# {unit} S RI R 50" + body)
        np.testing.assert_allclose(trace.frequencies, [scale, 2 * scale])


def test_comments_preserved_and_inline_stripped():
    text = "! device A\n# HZ S RI R 50\n! mid comment\n1 0 0\n2 0.5 0 ! inline\n"
    trace, _ = parse_touchstone(text)
    assert "! device A" in trace.comments
    assert "! mid comment" in trace.comments
    np.testing.assert_allclose(trace.s11[1], 0.5)


# header lines above two data rows -> the message they raise
MALFORMED_HEADERS = {
    "# GHZ GHZ S RI R 50": "duplicate frequency unit",
    "# GHZ S RI R": "R token needs a value",
    "# GHZ S RI R -50": "reference resistance must be positive",
    "# GHZ Y RI R 50": "only S-parameter files are supported",
    "# GHZ S XX R 50": "unknown option token 'XX'",
    "# FURLONG S RI R 50": "unknown option token 'FURLONG'",
    "# GHZ S RI MA R 50": "line 1: duplicate value format",
    "# GHZ S RI S R 50": "line 1: duplicate parameter kind",
    "# GHZ S RI R 50 R 75": "line 1: duplicate reference resistance",
    "# GHZ S RI R fifty": "line 1: reference resistance 'fifty' is not a number",
    "# GHZ S RI R inf": "line 1: reference resistance must be positive and finite",
    "# GHZ S RI R 1e400": "line 1: reference resistance must be positive and finite",
    "# GHZ S RI R nan": "line 1: reference resistance must be positive and finite",
    "! device\n0.5 0 0\n# GHZ S RI R 50": "line 2: data row before the option line",
}


@pytest.mark.parametrize("header", list(MALFORMED_HEADERS))
def test_malformed_option_lines(header):
    with pytest.raises(MalformedOptionLine, match=MALFORMED_HEADERS[header]):
        parse_touchstone(header + "\n1 0 0\n2 0 0\n")


def test_comments_only_file_has_no_option_line():
    with pytest.raises(MalformedOptionLine, match="missing option line"):
        parse_touchstone("! device A\n\n! no data\n")


def test_version_two_keyword_rejected():
    text = "[Version] 2.0\n# GHZ S RI R 50\n1 0 0\n2 0 0\n"
    with pytest.raises(MalformedOptionLine):
        parse_touchstone(text)


def test_wrong_column_count():
    with pytest.raises(WrongColumnCount):
        parse_touchstone("# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n")
    with pytest.raises(WrongColumnCount):
        parse_touchstone("# GHZ S RI R 50\n1 0\n2 0\n")


def test_too_few_rows():
    with pytest.raises(EmptyData):
        parse_touchstone("# GHZ S RI R 50\n1 0 0\n")
    with pytest.raises(EmptyData):
        parse_touchstone("# GHZ S RI R 50\n")


def test_non_monotonic_frequency():
    with pytest.raises(NonMonotonicFrequency):
        parse_touchstone("# GHZ S RI R 50\n2 0 0\n1 0 0\n")
    with pytest.raises(NonMonotonicFrequency):
        parse_touchstone("# GHZ S RI R 50\n1 0 0\n1 0 0\n")


@pytest.mark.parametrize("row", ["nan 0 0", "inf 0 0", "-inf 0 0"])
def test_non_finite_frequency_rejected(row):
    # a NaN compares False against everything, so only a positive check catches it
    for rows in ([row, "2 0 0", "3 0 0"], ["1 0 0", row, "3 0 0"], ["1 0 0", "2 0 0", row]):
        with pytest.raises(NonMonotonicFrequency, match="positive and strictly increasing"):
            parse_touchstone("# GHZ S RI R 50\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trace_rejects_non_finite_frequency(bad):
    with pytest.raises(ValueError, match="positive and strictly increasing"):
        OnePortTrace(frequencies=[1e9, bad, 3e9], s11=np.zeros(3, complex), z0=50.0)
    with pytest.raises(ValueError, match="positive and strictly increasing"):
        OnePortTrace(frequencies=[1e9, 2e9, bad], s11=np.zeros(3, complex), z0=50.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.nan), complex(-np.inf, 0.2)])
def test_trace_rejects_non_finite_s11(bad):
    # a trace built in code must not bypass the parser's finiteness check
    s11 = np.array([0.1, bad, 0.3], dtype=complex)
    with pytest.raises(ValueError, match="s11 must be finite"):
        OnePortTrace(frequencies=[1e9, 2e9, 3e9], s11=s11, z0=50.0)


_GRID = [1e9, 2e9]
_ZEROS = np.zeros(2, complex)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TouchstoneFormat("THZ", "RI"), "unknown frequency unit 'THZ'"),
        (lambda: TouchstoneFormat("GHZ", "XY"), "unknown value format 'XY'"),
        (lambda: OnePortTrace(_GRID, np.zeros(3, complex), 50.0), "must have the same length"),
        (lambda: OnePortTrace(_GRID, _ZEROS, 0.0), "z0 must be positive"),
        (lambda: OnePortTrace(_GRID, _ZEROS, -50.0), "z0 must be positive"),
        (lambda: OnePortTrace(_GRID, _ZEROS, np.inf), "z0 must be positive and finite"),
        (lambda: OnePortTrace(_GRID, _ZEROS, np.nan), "z0 must be positive and finite"),
        # an int too large for a float compares below inf
        (lambda: OnePortTrace(_GRID, _ZEROS, 10**400), "z0 must be positive and finite"),
        (lambda: touchstone._as_frequency_grid([_GRID, _GRID]), "must be one-dimensional"),
        (lambda: touchstone._as_frequency_grid([1e9]), "needs at least 2 samples"),
    ],
    ids=[
        "unit", "value-format", "length", "zero-z0", "negative-z0", "infinite-z0", "nan-z0",
        "huge-integer-z0", "2-d-grid", "1-sample-grid",
    ],
)
def test_constructors_refuse_invalid_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _random_trace(rng, n=40):
    f = np.sort(rng.uniform(1e8, 2e10, n))
    while np.any(np.diff(f) <= 0):  # pragma: no cover - vanishingly unlikely
        f = np.sort(rng.uniform(1e8, 2e10, n))
    mag = rng.uniform(1e-4, 1.0, n)
    ang = rng.uniform(-np.pi, np.pi, n)
    return OnePortTrace(frequencies=f, s11=mag * np.exp(1j * ang), z0=50.0)


def test_write_has_full_precision():
    trace = OnePortTrace(
        frequencies=np.array([1.0e9, 2.0e9]),
        s11=np.array([0.123456789012345 + 0.9j, -0.5 + 0.25j]),
        z0=50.0,
    )
    text = write_touchstone(trace, TouchstoneFormat("HZ", "RI"))
    # twelve significant digits survive the serialization
    assert "1.234567890123e-01" in text


def test_roundtrip_all_formats():
    rng = np.random.default_rng(7)
    trace = _random_trace(rng)
    for unit in ("HZ", "KHZ", "MHZ", "GHZ"):
        for vf in ("RI", "MA", "DB"):
            fmt = TouchstoneFormat(unit, vf)
            back, _ = parse_touchstone(write_touchstone(trace, fmt))
            np.testing.assert_allclose(back.frequencies, trace.frequencies, rtol=1e-9)
            np.testing.assert_allclose(back.s11, trace.s11, rtol=1e-9, atol=1e-13)


def test_write_angles_stay_in_principal_range():
    trace = OnePortTrace(
        frequencies=np.array([1e9, 2e9]),
        s11=np.array([-1.0 + 0.0j, -0.5 - 1e-18j]),
        z0=50.0,
    )
    text = write_touchstone(trace, TouchstoneFormat("GHZ", "MA"))
    angles = [float(line.split()[2]) for line in text.splitlines() if not line.startswith(("#", "!"))]
    for a in angles:
        assert -180.0 < a <= 180.0


def test_comments_roundtrip():
    trace = OnePortTrace(
        frequencies=np.array([1e9, 2e9]),
        s11=np.zeros(2, complex),
        z0=50.0,
        comments=("! fixture deembedded", "! wafer 12"),
    )
    text = write_touchstone(trace, TouchstoneFormat("GHZ", "RI"))
    back, _ = parse_touchstone(text)
    assert back.comments == trace.comments


def test_option_line_r_reads_back_to_the_same_z0():
    base = OnePortTrace(np.array([1e9, 2e9]), np.array([0.1, 0.2 + 0.1j]), 50.0)
    values = (50.0, 75.0, 37.5, 47.01234567890123, 1 / 3, 0.1, 1e-300, 1.7976931348623157e308)
    for z0 in values:
        trace = OnePortTrace(base.frequencies, base.s11, z0)
        text = write_touchstone(trace, TouchstoneFormat("GHZ", "RI"))
        back, _ = parse_touchstone(text)
        assert back.z0 == z0, (z0, text.splitlines()[0])
    # R keeps its 12-digit text where that reads back, else takes the shortest that does
    lines = {50.0: "50", 75.0: "75", 37.5: "37.5", 47.01234567890123: "47.01234567890123"}
    for z0, r in lines.items():
        text = write_touchstone(OnePortTrace(base.frequencies, base.s11, z0), TouchstoneFormat())
        assert text.splitlines()[0] == f"# GHZ S RI R {r}"


def _write_rows_reference(trace, fmt):
    # the per-row writer the bulk format replaced, kept as the reference
    lines = list(trace.comments)
    lines.append(f"# {fmt.frequency_unit} S {fmt.value_format} R {trace.z0:.12g}")
    scale = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}[fmt.frequency_unit]
    s = trace.s11
    if fmt.value_format == "RI":
        col_a, col_b = s.real, s.imag
    else:
        angle = np.degrees(np.angle(s))
        angle = np.where(angle <= -180.0, angle + 360.0, angle)
        col_a, col_b = np.abs(s), angle
        if fmt.value_format == "DB":
            col_a = 20.0 * np.log10(np.maximum(col_a, 1e-300))
    for f, a, b in zip(trace.frequencies / scale, col_a, col_b):
        lines.append(f"{f:.12e} {a:.12e} {b:.12e}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("value_format", ["RI", "MA", "DB"])
def test_write_matches_per_row_reference(value_format):
    rng = np.random.default_rng(3)
    trace = _random_trace(rng, n=64)
    extremes = np.array([-0.0 + 0.0j, 0.0 - 0.0j, 1e-300 - 1e-300j, 1e300 + 0.5j, -1e300 - 0.0j])
    trace = OnePortTrace(
        frequencies=np.concatenate(([1e-300, 1.0, 2.0], trace.frequencies, [1e299, 1e300])),
        s11=np.concatenate((extremes[:3], trace.s11, extremes[3:])),
        z0=50.0,
        comments=("! reference",),
    )
    fmt = TouchstoneFormat("GHZ", value_format)
    assert write_touchstone(trace, fmt) == _write_rows_reference(trace, fmt)


_PREAMBLE = "! header\n\n# GHZ S RI R 50\n! note\n\n1 0 0 ! inline\n   \n2 0 0\n"  # lines 1-8


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("3 0 0 0", "line 9: one-port data needs 3 columns, got 4"),
        ("3 0 ! inline comment", "line 9: one-port data needs 3 columns, got 2"),
        ("3 0 x", "line 9: non-numeric value in data row"),
        ("3 1_000 0", "line 9: non-numeric value in data row"),
        ("3 nan 0", "line 9: non-finite value in data row"),
        ("3 0 inf ! inline comment", "line 9: non-finite value in data row"),
    ],
)
def test_parse_error_names_the_bad_line(bad_row, message):
    text = _PREAMBLE + bad_row + "\n4 0 0\n"
    with pytest.raises(WrongColumnCount) as info:
        parse_touchstone(text)
    assert str(info.value) == message


@pytest.mark.parametrize("value_format, row", [("MA", "3 inf 0"), ("MA", "3 0.5 nan"), ("DB", "3 1e300 0")])
def test_non_finite_s11_rejected_in_every_format(value_format, row):
    text = f"# GHZ S {value_format} R 50\n1 0.5 0\n{row}\n4 0.5 0\n"
    with pytest.raises(WrongColumnCount, match="line 3: non-finite value in data row"):
        parse_touchstone(text)


def test_db_minus_infinity_is_an_exact_zero():
    trace, _ = parse_touchstone("# GHZ S DB R 50\n1 -inf 0\n2 -6 90\n")
    assert trace.s11[0] == 0.0


# --- the one-call body conversion and the line walk must agree ----------

_HEADER = "! device A\n# GHZ S RI R 50\n"  # lines 1-2
_ROWS = ["9.00 0.125 -0.5", "9.01 0.25 -0.375", "9.02 -0.625 0.75", "9.03 0.875 1e-3"]


def _clean_text():
    return _HEADER + "\n".join(_ROWS) + "\n"


def _spy_line_walk(monkeypatch):
    """Record calls of the error walk, which only a bad body takes."""
    calls = []
    locate = touchstone._body_error

    def spied(lines, start, nonfinite_row=None):
        calls.append(nonfinite_row)
        return locate(lines, start, nonfinite_row)

    monkeypatch.setattr(touchstone, "_body_error", spied)
    return calls


def _assert_same_trace(got, want):
    assert got.frequencies.tobytes() == want.frequencies.tobytes()
    assert got.s11.tobytes() == want.s11.tobytes()
    assert got.z0 == want.z0


@pytest.mark.parametrize(
    "body",
    [
        "\r\n".join(_ROWS) + "\r\n",
        "\n".join(row.replace(" ", "\t") for row in _ROWS) + "\n",
        "\n\n" + "\n   \n".join(_ROWS) + "\n\n",
        "\n".join(row + " \t " for row in _ROWS),
        "\n".join("  " + row for row in _ROWS) + "\n",
    ],
    ids=["crlf", "tabs", "blank-lines", "trailing-whitespace", "leading-whitespace"],
)
def test_whitespace_variants_take_the_one_call_path(body, monkeypatch):
    want, want_fmt = parse_touchstone(_clean_text())
    walks = _spy_line_walk(monkeypatch)
    got, fmt = parse_touchstone(_HEADER.replace("\n", "\r\n") + body)
    assert walks == []
    _assert_same_trace(got, want)
    assert got.comments == want.comments == ("! device A",)
    assert fmt == want_fmt


def test_comment_between_rows_takes_the_one_call_path(monkeypatch):
    want, _ = parse_touchstone(_clean_text())
    walks = _spy_line_walk(monkeypatch)
    body = "\n".join(_ROWS[:2] + ["! between rows"] + _ROWS[2:]) + "\n"
    got, _ = parse_touchstone(_HEADER + body)
    assert walks == []
    _assert_same_trace(got, want)
    assert got.comments == ("! device A", "! between rows")


@pytest.mark.parametrize(
    "extra, message",
    [
        ("# GHZ S RI R 50", "line 4: duplicate option line"),
        ("[Version] 2.0", "line 4: Touchstone v2 keyword [Version] is not supported"),
        ("9.015 0 0 [x]", "line 4: one-port data needs 3 columns, got 4"),
    ],
)
def test_body_markers_fall_back_to_the_exact_line_message(extra, message):
    body = "\n".join(_ROWS[:1] + [extra] + _ROWS[1:]) + "\n"
    with pytest.raises((MalformedOptionLine, WrongColumnCount)) as info:
        parse_touchstone(_HEADER + body)
    assert str(info.value) == message


def test_non_finite_row_in_a_plain_body_names_its_line(monkeypatch):
    walks = _spy_line_walk(monkeypatch)
    body = "\n\n".join(_ROWS[:2] + ["9.015 nan 0"] + _ROWS[2:]) + "\n"  # rows on lines 3, 5, 7 ...
    with pytest.raises(WrongColumnCount) as info:
        parse_touchstone(_HEADER + body)
    assert str(info.value) == "line 7: non-finite value in data row"
    assert walks == [2]  # the walk only maps the third data row to its line


@pytest.mark.parametrize(
    "body, error, message",
    [
        # the body fails to convert, so the NaN row is never judged
        ("1 nan 0\n2 x 0\n", WrongColumnCount, "line 3: non-numeric value in data row"),
        ("1 nan 0\n2 0 0 0\n", WrongColumnCount, "line 3: one-port data needs 3 columns, got 4"),
        # a '#' or '[' line anywhere in the body outranks a bad row before it
        ("1 0 0\n2 0\n# GHZ S RI R 50\n", MalformedOptionLine, "line 4: duplicate option line"),
        (
            "1 x 0\n2 0 0\n[Version] 2.0\n",
            MalformedOptionLine,
            "line 4: Touchstone v2 keyword [Version] is not supported",
        ),
        # the first bad row names its line, whatever the kind of fault
        ("1 0 0\n2 x 0\n3 0\n", WrongColumnCount, "line 3: non-numeric value in data row"),
        ("1 0 0\n2 0\n3 x 0\n", WrongColumnCount, "line 3: one-port data needs 3 columns, got 2"),
        # too few rows and a bad grid outrank a non-finite S11
        ("1 nan 0\n", EmptyData, "need at least 2 data rows, got 1"),
        (
            "2 nan 0\n1 0 0\n",
            NonMonotonicFrequency,
            "frequencies must be positive and strictly increasing",
        ),
    ],
)
def test_parse_error_precedence(body, error, message):
    with pytest.raises(error) as info:
        parse_touchstone("# GHZ S RI R 50\n" + body)
    assert type(info.value) is error
    assert str(info.value) == message


def test_body_of_comments_only_has_no_data():
    # never handed to numpy, which would warn (an error under this suite) on no rows
    with pytest.raises(EmptyData) as info:
        parse_touchstone("! device A\n# GHZ S RI R 50\n! a\n\n  ! b\r\n\t\n")
    assert str(info.value) == "need at least 2 data rows, got 0"


def test_body_comments_follow_the_header_in_file_order():
    text = "! h1\n\n! h2\n# GHZ S RI R 50\n! b1\n1 0 0 ! inline\n  ! b2\n2 0 0\n!b3\n"
    trace, _ = parse_touchstone(text)
    assert trace.comments == ("! h1", "! h2", "! b1", "! b2", "!b3")
    np.testing.assert_array_equal(trace.frequencies, [1e9, 2e9])


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_body_comments_are_found_whatever_the_line_ends(end):
    # the search for body '!' lines starts at the body's offset, which the
    # header walk gives exactly whatever the line ends: no comment is lost
    # and none of the header's is read twice
    header = end.join(["! h1", "! h2!", "#", ""])
    with_note = header + end.join(["!b", "1 0 0", "2 0 0", ""])
    without = header + end.join(["1 0 0", "2 0 0", ""])
    assert parse_touchstone(with_note)[0].comments == ("! h1", "! h2!", "!b")
    assert parse_touchstone(without)[0].comments == ("! h1", "! h2!")


def test_trace_rejects_comments_that_break_the_file():
    grid = [1e9, 2e9]
    # a comment without '!' would be read back as a data row before the option line
    with pytest.raises(ValueError, match="one line starting with '!'"):
        OnePortTrace(grid, np.zeros(2, complex), 50.0, comments=("device A",))
    # a line break would smuggle a second option line (or a data row) into the header
    for comment in ("! device A\n# HZ S RI R 50", "! a\r1 0 0", "! a b", "! a\n"):
        with pytest.raises(ValueError, match="one line starting with '!'"):
            OnePortTrace(grid, np.zeros(2, complex), 50.0, comments=("! ok", comment))


def _percent_rows(values, columns=3, delimiter=" "):
    row = delimiter.join(["%.12e"] * columns) + "\n"
    return (row * (values.size // columns)) % tuple(values.tolist())


def _ulp_neighbours(values, span):
    bits = np.asarray(values, dtype=float).view(np.int64)
    return np.concatenate([(bits + k).view(float) for k in range(-span, span + 1)])


def _value_class(name):
    rng = np.random.default_rng(20)
    n = 30_000
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if name == "normal":
        return rng.standard_normal(n)
    if name == "log-uniform 1e-30..1e30":
        return sign * 10.0 ** rng.uniform(-30.0, 30.0, n)
    if name == "random bit patterns":
        bits = rng.integers(0, 2**63, n, dtype=np.int64) * np.where(sign < 0, -1, 1)
        tiny, normal, huge = 5e-324, np.finfo(float).tiny, np.finfo(float).max
        return np.concatenate([bits.view(float), [tiny, -tiny, normal, huge, -huge]])
    if name == "13-digit decimal ties":
        digits = rng.integers(10**12, 10**13, 3000)
        powers = rng.integers(-300, 300, 3000)
        # d.ddddddddddd5e(k) rounded to the nearest double, and exact binary halves
        decimal = [float(f"{d}5e{k - 13}") for d, k in zip(digits.tolist(), powers.tolist())]
        binary = (rng.integers(10**12, 10**13, 3000) + 0.5) * 2.0 ** rng.integers(-40, 1, 3000)
        return np.concatenate([decimal, binary])
    if name == "9.9999999999995e+-k within 8 ulp":
        edges = [float(f"{s}9.9999999999995e{k}") for s in "+-" for k in range(-307, 309)]
        return _ulp_neighbours(edges, 8)
    if name == "zeros and powers of ten":
        powers = [float(f"1e{k}") for k in (-300, -280, -100, 100, 280, 300)]
        return np.concatenate([[0.0, -0.0], _ulp_neighbours(powers, 4), -_ulp_neighbours(powers, 4)])
    # the --q-trace shape: frequency in Hz, then Bode-Q or nan where flagged
    freqs = np.linspace(7.2e9, 1.4e10, n // 2)
    if name == "q-trace: 2 columns, ','":
        q = 10.0 ** rng.uniform(-1.0, 6.0, freqs.size)
        q[::7] = np.nan
        return np.column_stack((freqs, q)).ravel()
    if name == "q-trace: a column of nan":
        return np.column_stack((freqs, np.full(freqs.size, np.nan))).ravel()
    if name == "+-inf and nan among values":
        values = rng.standard_normal(n)
        values[rng.integers(0, n, 3000)] = rng.choice([np.inf, -np.inf, np.nan], 3000)
        return values
    if name == "3-digit exponents":
        # |e| >= 100 beside 2-digit ones and the edges of the range converted in numpy
        edges = [1e-10, 9.999999999999e12, 1e13, 9.9999999999999e-11, 1e-100, 1e100]
        return np.concatenate([sign * 10.0 ** rng.uniform(-300.0, 300.0, n), edges, np.negative(edges)])
    assert name == "1-column rows"
    return sign * 10.0 ** rng.uniform(-12.0, 14.0, n)


# columns and delimiter of the rows each value class is formatted in; (3, " ") elsewhere
_ROW_SHAPES = {
    "q-trace: 2 columns, ','": (2, ","),
    "q-trace: a column of nan": (2, ","),
    "+-inf and nan among values": (2, ","),
    "1-column rows": (1, ","),
}


@pytest.mark.parametrize(
    "name",
    [
        "normal",
        "log-uniform 1e-30..1e30",
        "random bit patterns",
        "13-digit decimal ties",
        "9.9999999999995e+-k within 8 ulp",
        "zeros and powers of ten",
        "q-trace: 2 columns, ','",
        "q-trace: a column of nan",
        "+-inf and nan among values",
        "3-digit exponents",
        "1-column rows",
    ],
)
def test_body_formatter_matches_percent(name):
    values = _value_class(name)
    columns, delimiter = _ROW_SHAPES.get(name, (3, " "))
    values = np.concatenate([values, np.ones(-values.size % columns)])
    rows = values.reshape(-1, columns)
    assert touchstone._format_rows(rows, delimiter) == _percent_rows(values, columns, delimiter)


def test_body_formatter_single_row():
    row = np.array([[9.05, -0.5, 0.0]])
    assert touchstone._format_rows(row) == _percent_rows(row.ravel())


@pytest.mark.parametrize("n", [2, 2049, 4097, 16001])
@pytest.mark.parametrize("unit", ["HZ", "GHZ"])
@pytest.mark.parametrize("value_format", ["RI", "MA", "DB"])
def test_write_matches_per_row_reference_across_chunks(n, unit, value_format):
    # 4097 and 16001 rows cross one and three boundaries between 4096-row formatting passes
    assert touchstone._PASS_ROWS == 4096
    trace = _random_trace(np.random.default_rng(n), n=n)
    fmt = TouchstoneFormat(unit, value_format)
    assert write_touchstone(trace, fmt) == _write_rows_reference(trace, fmt)


def test_write_fallback_runs_and_stays_exact(monkeypatch):
    sent = []
    exact = touchstone._format_exactly

    def spy(values):
        sent.append(values.size)
        return exact(values)

    monkeypatch.setattr(touchstone, "_format_exactly", spy)
    # a zero, three 13-digit ties and a magnitude beyond 1e280 go to '%';
    # the frequencies, the imaginary parts and 0.25 do not
    ties = [0.12345678901235, -4.4444444444445e-3, 1.0000000000005]
    s11 = np.array([0.0, *ties, 1e290, 0.25]) + 0.25j
    trace = OnePortTrace(np.arange(1.0, 7.0) * 1e9, s11, 50.0)
    fmt = TouchstoneFormat("GHZ", "RI")
    assert write_touchstone(trace, fmt) == _write_rows_reference(trace, fmt)
    assert sent == [5]


# --- the writer-layout body reader against the np.loadtxt path ----------


def _writer_text(n, value_format, unit="GHZ"):
    """write_touchstone text of n seeded rows.  S11 values of both signs
    span e-12..e+12 and frequencies 1e6..1e15 Hz, so exact-window tokens and
    float() tokens both occur, and the first row carries -0.0.  One row is
    a two-row text cut short."""
    rng = np.random.default_rng(n)
    freqs = np.geomspace(1e6, 1e15, max(n, 2))
    sign = np.where(rng.random(freqs.size) < 0.5, -1.0, 1.0)
    angle = sign * 10.0 ** rng.uniform(-12.0, 2.2, freqs.size)
    s11 = 10.0 ** rng.uniform(-12.0, 12.0, freqs.size) * np.exp(1j * np.deg2rad(angle))
    s11[0] = complex(-0.0, -0.0) if value_format == "RI" else complex(0.0, -0.0)
    trace = OnePortTrace(freqs, s11, 50.0, comments=("! seeded",))
    text = write_touchstone(trace, TouchstoneFormat(unit, value_format))
    return text if n > 1 else text[: text.rindex("\n", 0, -1) + 1]


def _spy_table(monkeypatch):
    """Record the np.loadtxt conversions, one entry per call."""
    calls = []
    table = touchstone._table

    def spied(lines):
        calls.append(len(lines))
        return table(lines)

    monkeypatch.setattr(touchstone, "_table", spied)
    return calls


def _parsed(text):
    """(trace, format) or the error, so that both paths compare alike."""
    try:
        return parse_touchstone(text)
    except (EmptyData, MalformedOptionLine, NonMonotonicFrequency, WrongColumnCount) as exc:
        return type(exc), str(exc)


def _assert_same_parse(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    _assert_same_trace(got[0], want[0])
    assert got[0].comments == want[0].comments
    assert got[1] == want[1]


@pytest.mark.parametrize("n", [1, 2, 4001, 16001])
@pytest.mark.parametrize("value_format", ["RI", "MA", "DB"])
@pytest.mark.parametrize("unit", ["HZ", "GHZ"])
def test_writer_layout_matches_the_loadtxt_path(n, value_format, unit, monkeypatch):
    text = _writer_text(n, value_format, unit)
    tables = _spy_table(monkeypatch)
    got = _parsed(text)
    assert tables == []
    # a CRLF copy is the same file for np.loadtxt, and leaves the writer's layout
    want = _parsed(text.replace("\n", "\r\n"))
    assert len(tables) == 1
    _assert_same_parse(got, want)
    # the values themselves, where -0.0 and 0.0 differ
    body = text.split("\n", 2)[2]
    rows = touchstone._writer_rows(text, len(text) - len(body))
    assert rows.tobytes() == touchstone._table(body.splitlines()).tobytes()
    assert "-0.000000000000e+00" in body
    if n > 2:
        exponents = {int(token[-3:]) for token in body.split()}
        # below e-10 the scale leaves the exact window and float() converts;
        # above e+12 it multiplies, and below it divides
        assert min(exponents) <= -11
        assert max(exponents) >= (13 if unit == "HZ" else 2)


def _near_miss_rows():
    rows = np.array([[9.0, 0.125, -0.5], [9.01, -0.25, 0.375], [9.02, 0.625, 0.75], [9.03, -0.875, 1e-3]])
    return rows, _percent_rows(rows.ravel())


_NEAR_MISS_HEADER = "! device A\n# GHZ S RI R 50\n"


def _near_miss(name):
    rows, body = _near_miss_rows()
    header = _NEAR_MISS_HEADER
    if name == "crlf":
        body = body.replace("\n", "\r\n")
    elif name == "tabs":
        body = body.replace(" ", "\t")
    elif name == "double spaces":
        body = body.replace(" ", "  ")
    elif name == "leading blank line":
        body = "\n" + body
    elif name == "no final newline":
        body = body[:-1]
    elif name == "%.11e":
        body = ("%.11e %.11e %.11e\n" * len(rows)) % tuple(rows.ravel().tolist())
    elif name == "uppercase E":
        body = body.replace("e", "E")
    elif name == "three-digit exponent":
        body = body.replace("1.000000000000e-03", "1.000000000000e-100")
    elif name == "plus mantissa sign":
        body = "+" + body
    elif name == "comment line":
        first, rest = body.split("\n", 1)
        body = first + "\n! between rows\n" + rest
    elif name == "non-ascii header comment":
        header = "! device µ\n" + header
    elif name == "option line cut by the probe":
        header = "!%s\n" % ("x" * 4071) + header  # the probe ends after "# GHZ S RI R"
    else:
        assert name == "header longer than the probe"
        header = "! %s\n" % ("x" * 77) * 60 + header
    return header + body


@pytest.mark.parametrize(
    "name",
    [
        "crlf",
        "tabs",
        "double spaces",
        "leading blank line",
        "no final newline",
        "%.11e",
        "uppercase E",
        "three-digit exponent",
        "plus mantissa sign",
        "comment line",
        "non-ascii header comment",
    ],
)
def test_near_miss_bodies_take_the_loadtxt_path(name, monkeypatch):
    text = _near_miss(name)
    assert touchstone._writer_rows(_NEAR_MISS_HEADER + _near_miss_rows()[1], len(_NEAR_MISS_HEADER)) is not None
    tables = _spy_table(monkeypatch)
    got = parse_touchstone(text)
    assert tables == [4 + (name == "comment line") + (name == "leading blank line")]
    # without the writer-layout reader, parse_touchstone is the np.loadtxt path alone
    monkeypatch.setattr(touchstone, "_writer_rows", lambda text, at: None)
    _assert_same_parse(got, parse_touchstone(text))


@pytest.mark.parametrize("name", ["option line cut by the probe", "header longer than the probe"])
def test_long_headers_keep_the_writer_path(name, monkeypatch):
    # an option line past the probe is found by splitting the rest of the
    # text, and the body after it is still read in numpy
    text = _near_miss(name)
    tables = _spy_table(monkeypatch)
    got = parse_touchstone(text)
    assert tables == []
    monkeypatch.setattr(touchstone, "_writer_rows", lambda text, at: None)
    want = parse_touchstone(text)
    assert tables == [4]
    _assert_same_parse(got, want)


def _spy_line_kind(monkeypatch):
    """Record the lines the classifier reads, one entry per call."""
    calls = []
    classify = touchstone._line_kind

    def spied(raw):
        calls.append(raw)
        return classify(raw)

    monkeypatch.setattr(touchstone, "_line_kind", spied)
    return calls


@pytest.mark.parametrize("comments", [1, 60], ids=["short header", "header longer than the probe"])
def test_a_writer_header_is_read_once(comments, monkeypatch):
    # each header line is classified once, and no body line at all
    notes = tuple("! note %d %s" % (k, "x" * 70) for k in range(comments))
    trace = _random_trace(np.random.default_rng(4001), n=4001)
    text = write_touchstone(OnePortTrace(trace.frequencies, trace.s11, 50.0, notes), TouchstoneFormat())
    assert (len(text.split("#", 1)[0]) > touchstone._PROBE_CHARS) == (comments == 60)
    tables = _spy_table(monkeypatch)
    kinds = _spy_line_kind(monkeypatch)
    got, _ = parse_touchstone(text)
    assert tables == []
    assert kinds == [note + "\n" for note in notes] + ["# GHZ S RI R 50\n"]
    assert got.comments == notes


def _edit_row(text, row, edit):
    lines = text.split("\n")
    lines[row + 2] = edit(lines[row + 2])  # a comment line and the option line come first
    return "\n".join(lines)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: "x" + row[1:], "line 3003: non-numeric value in data row"),
        (lambda row: row + " 0.0", "line 3003: one-port data needs 3 columns, got 4"),
        (lambda row: "# GHZ S DB R 50\n" + row, "line 3003: duplicate option line"),
        (lambda row: row.replace(row.split()[1], "nan"), "line 3003: non-finite value in data row"),
        # a layout token whose dB value overflows: converted in numpy, then walked
        (
            lambda row: row.replace(row.split()[1], "1.000000000000e+34"),
            "line 3003: non-finite value in data row",
        ),
    ],
    ids=["non-numeric", "four-columns", "option-line", "nan", "db-overflow"],
)
def test_bad_row_in_a_writer_file_keeps_its_message(edit, message):
    text = _edit_row(_writer_text(4001, "DB"), 3000, edit)
    with pytest.raises((MalformedOptionLine, WrongColumnCount)) as info:
        parse_touchstone(text)
    assert str(info.value) == message


def test_writer_text_skips_loadtxt_and_the_line_walk(monkeypatch):
    text = write_touchstone(_random_trace(np.random.default_rng(4001), n=4001), TouchstoneFormat())
    tables = _spy_table(monkeypatch)
    walks = _spy_line_walk(monkeypatch)
    parse_touchstone(text)
    assert tables == [] and walks == []
    parse_touchstone(text.replace("\n", "\r\n"))
    assert tables == [4001] and walks == []


def _other_writer(text, name):
    """The rows of a writer text as another writer might lay them out."""
    if name == "crlf":
        return text.replace("\n", "\r\n")
    if name == "no final newline":
        return text[:-1]
    header, body = text.split("# GHZ S RI R 50\n")
    rows = np.array(body.split(), dtype=float)
    return header + "# GHZ S RI R 50\n" + ("%+.9E\t%+.9E\t%+.9E\n" * (rows.size // 3)) % tuple(rows.tolist())


@pytest.mark.parametrize("name", ["crlf", "no final newline", "tabs and %+.9E"])
def test_other_writers_layouts_skip_the_block_conversion(name, monkeypatch):
    text = write_touchstone(_random_trace(np.random.default_rng(4001), n=4001), TouchstoneFormat())
    blocks = []
    convert = touchstone._block_values
    monkeypatch.setattr(touchstone, "_block_values", lambda raw: blocks.append(raw) or convert(raw))
    parse_touchstone(text)
    assert len(blocks) > 1
    blocks.clear()
    tables = _spy_table(monkeypatch)
    parse_touchstone(_other_writer(text, name))
    assert blocks == [] and tables == [4001]


def test_a_row_longer_than_a_block_takes_the_loadtxt_path(monkeypatch):
    # a writer text whose middle row carries an inline comment longer than a
    # block: the rows before it convert, then a block's stretch holds no
    # '\n' and the whole body goes to np.loadtxt once
    text = write_touchstone(_random_trace(np.random.default_rng(4001), n=4001), TouchstoneFormat())
    lines = text.split("\n")
    lines[2000] += " ! " + "x" * (touchstone._BLOCK_CHARS + 1)
    text = "\n".join(lines)
    blocks = []
    convert = touchstone._block_values
    monkeypatch.setattr(touchstone, "_block_values", lambda raw: blocks.append(raw) or convert(raw))
    tables = _spy_table(monkeypatch)
    got = parse_touchstone(text)
    assert tables == [4001]
    assert blocks and not any(b"!" in raw for raw in blocks)
    want = parse_touchstone(text.replace("\n", "\r\n"))
    assert tables == [4001, 4001]
    _assert_same_parse(got, want)


def test_a_whitespace_heavy_block_takes_the_loadtxt_path(monkeypatch):
    # a writer text whose row 2000 carries 60 000 trailing spaces, a multiple
    # of 3: its block holds more separators than a block's rows can, and the
    # whole body goes to np.loadtxt once
    text = write_touchstone(_random_trace(np.random.default_rng(4001), n=4001), TouchstoneFormat())
    lines = text.split("\n")
    lines[2000] += " " * 60_000
    text = "\n".join(lines)
    blocks = []
    convert = touchstone._block_values
    monkeypatch.setattr(touchstone, "_block_values", lambda raw: blocks.append(raw) or convert(raw))
    tables = _spy_table(monkeypatch)
    got = parse_touchstone(text)
    assert tables == [4001]
    assert b" " * 60_000 in blocks[-1]
    want = parse_touchstone(text.replace("\n", "\r\n"))
    assert tables == [4001, 4001]
    _assert_same_parse(got, want)


def test_writer_tokens_at_the_edges_of_the_exact_product():
    # the largest and smallest digit sums of both signs under every exponent
    # of two digits: every scale-table entry, and the tokens float() takes
    tokens = [
        f"{sign}{mantissa}e{exponent_sign}{a:02d}"
        for mantissa in ("9.999999999999", "1.000000000000")
        for sign in ("", "-")
        for exponent_sign in "+-"
        for a in range(100)
    ]
    tokens.append("0.000000000000e+00")  # 801 tokens fill 267 rows
    body = "".join(" ".join(tokens[i : i + 3]) + "\n" for i in range(0, len(tokens), 3))
    rows = touchstone._writer_rows(body, 0)
    assert rows.tobytes() == touchstone._table(body.splitlines()).tobytes()


# either side of '0'..'9', a letter, and the byte between '+' and '-'
@pytest.mark.parametrize("byte", ["/", ":", "x", ","])
@pytest.mark.parametrize("token, column", [(0, c) for c in range(18)] + [(1, c) for c in range(19)])
def test_every_byte_of_a_writer_token_is_checked(token, column, byte):
    # row 2 reads 9.01 -0.25 0.375: a positive token of 18 bytes, a negative one of 19
    _, body = _near_miss_rows()
    lines = body.split("\n")
    tokens = lines[1].split()
    tokens[token] = tokens[token][:column] + byte + tokens[token][column + 1 :]
    lines[1] = " ".join(tokens)
    with pytest.raises(WrongColumnCount) as info:
        parse_touchstone(_NEAR_MISS_HEADER + "\n".join(lines))
    assert str(info.value) == "line 4: non-numeric value in data row"


def test_text_after_the_last_line_end_is_not_dropped():
    text = _writer_text(4001, "DB") + "9.0"  # rows on lines 3..4003
    with pytest.raises(WrongColumnCount) as info:
        parse_touchstone(text)
    assert str(info.value) == "line 4004: one-port data needs 3 columns, got 1"
