import numpy as np
import pytest

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
    assert fmt.reference_resistance == 50.0
    np.testing.assert_allclose(trace.frequencies, [1e9, 2e9])
    np.testing.assert_allclose(trace.s11[0], 0.3)


def test_option_line_case_and_order_insensitive():
    for header in ("# mhz s ri r 75", "# S RI MHZ R 75", "# r 75 ri s mhz"):
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


@pytest.mark.parametrize(
    "header",
    [
        "# GHZ GHZ S RI R 50",  # duplicate unit
        "# GHZ S RI R",  # R with no value
        "# GHZ S RI R -50",  # non-positive reference
        "# GHZ Y RI R 50",  # only S parameters supported
        "# GHZ S XX R 50",  # unknown format
        "# FURLONG S RI R 50",  # unknown unit
    ],
)
def test_malformed_option_lines(header):
    with pytest.raises(MalformedOptionLine):
        parse_touchstone(header + "\n1 0 0\n2 0 0\n")


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
    text = write_touchstone(trace, TouchstoneFormat("HZ", "S", "RI", 50.0))
    # twelve significant digits survive the serialization
    assert "1.234567890123e-01" in text


def test_roundtrip_all_formats():
    rng = np.random.default_rng(7)
    trace = _random_trace(rng)
    for unit in ("HZ", "KHZ", "MHZ", "GHZ"):
        for vf in ("RI", "MA", "DB"):
            fmt = TouchstoneFormat(unit, "S", vf, 50.0)
            back, _ = parse_touchstone(write_touchstone(trace, fmt))
            np.testing.assert_allclose(back.frequencies, trace.frequencies, rtol=1e-9)
            np.testing.assert_allclose(back.s11, trace.s11, rtol=1e-9, atol=1e-13)


def test_write_angles_stay_in_principal_range():
    trace = OnePortTrace(
        frequencies=np.array([1e9, 2e9]),
        s11=np.array([-1.0 + 0.0j, -0.5 - 1e-18j]),
        z0=50.0,
    )
    text = write_touchstone(trace, TouchstoneFormat("GHZ", "S", "MA", 50.0))
    angles = [float(line.split()[2]) for line in text.splitlines() if not line.startswith(("#", "!"))]
    for a in angles:
        assert -180.0 < a <= 180.0


def test_write_reference_mismatch_rejected():
    trace = OnePortTrace(
        frequencies=np.array([1e9, 2e9]), s11=np.zeros(2, complex), z0=50.0
    )
    with pytest.raises(ValueError):
        write_touchstone(trace, TouchstoneFormat("GHZ", "S", "RI", 75.0))


def test_comments_roundtrip():
    trace = OnePortTrace(
        frequencies=np.array([1e9, 2e9]),
        s11=np.zeros(2, complex),
        z0=50.0,
        comments=("! fixture deembedded", "! wafer 12"),
    )
    text = write_touchstone(trace, TouchstoneFormat("GHZ", "S", "RI", 50.0))
    back, _ = parse_touchstone(text)
    assert back.comments == trace.comments


def _write_rows_reference(trace, fmt):
    # the per-row writer the bulk format replaced, kept as the reference
    lines = list(trace.comments)
    lines.append(f"# {fmt.frequency_unit} S {fmt.value_format} R {fmt.reference_resistance:.12g}")
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
    fmt = TouchstoneFormat("GHZ", "S", value_format, 50.0)
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
