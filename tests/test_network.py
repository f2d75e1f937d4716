import inspect
import itertools
import warnings

import numpy as np
import pytest

from sawkit import mbvd
from sawkit.errors import DegenerateLocus, SingularReflection, TooFewPoints
from sawkit.network import (
    AdmittanceTrace,
    OnePortTrace,
    SmithCircle,
    _band_mask,
    _kasa_circle,
    _quadratic_roots,
    passivity_violations,
    renormalize,
    s_to_y,
    tune_source_impedance,
    y_to_s,
)

from conftest import C_0, F_S, KEFF2, Q_M, R_0, R_S


def _trace(s11, z0=50.0, f=None):
    s11 = np.asarray(s11, dtype=complex)
    if f is None:
        f = np.linspace(1e9, 2e9, s11.size)
    return OnePortTrace(frequencies=f, s11=s11, z0=z0)


def _smith_circle(trace, band):
    """Kasa circle of the S11 locus inside a band, which needs 5 samples."""
    return SmithCircle(*_kasa_circle(trace.s11[_band_mask(trace.frequencies, band)]))


def test_s_to_y_matched_load():
    y = s_to_y(_trace([0.0, 0.0])).y
    np.testing.assert_allclose(y, 1.0 / 50.0)


def test_s_to_y_half_reflection():
    y = s_to_y(_trace([0.5, 0.5])).y
    np.testing.assert_allclose(y, 1.0 / 150.0, rtol=1e-15)


def test_s_to_y_singular_at_minus_one():
    with pytest.raises(SingularReflection):
        s_to_y(_trace([0.3, -1.0]))


def test_s_to_y_counts_active_data_instead_of_warning():
    # |S| > 1 means negative conductance: Y = (1 - 1.5) / (50 * 2.5) = -0.004 S
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = s_to_y(_trace([1.5, 0.5, 1.5]))
    count, worst = passivity_violations(y)
    assert (type(count), type(worst)) == (int, float)
    assert count == 2
    assert worst == pytest.approx(-0.004, rel=1e-12)
    assert passivity_violations(s_to_y(_trace([0.5, 0.0]))) == (0, pytest.approx(1.0 / 150.0))


def test_y_to_s_round_trip():
    rng = np.random.default_rng(3)
    s = 0.9 * rng.uniform(0.01, 1, 50) * np.exp(1j * rng.uniform(-np.pi, np.pi, 50))
    trace = _trace(s, f=np.linspace(1e9, 3e9, 50))
    back = y_to_s(s_to_y(trace), 50.0)
    np.testing.assert_allclose(back.s11, trace.s11, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "z0", [0.0, -50.0, np.inf, np.nan, 10**400], ids=["zero", "negative", "inf", "nan", "huge-integer"]
)
def test_new_reference_impedance_must_be_positive_and_finite(z0):
    # checked before any arithmetic: an infinite z0 would give S11 = -1 everywhere
    trace = _trace([0.2, 0.3 + 0.1j])
    for convert in (lambda: y_to_s(s_to_y(trace), z0), lambda: renormalize(trace, z0)):
        with pytest.raises(ValueError, match="z0 must be positive and finite"):
            convert()


def test_renormalize_matched_to_double_impedance():
    out = renormalize(_trace([0.0, 0.0]), 100.0)
    np.testing.assert_allclose(out.s11, -1.0 / 3.0, rtol=1e-14)
    assert out.z0 == 100.0


def test_renormalize_same_impedance_is_identity():
    trace = OnePortTrace(
        frequencies=np.array([1e9, 2e9]),
        s11=np.array([0.2 + 0.1j, -0.3j]),
        z0=50.0,
        comments=("! keep me",),
    )
    out = renormalize(trace, 50.0)
    np.testing.assert_array_equal(out.s11, trace.s11)
    assert out.comments == trace.comments


def test_renormalize_preserves_admittance(device_trace):
    y_ref = s_to_y(device_trace).y
    for z0 in (10.0, 50.0, 75.0, 200.0):
        y = s_to_y(renormalize(device_trace, z0)).y
        np.testing.assert_allclose(y, y_ref, rtol=1e-10, atol=1e-12)


def test_circle_fit_recovers_exact_circle():
    th = np.linspace(0.1, 2.0, 80)
    s = (0.2 + 0.1j) + 0.3 * np.exp(1j * th)
    trace = _trace(s)
    circ = _smith_circle(trace, (1e9, 2e9))
    np.testing.assert_allclose([circ.center.real, circ.center.imag], [0.2, 0.1], atol=1e-9)
    np.testing.assert_allclose(circ.radius, 0.3, atol=1e-9)
    assert circ.rms_residual < 1e-9


def test_circle_fit_rejects_collinear_points():
    s = np.linspace(-0.5, 0.5, 30) + 0.0j
    with pytest.raises(DegenerateLocus):
        _smith_circle(_trace(s), (1e9, 2e9))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_circle_fit_matches_the_least_squares_formulation(seed):
    # the reference: least squares on [2x, 2y, 1] (cx, cy, c) = x^2 + y^2
    rng = np.random.default_rng(seed)
    center = complex(*rng.normal(0.0, 3.0, 2))
    radius = rng.uniform(0.1, 2.0)
    arc = rng.uniform(0.5, 2 * np.pi) * np.linspace(0.0, 1.0, 200) + rng.uniform(0, 2 * np.pi)
    points = center + radius * np.exp(1j * arc) + 1e-3 * radius * rng.standard_normal(200)
    x, y = points.real, points.imag
    coeffs = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    (cx, cy, c), *_ = np.linalg.lstsq(coeffs, x * x + y * y, rcond=None)
    ref_radius = np.sqrt(c + cx * cx + cy * cy)
    ref_rms = np.sqrt(np.mean((np.hypot(x - cx, y - cy) - ref_radius) ** 2))
    got_center, got_radius, got_rms = _kasa_circle(points)
    assert abs(got_center - complex(cx, cy)) <= 1e-12 * abs(complex(cx, cy))
    assert got_radius == pytest.approx(ref_radius, rel=1e-12)
    # the residuals are ~1e-3 r, so a 1e-12 r move of the center is ~1e-9 of them
    assert got_rms == pytest.approx(ref_rms, rel=1e-9)


_LINE = np.linspace(-0.5, 0.5, 30)


@pytest.mark.parametrize(
    "points",
    [
        _LINE * (1 + 3j),
        _LINE * np.exp(0.7j),
        _LINE * np.exp(2.5j),
        _LINE * (1e-3 + 2e-3j),
        _LINE + 0j,
        _LINE * 1j,
        _LINE + 1e-13j * np.random.default_rng(3).standard_normal(_LINE.size),
    ],
    ids=["1+3j", "exp(0.7j)", "exp(2.5j)", "1e-3+2e-3j", "real", "imaginary", "real-with-jitter"],
)
def test_circle_fit_rejects_lines_at_any_angle(points):
    # a determinant test on the (u, v) axes can pass a rotated line: its
    # rounding, ~eps Suu Svv, stands in for a spread across the line
    with pytest.raises(DegenerateLocus):
        _kasa_circle(points)
    y = AdmittanceTrace(np.linspace(1e9, 2e9, points.size), points)
    with pytest.raises(DegenerateLocus):
        tune_source_impedance(y, (1e9, 2e9))


def test_quadratic_roots_are_the_real_parts_of_np_roots():
    # a = 0, a = b = 0, b = 0, zero and negative discriminants are all on the grid
    grid = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0)
    for a, b, c in itertools.product(grid, repeat=3):
        expected = np.sort(np.roots([a, b, c]).real)
        got = np.sort(_quadratic_roots(a, b, c))
        assert got.shape == expected.shape, (a, b, c)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-15)
    assert _quadratic_roots(1.0, -2.0, 1.0) == [1.0, 1.0]
    assert _quadratic_roots(1.0, 2.0, 5.0) == [-1.0, -1.0]
    assert _quadratic_roots(0.0, 0.0, 1.0) == []


def test_circle_fit_needs_five_samples():
    s = 0.3 * np.exp(1j * np.linspace(0, 2, 30))
    trace = _trace(s)
    # band holding only three points
    narrow = (trace.frequencies[0], trace.frequencies[2])
    with pytest.raises(TooFewPoints):
        _smith_circle(trace, narrow)


def test_resonator_locus_is_nearly_circular(device_trace, device_fp):
    circ = _smith_circle(device_trace, (0.95 * F_S, 1.05 * device_fp))
    assert circ.rms_residual < 0.05 * circ.radius


def test_tune_keeps_centered_locus_at_fifty():
    th = np.linspace(0.2 * np.pi, 1.8 * np.pi, 201)
    trace = _trace(0.6 * np.exp(1j * th), f=np.linspace(1e9, 2e9, 201))
    z_star, tuned, *_ = tune_source_impedance(s_to_y(trace), (1e9, 2e9))
    assert abs(z_star - 50.0) < 0.1
    assert tuned.z0 == z_star


def test_tune_reduces_center_offset(device_trace, device_fp):
    band = (0.98 * F_S, 1.02 * device_fp)
    before = _smith_circle(device_trace, band)
    z_star, tuned, *_ = tune_source_impedance(s_to_y(device_trace), band)
    after = _smith_circle(tuned, band)
    assert abs(after.center) < abs(before.center)
    # the optimum sits near 1/(2 pi f_s C0), the static-branch reactance scale
    heuristic = 1.0 / (2.0 * np.pi * F_S * C_0)
    assert abs(z_star - heuristic) / heuristic < 0.2


def test_tune_is_stable_under_retuning(device_trace, device_fp):
    band = (0.98 * F_S, 1.02 * device_fp)
    z1, tuned, *_ = tune_source_impedance(s_to_y(device_trace), band)
    z2, *_ = tune_source_impedance(s_to_y(tuned), band)
    assert abs(z2 - z1) <= 0.1


def test_tune_regression_value(device_trace, device_fp):
    band = (0.98 * F_S, 1.02 * device_fp)
    z_star, *_ = tune_source_impedance(s_to_y(device_trace), band)
    np.testing.assert_allclose(z_star, 166.1848, atol=0.2)


def test_admittance_trace_rejects_length_mismatch():
    with pytest.raises(ValueError):
        AdmittanceTrace(frequencies=np.array([1e9, 2e9]), y=np.zeros(3, complex))


def test_tune_matches_a_dense_scan(device_trace, device_fp):
    band = (0.98 * F_S, 1.02 * device_fp)
    _, tuned, *_ = tune_source_impedance(s_to_y(device_trace), band)
    got = abs(_smith_circle(tuned, band).center)
    scan = min(
        abs(_smith_circle(renormalize(device_trace, z), band).center)
        for z in np.geomspace(1.0, 5000.0, 4001)
    )
    assert got <= scan + 1e-6


def _impedance_scaled_device(factor, frequencies):
    """The conftest device with every impedance times factor: c_0 / factor, r_s and r_0 * factor.

    f_s, keff2 and Q_m are unchanged, and z0* (~166 ohm at factor 1) scales
    by factor too.
    """
    params = mbvd.params_from_metrics(
        F_S, KEFF2, Q_M, C_0 / factor, r_s=R_S * factor, r_0=R_0 * factor
    )
    return AdmittanceTrace(frequencies, mbvd.admittance(params, frequencies))


def test_tune_returns_the_bound_it_hits(device_trace, device_fp):
    # c_0 = 3 fF puts the optimum above 5000 ohm, c_0 = 50 pF below 1 ohm
    band = (0.98 * F_S, 1.02 * device_fp)
    high = _impedance_scaled_device(100.0 / 3.0, device_trace.frequencies)
    low = _impedance_scaled_device(1.0 / 500.0, device_trace.frequencies)
    assert tune_source_impedance(high, band)[0] == 5000.0
    assert tune_source_impedance(low, band)[0] == 1.0


def test_tune_reports_its_admittance_circle_and_bound(device_trace, device_fp):
    band = (0.98 * F_S, 1.02 * device_fp)
    tuning = tune_source_impedance(s_to_y(device_trace), band)
    in_band = (device_trace.frequencies >= band[0]) & (device_trace.frequencies <= band[1])
    assert tuning.circle == SmithCircle(*_kasa_circle(s_to_y(device_trace).y[in_band]))
    assert tuning.on_bound is None
    high = _impedance_scaled_device(100.0 / 3.0, device_trace.frequencies)
    low = _impedance_scaled_device(1.0 / 500.0, device_trace.frequencies)
    assert tune_source_impedance(high, band).on_bound == "z0_max"
    assert tune_source_impedance(low, band).on_bound == "z0_min"


def test_tune_is_independent_of_the_input_reference(device_params, device_trace, device_fp):
    band = (0.98 * F_S, 1.02 * device_fp)
    z_star, tuned, *_ = tune_source_impedance(s_to_y(device_trace), band)
    np.testing.assert_allclose(tune_source_impedance(s_to_y(tuned), band)[0], z_star, rtol=1e-9)
    for z0 in (25.0, 50.0, 75.0, 200.0):
        trace = mbvd.synthesize_s11(device_params, device_trace.frequencies, z0=z0)
        np.testing.assert_allclose(
            tune_source_impedance(s_to_y(trace), band)[0], z_star, rtol=1e-9
        )


def test_tune_centers_an_exact_circle_at_fifty():
    th = np.linspace(0.2 * np.pi, 1.8 * np.pi, 201)
    trace = _trace(0.6 * np.exp(1j * th), f=np.linspace(1e9, 2e9, 201))
    z_star, tuned, *_ = tune_source_impedance(s_to_y(trace), (1e9, 2e9))
    np.testing.assert_allclose(z_star, 50.0, rtol=1e-9)
    np.testing.assert_allclose(tuned.s11, trace.s11, atol=1e-9)


def test_tune_takes_only_the_admittance_and_band():
    assert list(inspect.signature(tune_source_impedance).parameters) == ["y", "band"]
    y = s_to_y(_trace(0.6 * np.exp(1j * np.linspace(0.2, 5.0, 30))))
    with pytest.raises(TypeError):
        tune_source_impedance(y, (1e9, 2e9), z0_max=100.0)


def test_tune_rejects_a_short_band_and_degenerate_locus(device_trace):
    with pytest.raises(TooFewPoints):
        tune_source_impedance(s_to_y(device_trace), (9e9, 9e9 + 1.0))
    # a constant reflection maps to a single admittance point
    with pytest.raises(DegenerateLocus):
        tune_source_impedance(s_to_y(_trace(np.full(30, 0.3 + 0.1j))), (1e9, 2e9))
