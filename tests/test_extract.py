import copy
import json
from dataclasses import fields

import numpy as np
import pytest

from sawkit import cli, extract, mbvd
from sawkit.errors import (
    DomainError,
    EmptyBand,
    ResonanceNotBracketed,
    TooFewPoints,
)
from sawkit.extract import (
    CSV_HEADER,
    Diagnostics,
    ExtractOptions,
    bode_q,
    find_fs_fp,
    fom,
    full_extraction,
    keff2,
    q_max,
    report_csv_row,
    report_to_json,
    summary_fields,
)
from sawkit.network import (
    AdmittanceTrace,
    OnePortTrace,
    passivity_violations,
    renormalize,
    s_to_y,
)

from conftest import C_0, F_S, KEFF2, Q_M, R_0, R_S


def test_keff2_formula():
    # pi^2/8 * (f_p^2 - f_s^2)/f_s^2
    np.testing.assert_allclose(
        keff2(1.0e9, 1.1e9), np.pi**2 / 8.0 * 0.21, rtol=1e-12
    )
    np.testing.assert_allclose(keff2(1.0e9, 1.1e9), 0.2591, atol=1e-4)


def test_keff2_published_operating_point():
    assert abs(keff2(9.05e9, 9.586e9) - 0.150) < 1e-3


def test_keff2_domain():
    with pytest.raises(DomainError):
        keff2(1.1e9, 1.0e9)
    with pytest.raises(DomainError):
        keff2(-1.0, 2.0)


def test_find_fs_fp_on_synthetic(device_trace, device_fp):
    f_s, f_p = find_fs_fp(s_to_y(device_trace))
    np.testing.assert_allclose(f_s, F_S, rtol=5e-4)
    np.testing.assert_allclose(f_p, device_fp, rtol=1e-3)
    # the conductance and resistance peaks, on the 0.5 MHz grid
    np.testing.assert_allclose(f_s, 9050000000.0, rtol=1e-6)
    np.testing.assert_allclose(f_p, 9584500000.0, rtol=1e-6)


def test_find_fs_fp_needs_bracketed_peak():
    # plain capacitor: |Y| grows monotonically, maximum sits on the edge
    f = np.linspace(1e9, 2e9, 101)
    trace = AdmittanceTrace(frequencies=f, y=1j * 2 * np.pi * f * 1e-12)
    with pytest.raises(ResonanceNotBracketed):
        find_fs_fp(trace)


def test_find_fs_fp_needs_interior_valley(device_params):
    # grid stops before the anti-resonance: peak is bracketed, valley is not
    grid = np.linspace(8.5e9, 9.2e9, 1001)
    trace = s_to_y(mbvd.synthesize_s11(device_params, grid, z0=50.0))
    with pytest.raises(ResonanceNotBracketed):
        find_fs_fp(trace)


def test_find_fs_fp_refuses_an_open_sample_above_the_series_peak(device_trace):
    # S11 = 1 is an open, Y = 0: |Re Z| is undefined there, and no warning escapes
    y = s_to_y(device_trace)
    values = y.y.copy()
    values[3000] = 0.0
    with pytest.raises(ResonanceNotBracketed, match="resistance peak"):
        find_fs_fp(AdmittanceTrace(y.frequencies, values))


# Edge matrix bounds, per motional Q: the relative error of f_s and of f_p
# against the generating circuit's, and the keff2 error in percentage points.
# The conductance and resistance peaks leave the motional resonances by a
# share of the linewidth f_s/Q_m, so the bounds widen as Q_m falls.
EDGE_BOUNDS = {
    10.0: (5e-3, 1.0),
    20.0: (1e-3, 0.5),
    # a narrow window reaching less than one linewidth still resolves here,
    # with its edge pulling the peaks (1.43e-3 and 0.41 pt at worst)
    40.0: (2e-3, 0.5),
    "fixture": (1e-3, 0.25),
    2000.0: (5e-4, 0.1),
    float("inf"): (5e-4, 0.1),
}
# window -> how far it reaches below f_s and above f_p, as a fraction; None
# stops halfway between them, so the pair is not bracketed.  A two-sided
# window reaching more than one linewidth past each resonance must resolve.
EDGE_WINDOWS = {"wide": 0.1, "narrow": 0.01, "one_sided": None}


@pytest.mark.parametrize("window", EDGE_WINDOWS)
@pytest.mark.parametrize("scale", [1.0, 1.007], ids=["passive", "active"])
@pytest.mark.parametrize("q_m", EDGE_BOUNDS, ids=lambda q: f"q{q}")
@pytest.mark.parametrize("sigma", [0.0, 1e-3, 3e-3], ids=lambda s: f"sigma{s:g}")
@pytest.mark.parametrize("device", ["A", "E"])
def test_resonance_edge_matrix(device, sigma, q_m, scale, window):
    # every cell ends in the generating circuit's resonances within bounds,
    # or in ResonanceNotBracketed (exit 3); q_max is not asserted here
    _, f_s, coupling, q_fixture = cli.FIXTURE_DEVICES[device]
    params = mbvd.params_from_metrics(
        f_s, coupling, q_fixture if q_m == "fixture" else q_m, cli.FIXTURE_C_0,
        r_s=cli.FIXTURE_R_S, r_0=cli.FIXTURE_R_0,
    )
    f_s, f_p = mbvd.derived_fs(params), mbvd.derived_fp(params)
    reach = EDGE_WINDOWS[window]
    if reach is None:
        grid = np.linspace(0.9 * f_s, 0.5 * (f_s + f_p), 4001)
    else:
        grid = np.linspace((1 - reach) * f_s, (1 + reach) * f_p, 4001)
    s11 = scale * mbvd.synthesize_s11(params, grid, z0=50.0).s11
    rng = np.random.default_rng(7)
    s11 = s11 + sigma * (rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
    trace = OnePortTrace(grid, s11, 50.0)
    f_tol, keff2_pt = EDGE_BOUNDS[q_m]
    linewidth = 1.0 / (q_fixture if q_m == "fixture" else q_m)
    try:
        rep = full_extraction(trace)
    except ResonanceNotBracketed as exc:
        assert exc.exit_code == 3
        assert reach is None or reach <= linewidth, "a bracketed pair was refused"
        return
    assert reach is not None, "a one-sided window returned a pair"
    assert abs(rep.f_s / f_s - 1) <= f_tol
    assert abs(rep.f_p / f_p - 1) <= f_tol
    assert abs(rep.keff2 - coupling) * 100 <= keff2_pt
    # the Y-ratio is |Y| at find_fs_fp's own two samples, which clear each other by 3 dB
    y = s_to_y(trace)
    pair = np.isin(grid, find_fs_fp(y))
    y_s, y_p = np.abs(y.y[pair])
    assert rep.y_ratio == y_s / y_p
    assert rep.y_ratio_db > 20.0 * np.log10(extract._THREE_DB)


def test_higher_q_device_has_deeper_contrast(device_trace):
    # same static branch, higher Q_m: the series peak is taller and the
    # anti-resonance dip deeper, so the level contrast must grow
    rep_a = full_extraction(device_trace)
    p_f = mbvd.params_from_metrics(9.34e9, 0.16, 99.0, C_0, r_s=0.5, r_0=0.5)
    grid = np.linspace(0.9 * 9.34e9, 1.1 * mbvd.derived_fp(p_f), 4001)
    rep_f = full_extraction(mbvd.synthesize_s11(p_f, grid, z0=50.0))
    assert rep_a.y_ratio_db > rep_f.y_ratio_db


def test_bode_q_tracks_motional_q():
    # nearly lossless device: Q(f) should read back Q_m at series resonance
    p = mbvd.params_from_metrics(F_S, KEFF2, q_m=200.0, c_0=C_0)
    grid = np.linspace(0.95 * F_S, 1.05 * F_S, 20001)
    trace = mbvd.synthesize_s11(p, grid, z0=50.0)
    q_trace = bode_q(trace)
    assert q_trace.flagged.size == 0
    i_fs = np.argmin(np.abs(q_trace.frequencies - F_S))
    assert abs(q_trace.q[i_fs] - 200.0) / 200.0 < 0.1
    np.testing.assert_allclose(q_trace.q[i_fs], 199.9794, rtol=1e-4)
    np.testing.assert_allclose(q_trace.q.max(), 208.4915, rtol=1e-4)


def test_bode_q_flags_unimodular_reflection():
    p = mbvd.params_from_metrics(F_S, KEFF2, q_m=float("inf"), c_0=C_0)
    grid = np.linspace(0.9 * F_S, 1.1 * mbvd.derived_fp(p), 4001)
    q_trace = bode_q(mbvd.synthesize_s11(p, grid, z0=50.0))
    assert q_trace.frequencies.size == 0
    assert q_trace.flagged.size == grid.size


def test_bode_q_needs_three_points():
    trace = OnePortTrace(
        frequencies=np.array([1e9, 2e9]), s11=np.zeros(2, complex), z0=50.0
    )
    with pytest.raises(TooFewPoints):
        bode_q(trace)


def test_bode_q_smoothing_validation(device_trace):
    with pytest.raises(ValueError):
        bode_q(device_trace, smooth_window=10)
    with pytest.raises(ValueError):
        bode_q(device_trace, smooth_window=3)
    with pytest.raises(ValueError):
        bode_q(device_trace, smooth_window=4003)


def test_bode_q_smoothing_suppresses_noise(device_trace):
    rng = np.random.default_rng(11)
    g = device_trace.frequencies
    noise = 0.002 * (rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    noisy = OnePortTrace(frequencies=g, s11=device_trace.s11 + noise / np.sqrt(2), z0=50.0)
    clean = bode_q(device_trace)
    raw = bode_q(noisy)
    smooth = bode_q(noisy, smooth_window=31)

    def rms_error(q_trace):
        ref = np.interp(q_trace.frequencies, clean.frequencies, clean.q)
        sel = (q_trace.frequencies > 8.9e9) & (q_trace.frequencies < 9.7e9)
        return np.sqrt(np.mean((q_trace.q[sel] - ref[sel]) ** 2))

    assert rms_error(smooth) < 0.25 * rms_error(raw)


def test_bode_q_frequency_scaling_invariance(device_trace):
    q_ref = bode_q(device_trace)
    doubled = OnePortTrace(
        frequencies=2.0 * device_trace.frequencies,
        s11=device_trace.s11.copy(),
        z0=50.0,
    )
    q_scaled = bode_q(doubled)
    np.testing.assert_allclose(q_scaled.q, q_ref.q, rtol=1e-10)
    np.testing.assert_allclose(q_scaled.frequencies, 2.0 * q_ref.frequencies)


def test_bode_q_is_unchanged_by_a_real_rereference():
    # a real change of reference impedance is an automorphism of the unit
    # disk, which leaves w |dS11/dw| / (1 - |S11|^2) unchanged; on the clean
    # fixtures only the finite differences move it (at most 1.0e-5 in q_max
    # and 2.3e-4 pointwise when measured)
    for device, (_, f_s, _, _) in cli.FIXTURE_DEVICES.items():
        params = cli.fixture_params(device)
        grid = np.linspace(0.9 * f_s, 1.1 * mbvd.derived_fp(params), 4001)
        trace = mbvd.synthesize_s11(params, grid, z0=50.0)
        z0_star = full_extraction(trace).z0_star
        reference = bode_q(trace)
        for z0 in (25.0, 100.0, 300.0, z0_star):
            moved = bode_q(renormalize(trace, z0))
            np.testing.assert_array_equal(moved.flagged, reference.flagged)
            np.testing.assert_array_equal(moved.frequencies, reference.frequencies)
            np.testing.assert_allclose(moved.q.max(), reference.q.max(), rtol=3e-5)
            np.testing.assert_allclose(moved.q, reference.q, rtol=5e-4)


def test_q_max_band_selection(device_trace):
    q_trace = bode_q(device_trace)
    full_band = q_max(q_trace, (q_trace.frequencies[0], q_trace.frequencies[-1]))
    assert full_band >= q_max(q_trace, (9.0e9, 9.1e9))
    # a single-sample band returns that sample
    f0 = q_trace.frequencies[2000]
    np.testing.assert_allclose(
        q_max(q_trace, (f0, f0)), q_trace.q[2000], rtol=1e-15
    )


def test_q_max_empty_band(device_trace):
    q_trace = bode_q(device_trace)
    with pytest.raises(EmptyBand):
        q_max(q_trace, (20e9, 30e9))
    # fully flagged trace: every band is empty
    p = mbvd.params_from_metrics(F_S, KEFF2, q_m=float("inf"), c_0=C_0)
    grid = np.linspace(0.9 * F_S, 1.1 * mbvd.derived_fp(p), 2001)
    flagged = bode_q(mbvd.synthesize_s11(p, grid, z0=50.0))
    with pytest.raises(EmptyBand):
        q_max(flagged, (grid[0], grid[-1]))


def test_fom_arithmetic():
    np.testing.assert_allclose(fom(0.15, 213.0), 31.95, rtol=1e-12)
    np.testing.assert_allclose(fom(0.07, 58.0), 4.06, rtol=1e-12)
    with pytest.raises(DomainError):
        fom(-0.1, 100.0)


def test_full_extraction_regression(device_trace):
    rep = full_extraction(device_trace)
    np.testing.assert_allclose(rep.f_s, 9.05e9, rtol=1e-7)
    np.testing.assert_allclose(rep.f_p, 9.5845e9, rtol=1e-7)
    np.testing.assert_allclose(rep.keff2, 0.1500300, rtol=1e-5)
    np.testing.assert_allclose(rep.q_max, 210.5419, rtol=1e-5)
    np.testing.assert_allclose(rep.z0_star, 166.311, atol=0.2)
    np.testing.assert_allclose(rep.fom, rep.keff2 * rep.q_max, rtol=1e-12)
    np.testing.assert_allclose(rep.y_ratio_db, 54.317, atol=5e-3)
    # the Q maximum sits strictly inside the search band, not on an edge
    lo, hi = 0.9 * rep.f_s, 1.1 * rep.f_p
    sel = (rep.q_bode.frequencies >= lo) & (rep.q_bode.frequencies <= hi)
    in_band = rep.q_bode.q[sel]
    k = int(np.argmax(in_band))
    assert 0 < k < in_band.size - 1


def test_full_extraction_is_source_impedance_agnostic(device_params):
    grid = np.linspace(8.5e9, 10.5e9, 4001)
    reference = None
    for z0 in (25.0, 50.0, 75.0, 200.0):
        rep = full_extraction(mbvd.synthesize_s11(device_params, grid, z0=z0))
        values = np.array([rep.f_s, rep.f_p, rep.keff2, rep.y_ratio, rep.z0_star])
        if reference is None:
            reference, q_reference = values, rep.q_max
        else:
            np.testing.assert_allclose(values, reference, rtol=1e-6)
            # Bode-Q is taken on the trace as given, so only the finite
            # differences move it: test_bode_q_is_unchanged_by_a_real_rereference's bound
            np.testing.assert_allclose(rep.q_max, q_reference, rtol=3e-5)


def test_full_extraction_band_overrides(device_trace):
    opts = ExtractOptions(qmax_band=(9.0e9, 9.1e9))
    rep = full_extraction(device_trace, opts)
    default = full_extraction(device_trace)
    assert rep.q_max <= default.q_max
    assert rep.f_s == default.f_s


@pytest.mark.parametrize(
    "band",
    [(1e10, 8e9), (9e9, 9e9), (np.nan, np.nan), (np.nan, 1e10), (-np.inf, 1e10), (8e9, np.inf),
     (1, 10**400)],
)
@pytest.mark.parametrize("name", ["tune_band", "qmax_band"])
def test_options_refuse_a_band_that_is_not_finite_and_increasing(name, band):
    with pytest.raises(ValueError, match=f"{name} must be finite with lo < hi"):
        ExtractOptions(**{name: band})


@pytest.mark.parametrize("window", [4, 3, 1, 0, -5, 31.0, "31"])
def test_options_refuse_a_smoothing_window_that_is_not_an_odd_int_of_five_or_more(window):
    with pytest.raises(ValueError, match="smooth_window must be"):
        ExtractOptions(smooth_window=window)
    ExtractOptions(smooth_window=5)
    ExtractOptions(smooth_window=np.int64(31))


def test_report_json_shape(device_trace):
    rep = full_extraction(device_trace)
    obj = report_to_json(rep)
    assert obj["schema_version"] == 2
    for key in (
        "f_s_hz",
        "f_p_hz",
        "keff2",
        "y_ratio",
        "y_ratio_db",
        "q_max",
        "fom",
        "z0_star_ohm",
    ):
        assert isinstance(obj[key], float)
    assert "q_bode" not in obj
    assert set(obj["diagnostics"]) == {field.name for field in fields(Diagnostics)}
    np.testing.assert_allclose(obj["f_s_hz"], rep.f_s)


def _values(obj):
    """Every value in a JSON-ready tree, containers included."""
    yield obj
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    for child in children:
        yield from _values(child)


def test_report_json_holds_no_curve(device_trace):
    obj = report_to_json(full_extraction(device_trace), device="deviceA", lambda_nm=400.0)
    for value in _values(obj):
        assert not isinstance(value, (list, tuple, np.ndarray)) or len(value) <= 2
    assert json.loads(json.dumps(obj, allow_nan=False)) == obj


def test_diagnostics_record_the_extraction(device_trace, device_fp):
    rep = full_extraction(device_trace)
    d = rep.diagnostics
    for field in fields(Diagnostics):
        value = getattr(d, field.name)
        # plain Python values: no numpy scalars, so the record dumps as it is
        assert type(value) in (str, int, float, tuple, type(None)), field.name
    assert d.resonance_definition == "max_conductance_max_resistance"
    f = device_trace.frequencies
    lo, hi = d.tune_band_hz
    np.testing.assert_allclose((lo, hi), (0.98 * rep.f_s, 1.02 * rep.f_p), rtol=1e-15)
    assert d.tune_band_samples == np.count_nonzero((f >= lo) & (f <= hi))
    lo, hi = d.q_band_hz
    np.testing.assert_allclose((lo, hi), (0.9 * rep.f_s, 1.1 * rep.f_p), rtol=1e-15)
    assert d.q_band_unflagged_samples == np.count_nonzero((f >= lo) & (f <= hi))
    assert d.q_flagged_samples == rep.q_bode.flagged.size == 0
    assert 0 < d.y_circle_rms_residual_s < 1e-3 * d.y_circle_radius_s
    assert d.z0_on_bound is None
    assert (d.passivity_violations, d.worst_conductance_s) == passivity_violations(
        s_to_y(device_trace)
    )
    assert d.passivity_violations == 0


def test_diagnostics_count_active_and_flagged_samples(device_trace):
    # |S11| scaled past 1 on part of the band: negative conductance there, and
    # 1 - |S11|^2 < 0 flags those Bode-Q samples
    active = OnePortTrace(device_trace.frequencies, 1.01 * device_trace.s11, 50.0)
    d = full_extraction(active).diagnostics
    count, worst = passivity_violations(s_to_y(active))
    assert (d.passivity_violations, d.worst_conductance_s) == (count, worst)
    assert count > 100 and worst < 0
    assert d.q_flagged_samples > 100
    assert d.q_band_unflagged_samples + d.q_flagged_samples <= active.frequencies.size


def test_report_csv_row(device_trace):
    rep = full_extraction(device_trace)
    row = report_csv_row(rep, device="deviceA", lambda_nm=400)
    assert row == "deviceA,400,9.05,15.003,210.542,31.5877"
    assert CSV_HEADER == "device,lambda_nm,f_s_GHz,keff2_pct,q_max,fom"


@pytest.mark.parametrize("lambda_nm", [float("nan"), float("inf"), 0.0, -400.0])
def test_report_refuses_a_wavelength_that_is_not_positive_and_finite(device_trace, lambda_nm):
    rep = full_extraction(device_trace)
    with pytest.raises(ValueError, match="lambda_nm must be positive and finite"):
        report_to_json(rep, lambda_nm=lambda_nm)
    with pytest.raises(ValueError, match="lambda_nm must be positive and finite"):
        report_csv_row(rep, lambda_nm=lambda_nm)


def test_summary_refuses_an_integer_wavelength_too_large_for_a_float():
    with pytest.raises(ValueError, match="lambda_nm must be positive and finite"):
        summary_fields("a", 10**400, 9e9, 0.1, 100.0, 10.0)
    assert summary_fields("a", 400, 9e9, 0.1, 100.0, 10.0)[1] == "400"


def test_report_json_refuses_an_integer_wavelength_too_large_for_a_float(device_trace):
    rep = full_extraction(device_trace)
    with pytest.raises(ValueError, match="lambda_nm must be positive and finite"):
        report_to_json(rep, lambda_nm=10**400)
    assert report_to_json(rep, lambda_nm=400)["lambda_nm"] == 400


def test_extraction_work_counts(monkeypatch, device_trace, device_fp):
    # operation counts, not timings: one circle fit per tune and one
    # admittance conversion per extraction
    from sawkit import extract, network, touchstone

    calls = {"circle_fit": 0, "s_to_y": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(network, "_kasa_circle", counted("circle_fit", network._kasa_circle))
    s_to_y_counted = counted("s_to_y", network.s_to_y)
    monkeypatch.setattr(network, "s_to_y", s_to_y_counted)
    monkeypatch.setattr(extract, "s_to_y", s_to_y_counted)

    network.tune_source_impedance(network.s_to_y(device_trace), (0.98 * F_S, 1.02 * device_fp))
    assert calls["circle_fit"] == 1
    calls.update(circle_fit=0, s_to_y=0)
    extract.full_extraction(device_trace)
    assert calls["circle_fit"] == 1
    assert calls["s_to_y"] == 1

    # the circle and z0* are closed forms, and the Savitzky-Golay basis is
    # built once per window: after a warm call, no SVD, least squares,
    # pseudo-inverse or eigen-solve runs in either extraction
    smoothed = ExtractOptions(smooth_window=31)
    extract.full_extraction(device_trace, smoothed)
    linalg = ("svd", "lstsq", "pinv", "eigvals")
    for name in linalg:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np, "roots", counted("roots", np.roots))
    calls.update(dict.fromkeys((*linalg, "roots"), 0))
    for options in (smoothed, None):
        extract.full_extraction(device_trace, options)
    assert [calls[name] for name in (*linalg, "roots")] == [0] * 5
    np.roots([1.0, 0.0, -1.0])
    assert calls["roots"] == 1

    # one request, text to report: the parse runs the grid rule and every
    # derived trace keeps that grid, and report_to_json reads the diagnostics
    # without a copy
    text = touchstone.write_touchstone(device_trace, touchstone.TouchstoneFormat())
    grid_rule = counted("grid_rule", touchstone._as_frequency_grid)
    for module in (touchstone, network, mbvd):
        monkeypatch.setattr(module, "_as_frequency_grid", grid_rule)
    monkeypatch.setattr(copy, "deepcopy", counted("deepcopy", copy.deepcopy))
    calls.update(grid_rule=0, deepcopy=0)
    report = extract.full_extraction(touchstone.parse_touchstone(text)[0])
    extract.report_to_json(report)
    assert (calls["grid_rule"], calls["deepcopy"]) == (1, 0)
    # synthesis checks its caller's grid once
    calls["grid_rule"] = 0
    mbvd.synthesize_s11(mbvd.params_from_metrics(F_S, KEFF2, Q_M, C_0), device_trace.frequencies)
    assert calls["grid_rule"] == 1


def test_extraction_builds_no_tuned_trace_and_three_band_masks(monkeypatch, device_trace):
    # Bode-Q reads the trace as given, so no S11 is re-referenced; the tune
    # band is masked once, by the tuning, and the Q band twice: by q_max and
    # for its sample count
    from sawkit import extract, network

    calls = {"y_to_s": 0, "in_band": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(network, "y_to_s", counted("y_to_s", network.y_to_s))
    in_band = counted("in_band", network._in_band)
    monkeypatch.setattr(network, "_in_band", in_band)
    monkeypatch.setattr(extract, "_in_band", in_band)
    for options in (ExtractOptions(smooth_window=31), None):
        calls.update(y_to_s=0, in_band=0)
        extract.full_extraction(device_trace, options)
        assert calls == {"y_to_s": 0, "in_band": 3}


@pytest.mark.parametrize(
    "factor, bound, z0_star", [(100.0 / 3.0, "z0_max", 5000.0), (1.0 / 500.0, "z0_min", 1.0)]
)
def test_z0_on_bound_is_a_diagnostic_that_moves_no_metric(factor, bound, z0_star):
    # the conftest device with every impedance times factor, as in
    # test_tune_returns_the_bound_it_hits: z0* (~166 ohm at factor 1) leaves
    # [1, 5000] ohm, and the report says which bound it sits on
    params = mbvd.params_from_metrics(
        F_S, KEFF2, Q_M, C_0 / factor, r_s=R_S * factor, r_0=R_0 * factor
    )
    trace = mbvd.synthesize_s11(params, np.linspace(8.5e9, 10.5e9, 4001), z0=50.0)
    report = full_extraction(trace)
    assert (report.diagnostics.z0_on_bound, report.z0_star) == (bound, z0_star)
    assert report.q_max == q_max(bode_q(trace), report.diagnostics.q_band_hz)


def test_full_extraction_converts_s11_to_y_once(monkeypatch, device_trace):
    from sawkit import extract, network

    calls = []

    def counted(trace):
        calls.append(trace)
        return s_to_y(trace)

    monkeypatch.setattr(network, "s_to_y", counted)
    monkeypatch.setattr(extract, "s_to_y", counted)
    extract.full_extraction(device_trace)
    assert calls == [device_trace]


@pytest.mark.parametrize("window", [5, 31, 101])
def test_savgol_reproduces_cubics(window):
    # a least-squares cubic fit returns any cubic unchanged: interior and edges
    from sawkit.extract import _savgol_cubic

    t = np.linspace(-1.0, 2.0, 101)
    cubic = (0.3 - 2.0 * t + 1.5 * t**2 - 0.7 * t**3) + 1j * (0.1 + t - 0.4 * t**3)
    np.testing.assert_allclose(_savgol_cubic(cubic, window), cubic, rtol=0, atol=1e-13)


@pytest.mark.parametrize("window", [5, 31, 201])
def test_savgol_matches_scipy(window):
    signal = pytest.importorskip("scipy.signal")
    from sawkit.extract import _savgol_cubic

    rng = np.random.default_rng(5)
    x = rng.standard_normal(201) + 1j * rng.standard_normal(201)
    expected = signal.savgol_filter(x.real, window, 3) + 1j * signal.savgol_filter(
        x.imag, window, 3
    )
    got = _savgol_cubic(x, window)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
