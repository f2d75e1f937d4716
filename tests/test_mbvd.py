import warnings

import numpy as np
import pytest

from sawkit import cli
from sawkit.mbvd import (
    MbvdParams,
    _jacobian,
    _terms,
    admittance,
    derived_fp,
    derived_fs,
    derived_keff2,
    derived_q_m,
    element_admittance,
    params_from_json,
    params_from_metrics,
    params_to_json,
    synthesize_s11,
)

from conftest import C_0, F_S, KEFF2, Q_M


@pytest.mark.parametrize("q_m", [58.0, 213.0])
def test_element_jacobian_matches_central_differences(q_m):
    p = params_from_metrics(F_S, KEFF2, q_m=q_m, c_0=C_0, r_s=0.5, r_0=0.5)
    values = np.array([p.r_s, p.r_0, p.r_m, p.l_m, p.c_m, p.c_0])
    f = np.linspace(0.85 * derived_fs(p), 1.15 * derived_fp(p), 4001)
    w = 2.0 * np.pi * f
    jacobian = _jacobian(*values, w, 1 / w, _terms(*values, w, 1 / w), 1.0)
    assert jacobian.shape == (6, f.size)
    h = 1e-5
    for k in range(6):
        up, down = values.copy(), values.copy()
        up[k] *= np.exp(h)
        down[k] *= np.exp(-h)
        central = (element_admittance(*up, f) - element_admittance(*down, f)) / (2 * h)
        row = jacobian[k]
        assert np.abs(row - central).max() <= 1e-5 * np.abs(row).max()


def _complex_division_admittance(r_s, r_0, r_m, l_m, c_m, c_0, f):
    """Textbook mBVD admittance with numpy complex division throughout."""
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    z_m = r_m + 1j * (w * l_m - 1.0 / (w * c_m))
    y_0 = 1j * w * c_0 / (1.0 + 1j * w * c_0 * r_0)
    core = 1.0 + z_m * y_0
    return core / (z_m + r_s * core)


@pytest.mark.parametrize(
    "q_m, r_s, r_0",
    [(213.0, 0.5, 0.5), (58.0, 0.5, 0.5), (213.0, 0.5, 0.0), (213.0, 0.0, 0.5), (213.0, 0.0, 0.0)],
)
def test_kernel_matches_the_complex_division_formula(q_m, r_s, r_0):
    p = params_from_metrics(F_S, KEFF2, q_m=q_m, c_0=C_0, r_s=r_s, r_0=r_0)
    values = (p.r_s, p.r_0, p.r_m, p.l_m, p.c_m, p.c_0)
    near = np.linspace(0.85 * F_S, 1.15 * derived_fp(p), 4001)
    far = np.concatenate([np.geomspace(1e3, 0.5 * F_S, 1000), np.geomspace(2 * F_S, 1e15, 1000)])
    for f in (near, far, 1.01 * F_S):
        got = element_admittance(*values, f)
        want = _complex_division_admittance(*values, f)
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def test_kernel_short_limit_at_exact_lossless_resonance():
    # w = 1 rad/s with l_m = c_m = 1: the reactance cancels exactly, so z_m = 0
    f = 1.0 / (2.0 * np.pi)
    assert 2.0 * np.pi * f == 1.0
    # with no feed resistance the denominator vanishes: a short, scalar or array
    assert element_admittance(0.0, 0.3, 0.0, 1.0, 1.0, 0.2, f) == complex(np.inf, 0.0)
    grid = np.array([f, 2.0 * f])
    y = element_admittance(0.0, 0.3, 0.0, 1.0, 1.0, 0.2, grid)
    assert y[0] == complex(np.inf, 0.0)
    want = _complex_division_admittance(0.0, 0.3, 0.0, 1.0, 1.0, 0.2, grid[1])
    assert abs(y[1] - want) <= 1e-13 * abs(want)
    # with a feed resistance the ratio form reads 1/r_s, as the textbook formula does
    assert element_admittance(0.5, 0.3, 0.0, 1.0, 1.0, 0.2, f) == 2.0
    assert _complex_division_admittance(0.5, 0.3, 0.0, 1.0, 1.0, 0.2, f) == 2.0


def test_kernel_open_limit_at_zero_frequency():
    # at f = 0 both capacitive branches are open, so Y is 0, not a short;
    # 1 Hz reads about 7e-13j S
    values = (0.5, 0.5, 5.0, 1e-8, 1e-14, 1e-13)
    assert element_admittance(*values, 0.0) == 0.0
    assert admittance(MbvdParams(*values), 0.0) == 0.0
    y = element_admittance(*values, np.array([0.0, 1.0]))
    assert y[0] == 0.0
    assert y[1] == pytest.approx(2j * np.pi * 1e-13 * 1.1, rel=1e-6)
    # the lossless on-resonance short stays a short beside an f = 0 sample
    y = element_admittance(0.0, 0.3, 0.0, 1.0, 1.0, 0.2, np.array([0.0, 1.0 / (2.0 * np.pi)]))
    assert y[0] == 0.0
    assert y[1] == complex(np.inf, 0.0)


def test_series_resonance_unit_algebra():
    # with L*C = 1/(4 pi^2), 2*pi*sqrt(L*C) = 1 so f_s lands on 1 Hz
    p = MbvdParams(r_s=0, r_0=0, r_m=1.0, l_m=1.0 / (4 * np.pi**2), c_m=1.0, c_0=1.0)
    np.testing.assert_allclose(derived_fs(p), 1.0, rtol=1e-15)
    p2 = MbvdParams(r_s=0, r_0=0, r_m=1.0, l_m=1.0 / np.pi**2, c_m=1.0, c_0=1.0)
    np.testing.assert_allclose(derived_fs(p2), 0.5, rtol=1e-15)


def test_motional_branch_resistive_at_fs():
    p = params_from_metrics(F_S, KEFF2, q_m=213.0, c_0=C_0)
    y = admittance(p, derived_fs(p))
    # at series resonance the motional reactance cancels; with R_s = R_0 = 0
    # the conductance is set by R_m alone
    np.testing.assert_allclose(y.real, 1.0 / p.r_m, rtol=1e-6)


def test_admittance_peak_value_five_ohm_branch():
    # C_m/C_0 = 0.1216 reproduces a 15 % coupling; R_m = 5 ohms caps |Y| at 0.2 S
    c_0 = 100e-15
    c_m = 0.1216 * c_0
    l_m = 1.0 / ((2 * np.pi * 9.05e9) ** 2 * c_m)
    p = MbvdParams(r_s=0, r_0=0, r_m=5.0, l_m=l_m, c_m=c_m, c_0=c_0)
    y = admittance(p, derived_fs(p))
    np.testing.assert_allclose(abs(y), 0.2, rtol=1e-3)


def test_parallel_resonance_equal_capacitances():
    p = MbvdParams(r_s=0, r_0=0, r_m=1.0, l_m=1e-9, c_m=1e-12, c_0=1e-12)
    np.testing.assert_allclose(derived_fp(p), np.sqrt(2.0) * derived_fs(p), rtol=1e-15)


def test_coupling_from_capacitance_ratio():
    p = MbvdParams(r_s=0, r_0=0, r_m=1.0, l_m=1e-9, c_m=0.1216e-12, c_0=1e-12)
    np.testing.assert_allclose(derived_fp(p) / derived_fs(p), 1.0591, rtol=1e-4)
    np.testing.assert_allclose(derived_keff2(p), 0.15, rtol=2e-4)


def test_metrics_round_trip():
    p = params_from_metrics(F_S, KEFF2, Q_M, C_0, r_s=0.5, r_0=0.5)
    np.testing.assert_allclose(derived_fs(p), F_S, rtol=1e-12)
    np.testing.assert_allclose(derived_keff2(p), KEFF2, rtol=1e-12)
    np.testing.assert_allclose(derived_q_m(p), Q_M, rtol=1e-12)
    assert p.r_s == 0.5 and p.r_0 == 0.5


def test_lossless_request_gives_zero_motional_resistance():
    p = params_from_metrics(F_S, KEFF2, q_m=float("inf"), c_0=C_0)
    assert p.r_m == 0.0
    assert np.isinf(derived_q_m(p))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(r_s=-1e-3, r_0=0, r_m=1, l_m=1e-9, c_m=1e-13, c_0=1e-12),
        dict(r_s=0, r_0=0, r_m=1, l_m=0.0, c_m=1e-13, c_0=1e-12),
        dict(r_s=0, r_0=0, r_m=1, l_m=1e-9, c_m=-1e-13, c_0=1e-12),
        dict(r_s=0, r_0=0, r_m=1, l_m=1e-9, c_m=9e-12, c_0=1e-12),  # c_m past 8*c_0
        # an infinite element synthesizes S11 = -1 or a non-finite model
        dict(r_s=0, r_0=0, r_m=np.inf, l_m=1e-9, c_m=1e-13, c_0=1e-12),
        dict(r_s=0, r_0=0, r_m=1, l_m=np.inf, c_m=1e-13, c_0=1e-12),
        dict(r_s=0, r_0=0, r_m=1, l_m=1e-9, c_m=1e-13, c_0=np.inf),
        dict(r_s=0, r_0=np.nan, r_m=1, l_m=1e-9, c_m=1e-13, c_0=1e-12),
        dict(r_s=0, r_0=0, r_m=1, l_m=np.nan, c_m=1e-13, c_0=1e-12),
    ],
)
def test_invalid_elements_rejected(kwargs):
    with pytest.raises(ValueError):
        MbvdParams(**kwargs)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: MbvdParams(0.5, 0.5, 10**400, 1e-8, 1e-14, 1e-13), "r_m"),
        (lambda: MbvdParams(0.5, 0.5, 1.0, 10**400, 1e-14, 1e-13), "l_m"),
        (lambda: params_from_metrics(10**400, 0.1, 100, 1e-13), "f_s"),
        (lambda: params_from_metrics(np.inf, 0.1, 100, 1e-13), "f_s"),
        (lambda: params_from_metrics(9e9, 0.1, 100, np.inf), "c_0"),
        (lambda: params_from_metrics(9e9, 0.1, 100, 10**400), "c_0"),
        (lambda: params_from_metrics(9e9, 0.1, 10**400, 1e-13), "q_m"),
        (lambda: params_from_metrics(9e9, 0.1, np.nan, 1e-13), "q_m"),
        (lambda: params_from_metrics(9e9, 0.1, 100, 1e-13, r_s=10**400), "r_s"),
    ],
    ids=["r_m-huge-int", "l_m-huge-int", "f_s-huge-int", "f_s-inf", "c_0-inf",
         "c_0-huge-int", "q_m-huge-int", "q_m-nan", "r_s-huge-int"],
)
def test_a_value_beyond_the_float_range_is_refused_by_name(build, field):
    # an int too large for a float compares below inf, and used to end in
    # OverflowError; an infinite f_s or c_0 used to blame r_m or l_m
    with pytest.raises(ValueError, match=f"^{field} must be"):
        build()


def test_capacitance_ratio_cap_is_strict():
    with pytest.raises(ValueError):
        MbvdParams(r_s=0, r_0=0, r_m=1, l_m=1e-9, c_m=8e-12, c_0=1e-12)
    # just inside the cap is fine
    MbvdParams(r_s=0, r_0=0, r_m=1, l_m=1e-9, c_m=7.99e-12, c_0=1e-12)


def test_synthesized_reflection_matches_admittance(device_params):
    f = np.linspace(8.6e9, 10.4e9, 101)
    trace = synthesize_s11(device_params, f, z0=50.0)
    y = admittance(device_params, f)
    expected = (1.0 - 50.0 * y) / (1.0 + 50.0 * y)
    np.testing.assert_allclose(trace.s11, expected, rtol=1e-14)
    assert trace.z0 == 50.0


def test_synthesis_refuses_a_grid_whose_angular_frequency_overflows(device_params):
    # 2 pi f past the largest float used to give S11 = -1 there, a plausible
    # short, and overflow warnings; the grid is refused before any product
    top = np.finfo(float).max / (2.0 * np.pi)
    assert np.isfinite(2.0 * np.pi * top)
    for grid in ([1e9, 1e300, 1e308], [1e9, np.nextafter(top, np.inf)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2 pi f is finite"):
                synthesize_s11(device_params, np.array(grid))


def test_the_model_refuses_frequencies_where_its_kernel_overflows():
    # far above resonance Y tends to the r_s + r_0 ladder; where a square in
    # the kernel overflows, its result would read 0j, an open (S11 = +1), so
    # the model refuses those frequencies, without an overflow warning
    p = cli.fixture_params("A")
    ladder = 1.0 / (p.r_s + p.r_0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert admittance(p, 1e160) == pytest.approx(ladder, rel=1e-12)
        s11 = synthesize_s11(p, np.array([1e9, 1e160])).s11[-1]
        assert s11 == pytest.approx((1.0 - 50.0 * ladder) / (1.0 + 50.0 * ladder), rel=1e-12)
        for f in (1e200, 1e300):
            with pytest.raises(ValueError, match="too far from resonance"):
                admittance(p, f)
            with pytest.raises(ValueError, match="too far from resonance"):
                synthesize_s11(p, np.array([1e9, f]))


def test_lossless_reflection_is_unimodular():
    p = params_from_metrics(F_S, KEFF2, q_m=float("inf"), c_0=C_0)
    f = np.linspace(8.6e9, 10.4e9, 501)
    trace = synthesize_s11(p, f, z0=50.0)
    np.testing.assert_allclose(np.abs(trace.s11), 1.0, atol=1e-12)


def test_json_round_trip(device_params):
    obj = params_to_json(device_params)
    assert set(obj) == {"r_s_ohm", "r_0_ohm", "r_m_ohm", "l_m_h", "c_m_f", "c_0_f"}
    back = params_from_json(obj)
    assert back == device_params


def test_static_branch_shorts_out_at_high_frequency(device_params):
    # far above resonance the response approaches the R_s + R_0 + C_0 ladder
    f = 1e14
    y = admittance(device_params, f)
    expected = 1.0 / (device_params.r_s + device_params.r_0)
    np.testing.assert_allclose(y.real, expected, rtol=0.05)
