import numpy as np
import pytest

from sawkit.mbvd import (
    MbvdParams,
    admittance,
    derived_fp,
    derived_fs,
    derived_keff2,
    derived_q_m,
    element_admittance,
    element_admittance_jacobian,
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
    jacobian = element_admittance_jacobian(*values, f)
    assert jacobian.shape == (6, f.size)
    h = 1e-5
    for k in range(6):
        up, down = values.copy(), values.copy()
        up[k] *= np.exp(h)
        down[k] *= np.exp(-h)
        central = (element_admittance(*up, f) - element_admittance(*down, f)) / (2 * h)
        row = jacobian[k]
        assert np.abs(row - central).max() <= 1e-5 * np.abs(row).max()


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
    ],
)
def test_invalid_elements_rejected(kwargs):
    with pytest.raises(ValueError):
        MbvdParams(**kwargs)


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
