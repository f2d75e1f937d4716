import numpy as np
import pytest

from sawkit import fit, mbvd
from sawkit.errors import (
    NegativeStaticCapacitance,
    NonFiniteResidual,
    ResonanceNotBracketed,
)
from sawkit.fit import fit_mbvd, initial_guess, result_to_json
from sawkit.network import AdmittanceTrace, s_to_y

from conftest import C_0, F_S, KEFF2, Q_M

PARAM_FIELDS = ("r_s", "r_0", "r_m", "l_m", "c_m", "c_0")


def _wide_trace(params, n=4001, z0=50.0):
    f_p = mbvd.derived_fp(params)
    grid = np.linspace(0.85 * mbvd.derived_fs(params), 1.15 * f_p, n)
    return s_to_y(mbvd.synthesize_s11(params, grid, z0=z0))


def _rel_errors(fitted, truth):
    return [
        abs(getattr(fitted, f) / getattr(truth, f) - 1.0) for f in PARAM_FIELDS
    ]


@pytest.fixture(scope="module")
def wide_trace(device_params):
    return _wide_trace(device_params)


def test_initial_guess_lands_near_resonance(device_params, wide_trace):
    guess = initial_guess(wide_trace)
    fs_guess = mbvd.derived_fs(guess)
    assert abs(fs_guess - F_S) / F_S < 2e-3
    # static capacitance from the below-band susceptance, right order of magnitude
    assert 0.3 * C_0 < guess.c_0 < 3.0 * C_0
    assert guess.r_m > 0


def test_initial_guess_above_band_fallback(device_params, device_fp):
    # no samples below 0.9 f_s: the static branch is read above 1.1 f_p instead
    grid = np.linspace(0.95 * F_S, 1.18 * device_fp, 4001)
    trace = s_to_y(mbvd.synthesize_s11(device_params, grid, z0=50.0))
    guess = initial_guess(trace)
    assert 0.3 * C_0 < guess.c_0 < 3.0 * C_0


def test_initial_guess_needs_out_of_band_samples(device_trace):
    # 8.5-10.5 GHz leaves nothing outside [0.9 f_s, 1.1 f_p]
    with pytest.raises(ResonanceNotBracketed):
        initial_guess(s_to_y(device_trace))


def test_initial_guess_rejects_inductive_baseline(wide_trace):
    flipped = AdmittanceTrace(
        frequencies=wide_trace.frequencies, y=np.conj(wide_trace.y)
    )
    with pytest.raises(NegativeStaticCapacitance):
        initial_guess(flipped)


def test_fit_from_exact_start_stops_immediately(device_params, wide_trace):
    result = fit_mbvd(wide_trace, device_params)
    assert result.converged
    assert result.iterations <= 2
    assert result.rms_residual < 1e-12


def test_fit_recovers_elements_from_perturbed_starts(device_params, wide_trace):
    rng = np.random.default_rng(42)
    for _ in range(10):
        factors = 1.0 + rng.uniform(-0.2, 0.2, len(PARAM_FIELDS))
        start = mbvd.MbvdParams(
            **{
                f: getattr(device_params, f) * factors[i]
                for i, f in enumerate(PARAM_FIELDS)
            }
        )
        result = fit_mbvd(wide_trace, start)
        assert result.converged
        assert max(_rel_errors(result.params, device_params)) < 1e-6


def test_fit_with_automatic_guess(device_params, wide_trace):
    result = fit_mbvd(wide_trace, initial_guess(wide_trace))
    assert result.converged
    assert max(_rel_errors(result.params, device_params)) < 1e-9


def test_fit_is_deterministic(device_params, wide_trace):
    start = mbvd.MbvdParams(
        r_s=0.6, r_0=0.4, r_m=8.0,
        l_m=device_params.l_m * 1.1,
        c_m=device_params.c_m * 0.9,
        c_0=1.2e-13,
    )
    a = fit_mbvd(wide_trace, start)
    b = fit_mbvd(wide_trace, start)
    assert a.iterations == b.iterations
    for f in PARAM_FIELDS:
        assert getattr(a.params, f) == getattr(b.params, f)


def test_fit_handles_measurement_noise(device_params):
    trace = _wide_trace(device_params)
    scale = 0.01 * np.abs(trace.y)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        noise = scale * (
            rng.standard_normal(trace.y.size)
            + 1j * rng.standard_normal(trace.y.size)
        ) / np.sqrt(2.0)
        noisy = AdmittanceTrace(frequencies=trace.frequencies, y=trace.y + noise)
        result = fit_mbvd(noisy, initial_guess(noisy))
        assert result.converged
        fs_fit = mbvd.derived_fs(result.params)
        assert abs(fs_fit - F_S) / F_S < 1e-4
        ratio_fit = result.params.c_m / result.params.c_0
        ratio_true = device_params.c_m / device_params.c_0
        assert abs(ratio_fit / ratio_true - 1.0) < 5e-3


def test_fit_closes_coupling_loop_at_moderate_q():
    p = mbvd.params_from_metrics(F_S, KEFF2, q_m=50.0, c_0=C_0, r_s=0.5, r_0=0.5)
    trace = _wide_trace(p)
    result = fit_mbvd(trace, initial_guess(trace))
    assert result.converged
    assert abs(mbvd.derived_keff2(result.params) - KEFF2) / KEFF2 < 5e-3


def test_fit_does_not_depend_on_source_impedance(device_params):
    results = [
        fit_mbvd(_wide_trace(device_params, z0=z0), initial_guess(_wide_trace(device_params, z0=z0)))
        for z0 in (25.0, 75.0)
    ]
    for f in PARAM_FIELDS:
        a, b = (getattr(r.params, f) for r in results)
        ref = abs(a) if a else 1.0
        assert abs(a - b) / ref < 1e-6


def test_fit_reports_nonconvergence_as_state(device_params, wide_trace):
    start = mbvd.MbvdParams(
        r_s=0.6, r_0=0.4, r_m=8.0,
        l_m=device_params.l_m * 1.18,
        c_m=device_params.c_m * 0.85,
        c_0=1.2e-13,
    )
    result = fit_mbvd(wide_trace, start, max_iterations=1)
    assert not result.converged
    assert result.iterations == 1


def test_fit_rejects_zero_iterations_before_any_work(device_params):
    # the budget is checked before the trace, so even a dead trace gives ValueError
    f = np.linspace(8e9, 11e9, 100)
    dead = AdmittanceTrace(frequencies=f, y=np.zeros(f.size, complex))
    with pytest.raises(ValueError, match="max_iterations"):
        fit_mbvd(dead, device_params, max_iterations=0)


def test_fit_evaluates_the_model_once_per_trial_step(wide_trace, monkeypatch):
    # the Jacobian is closed form: the model runs once for the start and once
    # per trial step, not once per parameter probe
    calls = []
    kernel = fit.element_admittance

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(fit, "element_admittance", counted)
    result = fit_mbvd(wide_trace, initial_guess(wide_trace))
    assert result.converged
    assert len(calls) <= 2 * result.iterations + 1


def test_fit_cost_never_increases(device_params, wide_trace):
    start = mbvd.MbvdParams(
        r_s=0.6, r_0=0.4, r_m=8.0,
        l_m=device_params.l_m * 1.18,
        c_m=device_params.c_m * 0.85,
        c_0=1.2e-13,
    )
    result = fit_mbvd(wide_trace, start)
    history = np.asarray(result.cost_history)
    assert history.size >= 2
    assert np.all(np.diff(history) <= 0)


def test_fit_rejects_degenerate_trace(device_params):
    f = np.linspace(8e9, 11e9, 100)
    dead = AdmittanceTrace(frequencies=f, y=np.zeros(f.size, complex))
    with pytest.raises(NonFiniteResidual):
        fit_mbvd(dead, device_params)


def test_result_serialization(device_params, wide_trace):
    result = fit_mbvd(wide_trace, device_params)
    obj = result_to_json(result)
    assert obj["converged"] is True
    assert obj["iterations"] == result.iterations
    assert obj["rms_residual_s"] == result.rms_residual
    for key in ("r_s_ohm", "r_0_ohm", "r_m_ohm", "l_m_h", "c_m_f", "c_0_f"):
        assert key in obj
