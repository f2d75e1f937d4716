import tracemalloc

import numpy as np
import pytest

from sawkit import cli, fit, mbvd
from sawkit.errors import (
    NegativeStaticCapacitance,
    NonFiniteResidual,
)
from sawkit.extract import find_fs_fp
from sawkit.fit import fit_mbvd, initial_guess, result_to_json
from sawkit.network import AdmittanceTrace, s_to_y
from sawkit.touchstone import OnePortTrace

from conftest import C_0, F_S, KEFF2, Q_M, R_0, R_S

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
    # static capacitance from the off-resonance susceptance, right order of magnitude
    assert 0.3 * C_0 < guess.c_0 < 3.0 * C_0
    assert guess.r_m > 0


def test_initial_guess_above_band_fallback(device_params, device_fp):
    # no samples below 0.9 f_s: the start reads the susceptance above the resonance
    grid = np.linspace(0.95 * F_S, 1.18 * device_fp, 4001)
    trace = s_to_y(mbvd.synthesize_s11(device_params, grid, z0=50.0))
    guess = initial_guess(trace)
    assert 0.3 * C_0 < guess.c_0 < 3.0 * C_0


def test_initial_guess_on_the_extraction_grid(device_trace):
    # 8.5-10.5 GHz leaves nothing outside [0.9 f_s, 1.1 f_p]; the start reads
    # every sample farther than 1 % from f_s
    trace = s_to_y(device_trace)
    guess = initial_guess(trace)
    assert abs(mbvd.derived_fs(guess) - F_S) / F_S < 2e-3
    assert 0.3 * C_0 < guess.c_0 < 3.0 * C_0
    assert fit_mbvd(trace, guess).converged


def test_initial_guess_reads_c0_off_resonance():
    # the off-resonance susceptance puts c_0 within 2 % on every clean fixture ...
    for device, (_, f_s, _, _) in cli.FIXTURE_DEVICES.items():
        params = cli.fixture_params(device)
        grid = np.linspace(0.9 * f_s, 1.1 * mbvd.derived_fp(params), 4001)
        guess = initial_guess(s_to_y(mbvd.synthesize_s11(params, grid, z0=50.0)))
        assert abs(guess.c_0 / params.c_0 - 1.0) < 0.02, device
    # ... and needs no tuning band: a 250 MHz grid that still brackets the
    # resonance pair starts and converges
    grid = np.linspace(8.5e9, 10.5e9, 9)
    trace = s_to_y(mbvd.synthesize_s11(cli.fixture_params("A"), grid, z0=50.0))
    assert fit_mbvd(trace, initial_guess(trace)).converged


@pytest.mark.parametrize("sigma", [0.0, 1e-3, 3e-3])
@pytest.mark.parametrize("q_m", [Q_M, 3000.0, 1e4, 3e4])
def test_initial_guess_c0_across_q_and_noise(q_m, sigma):
    # device A on 0.85 f_s ... 1.15 f_p with S11 noise of sigma per component,
    # seeds 0-9: the start never turns inductive and c_0 stays within 2 %;
    # the fitted Q_m is not asserted, as high Q_m under noise is not resolved
    params = mbvd.params_from_metrics(F_S, KEFF2, q_m, C_0, r_s=R_S, r_0=R_0)
    grid = np.linspace(0.85 * F_S, 1.15 * mbvd.derived_fp(params), 4001)
    clean = mbvd.synthesize_s11(params, grid, z0=50.0).s11
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s11 = clean + sigma * (rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
        guess = initial_guess(s_to_y(OnePortTrace(grid, s11, z0=50.0)))
        assert abs(guess.c_0 / C_0 - 1.0) < 0.02, seed


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
    kernel = fit._terms

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(fit, "_terms", counted)
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
    # the document sawkit fit writes: schema version, nested elements, diagnostics
    assert list(obj)[:2] == ["schema_version", "params"]
    assert obj["schema_version"] == 1
    assert obj["converged"] is True
    assert obj["iterations"] == result.iterations
    assert obj["rms_residual_s"] == result.rms_residual
    assert obj["params"] == mbvd.params_to_json(result.params)
    assert list(obj["params"]) == ["r_s_ohm", "r_0_ohm", "r_m_ohm", "l_m_h", "c_m_f", "c_0_f"]


NOISE_SIGMA = 1e-3
NOISE_SEED = 402


def _noisy_trace(params, n):
    # complex S11 noise of rms NOISE_SIGMA, as on a measured trace
    grid = np.linspace(0.85 * F_S, 1.15 * mbvd.derived_fp(params), n)
    clean = mbvd.synthesize_s11(params, grid, z0=50.0)
    rng = np.random.default_rng(NOISE_SEED)
    noise = NOISE_SIGMA * (
        rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    ) / np.sqrt(2.0)
    return s_to_y(OnePortTrace(grid, clean.s11 + noise, z0=50.0))


@pytest.fixture(scope="module")
def noisy_wide_trace(device_params):
    return _noisy_trace(device_params, 4001)


def _logged_fit(trace, monkeypatch, **kwargs):
    """Fit with the model evaluations ("k") and Jacobian builds ("j") logged in order.

    A Jacobian build is closed by "/j", so an evaluation it ran would sit
    between the two.
    """
    log = []
    kernel, build = fit._terms, fit._normal_equations

    def logged_kernel(*args):
        log.append("k")
        return kernel(*args)

    def logged_build(*args):
        log.append("j")
        sums = build(*args)
        log.append("/j")
        return sums

    for module in (fit, mbvd):
        monkeypatch.setattr(module, "_terms", logged_kernel)
    monkeypatch.setattr(fit, "_normal_equations", logged_build)
    return fit_mbvd(trace, initial_guess(trace), **kwargs), log


def test_fit_builds_one_jacobian_per_iteration(noisy_wide_trace, monkeypatch):
    result, log = _logged_fit(noisy_wide_trace, monkeypatch)
    assert result.converged
    assert log.count("j") == result.iterations
    # a Jacobian build reuses the accepted trial's terms and evaluates no branches
    assert all(log[i + 1] == "/j" for i, entry in enumerate(log) if entry == "j")


def test_fit_stops_the_damping_ladder_at_step_tolerance(noisy_wide_trace, monkeypatch):
    # once the damped step is below the step tolerance more damping cannot
    # help: the last Jacobian is followed by at most a couple of trial steps,
    # not by a climb to the largest damping
    result, log = _logged_fit(noisy_wide_trace, monkeypatch)
    assert result.converged
    last_jacobian = len(log) - 1 - log[::-1].index("j")
    assert log[last_jacobian + 1:].count("k") <= 2


@pytest.fixture(scope="module")
def floored_trace():
    # no access losses: the fit drives r_s and r_0 down to the resistance floor
    params = mbvd.params_from_metrics(F_S, KEFF2, Q_M, C_0)
    return _wide_trace(params)


@pytest.mark.parametrize("trace_name", ["noisy_wide_trace", "floored_trace"])
def test_fit_outputs_come_from_the_kept_model(trace_name, request, monkeypatch):
    trace = request.getfixturevalue(trace_name)
    freqs, target = trace.frequencies, trace.y
    evaluations, builds = [], []
    kernel, build = fit._terms, fit._normal_equations

    def logged_kernel(*args):
        terms = kernel(*args)
        evaluations.append((args[:6], terms))
        return terms

    def logged_build(*args):
        sums = build(*args)
        builds.append((args[6], args[8], sums))
        return sums

    monkeypatch.setattr(fit, "_terms", logged_kernel)
    monkeypatch.setattr(fit, "_normal_equations", logged_build)
    result = fit_mbvd(trace, initial_guess(trace))
    assert result.converged
    model = mbvd.admittance(result.params, freqs)
    rms = np.sqrt(np.mean(np.abs(model - target) ** 2))
    assert result.rms_residual == pytest.approx(rms, rel=1e-12, abs=0.0)
    # each build, coarse ones included, is the stacked product of the weighted
    # public Jacobian at the point whose terms it reused, on the samples it
    # was built on, with the rows of floored resistances zeroed
    weight = 1.0 / np.maximum(np.abs(target), 0.01 * np.abs(target).max())
    floored_rows = 0
    full_w = 2.0 * np.pi * freqs
    for w, terms, (jtj, jtr) in builds:
        samples = np.searchsorted(full_w, w)
        assert np.array_equal(full_w[samples], w)
        elements = next(args for args, kept in evaluations if kept is terms)
        want = mbvd._jacobian(*elements, w, 1 / w, mbvd._terms(*elements, w, 1 / w), 1.0)
        want *= weight[samples]
        for k in range(6):
            if k < 3 and elements[k] == fit._R_FLOOR:
                floored_rows += 1
                assert not np.any(jtj[k]) and not np.any(jtj[:, k]) and jtr[k] == 0.0
                want[k] = 0.0
        residual = (terms[0] - target[samples]) * weight[samples]
        stacked = np.concatenate([want.real, want.imag], axis=1)
        want_jtj = stacked @ stacked.T
        want_jtr = stacked @ np.concatenate([residual.real, residual.imag])
        # entries against the sizes Cauchy-Schwarz bounds them by
        norms = np.sqrt(np.diag(want_jtj))
        assert np.all(np.abs(jtj - want_jtj) <= 1e-13 * np.outer(norms, norms))
        assert np.all(np.abs(jtr - want_jtr) <= 1e-13 * norms * np.linalg.norm(residual))
    assert len(builds) == result.iterations
    assert floored_rows > 0 if trace_name == "floored_trace" else floored_rows == 0


def _full_samples(trace):
    target = trace.y
    w = 2.0 * np.pi * trace.frequencies
    weight = 1.0 / np.maximum(np.abs(target), 0.01 * np.abs(target).max())
    return fit._Samples(w, 1 / w, target, weight)


B = mbvd._BLOCK


def test_interleaved_normal_equations_match_stacked(device_params):
    # around and across block edges, from a start and from one with r_s and
    # r_0 below the resistance floor, whose rows the build gets as zeros
    for n in (4001, B - 1, B, B + 1, 3 * B + 5, 16001):
        trace = _noisy_trace(device_params, n)
        for floored in (False, True):
            _check_normal_equations(trace, floored)


def _check_normal_equations(trace, floored):
    freqs, target = trace.frequencies, trace.y
    x = fit._log_vector(initial_guess(trace))
    if floored:
        x[:2] = np.log(fit._R_FLOOR) - 1.0
    elements = fit._elements(x)
    weight = 1.0 / np.maximum(np.abs(target), 0.01 * np.abs(target).max())
    w = 2.0 * np.pi * freqs
    rows = mbvd._jacobian(*elements, w, 1 / w, mbvd._terms(*elements, w, 1 / w), 1.0) * weight
    if floored:
        rows[:2] = 0.0
    diff = (mbvd.element_admittance(*elements, freqs) - target) * weight
    stacked = np.concatenate([rows.real, rows.imag], axis=1)
    stacked_residual = np.concatenate([diff.real, diff.imag])
    interleaved = rows.view(float)
    samples = _full_samples(trace)
    blocked = samples.normal_equations(x, *samples.evaluate(x))
    for got, blocks, want in (
        (interleaved @ interleaved.T, blocked[0], stacked @ stacked.T),
        (interleaved @ diff.view(float), blocked[1], stacked @ stacked_residual),
    ):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(blocks - want).max() <= 1e-12 * np.abs(want).max()
    if floored:
        jtj, jtr = blocked
        assert not np.any(jtj[:2]) and not np.any(jtj[:, :2]) and not np.any(jtr[:2])


@pytest.mark.parametrize("n", [16001, 64001])
def test_a_whole_trace_build_allocates_one_block_of_rows(device_params, n):
    # the (6, _BLOCK) complex scratch, not (6, n) rows, bounds a build's
    # memory, with numpy's buffer for casting one block row to complex
    samples = _full_samples(_wide_trace(device_params, n=n))
    x = fit._log_vector(device_params)
    terms, misfit = samples.evaluate(x)
    tracemalloc.start()
    try:
        samples.normal_equations(x, terms, misfit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (6 + 1) * B * 16 + 16384


def test_fit_records_why_it_stopped(device_params, wide_trace):
    start = mbvd.MbvdParams(
        r_s=0.6, r_0=0.4, r_m=8.0,
        l_m=device_params.l_m * 1.18,
        c_m=device_params.c_m * 0.85,
        c_0=1.2e-13,
    )
    budget = fit_mbvd(wide_trace, start, max_iterations=1)
    assert budget.stop_reason == "iteration_budget"
    done = fit_mbvd(wide_trace, initial_guess(wide_trace))
    assert done.converged
    assert done.stop_reason in ("cost_tolerance", "step_tolerance")
    obj = result_to_json(done)
    assert obj["stop_reason"] == done.stop_reason
    assert obj["cost_history"] == list(done.cost_history)


def test_fit_records_an_exhausted_damping_ladder(wide_trace, monkeypatch):
    # a ladder whose ceiling sits below its first rung tries no step at all
    monkeypatch.setattr(fit, "_MAX_DAMPING", 0.1 * fit._INITIAL_DAMPING)
    result = fit_mbvd(wide_trace, initial_guess(wide_trace))
    assert result.stop_reason == "damping_exhausted"
    assert result.converged is False
    assert result.iterations == 1
    assert len(result.cost_history) == 1


def test_align_resonance_leaves_an_unbracketed_trace_alone(device_params, wide_trace):
    # below f_s the |Y| maximum is the last sample: no peak to retune onto
    below = wide_trace.frequencies < 0.99 * F_S
    trace = AdmittanceTrace(wide_trace.frequencies[below], wide_trace.y[below])
    start = mbvd.MbvdParams(
        r_s=0.6, r_0=0.4, r_m=8.0, l_m=device_params.l_m * 1.18, c_m=device_params.c_m,
        c_0=device_params.c_0,
    )
    assert np.argmax(np.abs(trace.y)) == trace.y.size - 1
    assert fit._align_resonance(trace, start) is start


def test_align_resonance_leaves_a_start_it_cannot_rescale_alone(device_params, wide_trace):
    # f_s of this start is ~45x the peak's, so the rescaled c_m would pass 8 c_0
    start = mbvd.MbvdParams(
        r_s=0.6, r_0=0.4, r_m=8.0, l_m=device_params.l_m * 1e-4, c_m=0.6 * device_params.c_0,
        c_0=device_params.c_0,
    )
    ratio = mbvd.derived_fs(start) / find_fs_fp(wide_trace)[0]
    assert start.c_m * ratio >= 8.0 * start.c_0
    assert fit._align_resonance(wide_trace, start) is start


def test_fit_names_the_first_non_finite_admittance_sample(device_params, wide_trace):
    freqs = wide_trace.frequencies
    for bad in (np.nan, np.inf, complex(np.inf, np.inf)):
        y = wide_trace.y.copy()
        y[[1234, 2345]] = bad
        with pytest.raises(NonFiniteResidual, match=f"not finite at {float(freqs[1234])!r} Hz"):
            fit_mbvd(AdmittanceTrace(freqs, y), device_params)
    # after the budget check, before the zero-trace check
    dead = np.zeros(freqs.size, complex)
    dead[7] = np.nan
    with pytest.raises(ValueError, match="max_iterations"):
        fit_mbvd(AdmittanceTrace(freqs, dead), device_params, max_iterations=0)
    with pytest.raises(NonFiniteResidual, match="not finite"):
        fit_mbvd(AdmittanceTrace(freqs, dead), device_params)


def _single_stage(monkeypatch, trace, start):
    """The fit with no coarse stage: a minimum sample count above the trace's."""
    with monkeypatch.context() as patch:
        patch.setattr(fit, "_COARSE_MIN_SAMPLES", trace.frequencies.size + 1)
        result = fit_mbvd(trace, start)
    assert result.coarse_stride == 1 and result.coarse_iterations == 0
    return result


def _assert_same_elements(result, reference):
    # the parity bounds the two-stage fit keeps against the single-stage one
    for k, f in enumerate(PARAM_FIELDS):
        got, want = getattr(result.params, f), getattr(reference.params, f)
        assert abs(got / want - 1.0) <= (1e-6 if k < 3 else 1e-9), f


@pytest.mark.parametrize("trace_name", ["wide_trace", "noisy_wide_trace"])
def test_two_stage_fit_matches_the_single_stage_descent(trace_name, request, monkeypatch):
    trace = request.getfixturevalue(trace_name)
    start = initial_guess(trace)
    single = _single_stage(monkeypatch, trace, start)
    result = fit_mbvd(trace, start)
    assert result.coarse_stride > 1 and result.coarse_iterations > 0
    assert result.converged and single.converged
    _assert_same_elements(result, single)
    # both histories open with the start's whole-trace cost and never rise
    assert result.cost_history[0] == single.cost_history[0]
    assert result.cost_history[-1] <= single.cost_history[-1] * (1.0 + 1e-9)
    assert np.all(np.diff(result.cost_history) <= 0)


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
@pytest.mark.parametrize("q_m", [1000.0, 3000.0, 10000.0])
def test_two_stage_fit_across_q_and_noise(q_m, sigma, monkeypatch):
    params = mbvd.params_from_metrics(F_S, KEFF2, q_m, C_0, r_s=R_S, r_0=R_0)
    grid = np.linspace(0.85 * F_S, 1.15 * mbvd.derived_fp(params), 16001)
    s11 = mbvd.synthesize_s11(params, grid, z0=50.0).s11
    rng = np.random.default_rng(NOISE_SEED)
    s11 = s11 + sigma * (
        rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    ) / np.sqrt(2.0)
    trace = s_to_y(OnePortTrace(grid, s11, z0=50.0))
    start = initial_guess(trace)
    result = fit_mbvd(trace, start)
    single = _single_stage(monkeypatch, trace, start)
    assert result.converged and single.converged
    _assert_same_elements(result, single)
    if sigma == 0.0:
        # 8 samples per linewidth of the start at a 208 kHz spacing: a stride
        # of 5 at Q_m = 1000, none at 3000 and above.  (The start's r_m keeps
        # at least half the peak resistance, so at Q_m = 1e4 it reads Q_m
        # near 4500, still narrow enough for no coarse stage.)
        assert (result.coarse_stride > 1) == (q_m == 1000.0)


def test_coarse_stage_never_costs_fit_quality(device_params, noisy_wide_trace, monkeypatch):
    # from the generating elements the coarse optimum, fitted to a fraction of
    # the noise, fits the whole trace worse than the start: the polish starts
    # from the start, exactly as the single-stage descent does
    result = fit_mbvd(noisy_wide_trace, device_params)
    single = _single_stage(monkeypatch, noisy_wide_trace, device_params)
    assert result.coarse_iterations > 0
    assert np.all(np.diff(result.cost_history) <= 0)
    assert result.cost_history == single.cost_history
    assert result.params == single.params
    assert result.iterations == result.coarse_iterations + single.iterations


def test_fit_builds_at_most_three_full_trace_jacobians(noisy_wide_trace, monkeypatch):
    sizes = []
    build = fit._normal_equations

    def logged_build(*args):
        sizes.append(args[6].size)
        return build(*args)

    monkeypatch.setattr(fit, "_normal_equations", logged_build)
    result = fit_mbvd(noisy_wide_trace, initial_guess(noisy_wide_trace))
    n = noisy_wide_trace.frequencies.size
    assert result.converged
    assert len(sizes) == result.iterations
    assert sizes.count(n) <= 3
    # every other build is on the coarse samples: every k-th, first included
    assert sizes.count(len(range(0, n, result.coarse_stride))) == result.coarse_iterations


def test_coarse_stride_follows_the_linewidth_and_the_sample_count(device_params):
    # a 1001-point grid keeps fewer than 512 samples at any stride above 1
    short = _wide_trace(device_params, n=1001)
    assert fit_mbvd(short, initial_guess(short)).coarse_stride == 1
    freqs = np.linspace(8e9, 10e9, 16001)
    elements = fit._elements(fit._log_vector(device_params))
    # Q_m = 426: 8 samples per 21 MHz linewidth at a 125 kHz spacing
    elements[2] *= 0.5
    linewidth = elements[2] / (2.0 * np.pi * elements[3])
    assert fit._coarse_stride(freqs, elements) == int(linewidth / (8 * 125e3)) == 21
    # a wider linewidth is capped by the 512-sample floor: (16001 - 1) // 511
    wide = elements.copy()
    wide[2] *= 100.0
    assert fit._coarse_stride(freqs, wide) == 31
    assert len(range(0, 16001, 31)) >= 512 > len(range(0, 16001, 32))
    # stride 2 keeps 512 of 1023 samples but 511 of 1022
    for n, stride in ((1023, 2), (1022, 1)):
        assert fit._coarse_stride(np.linspace(8e9, 10e9, n), wide) == stride
    # a resonance narrower than 8 samples gets no coarse stage
    narrow = elements.copy()
    narrow[2] *= 1e-3
    assert fit._coarse_stride(freqs, narrow) == 1


def test_a_step_below_the_step_tolerance_is_tried_once(device_params, wide_trace, monkeypatch):
    # at the generating elements every step is below tolerance: each stage
    # tries it once, keeps it only if it lowers the cost, and stops
    log = []
    kernel, build = fit._terms, fit._normal_equations
    monkeypatch.setattr(fit, "_terms", lambda *args: log.append("k") or kernel(*args))
    monkeypatch.setattr(fit, "_normal_equations", lambda *args: log.append("j") or build(*args))
    result = fit_mbvd(wide_trace, device_params)
    assert result.stop_reason == "step_tolerance" and result.coarse_iterations == 1
    # start (whole trace), coarse start, its step, the coarse result on the
    # whole trace, the polish's step
    assert log == ["k", "k", "j", "k", "k", "j", "k"]
    assert np.all(np.diff(result.cost_history) <= 0)


def test_one_iteration_budget_runs_no_coarse_stage(device_params, wide_trace):
    # the coarse stage leaves the full trace at least one iteration
    result = fit_mbvd(wide_trace, initial_guess(wide_trace), max_iterations=1)
    assert (result.coarse_stride, result.coarse_iterations, result.iterations) == (1, 0, 1)
    result = fit_mbvd(wide_trace, initial_guess(wide_trace), max_iterations=3)
    assert result.coarse_iterations == 2 and result.iterations == 3
    assert result.stop_reason == "iteration_budget"
    obj = result_to_json(result)
    assert (obj["coarse_stride"], obj["coarse_iterations"]) == (result.coarse_stride, 2)
