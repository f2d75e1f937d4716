"""Least-squares mBVD element extraction from an admittance trace.

Damped Gauss-Newton on the logs of the six elements.  Residuals are the
real and imaginary admittance misfits, weighted toward relative error so
the series peak and the parallel notch carry comparable weight.  The
Jacobian is the closed-form dY/dlog(element) of the mBVD kernel, built
from the terms the accepted trial step already evaluated (mbvd._terms,
mbvd._jacobian), so an iteration evaluates the model once per trial step:
never twice at one point, never by finite differences.  The weights go
into the Jacobian's three base vectors, and its rows are read through a
float view, real and imaginary parts interleaved, which gives the same
J J^T and J r as stacking them.  The damping ladder stops as soon as the
damped step is below the step tolerance, since more damping only shortens
it.  The procedure is deterministic: no randomness, fixed traversal order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NegativeStaticCapacitance, NonFiniteResidual, ResonanceNotBracketed
from .extract import SCHEMA_VERSION, _tune_band, find_fs_fp
from .mbvd import MbvdParams, _jacobian, _terms, derived_fs, params_to_json
from .network import AdmittanceTrace, _band_mask, _kasa_circle

# same sanity cap MbvdParams enforces (c_m < 8 c_0), in log space
_LOG_CM_C0_CAP = np.log(8.0)
# stop when the relative cost improvement of an accepted step drops below this
_RESIDUAL_TOL = 1e-10
# or when a damped step, relative to the parameter vector, is shorter than
# this; checked before the trial step is evaluated
_STEP_TOL = 1e-8
_INITIAL_DAMPING = 1e-3
_DAMPING_FACTOR = 10.0
_MAX_DAMPING = 1e12
# resistances are held at or above this many ohms
_R_FLOOR = 1e-6
# largest accepted per-iteration move of any single log-parameter;
# near-flat directions otherwise produce basin-hopping steps
_MAX_LOG_STEP = 4.0


@dataclass(frozen=True)
class FitResult:
    """Fitted elements and how the fit got there.

    stop_reason is one of "cost_tolerance" (an accepted step improved the
    cost by less than the tolerance), "step_tolerance" (the damped step
    shrank below the step tolerance), "damping_exhausted" (no damping in
    range lowered the cost; converged tells whether the remaining gap was
    within tolerance) or "iteration_budget".
    """

    params: MbvdParams
    rms_residual: float
    iterations: int
    converged: bool
    stop_reason: str
    cost_history: tuple[float, ...] = ()


def initial_guess(trace: AdmittanceTrace) -> MbvdParams:
    """Closed-form start from the resonance pair and the in-band admittance circle.

    Near f_s the motional branch traces a Y-plane circle of diameter 1/r_m
    whose centre has susceptance omega_s c_0 (Larson et al. 2000, IEEE
    Ultrason. Symp.).  It is the Kasa circle source tuning fits on
    [0.98 f_s, 1.02 f_p], so any grid that brackets the resonance yields a
    start; c_m follows from the resonance spread.  Raises TooFewPoints (< 5
    band samples), DegenerateLocus, or NegativeStaticCapacitance (inductive).
    """
    f_s, f_p = find_fs_fp(trace)
    mask = _band_mask(trace.frequencies, _tune_band(f_s, f_p))
    center, radius, _ = _kasa_circle(trace.y[mask])
    omega_s = 2.0 * np.pi * f_s
    c_0 = center.imag / omega_s
    if c_0 <= 0:
        raise NegativeStaticCapacitance(
            f"static-capacitance estimate is {c_0:.3e} F; the admittance circle is inductive"
        )
    c_m = c_0 * (f_p**2 - f_s**2) / f_s**2
    l_m = 1.0 / (omega_s**2 * c_m)
    return MbvdParams(r_s=0.5, r_0=0.1, r_m=1.0 / (2.0 * radius), l_m=l_m, c_m=c_m, c_0=c_0)


def _log_vector(params: MbvdParams) -> np.ndarray:
    values = np.array([params.r_s, params.r_0, params.r_m, params.l_m, params.c_m, params.c_0])
    values[:3] = np.maximum(values[:3], _R_FLOOR)
    return np.log(values)


def _elements(x: np.ndarray) -> np.ndarray:
    """Element values r_s, r_0, r_m, l_m, c_m, c_0 at log-vector x, resistances floored."""
    values = np.exp(x)
    values[:3] = np.maximum(values[:3], _R_FLOOR)
    return values


def _align_resonance(trace: AdmittanceTrace, init: MbvdParams) -> MbvdParams:
    """Retune a supplied start so its series resonance sits on the |Y| peak.

    initial_guess needs none of this (its f_s is find_fs_fp's); supplied
    starts do (sawkit fit --init).  A high-Q model whose resonance misses
    the measured peak by more than a few linewidths gives the descent
    nothing to grab: the cheapest local move is to flatten the motional
    branch, a useless basin.  Scaling l_m and c_m by a common factor moves
    f_s and keeps their ratio, so the rest of the start survives untouched.
    Best-effort: traces without a bracketed peak are left alone.
    """
    try:
        fs_data, _ = find_fs_fp(trace)
    except ResonanceNotBracketed:
        return init
    fs_init = derived_fs(init)
    if abs(fs_init - fs_data) <= 0.005 * fs_data:
        return init
    ratio = fs_init / fs_data
    try:
        return replace(init, l_m=init.l_m * ratio, c_m=init.c_m * ratio)
    except ValueError:
        return init


def fit_mbvd(
    trace: AdmittanceTrace,
    init: MbvdParams,
    max_iterations: int = 200,
) -> FitResult:
    """Refine mBVD elements against measured admittance.

    The initial point is first retuned onto the measured |Y| peak (see
    _align_resonance), then polished by damped Gauss-Newton for at most
    max_iterations steps.  Returns best-so-far with converged=False when
    the iteration budget or the damping range is exhausted.  Raises
    ValueError when max_iterations < 1 and NonFiniteResidual when the
    model cannot be evaluated at the initial point.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    freqs = trace.frequencies
    target = trace.y
    scale = float(np.abs(target).max())
    if not scale > 0:
        raise NonFiniteResidual("admittance trace is identically zero")
    sqrt_weight = 1.0 / np.maximum(np.abs(target), 0.01 * scale)
    w = 2.0 * np.pi * freqs
    inv_w = 1.0 / w

    def evaluate(x: np.ndarray) -> tuple[tuple, np.ndarray]:
        """Model terms at x and the weighted misfit (2n floats, real and imaginary interleaved)."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            terms = _terms(*_elements(x), w, inv_w)
            diff = terms[0] - target
            diff *= sqrt_weight
        return terms, diff.view(float)

    def normal_equations(x: np.ndarray, terms: tuple, misfit: np.ndarray):
        """J J^T and J r, with J the (6, 2n) d misfit / d x built from the terms at x."""
        values = _elements(x)
        # a resistance held at the floor does not move with its log-parameter
        values[:3][x[:3] < np.log(_R_FLOOR)] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            jac = _jacobian(*values, w, inv_w, terms, sqrt_weight).view(float)
        return jac @ jac.T, jac @ misfit

    init = _align_resonance(trace, init)
    x = _log_vector(init)
    terms, current = evaluate(x)
    if not np.all(np.isfinite(current)):
        raise NonFiniteResidual("model admittance is not finite at the initial point")
    cost = float(current @ current)
    history = [cost]
    damping = _INITIAL_DAMPING
    identity = np.eye(x.size)
    converged = False
    stop_reason = "iteration_budget"
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jtj, jtr = normal_equations(x, terms, current)
        if not (np.all(np.isfinite(jtj)) and np.all(np.isfinite(jtr))):
            raise NonFiniteResidual("Jacobian is not finite")
        accepted = False
        best_gap = np.inf
        while damping <= _MAX_DAMPING:
            try:
                step = np.linalg.solve(jtj + damping * identity, -jtr)
            except np.linalg.LinAlgError:
                damping *= _DAMPING_FACTOR
                continue
            # more damping only shortens the step: once it is this small
            # there is nothing left to try at this point
            if float(np.linalg.norm(step)) / max(float(np.linalg.norm(x)), 1.0) < _STEP_TOL:
                converged, stop_reason = True, "step_tolerance"
                break
            x_trial = x + step
            # reject steps that leave the parameter sanity region or move
            # too far at once: near-flat directions otherwise carry the
            # iterate arbitrarily far for a vanishing cost change
            if (
                float(np.abs(step).max()) > _MAX_LOG_STEP
                or x_trial[4] >= x_trial[5] + _LOG_CM_C0_CAP
            ):
                damping *= _DAMPING_FACTOR
                continue
            trial_terms, trial = evaluate(x_trial)
            trial_cost = float(trial @ trial) if np.all(np.isfinite(trial)) else np.inf
            if trial_cost < cost:
                accepted = True
                break
            if np.isfinite(trial_cost):
                best_gap = min(best_gap, trial_cost - cost)
            damping *= _DAMPING_FACTOR
        if converged:
            break
        if not accepted:
            # no strictly decreasing step exists in the damping range; a
            # vanishing gap means we are sitting at a minimum
            converged = best_gap <= _RESIDUAL_TOL * max(cost, 1e-300)
            stop_reason = "damping_exhausted"
            break
        improvement = (cost - trial_cost) / cost if cost > 0 else 0.0
        x, terms, current, cost = x_trial, trial_terms, trial, trial_cost
        history.append(cost)
        damping = max(damping / _DAMPING_FACTOR, 1e-15)
        if improvement < _RESIDUAL_TOL:
            converged, stop_reason = True, "cost_tolerance"
            break

    params = MbvdParams(*(float(v) for v in _elements(x)))
    # the kept model is the admittance of exactly these element values
    rms = float(np.sqrt(np.mean(np.abs(terms[0] - target) ** 2)))
    return FitResult(
        params=params,
        rms_residual=rms,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        cost_history=tuple(history),
    )


def result_to_json(result: FitResult) -> dict:
    """The fit JSON sawkit fit writes: schema version, the elements under "params", diagnostics."""
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_to_json(result.params),
        "rms_residual_s": result.rms_residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "cost_history": list(result.cost_history),
    }
