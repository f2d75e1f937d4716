"""Least-squares mBVD element extraction from an admittance trace.

Damped Gauss-Newton on the logs of the six elements.  Residuals are the
stacked real and imaginary admittance misfits, weighted toward relative
error so the series peak and the parallel notch carry comparable weight.
The Jacobian is the closed-form dY/dlog(element) of the mBVD kernel
(mbvd.element_admittance_jacobian), so an iteration evaluates the model
once per trial step and never by finite differences.
The procedure is deterministic: no randomness, fixed traversal order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NegativeStaticCapacitance, NonFiniteResidual, ResonanceNotBracketed
from .extract import find_fs_fp
from .mbvd import (
    MbvdParams, admittance, element_admittance, element_admittance_jacobian, params_to_json,
)
from .network import AdmittanceTrace

# same sanity cap MbvdParams enforces (c_m < 8 c_0), in log space
_LOG_CM_C0_CAP = np.log(8.0)
# stop when the relative cost improvement of an accepted step drops below this
_RESIDUAL_TOL = 1e-10
# or when the relative parameter step does
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
    params: MbvdParams
    rms_residual: float
    iterations: int
    converged: bool
    cost_history: tuple[float, ...] = ()


def initial_guess(trace: AdmittanceTrace) -> MbvdParams:
    """Closed-form starting point from the resonance pair and the baseline.

    c_0 comes from the median susceptance slope below 0.9 f_s (or above
    1.1 f_p when the trace has no low side), c_m from the resonance spread,
    r_m from the peak conductance.  The derived f_s lands within a fraction
    of a percent of the |Y|-peak estimate.
    """
    f_s, f_p = find_fs_fp(trace)
    freqs = trace.frequencies
    omega = 2.0 * np.pi * freqs
    below = freqs < 0.9 * f_s
    above = freqs > 1.1 * f_p
    if np.any(below):
        region = below
    elif np.any(above):
        region = above
    else:
        raise ResonanceNotBracketed(
            "no samples outside [0.9 f_s, 1.1 f_p] to estimate the static capacitance"
        )
    c_0 = float(np.median(trace.y[region].imag / omega[region]))
    if c_0 <= 0:
        raise NegativeStaticCapacitance(
            f"static-capacitance estimate is {c_0:.3e} F; baseline looks inductive"
        )
    c_m = c_0 * (f_p**2 - f_s**2) / f_s**2
    l_m = 1.0 / ((2.0 * np.pi * f_s) ** 2 * c_m)
    r_m = max(1.0 / float(np.abs(trace.y).max()), 0.01)
    return MbvdParams(r_s=0.5, r_0=0.1, r_m=r_m, l_m=l_m, c_m=c_m, c_0=c_0)


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
    """Retune the init so its series resonance sits on the |Y| peak.

    A high-Q model whose resonance misses the measured peak by more than a
    few linewidths gives the descent nothing to grab: the cheapest local
    move is to flatten the motional branch, which lands the fit in a
    useless basin.  Scaling l_m and c_m by a common factor moves f_s while
    preserving their ratio, so the rest of the init survives untouched.
    Best-effort: traces without a bracketed peak are left alone.
    """
    try:
        fs_data, _ = find_fs_fp(trace)
    except ResonanceNotBracketed:
        return init
    fs_init = 1.0 / (2.0 * np.pi * np.sqrt(init.l_m * init.c_m))
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

    def residual(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            diff = element_admittance(*_elements(x), freqs) - target
            return np.concatenate([sqrt_weight * diff.real, sqrt_weight * diff.imag])

    def jacobian(x: np.ndarray) -> np.ndarray:
        """(6, 2n): d residual / d x, one row per log-element."""
        with np.errstate(over="ignore", invalid="ignore"):
            rows = element_admittance_jacobian(*_elements(x), freqs) * sqrt_weight
        # a resistance held at the floor does not move with its log-parameter
        rows[:3][x[:3] < np.log(_R_FLOOR)] = 0.0
        return np.concatenate([rows.real, rows.imag], axis=1)

    init = _align_resonance(trace, init)
    x = _log_vector(init)
    current = residual(x)
    if not np.all(np.isfinite(current)):
        raise NonFiniteResidual("model admittance is not finite at the initial point")
    cost = float(current @ current)
    history = [cost]
    damping = _INITIAL_DAMPING
    identity = np.eye(x.size)
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jac = jacobian(x)
        if not np.all(np.isfinite(jac)):
            raise NonFiniteResidual("Jacobian is not finite")
        jtj = jac @ jac.T
        jtr = jac @ current
        accepted = False
        best_gap = np.inf
        while damping <= _MAX_DAMPING:
            try:
                step = np.linalg.solve(jtj + damping * identity, -jtr)
            except np.linalg.LinAlgError:
                damping *= _DAMPING_FACTOR
                continue
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
            trial = residual(x_trial)
            trial_cost = float(trial @ trial) if np.all(np.isfinite(trial)) else np.inf
            if trial_cost < cost:
                accepted = True
                break
            if np.isfinite(trial_cost):
                best_gap = min(best_gap, trial_cost - cost)
            damping *= _DAMPING_FACTOR
        if not accepted:
            # no strictly decreasing step exists in the damping range; a
            # vanishing gap means we are sitting at a minimum
            converged = best_gap <= _RESIDUAL_TOL * max(cost, 1e-300)
            break
        improvement = (cost - trial_cost) / cost if cost > 0 else 0.0
        step_size = float(np.linalg.norm(step)) / max(float(np.linalg.norm(x)), 1.0)
        x = x + step
        current = trial
        cost = trial_cost
        history.append(cost)
        damping = max(damping / _DAMPING_FACTOR, 1e-15)
        if improvement < _RESIDUAL_TOL or step_size < _STEP_TOL:
            converged = True
            break

    params = MbvdParams(*(float(v) for v in _elements(x)))
    model = admittance(params, freqs)
    rms = float(np.sqrt(np.mean(np.abs(model - target) ** 2)))
    return FitResult(
        params=params,
        rms_residual=rms,
        iterations=iterations,
        converged=converged,
        cost_history=tuple(history),
    )


def result_to_json(result: FitResult) -> dict:
    """JSON-ready dict: element values plus the fit diagnostics."""
    payload = params_to_json(result.params)
    payload.update(
        rms_residual_s=result.rms_residual,
        iterations=result.iterations,
        converged=result.converged,
    )
    return payload
