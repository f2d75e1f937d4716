"""Least-squares mBVD element extraction from an admittance trace.

Damped Gauss-Newton on the logs of the six elements.  Residuals are the
real and imaginary admittance misfits, weighted toward relative error so
the series peak and the parallel notch carry comparable weight.  The
Jacobian is the closed-form dY/dlog(element) of the mBVD kernel, built
from the terms the accepted trial step already evaluated (mbvd._terms,
mbvd._jacobian), so an iteration evaluates the model once per trial step:
never twice at one point of one sample set, never by finite differences.
The weights go into the Jacobian's three base vectors.  Each iteration
makes one call to mbvd._normal_equations, which sums J J^T and J r over
fixed blocks of samples and never holds the whole (6, n) Jacobian; the
"Jacobian is not finite" check reads those sums.  The damping ladder
stops as soon as the damped step is below the step tolerance, since more
damping only shortens it.  A step below it is still taken when it lowers
the cost, then the descent stops.  The procedure is deterministic: no
randomness, fixed traversal order.

The descent runs twice (coarse-to-fine continuation; Madsen, Nielsen &
Tingleff 2004): first on every k-th sample with the weights the whole trace
gives them, then on all samples.  k is the largest stride that keeps 8
samples per motional linewidth f_s/Q_m of the start (at the grid's mean
spacing) and 512 samples in all, so short or very-high-Q traces get k = 1
and no coarse stage.  The full-trace stage starts from whichever of the
start and the coarse result fits the whole trace better, so a misleading
coarse stage costs time but never fit quality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import NegativeStaticCapacitance, NonFiniteResidual, ResonanceNotBracketed
from .extract import SCHEMA_VERSION, AdmittanceTrace, find_fs_fp
from .mbvd import _CM_C0_CAP, MbvdParams, _normal_equations, _terms, derived_fs, params_to_json

# initial_guess reads c_0 on samples farther than this from f_s, relative to f_s
_OFF_RESONANCE = 0.01
# the cap MbvdParams enforces on c_m / c_0, in log space
_LOG_CM_C0_CAP = np.log(_CM_C0_CAP)
# stop when the relative cost improvement of an accepted step drops below this
_RESIDUAL_TOL = 1e-10
# or when a damped step, relative to the parameter vector, is shorter than
# this; such a step is the last one tried, and taken if it lowers the cost
_STEP_TOL = 1e-8
_INITIAL_DAMPING = 1e-3
_DAMPING_FACTOR = 10.0
_MAX_DAMPING = 1e12
# resistances are held at or above this many ohms
_R_FLOOR = 1e-6
# largest accepted per-iteration move of any single log-parameter;
# near-flat directions otherwise produce basin-hopping steps
_MAX_LOG_STEP = 4.0
# the coarse stage keeps at least this many samples per motional linewidth
# of the start, and this many samples in all
_COARSE_SAMPLES_PER_LINEWIDTH = 8
_COARSE_MIN_SAMPLES = 512


@dataclass(frozen=True)
class FitResult:
    """Fitted elements and how the fit got there.

    stop_reason is one of "cost_tolerance" (an accepted step improved the
    cost by less than the tolerance), "step_tolerance" (the damped step
    shrank below the step tolerance; it was taken if it lowered the cost),
    "damping_exhausted" (no damping in range lowered the cost; converged
    tells whether the remaining gap was within tolerance) or
    "iteration_budget"; it and converged describe the full-trace stage.  iterations counts every Jacobian build, the
    coarse_iterations built on every coarse_stride-th sample included
    (coarse_stride 1: there was no coarse stage).  cost_history holds
    whole-trace costs: the start's, the coarse result's when the full-trace
    stage starts from it, then one per accepted full-trace step.
    """

    params: MbvdParams
    rms_residual: float
    iterations: int
    converged: bool
    stop_reason: str
    cost_history: tuple[float, ...] = ()
    coarse_stride: int = 1
    coarse_iterations: int = 0


def initial_guess(trace: AdmittanceTrace) -> MbvdParams:
    """Closed-form start from the resonance pair and the off-resonance susceptance.

    With x = f/f_s, Im Y/omega_s ~ c_0 x + c_m x/(1 - x^2) away from f_s
    (Larson et al. 2000, IEEE Ultrason. Symp.).  c_0 solves that least
    squares on the samples with |x - 1| > 1 %, by Cramer's rule on its 2x2
    normal equations; find_fs_fp's pair gives c_m = c_0 (f_p^2 - f_s^2)/f_s^2
    and l_m = 1/(omega_s^2 c_m).  r_s = 0.5, r_0 = 0.1 and r_m = 1/max|Re Y|
    - r_s, at least half of 1/max|Re Y|.  Raises ResonanceNotBracketed, or
    NegativeStaticCapacitance for c_0 <= 0 (nan: under two samples off resonance).
    """
    f_s, f_p = find_fs_fp(trace)
    omega_s = 2.0 * np.pi * f_s
    x = trace.frequencies / f_s
    off = np.abs(x - 1.0) > _OFF_RESONANCE
    a, c = x[off], trace.y.imag[off] / omega_s
    b = a / (1.0 - a * a)
    ab, bb = a @ b, b @ b
    det = (a @ a) * bb - ab * ab  # > 0 from two samples on: a, b never proportional
    c_0 = float(bb * (a @ c) - ab * (b @ c)) / float(det) if det > 0 else np.nan
    if not c_0 > 0:
        raise NegativeStaticCapacitance(f"static-capacitance estimate {c_0:.3e} F is not positive")
    c_m = c_0 * (f_p**2 - f_s**2) / f_s**2
    resistance = 1.0 / float(np.abs(trace.y.real).max())
    r_m = max(resistance - 0.5, 0.5 * resistance)
    return MbvdParams(r_s=0.5, r_0=0.1, r_m=r_m, l_m=1.0 / (omega_s**2 * c_m), c_m=c_m, c_0=c_0)


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
    """Retune a start so its series resonance sits on the conductance peak.

    fit_mbvd runs this for every start.  For an initial_guess start it is a
    no-op, whose cost is one more find_fs_fp (that start's f_s is already
    find_fs_fp's); supplied starts need it (sawkit fit --init).  A high-Q
    model whose resonance misses the measured peak by more than a few
    linewidths gives the descent nothing to grab: the cheapest local move is
    to flatten the motional branch, a useless basin.  Scaling l_m and c_m by
    a common factor moves f_s and keeps their ratio, so the rest of the
    start survives untouched.  Best-effort: traces without a bracketed peak
    are left alone.
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


class _Samples(NamedTuple):
    """What a descent reads of a trace: angular frequencies, their inverses,
    the measured admittance and its residual weights, on one set of samples."""

    w: np.ndarray
    inv_w: np.ndarray
    target: np.ndarray
    sqrt_weight: np.ndarray

    def every(self, stride: int) -> _Samples:
        """Every stride-th sample, with the weights the full trace gave it."""
        return _Samples(*(np.ascontiguousarray(a[::stride]) for a in self))

    def evaluate(self, x: np.ndarray) -> tuple[tuple, np.ndarray]:
        """Model terms at x and the weighted misfit (2n floats, real and imaginary interleaved)."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            terms = _terms(*_elements(x), self.w, self.inv_w)
            diff = terms[0] - self.target
            diff *= self.sqrt_weight
        return terms, diff.view(float)

    def normal_equations(self, x: np.ndarray, terms: tuple, misfit: np.ndarray):
        """J J^T and J r, with J the (6, 2n) d misfit / d x built from the terms at x."""
        values = _elements(x)
        # a resistance held at the floor does not move with its log-parameter
        values[:3][x[:3] < np.log(_R_FLOOR)] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            return _normal_equations(*values, self.w, self.inv_w, terms, self.sqrt_weight, misfit)


class _Descent(NamedTuple):
    """Where one damped Gauss-Newton descent stopped, the model terms there,
    the accepted costs from its start on, and why it stopped."""

    x: np.ndarray
    terms: tuple
    history: list
    iterations: int
    converged: bool
    stop_reason: str


def _descend(samples: _Samples, x, terms, misfit, max_iterations: int) -> _Descent:
    """Damped Gauss-Newton from x, whose terms and finite misfit on samples are given.

    One Jacobian build per iteration, for at most max_iterations.
    """
    cost = float(misfit @ misfit)
    history = [cost]
    damping = _INITIAL_DAMPING
    identity = np.eye(x.size)
    converged = False
    stop_reason = "iteration_budget"
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jtj, jtr = samples.normal_equations(x, terms, misfit)
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
            # there is nothing left to try at this point but the step itself
            if float(np.linalg.norm(step)) / max(float(np.linalg.norm(x)), 1.0) < _STEP_TOL:
                converged, stop_reason = True, "step_tolerance"
            x_trial = x + step
            # reject steps that leave the parameter sanity region or move
            # too far at once: near-flat directions otherwise carry the
            # iterate arbitrarily far for a vanishing cost change
            if (
                float(np.abs(step).max()) > _MAX_LOG_STEP
                or x_trial[4] >= x_trial[5] + _LOG_CM_C0_CAP
            ):
                if converged:
                    break
                damping *= _DAMPING_FACTOR
                continue
            trial_terms, trial = samples.evaluate(x_trial)
            trial_cost = float(trial @ trial) if np.all(np.isfinite(trial)) else np.inf
            if trial_cost < cost:
                accepted = True
                break
            if converged:
                break
            if np.isfinite(trial_cost):
                best_gap = min(best_gap, trial_cost - cost)
            damping *= _DAMPING_FACTOR
        if not accepted:
            if not converged:
                # no strictly decreasing step exists in the damping range; a
                # vanishing gap means we are sitting at a minimum
                converged = best_gap <= _RESIDUAL_TOL * max(cost, 1e-300)
                stop_reason = "damping_exhausted"
            break
        improvement = (cost - trial_cost) / cost if cost > 0 else 0.0
        x, terms, misfit, cost = x_trial, trial_terms, trial, trial_cost
        history.append(cost)
        damping = max(damping / _DAMPING_FACTOR, 1e-15)
        if converged:
            break
        if improvement < _RESIDUAL_TOL:
            converged, stop_reason = True, "cost_tolerance"
            break
    return _Descent(x, terms, history, iterations, converged, stop_reason)


def _coarse_stride(freqs: np.ndarray, elements: np.ndarray) -> int:
    """Largest stride that keeps enough samples per motional linewidth and in all.

    The linewidth f_s/Q_m = r_m/(2 pi l_m) is the start's; the spacing is the
    grid's mean.  1 means the trace is too short or the resonance too narrow
    for a coarse stage.
    """
    linewidth = elements[2] / (2.0 * np.pi * elements[3])
    spacing = (freqs[-1] - freqs[0]) / (freqs.size - 1)
    by_linewidth = linewidth / (_COARSE_SAMPLES_PER_LINEWIDTH * spacing)
    # every k-th of n samples keeps (n - 1) // k + 1 of them
    by_count = (freqs.size - 1) // (_COARSE_MIN_SAMPLES - 1)
    return max(1, int(min(by_linewidth, by_count)))


def fit_mbvd(
    trace: AdmittanceTrace,
    init: MbvdParams,
    max_iterations: int = 200,
) -> FitResult:
    """Refine mBVD elements against measured admittance.

    The initial point is first retuned onto the measured conductance peak (see
    _align_resonance).  Damped Gauss-Newton then descends on every k-th
    sample (k from _coarse_stride; none when k = 1) and polishes on all of
    them, from whichever of the start and the coarse result fits the whole
    trace better.  max_iterations bounds the Jacobian builds of both stages
    together, and the coarse stage leaves at least one to the full trace.
    Returns best-so-far with converged=False when the iteration budget or
    the damping range is exhausted.  Raises ValueError when
    max_iterations < 1, and NonFiniteResidual when the admittance has a
    non-finite sample or is identically zero, or when the model cannot be
    evaluated at the initial point.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    freqs = trace.frequencies
    target = trace.y
    magnitude = np.abs(target)
    scale = float(magnitude.max())
    # a NaN or infinite sample makes the largest magnitude NaN or inf
    if not scale < np.inf:
        first = freqs[np.argmin(np.isfinite(target))]
        raise NonFiniteResidual(f"admittance is not finite at {float(first)!r} Hz")
    if not scale > 0:
        raise NonFiniteResidual("admittance trace is identically zero")
    w = 2.0 * np.pi * freqs
    full = _Samples(w, 1.0 / w, target, 1.0 / np.maximum(magnitude, 0.01 * scale))

    init = _align_resonance(trace, init)
    x = _log_vector(init)
    terms, misfit = full.evaluate(x)
    if not np.all(np.isfinite(misfit)):
        raise NonFiniteResidual("model admittance is not finite at the initial point")
    history = [float(misfit @ misfit)]
    # a coarse stage needs a budget that leaves the full trace an iteration,
    # and a damping ladder with a rung to try
    can_descend = max_iterations > 1 and _INITIAL_DAMPING <= _MAX_DAMPING
    stride = _coarse_stride(freqs, _elements(x)) if can_descend else 1
    coarse_iterations = 0
    if stride > 1:
        coarse = full.every(stride)
        descent = _descend(coarse, x, *coarse.evaluate(x), max_iterations - 1)
        coarse_iterations = descent.iterations
        # the polish starts from the coarse result only where it fits the
        # whole trace better than the start did
        coarse_terms, coarse_misfit = full.evaluate(descent.x)
        coarse_cost = float(coarse_misfit @ coarse_misfit)
        if coarse_cost < history[0]:
            x, terms, misfit = descent.x, coarse_terms, coarse_misfit
            history.append(coarse_cost)
    polish = _descend(full, x, terms, misfit, max_iterations - coarse_iterations)

    params = MbvdParams(*(float(v) for v in _elements(polish.x)))
    # the kept model is the admittance of exactly these element values
    rms = float(np.sqrt(np.mean(np.abs(polish.terms[0] - target) ** 2)))
    return FitResult(
        params=params,
        rms_residual=rms,
        iterations=coarse_iterations + polish.iterations,
        converged=polish.converged,
        stop_reason=polish.stop_reason,
        # the polish's history opens with the cost it started from
        cost_history=tuple(history + polish.history[1:]),
        coarse_stride=stride,
        coarse_iterations=coarse_iterations,
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
        "coarse_stride": result.coarse_stride,
        "coarse_iterations": result.coarse_iterations,
    }
