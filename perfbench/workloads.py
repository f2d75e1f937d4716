"""The three workloads: seeded inputs, one request each, and its output check.

Every workload is a closed loop with one client.  ``run`` is the timed
request; ``check`` runs outside the timed region and returns
(passed, accuracy errors) for that request's output.  sawkit functions are
looked up on their modules at call time, so traced runs go through the
wrappers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import reference as ref

EXTRACT_POINTS = 4001
FIT_POINTS = 16001
SWEEP_ROWS = 200
SCALE_TARGETS = 20
DESIGN_REQUESTS = 32
# bisection tolerance passed to scale_to_frequency (its default)
SCALE_REL_TOL = 1e-4
# an extracted f_s must sit this close (relative) to one series-resonance
# definition of the generating circuit
FS_TOL = 5e-4
# the same for a noisy trace: the noise moves the extracted f_s, most on the
# lowest-Q device E (2.5e-4 rms, 6.2e-4 at worst over 80 noise draws), so
# this is 4 times E's rms
NOISY_FS_TOL = 1e-3
ELEMENT_TOL = 0.02
# series_resonances(): points per search grid, and zoom steps after the first
PEAK_POINTS = 2001
PEAK_ZOOMS = 3


@dataclass
class Die:
    """One device: a narrow-span trace for extract and a wide-span one for fit.

    The Touchstone texts are formatted on first use, so a workload pays only
    for the span it sends.
    """

    device: str
    noisy: bool
    grid_narrow: np.ndarray = field(repr=False)
    s_narrow: np.ndarray = field(repr=False)
    grid_wide: np.ndarray = field(repr=False)
    s_wide: np.ndarray = field(repr=False)

    @cached_property
    def extract_text(self) -> str:
        return ref.format_touchstone(self.grid_narrow, self.s_narrow, self._comment)

    @cached_property
    def fit_text(self) -> str:
        return ref.format_touchstone(self.grid_wide, self.s_wide, self._comment)

    @property
    def _comment(self) -> str:
        return f"device {self.device} {'sigma 1e-3' if self.noisy else 'clean'}"


def make_dies(seed: int) -> list[Die]:
    """Six fixture devices, each clean and with seeded noise, in seeded order."""
    rng = np.random.default_rng(seed)
    dies = []
    for device in ref.DEVICES:
        el = ref.device_elements(device)
        narrow = ref.grid(device, EXTRACT_POINTS, wide=False)
        wide = ref.grid(device, FIT_POINTS, wide=True)
        for is_noisy in (False, True):
            s_narrow = ref.s11(el, narrow)
            s_wide = ref.s11(el, wide)
            if is_noisy:
                s_narrow = ref.noisy(s_narrow, rng)
                s_wide = ref.noisy(s_wide, rng)
            dies.append(Die(device, is_noisy, narrow, s_narrow, wide, s_wide))
    order = rng.permutation(len(dies))
    return [dies[i] for i in order]


# --- output checks ------------------------------------------------------

def check_report(die: Die, text: str, resonances: dict) -> tuple[bool, dict]:
    report = json.loads(text)
    _, f_target, k_target, q_target = ref.DEVICES[die.device]
    scalars = ("f_s_hz", "f_p_hz", "keff2", "y_ratio", "y_ratio_db", "q_max", "fom", "z0_star_ohm")
    finite = all(isinstance(report[k], (int, float)) and math.isfinite(report[k]) for k in scalars)
    f_s = report["f_s_hz"]
    nearest = min(abs(f_s / f - 1.0) for f in resonances[die.device])
    errors = {
        "fs_err_rel": abs(f_s / f_target - 1.0),
        "keff2_err_pt": abs(report["keff2"] - k_target) * 100.0,
        "q_err_rel": abs(report["q_max"] - q_target) / q_target,
        # f_s against the motional target alone; printed, not a failure
        "fs_target_miss": float(abs(f_s / f_target - 1.0) > FS_TOL),
    }
    return finite and nearest <= (NOISY_FS_TOL if die.noisy else FS_TOL), errors


def check_fit(die: Die, text: str) -> tuple[bool, dict, ref.Elements]:
    """(passed, accuracy errors, fitted elements) for a fit result JSON."""
    obj = json.loads(text)
    params = obj.get("params", obj)
    el = ref.device_elements(die.device)
    fitted = ref.Elements(*(float(params[k]) for k in
                            ("r_s_ohm", "r_0_ohm", "r_m_ohm", "l_m_h", "c_m_f", "c_0_f")))
    elem_err = max(abs(getattr(fitted, k) / getattr(el, k) - 1.0) for k in ("l_m", "c_m", "c_0"))
    _, f_target, k_target, q_target = ref.DEVICES[die.device]
    w_s = 2.0 * np.pi * fitted.f_s
    errors = {
        "elem_err_rel": elem_err,
        "fs_err_rel": abs(fitted.f_s / f_target - 1.0),
        "keff2_err_pt": abs(np.pi**2 / 8.0 * fitted.c_m / fitted.c_0 - k_target) * 100.0,
        "q_err_rel": abs(w_s * fitted.l_m / fitted.r_m - q_target) / q_target,
    }
    return bool(obj["converged"]) and elem_err < ELEMENT_TOL, errors, fitted


def _peak(el: ref.Elements, part) -> float:
    """Frequency within 2 % of f_s where part(Y) of the true circuit peaks.

    A coarse grid, then PEAK_ZOOMS grids of PEAK_POINTS each around the best
    point so far; every array stays a few tens of kB.
    """
    lo, hi = 0.98 * el.f_s, 1.02 * el.f_s
    for _ in range(PEAK_ZOOMS + 1):
        f = np.linspace(lo, hi, PEAK_POINTS)
        s = ref.s11(el, f)
        best = f[np.argmax(part((1.0 - s) / (ref.Z0 * (1.0 + s))))]
        step = f[1] - f[0]
        lo, hi = best - 2.0 * step, best + 2.0 * step
    return float(best)


def series_resonances() -> dict:
    """Per device: motional f_s, |Y|-peak and Re(Y)-peak of the true circuit."""
    out = {}
    for device in ref.DEVICES:
        el = ref.device_elements(device)
        out[device] = (float(el.f_s), _peak(el, np.abs), _peak(el, np.real))
    return out


# --- workloads ----------------------------------------------------------

class ExtractBatch:
    """parse -> full_extraction -> report_to_json -> json.dumps, 4001 points."""

    name = "extract_batch"
    size = f"{EXTRACT_POINTS} points, narrow span, 12 traces"

    def __init__(self, sawkit, root: Path, seed: int):
        self.sk = sawkit
        self.pool = make_dies(seed)
        self.pass_len = len(self.pool)
        self.resonances = series_resonances()

    def run(self, die: Die):
        sk = self.sk
        trace, _ = sk.touchstone.parse_touchstone(die.extract_text)
        options = sk.extract.ExtractOptions(smooth_window=ref.SMOOTH_WINDOW if die.noisy else None)
        report = sk.extract.full_extraction(trace, options)
        lambda_nm = ref.DEVICES[die.device][0]
        return json.dumps(sk.extract.report_to_json(report, device=die.device, lambda_nm=lambda_nm))

    def check(self, die: Die, out) -> tuple[bool, dict]:
        return check_report(die, out, self.resonances)


class FitBatch:
    """parse -> s_to_y -> initial_guess -> fit_mbvd -> synthesize -> write, 16001 points."""

    name = "fit_batch"
    size = f"{FIT_POINTS} points, wide span, 12 traces"

    def __init__(self, sawkit, root: Path, seed: int):
        self.sk = sawkit
        self.pool = make_dies(seed)
        self.pass_len = len(self.pool)

    def run(self, die: Die):
        sk = self.sk
        trace, fmt = sk.touchstone.parse_touchstone(die.fit_text)
        admittance = sk.network.s_to_y(trace)
        result = sk.fit.fit_mbvd(admittance, sk.fit.initial_guess(admittance))
        model = sk.mbvd.synthesize_s11(result.params, trace.frequencies, trace.z0)
        model_text = sk.touchstone.write_touchstone(model, fmt)
        return json.dumps(sk.fit.result_to_json(result)), model_text

    def check(self, die: Die, out) -> tuple[bool, dict]:
        result_text, model_text = out
        ok, errors, fitted = check_fit(die, result_text)
        freqs, s, z0 = ref.read_touchstone(model_text)
        same_grid = freqs.shape == die.grid_wide.shape and np.allclose(
            freqs, die.grid_wide, rtol=1e-11, atol=0.0)
        model_ok = same_grid and z0 == ref.Z0 and np.abs(s - ref.s11(fitted, freqs)).max() < 1e-9
        return ok and bool(model_ok), errors


@dataclass
class DesignRequest:
    geometry_args: tuple
    wavelengths: list
    targets: list


class DesignSweep:
    """One sweep over 200 wavelengths plus scale_to_frequency for 20 targets."""

    name = "design_sweep"
    size = f"{SWEEP_ROWS} sweep rows + {SCALE_TARGETS} rescales per request, {DESIGN_REQUESTS} geometries"

    def __init__(self, sawkit, root: Path, seed: int):
        self.sk = sawkit
        self.ref = ref.DispersionReference(root / "src" / "sawkit" / "data" / "dispersion.csv")
        rng = np.random.default_rng(seed)
        lo, hi = self.ref.ratios[0], self.ref.ratios[-1]
        self.pool = []
        # duty 0.6 has no anchors and falls back to the 50 % group with a
        # warning, which costs ~12 % more.  A fixed quarter of the requests get
        # it, in seeded order, so the latency median stays inside one mode
        duties = rng.permutation([0.5] * (DESIGN_REQUESTS * 3 // 4) + [0.6] * (DESIGN_REQUESTS // 4))
        for duty in duties:
            h_ln = rng.uniform(0.5e-6, 0.9e-6)
            # thickness ratios reach ~10 % past both ends of the hull on purpose;
            # one draw per equal-width stratum keeps the out-of-hull share fixed
            strata = (np.arange(SWEEP_ROWS) + rng.random(SWEEP_ROWS)) / SWEEP_ROWS
            ratios = rng.permutation(0.9 * lo + strata * (1.1 * hi - 0.9 * lo))
            f_min, f_max = self.ref.f_range(h_ln)
            targets = rng.uniform(f_min * 1.001, f_max * 0.999, SCALE_TARGETS)
            self.pool.append(DesignRequest(
                (float(h_ln / ratios[0]), float(h_ln), 40e-9, float(duty)),
                [float(h_ln / r) for r in ratios],
                [float(t) for t in targets],
            ))
        self.pass_len = len(self.pool)

    def run(self, req: DesignRequest):
        design = self.sk.design
        table = design.builtin_dispersion_table()
        base = design.DeviceGeometry(*req.geometry_args)
        rows = design.sweep(base, "lambda", req.wavelengths, table)
        h_ln = req.geometry_args[1]
        return rows, [design.scale_to_frequency(t, h_ln, table, rel_tol=SCALE_REL_TOL)
                      for t in req.targets]

    def check(self, req: DesignRequest, out) -> tuple[bool, dict]:
        rows, wavelengths = out
        h_ln = req.geometry_args[1]
        lo, hi = self.ref.ratios[0], self.ref.ratios[-1]
        ok = len(rows) == len(req.wavelengths)
        worst = 0.0
        for row, lam in zip(rows, req.wavelengths):
            ratio = h_ln / lam
            if lo * (1 + 1e-8) < ratio < hi * (1 - 1e-8):
                if row.f_s is None:
                    ok = False
                    continue
                err = abs(row.f_s / self.ref.f_s(h_ln, lam) - 1.0)
                ok &= err <= 1e-9
                worst = max(worst, err)
            elif not (lo * (1 - 1e-8) <= ratio <= hi * (1 + 1e-8)):
                ok &= row.error is not None
        for target, lam in zip(req.targets, wavelengths):
            err = abs(self.ref.f_s(h_ln, lam) / target - 1.0)
            ok &= err <= SCALE_REL_TOL
            worst = max(worst, err)
        return bool(ok), {"fs_err_rel": worst}


WORKLOADS = {w.name: w for w in (ExtractBatch, FitBatch, DesignSweep)}

