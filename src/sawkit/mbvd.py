"""Modified Butterworth-Van Dyke one-port resonator model.

Topology: a series feed resistance r_s into the parallel combination of the
motional branch (r_m, l_m, c_m in series) and the static branch (c_0 in
series with its dielectric loss r_0).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .network import AdmittanceTrace, y_to_s
from .touchstone import OnePortTrace

# pi^2/8 prefactor relating fractional frequency spread to coupling
_COUPLING_FACTOR = np.pi**2 / 8.0

_JSON_KEYS = ("r_s_ohm", "r_0_ohm", "r_m_ohm", "l_m_h", "c_m_f", "c_0_f")


@dataclass(frozen=True)
class MbvdParams:
    """Circuit elements in SI units (ohms, henries, farads)."""

    r_s: float
    r_0: float
    r_m: float
    l_m: float
    c_m: float
    c_0: float

    def __post_init__(self):
        for name in ("r_s", "r_0", "r_m"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("l_m", "c_m", "c_0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        # c_m approaching 8*c_0 would put the coupling factor past 100%
        if not self.c_m < 8.0 * self.c_0:
            raise ValueError("c_m must be smaller than 8 * c_0")


def _branches(r_0, r_m, l_m, c_m, c_0, w):
    """Motional-branch impedance z_m and static-branch admittance y_0 at w rad/s."""
    z_m = r_m + 1j * (w * l_m - 1.0 / (w * c_m))
    y_0 = 1j * w * c_0 / (1.0 + 1j * w * c_0 * r_0)
    return z_m, y_0


def element_admittance(r_s, r_0, r_m, l_m, c_m, c_0, f):
    """Raw admittance kernel on unchecked element values (fit hot path)."""
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    scalar = w.ndim == 0
    if scalar:
        # 0-d numpy complex division by zero raises instead of warning
        w = w[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        z_m, y_0 = _branches(r_0, r_m, l_m, c_m, c_0, w)
        # ratio form keeps the value finite when the motional branch hits
        # exact series resonance with r_m = 0 (then z_m = 0 and Y = 1/r_s)
        core = 1.0 + z_m * y_0
        y = core / (z_m + r_s * core)
        bad = ~(np.isfinite(y.real) & np.isfinite(y.imag))
        if np.any(bad):
            # denominator vanished against a unit numerator: the limit is a short
            y = np.where(bad, complex(np.inf, 0.0), y)
    return y[0] if scalar else y


def element_admittance_jacobian(r_s, r_0, r_m, l_m, c_m, c_0, f):
    """dY/dlog(element) of element_admittance on a frequency array.

    Returns a (6, n) complex array, one row per element in the order
    r_s, r_0, r_m, l_m, c_m, c_0 (Larson et al. 2000, IEEE Ultrason. Symp.).
    With d = z_m + r_s core the kernel's denominator and z_0 = 1/y_0:
    dY/dr_s = -(core/d)^2, dY/dz_m = -1/d^2 and dY/dz_0 = -(z_m y_0/d)^2.
    Each row is its branch derivative times the element's own impedance
    term: r, j w l, or j/(w c) for a capacitor.
    """
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z_m, y_0 = _branches(r_0, r_m, l_m, c_m, c_0, w)
        core = 1.0 + z_m * y_0
        inv_d = 1.0 / (z_m + r_s * core)
        d_z_m = -(inv_d * inv_d)
        d_z_0 = d_z_m * (z_m * y_0) ** 2
        return np.stack([
            -r_s * (core * inv_d) ** 2, r_0 * d_z_0, r_m * d_z_m,
            1j * w * l_m * d_z_m, 1j / (w * c_m) * d_z_m, 1j / (w * c_0) * d_z_0,
        ])


def admittance(params: MbvdParams, f):
    """Complex admittance at frequency f in Hz (scalar or array)."""
    y = element_admittance(
        params.r_s, params.r_0, params.r_m, params.l_m, params.c_m, params.c_0, f
    )
    return y if np.ndim(y) else complex(y)


def derived_fs(params: MbvdParams) -> float:
    """Series (motional) resonance frequency in Hz."""
    return 1.0 / (2.0 * np.pi * np.sqrt(params.l_m * params.c_m))


def derived_fp(params: MbvdParams) -> float:
    """Parallel (anti-) resonance frequency in Hz, lossless approximation."""
    return derived_fs(params) * np.sqrt(1.0 + params.c_m / params.c_0)


def derived_keff2(params: MbvdParams) -> float:
    """Effective coupling implied by the element values: (pi^2/8) c_m/c_0."""
    return float(_COUPLING_FACTOR * params.c_m / params.c_0)


def derived_q_m(params: MbvdParams) -> float:
    """Motional quality factor at series resonance; inf when r_m = 0."""
    if params.r_m == 0.0:
        return float("inf")
    return float(2.0 * np.pi * derived_fs(params) * params.l_m / params.r_m)


def params_from_metrics(
    f_s: float,
    keff2: float,
    q_m: float,
    c_0: float,
    r_s: float = 0.0,
    r_0: float = 0.0,
) -> MbvdParams:
    """Element values hitting a target series resonance, coupling and motional Q."""
    if not f_s > 0 or not c_0 > 0:
        raise ValueError("f_s and c_0 must be positive")
    if not 0 < keff2 < 1:
        raise ValueError("keff2 must be a fraction in (0, 1)")
    if not q_m > 0:
        raise ValueError("q_m must be positive")
    c_m = c_0 * keff2 / _COUPLING_FACTOR
    w_s = 2.0 * np.pi * f_s
    l_m = 1.0 / (w_s**2 * c_m)
    r_m = 0.0 if np.isinf(q_m) else w_s * l_m / q_m
    return MbvdParams(r_s=r_s, r_0=r_0, r_m=r_m, l_m=l_m, c_m=c_m, c_0=c_0)


def synthesize_s11(params: MbvdParams, frequencies, z0: float = 50.0) -> OnePortTrace:
    """Model S11 on a frequency grid, referenced to z0."""
    grid = np.asarray(frequencies, dtype=float)
    y = AdmittanceTrace(grid, element_admittance(
        params.r_s, params.r_0, params.r_m, params.l_m, params.c_m, params.c_0, grid
    ))
    return y_to_s(y, z0)


def params_to_json(params: MbvdParams) -> dict:
    """Flat JSON-ready dict with SI-unit keys."""
    return dict(zip(_JSON_KEYS, astuple(params)))


def params_from_json(obj: dict) -> MbvdParams:
    """Inverse of params_to_json; unknown keys are ignored."""
    missing = [k for k in _JSON_KEYS if k not in obj]
    if missing:
        raise ValueError(f"params JSON missing keys: {', '.join(missing)}")
    values = [obj[k] for k in _JSON_KEYS]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ValueError("params JSON values must be numbers")
    return MbvdParams(*(float(v) for v in values))
