"""Modified Butterworth-Van Dyke one-port resonator model.

Topology: a series feed resistance r_s into the parallel combination of the
motional branch (r_m, l_m, c_m in series) and the static branch (c_0 in
series with its dielectric loss r_0).  One kernel, _terms, evaluates it
without complex division and returns the terms _jacobian reuses; the public
functions, synthesis and the fit all run through it.
"""

from __future__ import annotations

import sys
from dataclasses import astuple, dataclass

import numpy as np

from .network import AdmittanceTrace, y_to_s
from .touchstone import OnePortTrace

# pi^2/8 prefactor relating fractional frequency spread to coupling, for
# extract.keff2 as for the element formulas here
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
        # an infinite element evaluates to S11 = -1 or a non-finite model; the
        # bound is the largest float, as an int too large for one is below inf
        for name in ("r_s", "r_0", "r_m"):
            if not 0.0 <= getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("l_m", "c_m", "c_0"):
            if not 0.0 < getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"{name} must be positive and finite")
        # c_m approaching 8*c_0 would put the coupling factor past 100%
        if not self.c_m < 8.0 * self.c_0:
            raise ValueError("c_m must be smaller than 8 * c_0")


def _terms(r_s, r_0, r_m, l_m, c_m, c_0, w, inv_w):
    """One model evaluation on angular frequencies w (inv_w = 1/w): Y, z_m y_0/d, 1/d.

    Y = core/d with core = 1 + z_m y_0 and d = z_m + r_s core, for z_m the
    motional impedance and y_0 the static admittance; the ratio form stays
    finite at exact series resonance with r_m = 0 (z_m = 0, Y = 1/r_s), and
    a vanishing d leaves the terms non-finite.  No complex division, and all
    work past three real and three complex arrays is in place: with b = w c_0,
    y_0 = (b^2 r_0 + j b)/(1 + (b r_0)^2), and 1/d = conj(d)/|d|^2.
    """
    b = w * c_0
    b_r_0 = b * r_0
    scale = np.square(b_r_0)
    scale += 1.0
    zy = np.empty(w.shape, dtype=complex)  # y_0, then z_m y_0
    np.divide(b, scale, out=zy.imag)
    np.multiply(zy.imag, b_r_0, out=zy.real)
    z_m = np.empty(w.shape, dtype=complex)
    z_m.real = r_m
    np.multiply(w, l_m, out=z_m.imag)
    z_m.imag -= np.divide(inv_w, c_m, out=b_r_0)
    zy *= z_m
    y = zy + 1.0  # core, then Y
    d = np.add(z_m, r_s * y, out=z_m)
    np.square(d.real, out=scale)
    scale += np.square(d.imag, out=b)
    np.reciprocal(scale, out=scale)
    inv_d = np.conjugate(d, out=d)
    inv_d *= scale
    y *= inv_d
    zy *= inv_d
    return y, zy, inv_d


def _jacobian(r_s, r_0, r_m, l_m, c_m, c_0, w, inv_w, terms, weight):
    """(6, n) dY/dlog(element) times weight, from the _terms of the same point.

    Rows in the order r_s, r_0, r_m, l_m, c_m, c_0 (Larson et al. 2000, IEEE
    Ultrason. Symp.).  dY/dr_s = -Y^2, dY/dz_m = -1/d^2 and
    dY/dz_0 = -(z_m y_0/d)^2, each times the element's own impedance term:
    r, j w l, or j/(w c) for a capacitor.  No branch is evaluated here, and
    an element passed as 0 gets a zero row.
    """
    rows = np.empty((6,) + w.shape, dtype=complex)
    r_s_row, r_0_row, r_m_row, l_m_row, c_m_row, c_0_row = rows
    # the three weighted squares; the minus signs go into the factors
    for row, term in zip((r_s_row, r_0_row, r_m_row), terms):
        np.square(term, out=row)
        row *= weight
    np.multiply(r_m_row, w, out=l_m_row)
    l_m_row *= -1j * l_m
    np.multiply(r_m_row, inv_w, out=c_m_row)
    c_m_row *= -1j * (1.0 / c_m)
    np.multiply(r_0_row, inv_w, out=c_0_row)
    c_0_row *= -1j * (1.0 / c_0)
    for row, factor in zip((r_s_row, r_0_row, r_m_row), (-r_s, -r_0, -r_m)):
        row *= factor
    return rows


def element_admittance(r_s, r_0, r_m, l_m, c_m, c_0, f):
    """Raw admittance kernel on unchecked element values (what synthesis runs)."""
    w = 2.0 * np.pi * np.atleast_1d(np.asarray(f, dtype=float))  # in-place work needs arrays
    with np.errstate(divide="ignore", invalid="ignore"):
        y = _terms(r_s, r_0, r_m, l_m, c_m, c_0, w, 1.0 / w)[0]
    # a denominator vanished against a unit numerator: the limit is a short;
    # at f = 0 both capacitive branches are open instead, and Y is 0
    y[~np.isfinite(y)] = complex(np.inf, 0.0)
    y[w == 0.0] = 0.0
    return y if np.ndim(f) else y[0]


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
    """Element values hitting a target series resonance, coupling and motional Q.

    q_m = inf is the lossless resonator (r_m = 0); every other value must be
    positive and finite, else ValueError naming it.
    """
    for name, value in (("f_s", f_s), ("c_0", c_0)):
        if not 0.0 < value <= sys.float_info.max:
            raise ValueError(f"{name} must be positive and finite")
    if not 0 < keff2 < 1:
        raise ValueError("keff2 must be a fraction in (0, 1)")
    if not (0.0 < q_m <= sys.float_info.max or q_m == np.inf):
        raise ValueError("q_m must be positive, and finite or inf")
    c_m = c_0 * keff2 / _COUPLING_FACTOR
    w_s = 2.0 * np.pi * f_s
    l_m = 1.0 / (w_s**2 * c_m)
    r_m = 0.0 if q_m == np.inf else w_s * l_m / q_m
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
    try:
        return MbvdParams(*(float(v) for v in values))
    except OverflowError:  # an integer too large for a float
        raise ValueError("params JSON values must be finite numbers") from None
