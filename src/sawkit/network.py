"""One-port network transforms.

S11 <-> admittance conversion, reference-impedance renormalization,
algebraic (Kasa 1976, IEEE T-IM 25:8) circle fitting, and the source
impedance that centers the reflection locus at the Smith-chart origin.
A change of reference impedance is a Moebius map of the admittance, so one
circle fit in the admittance plane gives the reflection circle for every
z0 in closed form, and that impedance is a bound or a root of one of two
quadratics, found without a search or a linear-algebra call.  The tuning
takes the caller's admittance and hands back that circle and whether
z0* sits on a search bound, and passivity_violations counts the samples of
negative conductance; neither is printed here, so a caller records them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateLocus, SingularReflection, TooFewPoints
from .touchstone import OnePortTrace, _as_frequency_grid, _valid_z0

# Re(Y) below -1e-6 S counts as a passivity violation
_PASSIVITY_EPS = 1e-6
# |1 + S11| below this makes the admittance transform singular
_SINGULAR_EPS = 1e-12
_COLLINEAR_TOL = 1e-12
# source tuning searches z0 over [_Z0_MIN, _Z0_MAX] ohms
_Z0_MIN = 1.0
_Z0_MAX = 5000.0


@dataclass(frozen=True)
class AdmittanceTrace:
    """Sampled complex admittance in siemens on a Hz frequency grid."""

    frequencies: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        freqs = _as_frequency_grid(self.frequencies)
        y = np.asarray(self.y, dtype=complex)
        if y.shape != freqs.shape:
            raise ValueError("frequencies and y must have the same length")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class SmithCircle:
    center: complex
    radius: float
    rms_residual: float


class Tuning(NamedTuple):
    """tune_source_impedance's result.

    circle is the Kasa circle of the in-band admittance (siemens), and
    on_bound names the search bound z0_star sits on ("z0_min" or
    "z0_max"), or is None for an interior optimum.
    """

    z0_star: float
    trace: OnePortTrace
    circle: SmithCircle
    on_bound: str | None


def s_to_y(trace: OnePortTrace) -> AdmittanceTrace:
    """Y = (1 - S11) / (z0 (1 + S11)).  Raises SingularReflection near S11 = -1."""
    denom = 1.0 + trace.s11
    if np.any(np.abs(denom) < _SINGULAR_EPS):
        raise SingularReflection("S11 = -1 encountered; admittance is undefined there")
    y = (1.0 - trace.s11) / (trace.z0 * denom)
    return AdmittanceTrace(trace.frequencies, y)


def passivity_violations(trace: AdmittanceTrace) -> tuple[int, float]:
    """(count of samples with Re Y below -1e-6 S, lowest Re Y in siemens).

    A passive one-port has Re Y >= 0 everywhere; a violation points at a
    calibration or de-embedding error, or noise near |S11| = 1.
    """
    conductance = trace.y.real
    return int(np.count_nonzero(conductance < -_PASSIVITY_EPS)), float(conductance.min())


def y_to_s(trace: AdmittanceTrace, z0: float) -> OnePortTrace:
    """S11 = (1 - z0 Y) / (1 + z0 Y) referenced to the given z0.

    z0 must pass OnePortTrace's rule, positive and finite, before any
    arithmetic: an infinite z0 would map every sample to S11 = -1.
    """
    if not _valid_z0(z0):
        raise ValueError("z0 must be positive and finite")
    with np.errstate(invalid="ignore"):
        zy = z0 * trace.y
        s = (1.0 - zy) / (1.0 + zy)
    # a lossless branch sampled exactly on resonance has infinite admittance;
    # the limit is a short, which reflects as -1
    infinite = np.isinf(zy.real) | np.isinf(zy.imag)
    if np.any(infinite):
        s = np.where(infinite, -1.0 + 0.0j, s)
    return OnePortTrace(trace.frequencies, s, z0=z0)


def renormalize(trace: OnePortTrace, z0_new: float) -> OnePortTrace:
    """Re-reference S11 to a new source impedance via the admittance invariant.

    y_to_s refuses a z0_new that is not positive and finite.
    """
    if z0_new == trace.z0:
        return trace
    return replace(y_to_s(s_to_y(trace), z0_new), comments=trace.comments)


def _kasa_circle(points: np.ndarray) -> tuple[complex, float, float]:
    """Algebraic least-squares circle through complex points.

    Minimizes sum((x-cx)^2 + (y-cy)^2 - r^2)^2, which is linear in
    (cx, cy, r^2 - cx^2 - cy^2).  Exact for noiseless circular data.  With
    (u, v) the points less their mean and r2 = u^2 + v^2, that is the 2x2
    system [[Suu, Suv], [Suv, Svv]] c = [S(r2 u), S(r2 v)] / 2: the center
    is the mean plus c and r^2 = |c|^2 + (Suu + Svv) / n.  It is solved on
    the principal axes (half the angle of S(u + jv)^2), where Suv ~ 0 and
    Suu, Svv are the spread's squared singular values to the rounding of
    the points; on other axes the determinant's rounding, ~eps Suu Svv,
    would hide a line.  DegenerateLocus (coincident or collinear points)
    when sigma_min <= 1e-12 max(sigma_max, 1e-30), or when the determinant
    is not positive (non-finite points).
    """
    mean = complex(points.mean())
    centred = points - mean
    spin = (centred * centred).sum()  # Suu - Svv + 2j Suv on any axes
    phi = 0.5 * math.atan2(spin.imag, spin.real)
    axis = complex(math.cos(phi), math.sin(phi))
    w = centred * axis.conjugate()  # u + jv on the principal axes
    u, v = w.real, w.imag
    suu, svv, suv = u @ u, v @ v, u @ v
    det = suu * svv - suv * suv
    if svv <= _COLLINEAR_TOL**2 * max(suu, 1e-60) or not det > 0.0:
        raise DegenerateLocus("samples are coincident or collinear; circle radius unbounded")
    r2 = u * u + v * v
    pu, pv = r2 @ u, r2 @ v
    c = complex(svv * pu - suv * pv, suu * pv - suv * pu) / (2.0 * det)
    radius = math.sqrt(abs(c) ** 2 + (suu + svv) / w.size)
    rms = math.sqrt(np.mean((np.abs(w - c) - radius) ** 2))
    return mean + c * axis, radius, rms


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real parts of np.roots([a, b, c]): leading zeros lower the degree."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:  # a complex pair: its real part, twice
        return [-b / (2.0 * a)] * 2
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))  # no cancellation
    return [q / a, c / q] if q else [0.0, 0.0]


def _in_band(frequencies: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    lo, hi = band
    return (frequencies >= lo) & (frequencies <= hi)


def _band_mask(frequencies: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    """_in_band, raising TooFewPoints when it holds fewer than 5 samples."""
    lo, hi = band
    mask = _in_band(frequencies, band)
    if np.count_nonzero(mask) < 5:
        raise TooFewPoints(
            f"need at least 5 samples in [{lo:g}, {hi:g}] Hz, got {np.count_nonzero(mask)}"
        )
    return mask


def tune_source_impedance(y: AdmittanceTrace, band: tuple[float, float]) -> Tuning:
    """Find the source impedance that centers the in-band S11 locus.

    S11 = (1 - z0 Y) / (1 + z0 Y) is a Moebius map of the admittance, and
    Moebius maps take circles to circles.  So one Kasa circle fit to the
    in-band Y locus, center g + jb and radius r, gives the S-plane circle
    for every z0: with K = g^2 + b^2 - r^2 its center is
    ((1 - K z0^2) - 2j b z0) / (1 + 2 g z0 + K z0^2).  The derivative of
    that center's squared magnitude vanishes only where
    (K z0^2 - 1) (g K z0^2 + 2 (g^2 - r^2) z0 + g) = 0, so the minimizer over
    [1, 5000] ohm is a bound or a real root of one of the two factors.
    Takes the admittance the caller holds, so S11 is converted once per
    extraction.  Returns a Tuning: z0_star, y_to_s(y, z0_star), the in-band
    admittance circle and the bound z0_star sits on, if any.
    """
    mask = _band_mask(y.frequencies, band)
    center, radius, rms = _kasa_circle(y.y[mask])
    # in x = z0 * scale every coefficient below is at most 1 in magnitude
    scale = math.hypot(abs(center), radius)
    g, b, r = center.real / scale, center.imag / scale, radius / scale
    k = g * g + b * b - r * r
    roots = _quadratic_roots(k, 0.0, -1.0) + _quadratic_roots(g * k, 2.0 * (g * g - r * r), g)
    # the real part of a complex root is just one more feasible point, so no
    # tolerance is needed to tell real roots from near-real ones
    z = np.array([_Z0_MIN, _Z0_MAX, *(root / scale for root in roots)])
    z = z[(z >= _Z0_MIN) & (z <= _Z0_MAX)]
    x = z * scale
    offset = np.abs((1.0 - k * x * x - 2j * b * x) / (1.0 + 2.0 * g * x + k * x * x))
    z_star = float(z[np.argmin(offset)])
    on_bound = "z0_min" if z_star == _Z0_MIN else "z0_max" if z_star == _Z0_MAX else None
    return Tuning(z_star, y_to_s(y, z_star), SmithCircle(center, radius, rms), on_bound)
