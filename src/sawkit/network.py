"""One-port network transforms.

S11 <-> admittance conversion, reference-impedance renormalization,
algebraic (Kasa 1976, IEEE T-IM 25:8) circle fitting, and the source
impedance that centers the reflection locus at the Smith-chart origin.
A change of reference impedance is a Moebius map of the admittance, so one
circle fit in the admittance plane gives the reflection circle for every
z0 in closed form, and that impedance is found without a search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateLocus, SingularReflection, TooFewPoints
from .touchstone import OnePortTrace, _as_frequency_grid

# Re(Y) below -1e-6 S on a supposedly passive trace draws a warning
_PASSIVITY_EPS = 1e-6
# |1 + S11| below this makes the admittance transform singular
_SINGULAR_EPS = 1e-12
_COLLINEAR_TOL = 1e-12


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


def s_to_y(trace: OnePortTrace) -> AdmittanceTrace:
    """Y = (1 - S11) / (z0 (1 + S11)).  Raises SingularReflection near S11 = -1."""
    denom = 1.0 + trace.s11
    if np.any(np.abs(denom) < _SINGULAR_EPS):
        raise SingularReflection("S11 = -1 encountered; admittance is undefined there")
    y = (1.0 - trace.s11) / (trace.z0 * denom)
    if np.any(y.real < -_PASSIVITY_EPS):
        warnings.warn(
            f"conductance below -{_PASSIVITY_EPS:g} S; trace may not be passive",
            stacklevel=2,
        )
    return AdmittanceTrace(trace.frequencies, y)


def y_to_s(trace: AdmittanceTrace, z0: float) -> OnePortTrace:
    """S11 = (1 - z0 Y) / (1 + z0 Y) referenced to the given z0."""
    if not z0 > 0:
        raise ValueError("z0 must be positive")
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
    """Re-reference S11 to a new source impedance via the admittance invariant."""
    if not z0_new > 0:
        raise ValueError("z0 must be positive")
    if z0_new == trace.z0:
        return trace
    return replace(y_to_s(s_to_y(trace), z0_new), comments=trace.comments)


def _kasa_circle(points: np.ndarray) -> tuple[complex, float, float]:
    """Algebraic least-squares circle through complex points.

    Minimizes sum((x-cx)^2 + (y-cy)^2 - r^2)^2, which is linear in
    (cx, cy, r^2 - cx^2 - cy^2).  Exact for noiseless circular data.
    """
    x = points.real
    y = points.imag
    spread = np.column_stack([x - x.mean(), y - y.mean()])
    singular_values = np.linalg.svd(spread, compute_uv=False)
    if singular_values[-1] <= _COLLINEAR_TOL * max(singular_values[0], 1e-30):
        raise DegenerateLocus("samples are coincident or collinear; circle radius unbounded")
    coeffs = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    rhs = x * x + y * y
    (cx, cy, c), *_ = np.linalg.lstsq(coeffs, rhs, rcond=None)
    radius = float(np.sqrt(max(c + cx * cx + cy * cy, 0.0)))
    distances = np.hypot(x - cx, y - cy)
    rms = float(np.sqrt(np.mean((distances - radius) ** 2)))
    return complex(cx, cy), radius, rms


def _band_mask(frequencies: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    lo, hi = band
    mask = (frequencies >= lo) & (frequencies <= hi)
    if np.count_nonzero(mask) < 5:
        raise TooFewPoints(
            f"need at least 5 samples in [{lo:g}, {hi:g}] Hz, got {np.count_nonzero(mask)}"
        )
    return mask


def fit_smith_circle(trace: OnePortTrace, band: tuple[float, float]) -> SmithCircle:
    """Fit a circle to the S11 locus restricted to a frequency band."""
    mask = _band_mask(trace.frequencies, band)
    center, radius, rms = _kasa_circle(trace.s11[mask])
    return SmithCircle(center=center, radius=radius, rms_residual=rms)


def tune_source_impedance(
    trace: OnePortTrace,
    band: tuple[float, float],
    z0_min: float = 1.0,
    z0_max: float = 5000.0,
) -> tuple[float, OnePortTrace]:
    """Find the source impedance that centers the in-band S11 locus.

    S11 = (1 - z0 Y) / (1 + z0 Y) is a Moebius map of the admittance, and
    Moebius maps take circles to circles.  So one Kasa circle fit to the
    in-band Y locus, center g + jb and radius r, gives the S-plane circle
    for every z0: with K = g^2 + b^2 - r^2 its center is
    ((1 - K z0^2) - 2j b z0) / (1 + 2 g z0 + K z0^2).  The derivative of
    that center's squared magnitude vanishes only where
    (K z0^2 - 1) (g K z0^2 + 2 (g^2 - r^2) z0 + g) = 0, so the minimizer over
    [z0_min, z0_max] is a bound or a real root of one of the two factors.
    Returns (z0_star, trace renormalized to z0_star).
    """
    if not 0 < z0_min < z0_max:
        raise ValueError("need 0 < z0_min < z0_max")
    mask = _band_mask(trace.frequencies, band)
    y = s_to_y(trace)
    center, radius, _ = _kasa_circle(y.y[mask])
    # in x = z0 * scale every coefficient below is at most 1 in magnitude
    scale = np.hypot(abs(center), radius)
    g, b, r = center.real / scale, center.imag / scale, radius / scale
    k = g * g + b * b - r * r
    roots = np.concatenate([np.roots([k, 0.0, -1.0]), np.roots([g * k, 2.0 * (g * g - r * r), g])])
    # the real part of a complex root is just one more feasible point, so no
    # tolerance is needed to tell real roots from near-real ones
    z = np.array([z0_min, z0_max, *(roots.real / scale)])
    z = z[(z >= z0_min) & (z <= z0_max)]
    x = z * scale
    offset = np.abs((1.0 - k * x * x - 2j * b * x) / (1.0 + 2.0 * g * x + k * x * x))
    z_star = float(z[np.argmin(offset)])
    return z_star, replace(y_to_s(y, z_star), comments=trace.comments)
