"""Resonator metrics from a one-port trace.

Locates the series/parallel resonance pair on the admittance magnitude,
computes the effective coupling from the frequency spread, the series-to-
parallel admittance ratio, and a reflection-derived quality factor
Q(w) = w |dS11/dw| / (1 - |S11|^2) evaluated after centering the Smith
locus with a tuned source impedance.

The report records how it was computed in a Diagnostics record: bands and
their sample counts, the admittance circle the tuning fitted, whether z0*
sits on a search bound, flagged Q samples and passivity violations.  Its
JSON form (schema 2) holds scalars and that record only; the Bode-Q curve
stays in memory on ExtractionReport.q_bode.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EmptyBand, ResonanceNotBracketed, TooFewPoints
from .mbvd import _COUPLING_FACTOR
from .network import AdmittanceTrace, _in_band, passivity_violations, s_to_y, tune_source_impedance
from .touchstone import OnePortTrace

# samples where 1 - |S11|^2 falls below this are flagged, not evaluated
Q_FLAG_EPS = 1e-6

CSV_HEADER = "device,lambda_nm,f_s_GHz,keff2_pct,q_max,fom"

# version stamped on fit and fixture-parameter JSON
SCHEMA_VERSION = 1
# version stamped on report JSON: 2 carries diagnostics instead of the q_bode lists
REPORT_SCHEMA_VERSION = 2

# the only resonance definition find_fs_fp implements
RESONANCE_DEFINITION = "abs_y_extrema"


class AdmittanceRatio(NamedTuple):
    linear: float
    db: float


@dataclass(frozen=True)
class QTrace:
    """Bode-Q samples; flagged holds frequencies where the formula is singular."""

    frequencies: np.ndarray
    q: np.ndarray
    flagged: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if freqs.shape != q.shape:
            raise ValueError("frequencies and q must have the same length")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "flagged", np.asarray(self.flagged, dtype=float))


@dataclass(frozen=True)
class Diagnostics:
    """How full_extraction reached its report; plain Python values only.

    Bands are (lo, hi) in Hz.  The y_circle values are the Kasa fit to the
    in-band admittance that source tuning used, in siemens.  z0_on_bound
    is "z0_min", "z0_max" or None.  passivity_violations counts samples
    with Re Y < -1e-6 S; worst_conductance_s is the lowest Re Y of the
    trace.
    """

    resonance_definition: str
    tune_band_hz: tuple[float, float]
    tune_band_samples: int
    q_band_hz: tuple[float, float]
    q_band_unflagged_samples: int
    y_circle_radius_s: float
    y_circle_rms_residual_s: float
    z0_on_bound: str | None
    q_flagged_samples: int
    passivity_violations: int
    worst_conductance_s: float


@dataclass(frozen=True)
class ExtractionReport:
    f_s: float
    f_p: float
    keff2: float
    y_ratio: float
    y_ratio_db: float
    q_bode: QTrace
    q_max: float
    fom: float
    z0_star: float
    diagnostics: Diagnostics


@dataclass(frozen=True)
class ExtractOptions:
    """Band overrides in Hz; None means derive the band from (f_s, f_p).

    A band given is (lo, hi), both finite with lo < hi, and a smooth_window
    given is an odd int >= 5 (bode_q checks it against the trace), else ValueError.
    """

    tune_band: tuple[float, float] | None = None
    qmax_band: tuple[float, float] | None = None
    smooth_window: int | None = None

    def __post_init__(self):
        for name in ("tune_band", "qmax_band"):
            band = getattr(self, name)
            if band is not None:
                try:
                    lo, hi = map(float, band)
                except OverflowError:  # an integer too large for a float
                    lo = hi = np.inf
                if not -np.inf < lo < hi < np.inf:
                    raise ValueError(f"{name} must be finite with lo < hi")
                object.__setattr__(self, name, (lo, hi))
        if self.smooth_window is not None:
            _check_smooth_window(self.smooth_window)


def _parabolic_refine(x: np.ndarray, v: np.ndarray, i: int) -> float:
    """Vertex of the parabola through samples i-1, i, i+1, clamped to that window."""
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    d0 = (v[i] - v[i - 1]) / (x1 - x0)
    d1 = (v[i + 1] - v[i]) / (x2 - x1)
    curvature = (d1 - d0) / (x2 - x0)
    if curvature == 0.0:
        return float(x1)
    vertex = 0.5 * (x0 + x1) - d0 / (2.0 * curvature)
    return float(min(max(vertex, x0), x2))


def find_fs_fp(trace: AdmittanceTrace) -> tuple[float, float]:
    """Series and parallel resonance from the |Y| extrema.

    The grid extrema are refined by 3-point parabolic interpolation of
    log|Y|.  Raises ResonanceNotBracketed when either extremum sits on a
    grid endpoint.
    """
    magnitude = np.abs(trace.y)
    log_mag = np.log(np.maximum(magnitude, 1e-300))
    i_s = int(np.argmax(magnitude))
    if i_s == 0 or i_s == magnitude.size - 1:
        raise ResonanceNotBracketed(
            "resonance not bracketed: |Y| maximum sits at a grid endpoint"
        )
    i_p = i_s + 1 + int(np.argmin(magnitude[i_s + 1 :]))
    if i_p == magnitude.size - 1:
        raise ResonanceNotBracketed(
            "resonance not bracketed: no interior |Y| minimum above the series peak"
        )
    f_s = _parabolic_refine(trace.frequencies, log_mag, i_s)
    f_p = _parabolic_refine(trace.frequencies, log_mag, i_p)
    return f_s, f_p


def keff2(f_s: float, f_p: float) -> float:
    """Effective coupling (pi^2/8) (f_p^2 - f_s^2) / f_s^2 as a fraction."""
    if not f_s > 0:
        raise DomainError("f_s must be positive")
    if f_p < f_s:
        raise DomainError(f"f_p ({f_p:g} Hz) must not be below f_s ({f_s:g} Hz)")
    return float(_COUPLING_FACTOR * (f_p**2 - f_s**2) / f_s**2)


def admittance_ratio(trace: AdmittanceTrace, f_s: float, f_p: float) -> AdmittanceRatio:
    """|Y(f_s)| / |Y(f_p)| at the nearest grid samples, linear and in dB."""
    freqs = trace.frequencies
    for value, name in ((f_s, "f_s"), (f_p, "f_p")):
        if not freqs[0] <= value <= freqs[-1]:
            raise DomainError(f"{name} = {value:g} Hz lies outside the trace span")
    i_s = int(np.argmin(np.abs(freqs - f_s)))
    i_p = int(np.argmin(np.abs(freqs - f_p)))
    ratio = float(np.abs(trace.y[i_s]) / np.abs(trace.y[i_p]))
    return AdmittanceRatio(linear=ratio, db=float(20.0 * np.log10(ratio)))


@functools.lru_cache(maxsize=16)
def _savgol_basis(window: int) -> tuple[np.ndarray, np.ndarray]:
    """(Vandermonde matrix, its pseudo-inverse) of the cubic on one window, read-only."""
    half = window // 2
    # offsets scaled to [-1, 1] keep the Vandermonde matrix well conditioned
    vander = np.vander(np.arange(-half, half + 1) / half, 4, increasing=True)
    fit = np.linalg.pinv(vander)  # window samples -> cubic coefficients
    vander.flags.writeable = fit.flags.writeable = False
    return vander, fit


def _savgol_cubic(x: np.ndarray, window: int) -> np.ndarray:
    """Cubic Savitzky-Golay smoothing (Savitzky & Golay 1964, Anal. Chem. 36:1627).

    Each interior sample becomes the value at its centre of the least-squares
    cubic through its odd-length window; the first and last window // 2
    samples take the cubic fitted to the first and last window.  Needs
    5 <= window <= x.size, window odd.  The basis depends on the window
    alone, so _savgol_basis builds it once per window size.
    """
    half = window // 2
    vander, fit = _savgol_basis(window)
    # the fitted cubic at the centre is its constant term; fit[0] is
    # symmetric, so convolving with it is correlating
    y = np.convolve(x, fit[0], mode="same")
    y[:half] = vander[:half] @ (fit @ x[:window])
    y[-half:] = vander[half + 1 :] @ (fit @ x[-window:])
    return y


def _check_smooth_window(window) -> None:
    """Raise ValueError unless the Savitzky-Golay window is an odd int >= 5."""
    if not isinstance(window, (int, np.integer)):
        raise ValueError("smooth_window must be an int")
    if window % 2 == 0 or window < 5:
        raise ValueError("smooth_window must be odd and >= 5")


def bode_q(trace: OnePortTrace, smooth_window: int | None = None) -> QTrace:
    """Reflection-derived Q(w) = w |dS11/dw| / (1 - |S11|^2).

    Central differences on the (possibly non-uniform) angular-frequency
    grid, one-sided at the endpoints.  Samples too close to |S11| = 1 are
    returned in .flagged instead of producing huge values.  Optional
    smoothing runs the in-house cubic Savitzky-Golay filter _savgol_cubic
    on S11 (near-uniform spacing assumed); its edge samples take the cubic
    fitted to the first or last full window, like scipy's mode="interp".
    """
    if trace.frequencies.size < 3:
        raise TooFewPoints("need at least 3 samples to differentiate S11")
    s = trace.s11
    if smooth_window is not None:
        _check_smooth_window(smooth_window)
        if smooth_window > s.size:
            raise ValueError("smooth_window exceeds the trace length")
        s = _savgol_cubic(s, smooth_window)
    omega = 2.0 * np.pi * trace.frequencies
    denominator = 1.0 - np.abs(s) ** 2
    derivative = np.gradient(s, omega)
    ok = denominator >= Q_FLAG_EPS
    q = omega[ok] * np.abs(derivative[ok]) / denominator[ok]
    return QTrace(trace.frequencies[ok], q, trace.frequencies[~ok])


def _tune_band(f_s: float, f_p: float) -> tuple[float, float]:
    """Default source-tuning band [0.98 f_s, 1.02 f_p]; fit.initial_guess seeds from its circle."""
    return (0.98 * f_s, 1.02 * f_p)


def q_max(q_trace: QTrace, band: tuple[float, float]) -> float:
    """Highest unflagged Bode-Q inside the band."""
    lo, hi = band
    mask = _in_band(q_trace.frequencies, band)
    if not np.any(mask):
        raise EmptyBand(f"no unflagged Bode-Q samples in [{lo:g}, {hi:g}] Hz")
    return float(np.max(q_trace.q[mask]))


def fom(keff2: float, q_max: float) -> float:
    """Figure of merit keff2 * q_max."""
    if keff2 < 0 or q_max < 0:
        raise DomainError("fom arguments must be non-negative")
    return float(keff2 * q_max)


def full_extraction(
    trace: OnePortTrace, options: ExtractOptions | None = None
) -> ExtractionReport:
    """Run the whole metric pipeline on a measured or synthesized trace.

    Defaults: source-impedance tuning over [0.98 f_s, 1.02 f_p], Q search
    over [0.9 f_s, 1.1 f_p].  The report's diagnostics record those bands,
    the tuning's circle and bound, and the flagged and non-passive samples.
    """
    opts = options or ExtractOptions()
    y = s_to_y(trace)
    f_s, f_p = find_fs_fp(y)
    coupling = keff2(f_s, f_p)
    ratio = admittance_ratio(y, f_s, f_p)
    tune_band = opts.tune_band or _tune_band(f_s, f_p)
    tuning = tune_source_impedance(y, tune_band)
    q_trace = bode_q(tuning.trace, opts.smooth_window)
    search_band = opts.qmax_band or (0.9 * f_s, 1.1 * f_p)
    best_q = q_max(q_trace, search_band)
    violations, worst_conductance = passivity_violations(y)
    tune_samples = np.count_nonzero(_in_band(y.frequencies, tune_band))
    q_samples = np.count_nonzero(_in_band(q_trace.frequencies, search_band))
    diagnostics = Diagnostics(
        resonance_definition=RESONANCE_DEFINITION,
        tune_band_hz=tune_band,
        tune_band_samples=int(tune_samples),
        q_band_hz=search_band,
        q_band_unflagged_samples=int(q_samples),
        y_circle_radius_s=tuning.circle.radius,
        y_circle_rms_residual_s=tuning.circle.rms_residual,
        z0_on_bound=tuning.on_bound,
        q_flagged_samples=int(q_trace.flagged.size),
        passivity_violations=violations,
        worst_conductance_s=worst_conductance,
    )
    return ExtractionReport(
        f_s=f_s,
        f_p=f_p,
        keff2=coupling,
        y_ratio=ratio.linear,
        y_ratio_db=ratio.db,
        q_bode=q_trace,
        q_max=best_q,
        fom=fom(coupling, best_q),
        z0_star=tuning.z0_star,
        diagnostics=diagnostics,
    )


def format_number(x: float) -> str:
    """Six significant digits, as every summary table and line prints them."""
    return f"{x:.6g}"


def check_lambda_nm(lambda_nm: float | None) -> None:
    """Raise ValueError unless the summary wavelength is None or positive and finite.

    The bound is the largest float, not inf: an int too large for a float
    still compares below inf.
    """
    if lambda_nm is not None and not 0.0 < lambda_nm <= sys.float_info.max:
        raise ValueError("lambda_nm must be positive and finite")


def report_to_json(
    report: ExtractionReport,
    device: str | None = None,
    lambda_nm: float | None = None,
) -> dict:
    """Report schema 2 as a JSON-ready dict with SI units.

    Scalars and a "diagnostics" object, whose bands are [lo, hi] lists;
    the Bode-Q curve is not included (the CLI writes it with --q-trace).
    """
    check_lambda_nm(lambda_nm)
    diagnostics = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(report.diagnostics).items()
    }
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "device": device,
        "lambda_nm": lambda_nm,
        "f_s_hz": report.f_s,
        "f_p_hz": report.f_p,
        "keff2": report.keff2,
        "y_ratio": report.y_ratio,
        "y_ratio_db": report.y_ratio_db,
        "q_max": report.q_max,
        "fom": report.fom,
        "z0_star_ohm": report.z0_star,
        "diagnostics": diagnostics,
    }


def summary_fields(
    device: str, lambda_nm: float | None, f_s: float, keff2: float, q_max: float, fom: float
) -> list[str]:
    """The CSV_HEADER fields of one device: f_s in GHz, keff2 in percent."""
    check_lambda_nm(lambda_nm)
    lambda_field = "" if lambda_nm is None else format_number(lambda_nm)
    return [device, lambda_field, *map(format_number, (f_s / 1e9, keff2 * 100, q_max, fom))]


def report_csv_row(
    report: ExtractionReport,
    device: str = "",
    lambda_nm: float | None = None,
) -> str:
    """One CSV row matching CSV_HEADER; GHz and percent, 6 significant digits."""
    fields = summary_fields(device, lambda_nm, report.f_s, report.keff2, report.q_max, report.fom)
    return ",".join(fields)
