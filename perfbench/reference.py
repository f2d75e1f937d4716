"""Benchmark-owned inputs and references, independent of sawkit's code.

The traces are written with this module's own mBVD formula and Touchstone
RI formatter, and outputs are checked with its own reader and dispersion
interpolation, so a change to sawkit's synthesis, writer or table lookup
cannot alter the inputs or the yardstick.  Only numpy is used here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# target metrics per fixture device, as in sawkit.cli.FIXTURE_DEVICES:
# lambda_nm, f_s Hz, coupling fraction, motional Q
DEVICES = {
    "A": (400.0, 9.05e9, 0.15, 213.0),
    "B": (360.0, 10.25e9, 0.11, 172.0),
    "C": (324.0, 10.89e9, 0.13, 126.0),
    "D": (296.0, 11.77e9, 0.09, 111.0),
    "E": (240.0, 13.37e9, 0.07, 58.0),
    "F": (400.0, 9.34e9, 0.16, 99.0),
}
C_0 = 100e-15
R_S = 0.5
R_0 = 0.5
Z0 = 50.0
NOISE_SIGMA = 1e-3
# Savitzky-Golay window used on the noisy traces of extraction requests
SMOOTH_WINDOW = 31


@dataclass(frozen=True)
class Elements:
    r_s: float
    r_0: float
    r_m: float
    l_m: float
    c_m: float
    c_0: float

    @property
    def f_s(self) -> float:
        return 1.0 / (2.0 * np.pi * np.sqrt(self.l_m * self.c_m))

    @property
    def f_p(self) -> float:
        return self.f_s * np.sqrt(1.0 + self.c_m / self.c_0)


def device_elements(device: str) -> Elements:
    """Elements that give the device its target f_s, coupling and Q_m.

    Coupling is (pi^2/8) c_m / c_0 and Q_m = w_s l_m / r_m.
    """
    _, f_s, coupling, q_m = DEVICES[device]
    c_m = C_0 * coupling * 8.0 / np.pi**2
    w_s = 2.0 * np.pi * f_s
    l_m = 1.0 / (w_s * w_s * c_m)
    return Elements(r_s=R_S, r_0=R_0, r_m=w_s * l_m / q_m, l_m=l_m, c_m=c_m, c_0=C_0)


def s11(el: Elements, freqs: np.ndarray, z0: float = Z0) -> np.ndarray:
    """Reflection of r_s in series with (r_m-l_m-c_m) || (r_0-c_0)."""
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    z_m = el.r_m + 1j * w * el.l_m + 1.0 / (1j * w * el.c_m)
    z_0 = el.r_0 + 1.0 / (1j * w * el.c_0)
    z = el.r_s + z_m * z_0 / (z_m + z_0)
    return (z - z0) / (z + z0)


def grid(device: str, points: int, wide: bool) -> np.ndarray:
    """Narrow span 0.9 f_s .. 1.1 f_p, or wide span 0.8 f_s .. 1.2 f_p."""
    el = device_elements(device)
    lo, hi = (0.8, 1.2) if wide else (0.9, 1.1)
    return np.linspace(lo * el.f_s, hi * el.f_p, points)


def noisy(s: np.ndarray, rng: np.random.Generator, sigma: float = NOISE_SIGMA) -> np.ndarray:
    """Add complex Gaussian noise of total standard deviation sigma."""
    noise = rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size)
    return s + sigma * noise / np.sqrt(2.0)


def format_touchstone(freqs: np.ndarray, s: np.ndarray, comment: str, z0: float = Z0) -> str:
    """One-port Touchstone v1 text, GHz and real/imaginary columns."""
    rows = np.column_stack([np.asarray(freqs) / 1e9, s.real, s.imag])
    body = "\n".join("%.12e %.12e %.12e" % tuple(row) for row in rows)
    return f"! {comment}\n# GHZ S RI R {z0:.12g}\n{body}\n"


def read_touchstone(text: str) -> tuple[np.ndarray, np.ndarray, float]:
    """(frequencies in Hz, S11, z0) from one-port Touchstone v1 text in GHz RI.

    The benchmark only reads back files whose format it wrote itself, so any
    other option line is an error rather than a branch nothing exercises.
    """
    z0 = None
    rows = []
    for line in text.splitlines():
        line = line.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].upper().split()
            if len(tokens) != 5 or tokens[:4] != ["GHZ", "S", "RI", "R"]:
                raise ValueError(f"expected a '# GHZ S RI R <z0>' option line, got {line!r}")
            z0 = float(tokens[4])
            continue
        rows.append(line)
    if z0 is None:
        raise ValueError("no option line")
    data = np.array(" ".join(rows).split(), dtype=float).reshape(-1, 3)
    return data[:, 0] * 1e9, data[:, 1] + 1j * data[:, 2], z0


class DispersionReference:
    """Piecewise-linear interpolation of the measured 50 %-duty anchors."""

    def __init__(self, csv_path: Path):
        with open(csv_path, newline="") as handle:
            anchors = [
                (float(row["h_ln_over_lambda"]), float(row["v_p_mps"]))
                for row in csv.DictReader(handle)
                if row["family"].strip() == "measured" and float(row["duty"]) == 0.5
            ]
        anchors.sort()
        self.ratios = np.array([a[0] for a in anchors])
        self.v_p = np.array([a[1] for a in anchors])

    def f_s(self, h_ln: float, wavelength: float) -> float:
        return float(np.interp(h_ln / wavelength, self.ratios, self.v_p)) / wavelength

    def f_range(self, h_ln: float) -> tuple[float, float]:
        """Lowest and highest f_s reachable inside the hull at this film thickness."""
        return self.f_s(h_ln, h_ln / self.ratios[0]), self.f_s(h_ln, h_ln / self.ratios[-1])
