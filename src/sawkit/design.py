"""Frequency scaling from a calibrated dispersion table.

Anchors map the film-thickness ratio h_ln/lambda to phase velocity and
coupling, grouped by data family ("measured", "simulated") and electrode
duty factor.  Prediction is piecewise-linear in h_ln/lambda inside a
(family, duty) group; electrode thickness and duty are not modeled, so
mismatches against the anchors surface as warnings on the result.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import OutOfTableRange, TargetOutOfRange

_CSV_HEADER = [
    "h_ln_over_lambda",
    "h_elec_over_lambda",
    "duty",
    "v_p_mps",
    "keff2",
    "family",
    "provenance",
]
# relative h_elec/lambda mismatch beyond this draws a warning
_H_ELEC_WARN_RTOL = 0.02
_DUTY_MATCH_ATOL = 1e-9
_RATIO_MATCH_RTOL = 1e-12


@dataclass(frozen=True)
class DeviceGeometry:
    """Physical layout: lengths in meters, aperture in wavelengths."""

    wavelength: float
    h_ln: float
    h_elec: float
    duty: float
    n_e: int = 40
    n_r: int = 40
    aperture: float = 20.0

    def __post_init__(self):
        for name in ("wavelength", "h_ln"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.h_elec < 0:
            raise ValueError("h_elec must be >= 0")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must lie in (0, 1)")
        if self.n_e < 1 or self.n_r < 0:
            raise ValueError("n_e must be >= 1 and n_r >= 0")
        if not self.aperture > 0:
            raise ValueError("aperture must be positive")

    @property
    def h_ln_ratio(self) -> float:
        return self.h_ln / self.wavelength

    @property
    def h_elec_ratio(self) -> float:
        return self.h_elec / self.wavelength


@dataclass(frozen=True)
class DispersionAnchor:
    h_ln_over_lambda: float
    h_elec_over_lambda: float
    duty: float
    v_p: float
    keff2: float
    family: str
    provenance: str = ""

    def __post_init__(self):
        if not self.h_ln_over_lambda > 0:
            raise ValueError("h_ln_over_lambda must be positive")
        if self.h_elec_over_lambda < 0:
            raise ValueError("h_elec_over_lambda must be >= 0")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must lie in (0, 1)")
        if not self.v_p > 0:
            raise ValueError("v_p must be positive")
        if not 0.0 <= self.keff2 < 1.0:
            raise ValueError("keff2 must lie in [0, 1)")
        if not self.family:
            raise ValueError("family must be non-empty")


class _Group(NamedTuple):
    ratios: np.ndarray
    v_p: np.ndarray
    keff2: np.ndarray
    h_elec_ratio: np.ndarray


class TablePoint(NamedTuple):
    v_p: float
    keff2: float
    h_elec_over_lambda: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class Prediction:
    value: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepRow:
    value: float
    f_s: float | None
    keff2: float | None
    warnings: tuple[str, ...] = ()
    error: str | None = None


def _interp_column(ratios: np.ndarray, column: np.ndarray, ratio: float) -> float:
    """Piecewise-linear with end-segment extrapolation outside the hull."""
    if ratio <= ratios[0]:
        i = 0
    elif ratio >= ratios[-1]:
        i = ratios.size - 2
    else:
        i = int(np.searchsorted(ratios, ratio)) - 1
    t = (ratio - ratios[i]) / (ratios[i + 1] - ratios[i])
    return float(column[i] + t * (column[i + 1] - column[i]))


class DispersionTable:
    """Immutable anchor set with (family, duty)-grouped interpolation."""

    def __init__(self, anchors):
        anchors = tuple(anchors)
        if not anchors:
            raise ValueError("dispersion table needs at least one anchor")
        seen = set()
        for a in anchors:
            key = (a.h_ln_over_lambda, a.h_elec_over_lambda, a.duty, a.family)
            if key in seen:
                raise ValueError(f"duplicate anchor {key}")
            seen.add(key)
        groups: dict[tuple[str, float], list[DispersionAnchor]] = {}
        for a in anchors:
            groups.setdefault((a.family, a.duty), []).append(a)
        self._groups: dict[tuple[str, float], _Group] = {}
        for key, members in groups.items():
            members = sorted(members, key=lambda a: a.h_ln_over_lambda)
            ratios = np.array([a.h_ln_over_lambda for a in members])
            if np.any(np.diff(ratios) <= 0):
                raise ValueError(f"anchors in group {key} share a thickness ratio")
            self._groups[key] = _Group(
                ratios=ratios,
                v_p=np.array([a.v_p for a in members]),
                keff2=np.array([a.keff2 for a in members]),
                h_elec_ratio=np.array([a.h_elec_over_lambda for a in members]),
            )
        measured_half = self._groups.get(("measured", 0.5))
        if measured_half is not None and measured_half.ratios.size > 1:
            if np.any(np.diff(measured_half.v_p) >= 0):
                raise ValueError(
                    "measured 50%-duty anchors must have strictly decreasing v_p"
                )
        self.anchors = anchors

    def families(self) -> tuple[str, ...]:
        return tuple(sorted({a.family for a in self.anchors}))

    def _select_group(
        self, family: str, duty: float
    ) -> tuple[_Group, tuple[str, ...]]:
        duties = [d for (fam, d) in self._groups if fam == family]
        if not duties:
            raise ValueError(
                f"unknown family {family!r}; table has {', '.join(self.families())}"
            )
        exact = [d for d in duties if abs(d - duty) <= _DUTY_MATCH_ATOL]
        if exact:
            return self._groups[(family, exact[0])], ()
        # no anchors at this duty: fall back to the best-populated group
        best = max(duties, key=lambda d: (self._groups[(family, d)].ratios.size, -abs(d - duty)))
        warning = (
            f"duty {duty:g} has no anchors in family {family!r}; using duty {best:g} anchors"
        )
        return self._groups[(family, best)], (warning,)

    def lookup(
        self,
        ratio: float,
        family: str,
        duty: float = 0.5,
        allow_extrapolation: bool = False,
    ) -> TablePoint:
        """Interpolated (v_p, keff2, anchor h_elec/lambda) at a thickness ratio."""
        group, warnings_ = self._select_group(family, duty)
        ratios = group.ratios
        if ratios.size == 1:
            if abs(ratio - ratios[0]) > _RATIO_MATCH_RTOL * ratios[0]:
                raise OutOfTableRange(
                    f"family {family!r} at duty {duty:g} has a single anchor at "
                    f"h_ln/lambda = {ratios[0]:g}; cannot interpolate to {ratio:g}"
                )
            return TablePoint(
                float(group.v_p[0]), float(group.keff2[0]), float(group.h_elec_ratio[0]),
                warnings_,
            )
        # thickness ratios arrive as h_ln/lambda divisions whose rounding can
        # land a hair outside the hull; forgive sub-ppb overshoot at the edges
        if ratios[0] * (1.0 - 1e-9) <= ratio < ratios[0]:
            ratio = float(ratios[0])
        elif ratios[-1] < ratio <= ratios[-1] * (1.0 + 1e-9):
            ratio = float(ratios[-1])
        if ratio < ratios[0] or ratio > ratios[-1]:
            if not allow_extrapolation:
                raise OutOfTableRange(
                    f"h_ln/lambda = {ratio:g} outside table hull "
                    f"[{ratios[0]:g}, {ratios[-1]:g}] for family {family!r}"
                )
            warnings_ = warnings_ + (
                f"h_ln/lambda = {ratio:g} extrapolated beyond "
                f"[{ratios[0]:g}, {ratios[-1]:g}]",
            )
        return TablePoint(
            _interp_column(ratios, group.v_p, ratio),
            _interp_column(ratios, group.keff2, ratio),
            _interp_column(ratios, group.h_elec_ratio, ratio),
            warnings_,
        )


def load_dispersion_csv(text: str) -> DispersionTable:
    """Load anchors from CSV with the documented seven-column header."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty dispersion CSV") from None
    if [h.strip() for h in header] != _CSV_HEADER:
        raise ValueError(f"dispersion CSV header must be {','.join(_CSV_HEADER)}")
    anchors = []
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(_CSV_HEADER):
            raise ValueError(f"dispersion CSV row has {len(row)} columns, expected 7")
        try:
            anchors.append(
                DispersionAnchor(
                    h_ln_over_lambda=float(row[0]),
                    h_elec_over_lambda=float(row[1]),
                    duty=float(row[2]),
                    v_p=float(row[3]),
                    keff2=float(row[4]),
                    family=row[5].strip(),
                    provenance=row[6].strip(),
                )
            )
        except ValueError as exc:
            raise ValueError(f"bad dispersion CSV row {row!r}: {exc}") from None
    return DispersionTable(anchors)


@lru_cache(maxsize=1)
def builtin_dispersion_table() -> DispersionTable:
    """Anchor set shipped with the package (measured devices plus FEM endpoints)."""
    text = resources.files("sawkit").joinpath("data/dispersion.csv").read_text()
    return load_dispersion_csv(text)


def _h_elec_warning(geometry: DeviceGeometry, point: TablePoint) -> tuple[str, ...]:
    anchor = point.h_elec_over_lambda
    if anchor <= 0:
        return ()
    mismatch = abs(geometry.h_elec_ratio - anchor) / anchor
    if mismatch > _H_ELEC_WARN_RTOL:
        return (
            f"h_elec/lambda = {geometry.h_elec_ratio:g} differs from the anchor value "
            f"{anchor:g}; electrode loading is not modeled",
        )
    return ()


def _predict(
    geometry: DeviceGeometry,
    table: DispersionTable,
    family: str,
    allow_extrapolation: bool,
) -> tuple[Prediction, Prediction]:
    """(f_s, keff2) predictions from a single table lookup."""
    point = table.lookup(
        geometry.h_ln_ratio, family, geometry.duty, allow_extrapolation
    )
    warnings_ = point.warnings + _h_elec_warning(geometry, point)
    return (
        Prediction(point.v_p / geometry.wavelength, warnings_),
        Prediction(point.keff2, warnings_),
    )


def predict_fs(
    geometry: DeviceGeometry,
    table: DispersionTable,
    family: str = "measured",
    allow_extrapolation: bool = False,
) -> Prediction:
    """Series resonance f_s = v_p(h_ln/lambda) / lambda for a geometry."""
    return _predict(geometry, table, family, allow_extrapolation)[0]


def predict_keff2(
    geometry: DeviceGeometry,
    table: DispersionTable,
    family: str = "measured",
    allow_extrapolation: bool = False,
) -> Prediction:
    """Interpolated coupling fraction for a geometry."""
    return _predict(geometry, table, family, allow_extrapolation)[1]


def scale_to_frequency(
    target_fs: float,
    h_ln: float,
    table: DispersionTable,
    family: str = "measured",
    duty: float = 0.5,
    rel_tol: float = 1e-4,
) -> float:
    """Wavelength that puts the predicted f_s at the target, by bisection.

    f_s(lambda) = v_p(h_ln/lambda) / lambda is strictly decreasing in
    lambda for a valid table (checked here); the search stays inside the
    anchor hull and raises TargetOutOfRange otherwise.
    """
    if not target_fs > 0 or not h_ln > 0:
        raise ValueError("target_fs and h_ln must be positive")
    group, _ = table._select_group(family, duty)
    ratios = group.ratios
    if ratios.size < 2:
        raise TargetOutOfRange(
            f"family {family!r} at duty {duty:g} has a single anchor; cannot invert"
        )
    # d(v*r)/dr = v + r dv/dr must stay positive for f_s(lambda) to be monotone
    slopes = np.diff(group.v_p) / np.diff(ratios)
    left = group.v_p[:-1] + ratios[:-1] * slopes
    right = group.v_p[1:] + ratios[1:] * slopes
    if np.any(left <= 0) or np.any(right <= 0):
        raise ValueError("dispersion table is not monotone enough to invert f_s(lambda)")
    lam_lo = h_ln / float(ratios[-1])
    lam_hi = h_ln / float(ratios[0])

    def fs_of(lam: float) -> float:
        return _interp_column(ratios, group.v_p, h_ln / lam) / lam

    f_max = fs_of(lam_lo)
    f_min = fs_of(lam_hi)
    if not f_min * (1.0 - 1e-12) <= target_fs <= f_max * (1.0 + 1e-12):
        raise TargetOutOfRange(
            f"target {target_fs:g} Hz outside achievable [{f_min:g}, {f_max:g}] Hz "
            f"for h_ln = {h_ln:g} m"
        )
    lo, hi = lam_lo, lam_hi
    while (hi - lo) > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if fs_of(mid) > target_fs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_AXIS_ALIASES = {"lambda": "wavelength"}
_INT_FIELDS = {"n_e", "n_r"}


def sweep(
    base: DeviceGeometry,
    axis: str,
    values,
    table: DispersionTable,
    family: str = "measured",
    allow_extrapolation: bool = False,
) -> list[SweepRow]:
    """Predict (f_s, keff2) while varying one geometry field.

    Per-value table misses are recorded on the row instead of aborting the
    sweep; warnings are carried through from the predictions.
    """
    field = _AXIS_ALIASES.get(axis, axis)
    names = {f.name for f in dataclasses.fields(DeviceGeometry)}
    if field not in names:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {sorted(names)}")
    rows: list[SweepRow] = []
    for value in values:
        cast = int(value) if field in _INT_FIELDS else float(value)
        geometry = replace(base, **{field: cast})
        try:
            fs_pred, k2_pred = _predict(geometry, table, family, allow_extrapolation)
        except OutOfTableRange as exc:
            rows.append(SweepRow(value=float(value), f_s=None, keff2=None, error=str(exc)))
            continue
        rows.append(
            SweepRow(
                value=float(value),
                f_s=fs_pred.value,
                keff2=k2_pred.value,
                warnings=fs_pred.warnings,
            )
        )
    return rows


_GEOMETRY_JSON_KEYS = {
    "lambda_m": "wavelength",
    "h_ln_m": "h_ln",
    "h_elec_m": "h_elec",
    "duty": "duty",
    "n_e": "n_e",
    "n_r": "n_r",
    "aperture_lambdas": "aperture",
}


def geometry_from_json(obj: dict) -> DeviceGeometry:
    missing = [k for k in _GEOMETRY_JSON_KEYS if k not in obj]
    if missing:
        raise ValueError(f"geometry JSON missing keys: {', '.join(missing)}")
    kwargs = {}
    for key, field in _GEOMETRY_JSON_KEYS.items():
        value = obj[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"geometry JSON key {key!r} must be a number")
        kwargs[field] = int(value) if field in _INT_FIELDS else float(value)
    return DeviceGeometry(**kwargs)


def geometry_to_json(geometry: DeviceGeometry) -> dict:
    return {
        "lambda_m": geometry.wavelength,
        "h_ln_m": geometry.h_ln,
        "h_elec_m": geometry.h_elec,
        "duty": geometry.duty,
        "n_e": geometry.n_e,
        "n_r": geometry.n_r,
        "aperture_lambdas": geometry.aperture,
    }
