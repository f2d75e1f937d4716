"""Frequency scaling from a calibrated dispersion table.

Anchors map the film-thickness ratio h_ln/lambda to phase velocity and
coupling, grouped by data family ("measured", "simulated") and electrode
duty factor.  A prediction is piecewise-linear in h_ln/lambda inside a
(family, duty) group; electrode thickness and duty are not modeled, so
mismatches against the anchors surface as warnings on the result.

A group holds its columns as tuples of Python floats: with five anchors a
lookup is a handful of float operations, which numpy scalars would only
slow down.  What depends on the table alone (each family's groups in
fallback order, each group's invertibility and reach) is computed once when
the table is built, and a lookup finds its segment once for all three
columns.  A duty without anchors falls back to the nearest duty whose group
can serve the request.

A DeviceGeometry holds only what the model reads: wavelength, h_ln, h_elec
and duty.  Its geometry JSON has one key for each and may carry others,
which are ignored, so a sweep can vary only these four.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

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
    """What the dispersion model reads of a device: lengths in meters."""

    wavelength: float
    h_ln: float
    h_elec: float
    duty: float

    def __post_init__(self):
        for name in ("wavelength", "h_ln"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.h_elec < math.inf:
            raise ValueError("h_elec must be finite and >= 0")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must lie in (0, 1)")

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
        if not 0.0 < self.h_ln_over_lambda < math.inf:
            raise ValueError("h_ln_over_lambda must be positive and finite")
        if not 0.0 <= self.h_elec_over_lambda < math.inf:
            raise ValueError("h_elec_over_lambda must be finite and >= 0")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must lie in (0, 1)")
        if not 0.0 < self.v_p < math.inf:
            raise ValueError("v_p must be positive and finite")
        if not 0.0 <= self.keff2 < 1.0:
            raise ValueError("keff2 must lie in [0, 1)")
        if not self.family:
            raise ValueError("family must be non-empty")


class _Group(NamedTuple):
    ratios: tuple[float, ...]
    v_p: tuple[float, ...]
    keff2: tuple[float, ...]
    h_elec_ratio: tuple[float, ...]
    # f_s(lambda) = v_p(h_ln/lambda) / lambda is strictly monotone, so
    # scale_to_frequency can invert it
    invertible: bool
    # thickness ratios a lookup serves without extrapolating: the hull plus
    # the rounding slack, or the single anchor within _RATIO_MATCH_RTOL
    reach: tuple[float, float]


class TablePoint(NamedTuple):
    v_p: float
    keff2: float
    h_elec_over_lambda: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class SweepRow:
    value: float
    f_s: float | None
    keff2: float | None
    warnings: tuple[str, ...] = ()
    error: str | None = None


def _segment(ratios: tuple[float, ...], ratio: float) -> tuple[int, float]:
    """Segment index and fraction; the end segments extend past the hull.

    An inner anchor belongs to the segment that ends at it (bisect_left).
    """
    if ratio <= ratios[0]:
        i = 0
    elif ratio >= ratios[-1]:
        i = len(ratios) - 2
    else:
        i = bisect_left(ratios, ratio) - 1
    return i, (ratio - ratios[i]) / (ratios[i + 1] - ratios[i])


def _interp_column(column: tuple[float, ...], i: int, t: float) -> float:
    return column[i] + t * (column[i + 1] - column[i])


def _is_invertible(ratios: tuple[float, ...], v_p: tuple[float, ...]) -> bool:
    """d(v*r)/dr = v + r dv/dr stays positive at both ends of every segment."""
    for i in range(len(ratios) - 1):
        slope = (v_p[i + 1] - v_p[i]) / (ratios[i + 1] - ratios[i])
        if not (v_p[i] + ratios[i] * slope > 0 and v_p[i + 1] + ratios[i + 1] * slope > 0):
            return False
    return True


class DispersionTable:
    """Immutable anchor set with (family, duty)-grouped interpolation."""

    def __init__(self, anchors):
        anchors = tuple(anchors)
        if not anchors:
            raise ValueError("dispersion table needs at least one anchor")
        groups: dict[tuple[str, float], list[DispersionAnchor]] = {}
        for a in anchors:
            groups.setdefault((a.family, a.duty), []).append(a)
        # family -> [(duty, group), ...] in first-seen order, which breaks
        # ties between equally close duties the same way on every lookup
        self._families: dict[str, list[tuple[float, _Group]]] = {}
        for (family, duty), members in groups.items():
            members = sorted(members, key=lambda a: a.h_ln_over_lambda)
            ratios = tuple(float(a.h_ln_over_lambda) for a in members)
            if any(b <= a for a, b in zip(ratios, ratios[1:])):
                raise ValueError(
                    f"anchors in group {(family, duty)} share a thickness ratio"
                )
            v_p = tuple(float(a.v_p) for a in members)
            if (family, duty) == ("measured", 0.5) and any(
                b >= a for a, b in zip(v_p, v_p[1:])
            ):
                raise ValueError("measured 50%-duty anchors must have strictly decreasing v_p")
            slack = 1e-9 if len(ratios) > 1 else _RATIO_MATCH_RTOL
            group = _Group(
                ratios=ratios,
                v_p=v_p,
                keff2=tuple(float(a.keff2) for a in members),
                h_elec_ratio=tuple(float(a.h_elec_over_lambda) for a in members),
                invertible=_is_invertible(ratios, v_p),
                reach=(ratios[0] * (1.0 - slack), ratios[-1] * (1.0 + slack)),
            )
            self._families.setdefault(family, []).append((duty, group))
        # better-populated groups first (stable, so first-seen among equals):
        # the fallback scan keeps the earlier of two equally near duties
        for members in self._families.values():
            members.sort(key=lambda m: -len(m[1].ratios))
        self.anchors = anchors

    def families(self) -> tuple[str, ...]:
        return tuple(sorted(self._families))

    def _select_group(
        self, family: str, duty: float, ratio: float | None = None, extrapolate: bool = False
    ) -> tuple[_Group, tuple[str, ...]]:
        """The group at this duty, else the nearest duty that can serve the request.

        A lookup (ratio given) can be served by a group whose reach covers
        the ratio, or by any multi-anchor group when it may extrapolate; an
        inversion (ratio None) by any multi-anchor group.  When no group
        can, the nearest duty of all is taken and its lookup raises as usual.
        Duties within _DUTY_MATCH_ATOL of each other tie, and a tie goes to
        the better-populated group.
        """
        members = self._families.get(family)
        if members is None:
            raise ValueError(
                f"unknown family {family!r}; table has {', '.join(self.families())}"
            )
        best = best_serves = best_gap = None
        for d, group in members:
            gap = abs(d - duty)
            if gap <= _DUTY_MATCH_ATOL:
                return group, ()
            multi = len(group.ratios) > 1
            serves = multi if ratio is None else (
                group.reach[0] <= ratio <= group.reach[1] or (extrapolate and multi)
            )
            if best is None or serves > best_serves or (
                serves == best_serves and gap < best_gap - _DUTY_MATCH_ATOL
            ):
                best, best_serves, best_gap = (d, group), serves, gap
        warning = (
            f"duty {duty:g} has no anchors in family {family!r}; using duty {best[0]:g} anchors"
        )
        return best[1], (warning,)

    def lookup(
        self,
        ratio: float,
        family: str,
        duty: float = 0.5,
        allow_extrapolation: bool = False,
    ) -> TablePoint:
        """Interpolated (v_p, keff2, anchor h_elec/lambda) at a thickness ratio."""
        group, warnings_ = self._select_group(family, duty, ratio, allow_extrapolation)
        ratios = group.ratios
        lo, hi = ratios[0], ratios[-1]
        reach_lo, reach_hi = group.reach
        if len(ratios) == 1:
            if not reach_lo <= ratio <= reach_hi:
                raise OutOfTableRange(
                    f"family {family!r} at duty {duty:g} has a single anchor at "
                    f"h_ln/lambda = {lo:g}; cannot interpolate to {ratio:g}"
                )
            return TablePoint(group.v_p[0], group.keff2[0], group.h_elec_ratio[0], warnings_)
        # thickness ratios arrive as h_ln/lambda divisions whose rounding can
        # land a hair outside the hull; forgive sub-ppb overshoot at the edges
        if reach_lo <= ratio < lo:
            ratio = lo
        elif hi < ratio <= reach_hi:
            ratio = hi
        if not lo <= ratio <= hi:
            if not allow_extrapolation or math.isnan(ratio):
                raise OutOfTableRange(
                    f"h_ln/lambda = {ratio:g} outside table hull "
                    f"[{lo:g}, {hi:g}] for family {family!r}"
                )
            warnings_ = warnings_ + (
                f"h_ln/lambda = {ratio:g} extrapolated beyond [{lo:g}, {hi:g}]",
            )
        i, t = _segment(ratios, ratio)
        return TablePoint(
            _interp_column(group.v_p, i, t),
            _interp_column(group.keff2, i, t),
            _interp_column(group.h_elec_ratio, i, t),
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


def predict(
    geometry: DeviceGeometry,
    table: DispersionTable,
    family: str = "measured",
    allow_extrapolation: bool = False,
) -> tuple[float, float, tuple[str, ...]]:
    """(f_s, keff2, warnings) for a geometry from a single table lookup.

    f_s = v_p(h_ln/lambda) / lambda, keff2 is the interpolated coupling, and
    the warnings are the lookup's plus any electrode-thickness mismatch.
    """
    point = table.lookup(geometry.h_ln_ratio, family, geometry.duty, allow_extrapolation)
    return (
        point.v_p / geometry.wavelength,
        point.keff2,
        point.warnings + _h_elec_warning(geometry, point),
    )


def scale_to_frequency(
    target_fs: float,
    h_ln: float,
    table: DispersionTable,
    family: str = "measured",
    duty: float = 0.5,
    rel_tol: float = 1e-4,
) -> float:
    """Wavelength that puts the predicted f_s at the target, in closed form.

    Inside a segment v_p = a + s r with r = h_ln/lambda, so
    f_s = a/lambda + s h_ln/lambda**2, and the root on the branch where f_s
    falls as lambda grows is lambda = (a + sqrt(a**2 + 4 f_s s h_ln)) / (2 f_s).
    The segment is the one whose anchor products v_k r_k (= f_s h_ln at the
    anchor) bracket target_fs h_ln.  An invertible group has increasing
    products, but not the reverse: r = 1, 2 with v_p = 10, 6 give 10 < 12, yet
    d(v r)/dr = -2 at r = 2; so the invertibility check made when the table
    is built decides (raised here).  A target outside the anchor hull raises
    TargetOutOfRange.  The result is exact to rounding, so it always meets
    rel_tol, a relative bound on f_s that must be > 0.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be > 0")
    if not target_fs > 0 or not 0.0 < h_ln < math.inf:
        raise ValueError("target_fs must be positive and h_ln positive and finite")
    group, _ = table._select_group(family, duty)
    ratios, v_p = group.ratios, group.v_p
    if len(ratios) < 2:
        raise TargetOutOfRange(
            f"family {family!r} at duty {duty:g} has a single anchor; cannot invert"
        )
    if not group.invertible:
        raise ValueError("dispersion table is not monotone enough to invert f_s(lambda)")
    products = [v * r for v, r in zip(v_p, ratios)]
    f_min = products[0] / h_ln
    f_max = products[-1] / h_ln
    if not f_min * (1.0 - 1e-12) <= target_fs <= f_max * (1.0 + 1e-12):
        raise TargetOutOfRange(
            f"target {target_fs:g} Hz outside achievable [{f_min:g}, {f_max:g}] Hz "
            f"for h_ln = {h_ln:g} m"
        )
    i = min(max(bisect_left(products, target_fs * h_ln), 1), len(ratios) - 1) - 1
    slope = (v_p[i + 1] - v_p[i]) / (ratios[i + 1] - ratios[i])
    a = v_p[i] - slope * ratios[i]
    return (a + math.sqrt(a * a + 4.0 * target_fs * slope * h_ln)) / (2.0 * target_fs)


# sweep axis name -> DeviceGeometry field; every field is an axis
_SWEEP_AXES = {"lambda": "wavelength", "h_ln": "h_ln", "h_elec": "h_elec", "duty": "duty"}


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
    if axis not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {', '.join(_SWEEP_AXES)}")
    field = _SWEEP_AXES[axis]
    kwargs = {f: getattr(base, f) for f in _SWEEP_AXES.values()}
    rows: list[SweepRow] = []
    for value in values:
        kwargs[field] = value = float(value)
        geometry = DeviceGeometry(**kwargs)
        try:
            f_s, keff2, warnings_ = predict(geometry, table, family, allow_extrapolation)
        except OutOfTableRange as exc:
            rows.append(SweepRow(value=value, f_s=None, keff2=None, error=str(exc)))
            continue
        rows.append(SweepRow(value, f_s, keff2, warnings_))
    return rows


_GEOMETRY_JSON_KEYS = {
    "lambda_m": "wavelength",
    "h_ln_m": "h_ln",
    "h_elec_m": "h_elec",
    "duty": "duty",
}


def geometry_from_json(obj: dict) -> DeviceGeometry:
    """Geometry from the four keys of _GEOMETRY_JSON_KEYS; unknown keys are ignored."""
    missing = [k for k in _GEOMETRY_JSON_KEYS if k not in obj]
    if missing:
        raise ValueError(f"geometry JSON missing keys: {', '.join(missing)}")
    kwargs = {}
    for key, field in _GEOMETRY_JSON_KEYS.items():
        value = obj[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"geometry JSON key {key!r} must be a number")
        try:
            kwargs[field] = float(value)
        except OverflowError:
            raise ValueError(f"geometry JSON key {key!r} must be a finite number") from None
    return DeviceGeometry(**kwargs)
