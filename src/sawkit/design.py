"""Frequency scaling from a calibrated dispersion table.

Anchors map the film-thickness ratio h_ln/lambda to phase velocity and
coupling, grouped by data family ("measured", "simulated") and electrode
duty factor.  A prediction is piecewise-linear in h_ln/lambda inside a
(family, duty) group; electrode thickness and duty are not modeled, so
mismatches against the anchors surface as warnings on the result.

sweep is the one evaluation of the table.  It works as float64 arrays over
the whole axis: one division for h_ln/lambda, one group choice, one
np.searchsorted per group and one interpolation of v_p, keff2 and
h_elec/lambda together, in the scalar formula's order of operations, so
every value has the bits that formula gives.  Strings are formatted only for
rows that warn or fail, by mapping a %-template over their numbers, and a
duty's fallback note is one tuple shared by the rows it covers; the rows are
built by tuple.__new__, with no Python frame each.  predict is the one-row
sweep over a geometry's own wavelength.  What depends on the table alone
(each family's groups in fallback order, each group's segments,
invertibility, reach and anchor products) is computed once when the table is
built.  A duty without anchors falls back to the nearest duty whose group
can serve the request, and three calls share this one chooser: sweep,
predict and scale_to_frequency.  The chooser stops scanning at the first
group once every request has the group of its own duty, so a duty with the
best-populated group asks serves once.

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
from functools import lru_cache, partial
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import (
    FINITE_NONNEGATIVE,
    POSITIVE_FINITE,
    OutOfTableRange,
    TargetOutOfRange,
    is_json_number,
    require,
)

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

# field -> rule, as errors.require takes one: the one range of each DeviceGeometry
# and DispersionAnchor field, which sweep, _evaluate and scale_to_frequency read too
_RULES = {
    "wavelength": POSITIVE_FINITE,
    "h_ln": POSITIVE_FINITE,
    "h_elec": FINITE_NONNEGATIVE,
    "duty": (lambda x: (0.0 < x) & (x < 1.0), "must lie in (0, 1)"),
    "h_ln_over_lambda": POSITIVE_FINITE,
    "h_elec_over_lambda": FINITE_NONNEGATIVE,
    "v_p": POSITIVE_FINITE,
    "keff2": (lambda x: (0.0 <= x) & (x < 1.0), "must lie in [0, 1)"),
}


def _unmet(name: str, value: float) -> str:
    """What _RULES requires of name if value breaks it, else ''."""
    in_range, requirement = _RULES[name]
    return "" if in_range(value) else requirement


@dataclass(frozen=True)
class DeviceGeometry:
    """What the dispersion model reads of a device: lengths in meters."""

    wavelength: float
    h_ln: float
    h_elec: float
    duty: float

    def __post_init__(self):
        for name in ("wavelength", "h_ln", "h_elec", "duty"):
            require(name, getattr(self, name), _RULES[name])


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
        for name in ("h_ln_over_lambda", "h_elec_over_lambda", "duty", "v_p", "keff2"):
            require(name, getattr(self, name), _RULES[name])
        if not self.family:
            raise ValueError("family must be non-empty")


class _Group(NamedTuple):
    ratios: tuple[float, ...]
    v_p: tuple[float, ...]
    # v_k r_k at each anchor (= f_s h_ln there), which scale_to_frequency
    # searches for the segment that brackets a target
    products: tuple[float, ...]
    # f_s(lambda) = v_p(h_ln/lambda) / lambda is strictly monotone, so
    # scale_to_frequency can invert it
    invertible: bool
    # thickness ratios the group serves without extrapolating: the hull plus
    # the rounding slack, or the single anchor within _RATIO_MATCH_RTOL
    reach: tuple[float, float]
    # segment k runs from starts[k] over spans[k]; columns[:, k] holds v_p,
    # keff2 and h_elec/lambda at its start and steps[:, k] their rise along
    # it.  A single anchor is one segment that does not rise.
    inner: np.ndarray  # the anchors between the end ones, searched for the segment
    starts: np.ndarray
    spans: np.ndarray
    columns: np.ndarray
    steps: np.ndarray


class SweepRow(NamedTuple):
    value: float
    f_s: float | None
    keff2: float | None
    warnings: tuple[str, ...] = ()
    error: str | None = None


# SweepRow from one (value, f_s, keff2, warnings, error) tuple, as _make
# builds it but without a Python call per row
_ROW = partial(tuple.__new__, SweepRow)
_MISMATCH = "h_elec/lambda = %g differs from the anchor value %g; electrode loading is not modeled"


def _has_segments(group: _Group) -> bool:
    """Whether scale_to_frequency can invert group: it has two anchors or more."""
    return len(group.ratios) > 1


def _is_invertible(ratios: tuple[float, ...], v_p: tuple[float, ...]) -> bool:
    """d(v*r)/dr = v + r dv/dr stays positive at both ends of every segment."""
    for i in range(len(ratios) - 1):
        slope = (v_p[i + 1] - v_p[i]) / (ratios[i + 1] - ratios[i])
        if not (v_p[i] + ratios[i] * slope > 0 and v_p[i + 1] + ratios[i + 1] * slope > 0):
            return False
    return True


def _build_group(members: list[DispersionAnchor]) -> _Group:
    ratios = tuple(float(a.h_ln_over_lambda) for a in members)
    v_p = tuple(float(a.v_p) for a in members)
    slack = 1e-9 if len(ratios) > 1 else _RATIO_MATCH_RTOL
    r = np.array(ratios)
    c = np.array([v_p, [a.keff2 for a in members], [a.h_elec_over_lambda for a in members]],
                 dtype=float)
    if len(ratios) == 1:
        starts, spans, columns, steps = r, np.ones(1), c, np.zeros((3, 1))
    else:
        starts, spans, columns, steps = r[:-1], np.diff(r), c[:, :-1], np.diff(c)
    return _Group(
        ratios=ratios,
        v_p=v_p,
        products=tuple(v * r for v, r in zip(v_p, ratios)),
        invertible=_is_invertible(ratios, v_p),
        reach=(ratios[0] * (1.0 - slack), ratios[-1] * (1.0 + slack)),
        inner=r[1:-1],
        starts=starts,
        spans=spans,
        columns=columns,
        steps=steps,
    )


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
        # ties between equally close duties the same way on every request
        self._families: dict[str, list[tuple[float, _Group]]] = {}
        for (family, duty), members in groups.items():
            members = sorted(members, key=lambda a: a.h_ln_over_lambda)
            ratios = [a.h_ln_over_lambda for a in members]
            if any(b <= a for a, b in zip(ratios, ratios[1:])):
                raise ValueError(
                    f"anchors in group {(family, duty)} share a thickness ratio"
                )
            v_p = [a.v_p for a in members]
            if (family, duty) == ("measured", 0.5) and any(
                b >= a for a, b in zip(v_p, v_p[1:])
            ):
                raise ValueError("measured 50%-duty anchors must have strictly decreasing v_p")
            self._families.setdefault(family, []).append((duty, _build_group(members)))
        # better-populated groups first (stable, so first-seen among equals):
        # the fallback scan keeps the earlier of two equally near duties
        for members in self._families.values():
            members.sort(key=lambda m: -len(m[1].ratios))
        self.anchors = anchors

    def _members(self, family: str) -> list[tuple[float, _Group]]:
        members = self._families.get(family)
        if members is None:
            raise ValueError(
                f"unknown family {family!r}; table has {', '.join(sorted(self._families))}"
            )
        return members

    def _choose(self, family: str, duty, serves):
        """Per request, the index of its group among _members(family), and
        whether the request fell back from a duty without anchors.

        The group at this duty wins, else the nearest duty whose group
        serves(group) the request; when none does, the nearest duty of all
        is taken and its evaluation raises as usual.  Duties within
        _DUTY_MATCH_ATOL of each other tie, and a tie goes to the
        better-populated group.  Written with &, |, ^ and products of bools,
        so the same lines take a float duty with bool serves and a sweep's
        arrays, returning an int and a bool or arrays of them (the choice
        stays the int 0 when no later group is taken).  The scan stops once
        no request is open, which is at the first group for a duty that has
        its own best-populated group: serves then runs once.  A float duty's
        open_ is a bool, tested by identity, so only arrays pay for any().
        """
        members = self._members(family)
        choice = 0
        best_serves = serves(members[0][1])
        best_gap = abs(members[0][0] - duty)
        open_ = (best_gap <= _DUTY_MATCH_ATOL) ^ True  # no group at this duty yet
        for k in range(1, len(members)):
            if open_ is False or (open_ is not True and not open_.any()):
                break
            d, group = members[k]
            gap = abs(d - duty)
            exact = gap <= _DUTY_MATCH_ATOL
            s = serves(group)
            take = open_ & (
                exact
                | (s > best_serves)
                | ((s == best_serves) & (gap < best_gap - _DUTY_MATCH_ATOL))
            )
            keep = take ^ True
            choice = take * k + keep * choice
            best_serves = (take & s) | (keep & best_serves)
            best_gap = take * gap + keep * best_gap
            open_ = open_ & (exact ^ True)
        return choice, open_

    def _evaluate(self, ratio: np.ndarray, family: str, duty: np.ndarray, extrapolate: bool):
        """(v_p, keff2, anchor h_elec/lambda) as a (3, n) array at n thickness
        ratios and duties, the n rows' warnings, and {row: error} for the rows
        that cannot be served.

        Thickness ratios arrive as h_ln/lambda divisions whose rounding can
        land a hair outside the hull, so a ratio within a group's reach is
        clipped to its hull.  Searching the inner anchors (side left) puts an
        inner anchor in the segment that ends at it and extends the end
        segments past the hull.  Every ratio and duty is finite: sweep and
        scale_to_frequency hold them to _RULES first.
        """
        members = self._members(family)

        def serves(group):
            multi = extrapolate and len(group.ratios) > 1
            return ((group.reach[0] <= ratio) & (ratio <= group.reach[1])) | multi

        choice, fell_back = self._choose(family, duty, serves)
        choice = np.broadcast_to(choice, ratio.shape)
        n = ratio.size
        values = np.empty((3, n))
        warnings_: list[tuple[str, ...]] = [()] * n
        errors: dict[int, str] = {}
        rows = np.flatnonzero(fell_back)
        keys = list(zip(duty[rows].tolist(), choice[rows].tolist()))
        notes = {  # one warnings tuple per duty and group, shared by its rows
            key: (f"duty {key[0]:g} has no anchors in family {family!r}; "
                  f"using duty {members[key[1]][0]:g} anchors",)
            for key in set(keys)
        }
        for i, note in zip(rows.tolist(), map(notes.__getitem__, keys)):
            warnings_[i] = note
        # the family as templates quote it, its % escaped: a CSV names it
        quoted = repr(family).replace("%", "%%")
        for k, (_, group) in enumerate(members):
            rows = np.flatnonzero(choice == k)
            if rows.size == 0:
                continue
            r = ratio[rows]
            lo, hi = group.ratios[0], group.ratios[-1]
            in_reach = (group.reach[0] <= r) & (r <= group.reach[1])
            extrapolated = ~in_reach & (extrapolate and len(group.ratios) > 1)
            clipped = np.where(extrapolated, r, np.clip(r, lo, hi))
            i = np.searchsorted(group.inner, clipped)
            with np.errstate(all="ignore"):  # far extrapolation may overflow
                t = (clipped - group.starts[i]) / group.spans[i]
                point = group.columns[:, i] + t * group.steps[:, i]
            values[:, rows] = point
            missed = ~in_reach
            if not missed.any():
                continue
            hull = f"[{lo:g}, {hi:g}]"
            rows, r = rows[missed].tolist(), r[missed].tolist()
            if len(group.ratios) == 1:
                template = (f"family {quoted} at duty %g has a single anchor at "
                            f"h_ln/lambda = {lo:g}; cannot interpolate to %g")
                errors.update(zip(rows, map(template.__mod__, zip(duty[rows].tolist(), r))))
                continue
            if not extrapolate:
                template = f"h_ln/lambda = %g outside table hull {hull} for family {quoted}"
                errors.update(zip(rows, map(template.__mod__, r)))
                continue
            for row, x, v, k2 in zip(rows, r, *point[:2, missed].tolist()):
                if unmet := _unmet("v_p", v):
                    errors[row] = f"h_ln/lambda = {x:g} extrapolates to v_p = {v:g} m/s ({unmet})"
                elif unmet := _unmet("keff2", k2):
                    errors[row] = f"h_ln/lambda = {x:g} extrapolates to keff2 = {k2:g} ({unmet})"
                else:
                    warnings_[row] += (f"h_ln/lambda = {x:g} extrapolated beyond {hull}",)
        return values, warnings_, errors


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


def predict(
    geometry: DeviceGeometry,
    table: DispersionTable,
    family: str = "measured",
    allow_extrapolation: bool = False,
) -> tuple[float, float, tuple[str, ...]]:
    """(f_s, keff2, warnings) for a geometry: the one-row sweep over its own
    wavelength, whose miss raises OutOfTableRange."""
    row = sweep(geometry, "lambda", [geometry.wavelength], table, family, allow_extrapolation)[0]
    if row.error is not None:
        raise OutOfTableRange(row.error)
    return row.f_s, row.keff2, row.warnings


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
    TargetOutOfRange.  The result is exact to rounding, so rel_tol, a
    relative bound on f_s, is accepted and not read.  duty must pass
    DeviceGeometry's rule (finite, 0 < duty < 1), and target_fs and h_ln
    must be positive and finite.  A duty without a multi-anchor group reads
    the nearest duty that has one, silently: the result is a bare float and
    carries no warning.
    """
    require("duty", duty, _RULES["duty"])
    in_range, _ = POSITIVE_FINITE
    if not (in_range(target_fs) and in_range(h_ln)):
        raise ValueError("target_fs must be positive and finite and h_ln positive and finite")
    k, _ = table._choose(family, duty, _has_segments)
    group = table._members(family)[k][1]
    ratios, v_p, products = group.ratios, group.v_p, group.products
    if len(ratios) < 2:
        raise TargetOutOfRange(
            f"family {family!r} at duty {duty:g} has a single anchor; cannot invert"
        )
    if not group.invertible:
        raise ValueError("dispersion table is not monotone enough to invert f_s(lambda)")
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


# sweep axis name -> DeviceGeometry field; every field is an axis, listed in
# the order sweep unpacks the columns
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

    f_s = v_p(h_ln/lambda) / lambda, keff2 is the interpolated coupling, and
    the warnings are the table's plus any electrode-thickness mismatch.  A
    value the geometry refuses raises its ValueError for the whole sweep, as
    do no values and lengths whose ratio leaves the float range (1e308 m /
    4e-7 m): the largest of each ratio column is held to _RULES.  Per-value
    table misses are recorded on the row instead of aborting the sweep.
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {', '.join(_SWEEP_AXES)}")
    field = _SWEEP_AXES[axis]
    in_range, requirement = _RULES[field]
    try:
        column = np.array(values, dtype=float)
    except OverflowError:  # an int too large for a float breaks the rule too
        raise ValueError(f"{field} {requirement}") from None
    if not column.size:
        raise ValueError("no sweep values given")
    if not in_range(column).all():
        raise ValueError(f"{field} {requirement}")
    wavelength, h_ln, h_elec, duty = (
        column if f == field else np.full(column.size, getattr(base, f))
        for f in _SWEEP_AXES.values()
    )
    with np.errstate(over="ignore"):
        ratio, h_elec_ratio = h_ln / wavelength, h_elec / wavelength
    for name, ratios in (("h_ln_over_lambda", ratio), ("h_elec_over_lambda", h_elec_ratio)):
        require(name, ratios.max(), _RULES[name])
    point, warnings_, errors = table._evaluate(ratio, family, duty, allow_extrapolation)
    anchor = point[2]
    with np.errstate(all="ignore"):  # an anchor h_elec/lambda may be 0
        f_s = point[0] / wavelength
        mismatch = np.abs(h_elec_ratio - anchor) / anchor
    mismatched = (anchor > 0) & (mismatch > _H_ELEC_WARN_RTOL)
    mismatched[list(errors)] = False
    rows = np.flatnonzero(mismatched)
    texts = map(_MISMATCH.__mod__, zip(h_elec_ratio[rows].tolist(), anchor[rows].tolist()))
    for i, text in zip(rows.tolist(), texts):
        warnings_[i] += (text,)
    f_s, keff2 = f_s.tolist(), point[1].tolist()
    errors_ = [None] * column.size
    for i, error in errors.items():
        f_s[i] = keff2[i] = None
        warnings_[i], errors_[i] = (), error
    return list(map(_ROW, zip(column.tolist(), f_s, keff2, warnings_, errors_)))


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
        if not is_json_number(value):
            raise ValueError(f"geometry JSON key {key!r} must be a number")
        try:
            kwargs[field] = float(value)
        except OverflowError:
            raise ValueError(f"geometry JSON key {key!r} must be a finite number") from None
    return DeviceGeometry(**kwargs)
