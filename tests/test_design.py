import json
import math
from pathlib import Path

import numpy as np
import pytest

from sawkit.design import (
    DeviceGeometry,
    DispersionAnchor,
    DispersionTable,
    SweepRow,
    builtin_dispersion_table,
    geometry_from_json,
    load_dispersion_csv,
    predict,
    scale_to_frequency,
    sweep,
)
from sawkit.errors import OutOfTableRange, TargetOutOfRange

H_LN = 0.7e-6
H_ELEC = 40e-9

# (lambda_nm, measured f_s_GHz) for the 50 %-duty devices, thinnest film ratio first
FIFTY_DUTY_DEVICES = [
    (400.0, 9.34),
    (360.0, 10.25),
    (324.0, 10.89),
    (296.0, 11.77),
    (240.0, 13.37),
]


@pytest.fixture(scope="module")
def table():
    return builtin_dispersion_table()


def _geometry(lambda_nm, duty=0.5):
    return DeviceGeometry(
        wavelength=lambda_nm * 1e-9, h_ln=H_LN, h_elec=H_ELEC, duty=duty
    )


def _at_ratio(table, ratio, family="measured", duty=0.5, extrapolate=False, h_elec_ratio=None):
    """(v_p, keff2, warnings) at a thickness ratio: predict on a 1 m pitch,
    where h_ln is the ratio and f_s is v_p to the bit.  h_elec/lambda
    defaults to the device's H_ELEC/H_LN of the ratio, within 2 % of every
    measured anchor's, so no electrode mismatch warns."""
    if h_elec_ratio is None:
        h_elec_ratio = ratio * H_ELEC / H_LN
    geometry = DeviceGeometry(wavelength=1.0, h_ln=ratio, h_elec=h_elec_ratio, duty=duty)
    return predict(geometry, table, family, extrapolate)


def _table_point(table, ratio, family="measured", duty=0.5):
    """The table's (v_p, keff2, anchor h_elec/lambda) at one ratio, no extrapolation."""
    point, _, errors = table._evaluate(np.array([ratio]), family, np.array([duty]), False)
    assert not errors, errors
    return tuple(point[:, 0].tolist())


def test_anchor_values_reproduce_exactly(table):
    assert _at_ratio(table, 1.75)[:2] == (3736.0, 0.16)
    assert _at_ratio(table, 2.92)[:2] == (3209.0, 0.07)


def test_linear_interpolation_between_anchors(table):
    # midpoint of the 1.94 / 2.16 segment
    v_p, keff2, _ = _at_ratio(table, 2.05)
    np.testing.assert_allclose(v_p, 3609.0, rtol=1e-12)
    np.testing.assert_allclose(keff2, 0.12, rtol=1e-10)


def test_lookup_outside_hull(table):
    with pytest.raises(OutOfTableRange):
        _at_ratio(table, 1.0)
    with pytest.raises(OutOfTableRange):
        _at_ratio(table, 3.5)
    warnings = _at_ratio(table, 3.0, extrapolate=True)[2]
    assert any("extrapolated" in w for w in warnings)


def test_single_anchor_group_is_exact_only(table):
    assert _at_ratio(table, 1.75, duty=0.7)[:2] == (3620.0, 0.15)
    with pytest.raises(OutOfTableRange):
        _at_ratio(table, 1.80, duty=0.7)


def test_unlisted_duty_falls_back_with_warning(table):
    v_p, _, warnings = _at_ratio(table, 2.05, duty=0.62)
    assert warnings
    assert any("duty" in w for w in warnings)
    np.testing.assert_allclose(v_p, 3609.0, rtol=1e-12)


def test_predicted_fs_hits_measured_values(table):
    for lambda_nm, fs_ghz in FIFTY_DUTY_DEVICES:
        f_s = predict(_geometry(lambda_nm), table)[0]
        assert abs(f_s / 1e9 - fs_ghz) / fs_ghz < 5e-3, lambda_nm


def test_predicted_fs_seventy_duty_device(table):
    f_s, _, warnings = predict(_geometry(400.0, duty=0.7), table)
    np.testing.assert_allclose(f_s, 9.05e9, rtol=1e-12)
    assert warnings == ()


def test_predicted_keff2_at_anchors(table):
    # 700/400 nm sits exactly on the thinnest-film anchor
    np.testing.assert_allclose(predict(_geometry(400.0), table)[1], 0.16)
    # 700/240 nm is 2.9167, slightly inside the 2.92 anchor published rounding
    np.testing.assert_allclose(
        predict(_geometry(240.0), table)[1], 0.07, rtol=2e-3
    )


def test_simulated_family_endpoints(table):
    assert _at_ratio(table, 2.92, "simulated")[0] == 3103.0
    fs_low, k2, _ = predict(_geometry(400.0), table, family="simulated")
    fs_high = predict(_geometry(240.0), table, family="simulated")[0]
    np.testing.assert_allclose(fs_low, 3664.0 / 400e-9, rtol=1e-12)
    np.testing.assert_allclose(fs_high, 3103.0 / 240e-9, rtol=1e-3)
    np.testing.assert_allclose(k2, 0.39)


def test_similitude_scaling(table):
    # shrinking every dimension by the same factor doubles the frequency
    base = _geometry(400.0)
    half = DeviceGeometry(
        wavelength=base.wavelength / 2,
        h_ln=base.h_ln / 2,
        h_elec=base.h_elec / 2,
        duty=base.duty,
    )
    np.testing.assert_allclose(
        predict(half, table)[0], 2.0 * predict(base, table)[0], rtol=1e-12
    )


def test_electrode_thickness_mismatch_warns(table):
    thick = DeviceGeometry(wavelength=400e-9, h_ln=H_LN, h_elec=100e-9, duty=0.5)
    assert any("h_elec" in w for w in predict(thick, table)[2])
    assert not any("h_elec" in w for w in predict(_geometry(400.0), table)[2])


def test_scale_to_frequency_recovers_device_pitches(table):
    lam = scale_to_frequency(13.37e9, H_LN, table)
    assert abs(lam * 1e9 - 240.0) / 240.0 < 5e-3
    lam = scale_to_frequency(9.34e9, H_LN, table)
    assert abs(lam * 1e9 - 400.0) / 400.0 < 5e-3


def test_scale_to_frequency_is_consistent_with_prediction(table):
    target = 11.0e9
    lam = scale_to_frequency(target, H_LN, table)
    geometry = DeviceGeometry(wavelength=lam, h_ln=H_LN, h_elec=lam / 10, duty=0.5)
    np.testing.assert_allclose(predict(geometry, table)[0], target, rtol=2e-4)


def test_scale_to_frequency_out_of_range(table):
    with pytest.raises(TargetOutOfRange):
        scale_to_frequency(100e9, H_LN, table)
    with pytest.raises(TargetOutOfRange):
        scale_to_frequency(1e9, H_LN, table)


@pytest.mark.parametrize("duty", [math.nan, 7.0, -1.0, 0.0])
def test_scale_to_frequency_refuses_a_duty_outside_the_unit_interval(table, duty):
    # the rule DeviceGeometry applies, checked before the table is read
    with pytest.raises(ValueError, match=r"duty must lie in \(0, 1\)"):
        scale_to_frequency(11e9, H_LN, table, duty=duty)
    # the refusal comes before the other argument checks
    with pytest.raises(ValueError, match="duty"):
        scale_to_frequency(-1.0, H_LN, table, duty=duty, rel_tol=0.0)


def test_scale_to_frequency_at_valid_duties_is_unchanged(table):
    # duty 0.6 has no anchors and reads the 50 % group, to the bit
    for duty in (0.5, 0.6):
        assert scale_to_frequency(11e9, H_LN, table, duty=duty).hex() == "0x1.57d15eb8ca3a2p-22"


def test_sweep_over_wavelength(table):
    values = [lam * 1e-9 for lam, _ in FIFTY_DUTY_DEVICES]
    rows = sweep(_geometry(400.0), "lambda", values, table)
    fs = [row.f_s for row in rows]
    assert all(f is not None for f in fs)
    assert np.all(np.diff(fs) > 0)  # shorter pitch, higher frequency
    assert [row.error for row in rows] == [None] * len(rows)


def test_sweep_records_misses_per_row(table):
    rows = sweep(_geometry(400.0), "lambda", [400e-9, 100e-9], table)
    assert rows[0].error is None
    assert rows[1].f_s is None
    assert "outside table hull" in rows[1].error
    # rows built by tuple.__new__ are SweepRows like _make's
    for row in rows:
        assert type(row) is SweepRow
        assert (row.value, row.f_s, row.keff2, row.warnings, row.error) == row == tuple(row)
        assert row._replace(error="x") == (*row[:4], "x")
        assert type(row._replace(error="x")) is SweepRow


def test_sweep_unknown_axis(table):
    with pytest.raises(ValueError, match="unknown sweep axis") as info:
        sweep(_geometry(400.0), "pitch", [1e-6], table)
    # the axes are named as the CLI names them: lambda, not the field wavelength
    assert "lambda" in str(info.value)
    assert "wavelength" not in str(info.value)


def test_geometry_json_round_trip():
    geometry = DeviceGeometry(wavelength=400e-9, h_ln=H_LN, h_elec=H_ELEC, duty=0.5)
    # lambda_m is the wavelength in meters, and each other key names its field
    obj = {"lambda_m": 400e-9, "h_ln_m": H_LN, "h_elec_m": H_ELEC, "duty": 0.5}
    assert geometry_from_json(obj) == geometry


def test_geometry_validation():
    with pytest.raises(ValueError):
        DeviceGeometry(wavelength=-1e-9, h_ln=H_LN, h_elec=H_ELEC, duty=0.5)
    with pytest.raises(ValueError):
        DeviceGeometry(wavelength=400e-9, h_ln=H_LN, h_elec=H_ELEC, duty=1.2)
    # an infinite pitch predicts f_s = 0; a NaN h_elec passed "< 0"
    for bad in (
        {"wavelength": math.inf},
        {"wavelength": 10**400},  # an int too large for a float is below inf
        {"h_ln": math.inf},
        {"h_elec": math.nan},
        {"h_elec": math.inf},
    ):
        kwargs = {"wavelength": 400e-9, "h_ln": H_LN, "h_elec": H_ELEC, "duty": 0.5, **bad}
        with pytest.raises(ValueError, match="finite"):
            DeviceGeometry(**kwargs)


def test_csv_loader_rejects_bad_input():
    with pytest.raises(ValueError):
        load_dispersion_csv("wrong,header\n1,2\n")
    header = "h_ln_over_lambda,h_elec_over_lambda,duty,v_p_mps,keff2,family,provenance"
    with pytest.raises(ValueError):
        load_dispersion_csv(header + "\n1.75,0.1,0.5,3736\n")
    with pytest.raises(ValueError):
        load_dispersion_csv(header + "\n1.75,0.1,0.5,not_a_number,0.16,measured,x\n")
    for row in (
        "inf,0.1,0.5,3736,0.16,measured,x",
        "1.75,nan,0.5,3736,0.16,measured,x",
        "1.75,inf,0.5,3736,0.16,measured,x",
        "1.75,0.1,0.5,inf,0.16,measured,x",
    ):
        with pytest.raises(ValueError, match="finite"):
            load_dispersion_csv(f"{header}\n{row}\n")
    for text, message in (
        ("", "^empty dispersion CSV$"),
        (header + "\n", "^dispersion table needs at least one anchor$"),
        (header + "\n1.75,0.1,0.5,3736,0.16, ,x\n", "family must be non-empty"),
    ):
        with pytest.raises(ValueError, match=message):
            load_dispersion_csv(text)


def test_csv_loader_skips_blank_rows():
    header = "h_ln_over_lambda,h_elec_over_lambda,duty,v_p_mps,keff2,family,provenance"
    rows = ["1.75,0.1,0.5,3736,0.16,measured,a", "2.0,0.1,0.5,3600,0.15,measured,b"]
    plain = load_dispersion_csv("\n".join([header, *rows]) + "\n")
    spaced = load_dispersion_csv("\n".join([header, "", rows[0], ",,, ,,,", "", rows[1], ""]) + "\n")
    assert spaced.anchors == plain.anchors
    assert len(plain.anchors) == 2


def test_measured_velocity_must_decrease_with_film_ratio():
    anchors = [
        DispersionAnchor(1.75, 0.1, 0.5, 3000.0, 0.1, "measured", "a"),
        DispersionAnchor(2.00, 0.1, 0.5, 3500.0, 0.1, "measured", "b"),
    ]
    with pytest.raises(ValueError):
        DispersionTable(anchors)


def test_duplicate_anchor_rejected():
    anchors = [
        DispersionAnchor(1.75, 0.1, 0.5, 3736.0, 0.1, "measured", "a"),
        DispersionAnchor(1.75, 0.1, 0.5, 3700.0, 0.1, "measured", "b"),
    ]
    with pytest.raises(ValueError):
        DispersionTable(anchors)


def test_lookup_at_every_anchor_is_exact(table):
    for a in table.anchors:
        ratio, h_elec_ratio = a.h_ln_over_lambda, a.h_elec_over_lambda
        assert _table_point(table, ratio, a.family, a.duty) == (a.v_p, a.keff2, h_elec_ratio), a
        point = _at_ratio(table, ratio, a.family, a.duty, h_elec_ratio=h_elec_ratio)
        assert point == (a.v_p, a.keff2, ()), a


def test_ratio_just_outside_the_hull_snaps_to_the_end_anchor(table):
    for edge, anchor in ((1.75 * (1 - 5e-10), 1.75), (2.92 * (1 + 5e-10), 2.92)):
        assert _table_point(table, edge) == _table_point(table, anchor)
        h_elec_ratio = _table_point(table, anchor)[2]
        assert _at_ratio(table, edge, h_elec_ratio=h_elec_ratio) == _at_ratio(
            table, anchor, h_elec_ratio=h_elec_ratio
        )
    with pytest.raises(OutOfTableRange):
        _at_ratio(table, 1.75 * (1 - 2e-9))


def test_single_anchor_group_cannot_be_inverted(table):
    with pytest.raises(OutOfTableRange):
        _at_ratio(table, 2.0, duty=0.7)
    with pytest.raises(TargetOutOfRange):
        scale_to_frequency(9.05e9, H_LN, table, duty=0.7)


def test_duty_without_anchors_falls_back_in_lookup_and_sweep(table):
    warning = "duty 0.6 has no anchors in family 'measured'; using duty 0.5 anchors"
    assert _at_ratio(table, 2.05, duty=0.6) == _at_ratio(table, 2.05)[:2] + ((warning,),)
    assert _table_point(table, 2.05, duty=0.6) == _table_point(table, 2.05)
    rows = sweep(_geometry(400.0), "duty", [0.5, 0.6, 0.5], table)
    assert [row.warnings for row in rows] == [(), (warning,), ()]
    assert [row.value for row in rows] == [0.5, 0.6, 0.5]
    assert rows[0].f_s == rows[1].f_s == rows[2].f_s
    assert rows[0].keff2 == rows[1].keff2 == rows[2].keff2


def test_fs_is_continuous_in_duty_at_the_single_anchor_ratio(table):
    # 700/400 nm = 1.75 is the 70 %-duty anchor's ratio: every duty nearer to
    # 0.7 than to 0.5 reads it, so a hair's change of duty cannot jump groups
    exact = predict(_geometry(400.0, duty=0.7), table)[0]
    for duty in (0.65, 0.69999, 0.7 - 1e-12, 0.70001, 0.75):
        assert predict(_geometry(400.0, duty=duty), table)[0] == exact, duty
    rows = sweep(_geometry(400.0), "duty", [0.69999, 0.7, 0.70001], table)
    assert [row.f_s for row in rows] == [exact] * 3
    # a ratio the single anchor cannot serve falls back to the nearest group that can
    assert _table_point(table, 2.05, duty=0.69999) == _table_point(table, 2.05)
    assert scale_to_frequency(11e9, H_LN, table, duty=0.69999) == scale_to_frequency(
        11e9, H_LN, table
    )


def test_non_invertible_group_loads_and_serves_lookups(table):
    # v + r dv/dr at r = 2 is 1000 + 2 * (-3000) < 0: f_s(lambda) turns over
    steep = (
        DispersionAnchor(1.0, 0.1, 0.5, 4000.0, 0.1, "steep", "a"),
        DispersionAnchor(2.0, 0.1, 0.5, 1000.0, 0.1, "steep", "b"),
    )
    mixed = DispersionTable(table.anchors + steep)
    assert _at_ratio(mixed, 1.5, "steep")[0] == 2500.0
    with pytest.raises(ValueError, match="not monotone enough"):
        scale_to_frequency(1e9, 1e-6, mixed, family="steep")
    assert scale_to_frequency(11e9, H_LN, mixed) == scale_to_frequency(11e9, H_LN, table)


def test_scale_to_frequency_rejects_a_non_finite_film(table):
    for h_ln in (math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="h_ln positive and finite"):
            scale_to_frequency(11e9, h_ln, table)


def test_lookup_keeps_the_searchsorted_interpolation(table):
    # reference arithmetic on float64 arrays: segment from np.searchsorted
    # (side left), t = (r - r_i) / (r_i+1 - r_i), c_i + t (c_i+1 - c_i)
    members = sorted(
        (a for a in table.anchors if (a.family, a.duty) == ("measured", 0.5)),
        key=lambda a: a.h_ln_over_lambda,
    )
    ratios = np.array([a.h_ln_over_lambda for a in members])
    columns = [
        np.array([getattr(a, name) for a in members])
        for name in ("v_p", "keff2", "h_elec_over_lambda")
    ]
    for r in np.linspace(ratios[0], ratios[-1], 2001).tolist() + ratios.tolist():
        i = min(max(int(np.searchsorted(ratios, r)) - 1, 0), ratios.size - 2)
        t = (r - ratios[i]) / (ratios[i + 1] - ratios[i])
        expected = tuple(float(c[i] + t * (c[i + 1] - c[i])) for c in columns)
        assert _table_point(table, r) == expected, r
        assert _at_ratio(table, r)[:2] == expected[:2], r


def test_scale_to_frequency_is_exact_to_rounding(table):
    # a steep rising segment (its intercept a = v - s r is negative), a gentle
    # rising one, a constant one and a falling one; all of them invertible
    shapes = [(0.5, 1000.0), (1.0, 3000.0), (1.5, 3300.0), (2.0, 3300.0), (3.0, 2900.0)]
    synthetic = DispersionTable(
        table.anchors
        + tuple(DispersionAnchor(r, 0.1, 0.5, v, 0.1, "synthetic", "") for r, v in shapes)
    )
    rng = np.random.default_rng(13)
    for family, anchors in (
        ("measured", [(a.h_ln_over_lambda, a.v_p) for a in table.anchors
                      if (a.family, a.duty) == ("measured", 0.5)]),
        ("synthetic", shapes),
    ):
        products = sorted(r * v for r, v in anchors)
        for h_ln in rng.uniform(0.3e-6, 1.2e-6, 5):
            h_ln = float(h_ln)
            for target in rng.uniform(products[0] / h_ln, products[-1] / h_ln, 400):
                lam = scale_to_frequency(float(target), h_ln, synthetic, family)
                geometry = DeviceGeometry(wavelength=lam, h_ln=h_ln, h_elec=0.0, duty=0.5)
                f_s = predict(geometry, synthetic, family)[0]
                assert abs(f_s / target - 1.0) <= 1e-14, (family, h_ln, target)
            for r, v in anchors:
                lam = scale_to_frequency(v * r / h_ln, h_ln, synthetic, family)
                assert abs(lam / (h_ln / r) - 1.0) <= 1e-15, (family, h_ln, r)


def test_segment_lines_keep_the_scalar_arithmetic(table):
    # each segment's (intercept, slope) and the invertibility test are worked
    # out once, on arrays, and keep the per-segment scalar formulas' values;
    # the last synthetic segment turns f_s(lambda) over (700 + 3.5 s < 0)
    shapes = [(0.5, 1000.0), (1.0, 3000.0), (1.5, 3300.0), (2.0, 3300.0), (3.0, 2900.0),
              (3.5, 700.0)]
    measured = [(a.h_ln_over_lambda, a.v_p) for a in table.anchors
                if (a.family, a.duty) == ("measured", 0.5)]
    for anchors in [measured] + [shapes[:k] for k in range(2, len(shapes) + 1)]:
        group = DispersionTable(
            DispersionAnchor(r, 0.1, 0.5, v, 0.1, "s") for r, v in anchors
        )._families["s"][0][1]
        lines, invertible = [], True
        for (r0, v0), (r1, v1) in zip(anchors, anchors[1:]):
            slope = (v1 - v0) / (r1 - r0)
            lines.append((v0 - slope * r0, slope))
            invertible = invertible and v0 + r0 * slope > 0 and v1 + r1 * slope > 0
        assert (group.lines, group.invertible) == (tuple(lines), invertible), anchors


# --- golden sweep --------------------------------------------------------
#
# tests/data/sweep_golden.json was written by the per-row sweep that walked
# DeviceGeometry -> predict -> a per-ratio table lookup once per value.
# Every float is stored as float.hex, so the array evaluation must reproduce
# each row to the bit.

GOLDEN = Path(__file__).parent / "data" / "sweep_golden.json"
_EDGE_LO = 1.75 * (1 - 5e-10)  # forgiven: inside the hull's sub-ppb slack
_EDGE_HI = 2.92 * (1 + 5e-10)
_PAST_LO = 1.75 * (1 - 2e-9)  # not forgiven
_PAST_HI = 2.92 * (1 + 2e-9)
_GOLDEN_VALUES = {
    # h_ln = 0.7 um: the five 50 %-duty anchors, inner points, both forgiven
    # edges, both just-missed edges, points past the hull and far beyond it
    "lambda": [H_LN / r for r in (1.75, 1.94, 2.16, 2.36, 2.92, _EDGE_LO, _EDGE_HI,
                                  _PAST_LO, _PAST_HI)]
    + [3.2e-7, 3e-7, 2.5e-7, 4.4e-7, 2.2e-7, 1e-8, 1e-5],
    # lambda = 400 nm
    "h_ln": [400e-9 * r for r in (1.75, 1.94, 2.92, _EDGE_LO, _EDGE_HI, _PAST_HI)]
    + [9e-7, 6e-7, 1.2e-6, 2e-6, 4e-6],
    "h_elec": [0.0, 4e-8, 4.08e-8, 4.1e-8, 2e-8, 1e-7],
    "duty": [0.5, 0.6, 0.65, 0.69999, 0.7, 0.70001, 0.3, 0.95, 0.5 + 5e-10, 0.7 - 5e-10],
}


def _golden_cases():
    """(name, base geometry, axis, values, family, allow_extrapolation)."""
    cases = []
    for family in ("measured", "simulated"):
        for extrapolate in (False, True):
            tag = f"{family}/{'extrapolate' if extrapolate else 'hull'}"
            for axis, duties in (
                ("lambda", (0.5, 0.6, 0.69999, 0.7)),
                ("h_ln", (0.5, 0.6, 0.69999, 0.7)),
                ("h_elec", (0.5, 0.7)),
            ):
                for duty in duties:
                    base = DeviceGeometry(400e-9, H_LN, H_ELEC, duty)
                    cases.append((f"{axis}/{tag}/duty={duty:g}", base, axis,
                                  _GOLDEN_VALUES[axis], family, extrapolate))
            for lam in (400e-9, 300e-9):
                base = DeviceGeometry(lam, H_LN, H_ELEC, 0.5)
                cases.append((f"duty/{tag}/lambda={lam:g}", base, "duty",
                               _GOLDEN_VALUES["duty"], family, extrapolate))
    base = DeviceGeometry(400e-9, H_LN, H_ELEC, 0.5)
    for axis, values in (
        ("lambda", [4e-7, -1e-7, math.nan]),
        ("lambda", [math.inf]),
        ("h_ln", [7e-7, 0.0]),
        ("h_elec", [-1e-9]),
        ("h_elec", [math.nan]),
        ("duty", [0.5, 1.0]),
        ("duty", [0.0]),
    ):
        cases.append((f"invalid/{axis}/{values[-1]!r}", base, axis, values, "measured", False))
    cases.append(("invalid/family", base, "lambda", [4e-7], "nope", False))
    return cases


def _hex(x):
    return None if x is None else float.hex(x)


def _golden_records():
    """Case name -> the sweep's rows as [value, f_s, keff2, warnings, error],
    or the message of the ValueError it raised."""
    records = {}
    for name, base, axis, values, family, extrapolate in _golden_cases():
        try:
            rows = sweep(base, axis, values, builtin_dispersion_table(), family, extrapolate)
        except ValueError as exc:
            records[name] = f"{type(exc).__name__}: {exc}"
            continue
        records[name] = [
            [_hex(row.value), _hex(row.f_s), _hex(row.keff2), list(row.warnings), row.error]
            for row in rows
        ]
    return records


def _golden_text(records):
    """JSON with one case name or row per line, so a changed row diffs alone."""
    lines = []
    for name, rows in records.items():
        if isinstance(rows, str):
            lines.append(f"{json.dumps(name)}: {json.dumps(rows)}")
        else:
            body = ",\n".join(f"  {json.dumps(row)}" for row in rows)
            lines.append(f"{json.dumps(name)}: [\n{body}\n]")
    return "{\n" + ",\n".join(lines) + "\n}\n"


# rows the per-row sweep wrote with a negative v_p or keff2: extrapolated to
# h_ln/lambda = 70 (lambda = 10 nm), 5 (h_ln = 2 um) or 10 (h_ln = 4 um)
_REFUSED = {
    ("lambda/measured/extrapolate/duty=0.5", 14),
    ("lambda/measured/extrapolate/duty=0.6", 14),
    ("lambda/measured/extrapolate/duty=0.69999", 14),
    ("lambda/simulated/extrapolate/duty=0.5", 14),
    ("lambda/simulated/extrapolate/duty=0.6", 14),
    ("lambda/simulated/extrapolate/duty=0.69999", 14),
    ("lambda/simulated/extrapolate/duty=0.7", 14),
    ("h_ln/measured/extrapolate/duty=0.5", 9),
    ("h_ln/measured/extrapolate/duty=0.5", 10),
    ("h_ln/measured/extrapolate/duty=0.6", 9),
    ("h_ln/measured/extrapolate/duty=0.6", 10),
    ("h_ln/measured/extrapolate/duty=0.69999", 9),
    ("h_ln/measured/extrapolate/duty=0.69999", 10),
    ("h_ln/simulated/extrapolate/duty=0.5", 10),
    ("h_ln/simulated/extrapolate/duty=0.6", 10),
    ("h_ln/simulated/extrapolate/duty=0.69999", 10),
    ("h_ln/simulated/extrapolate/duty=0.7", 10),
}


def test_sweep_reproduces_the_golden_rows_to_the_bit():
    golden = json.loads(GOLDEN.read_text())
    records = _golden_records()
    for name, i in _REFUSED:
        value, f_s, keff2, warnings, error = records[name][i]
        assert (value, f_s, keff2, warnings) == (golden[name][i][0], None, None, []), (name, i)
        assert "extrapolates to" in error, (name, i)
        records[name][i] = golden[name][i]
    assert _golden_text(records) == GOLDEN.read_text()


def test_lookup_and_predict_are_the_one_row_case_of_sweep(table):
    for family in ("measured", "simulated"):
        for duty in (0.5, 0.6, 0.7):
            for extrapolate in (False, True):
                base = DeviceGeometry(400e-9, H_LN, H_ELEC, duty)
                values = _GOLDEN_VALUES["lambda"]
                rows = sweep(base, "lambda", values, table, family, extrapolate)
                for lam, row in zip(values, rows):
                    geometry = DeviceGeometry(lam, H_LN, H_ELEC, duty)
                    if row.error is not None:
                        with pytest.raises(OutOfTableRange) as info:
                            predict(geometry, table, family, extrapolate)
                        assert str(info.value) == row.error
                        with pytest.raises(OutOfTableRange) as info:
                            _at_ratio(table, H_LN / lam, family, duty, extrapolate, H_ELEC / lam)
                        assert str(info.value) == row.error
                        continue
                    assert predict(geometry, table, family, extrapolate) == row[1:4]
                    # the same row's ratio and h_elec/lambda on a 1 m pitch
                    v_p, keff2, warnings = _at_ratio(
                        table, H_LN / lam, family, duty, extrapolate, H_ELEC / lam
                    )
                    assert v_p / lam == row.f_s and keff2 == row.keff2
                    assert warnings == row.warnings


def test_sweep_refuses_an_invalid_value_for_the_whole_sweep(table):
    with pytest.raises(ValueError, match="wavelength must be positive and finite"):
        sweep(_geometry(400.0), "lambda", [4e-7, -1e-7, math.nan], table)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: sweep(_geometry(400.0), "lambda", [10**400], t), "wavelength must be"),
        (lambda t: sweep(_geometry(400.0), "duty", [10**400], t), r"duty must lie in \(0, 1\)"),
        (lambda t: sweep(_geometry(400.0), "lambda", [], t), "no sweep values given"),
        (lambda t: scale_to_frequency(10**400, H_LN, t), "target_fs must be positive and finite"),
        (lambda t: scale_to_frequency(math.inf, H_LN, t), "target_fs must be positive and finite"),
    ],
    ids=["lambda-huge-integer", "duty-huge-integer", "no-values", "target-huge-integer",
         "target-inf"],
)
def test_design_refuses_values_beyond_the_float_range_and_empty_sweeps(table, call, message):
    # an int too large for a float used to end in OverflowError, and no
    # values in numpy's zero-size reduction error
    with pytest.raises(ValueError, match=message):
        call(table)


@pytest.mark.parametrize(
    "axis, ratio", [("h_ln", "h_ln_over_lambda"), ("h_elec", "h_elec_over_lambda")]
)
def test_sweep_refuses_a_thickness_ratio_beyond_the_float_range(table, axis, ratio):
    # 1e308 m is a finite length, but 1e308 / 4e-7 is not a finite ratio;
    # filterwarnings = error also fails an overflow warning
    with pytest.raises(ValueError, match=f"{ratio} must be"):
        sweep(DeviceGeometry(4e-7, 7e-7, 4e-8, 0.5), axis, [1e308], table)


def test_extrapolation_refuses_a_non_positive_velocity(table):
    # h_ln/lambda = 70: the last measured segment runs v_p far below zero
    rows = sweep(_geometry(400.0), "lambda", [4e-7, 1e-8], table, allow_extrapolation=True)
    assert rows[0].error is None
    assert rows[1][1:] == (None, None, (), rows[1].error)
    assert rows[1].error.startswith("h_ln/lambda = 70 extrapolates to v_p = -")
    with pytest.raises(OutOfTableRange, match=r"v_p = -\S+ m/s \(must be positive and finite\)"):
        _at_ratio(table, 70.0, extrapolate=True)


def test_extrapolation_refuses_a_coupling_outside_the_unit_interval(table):
    # h_ln/lambda = 5 keeps v_p > 0 but takes keff2 below zero
    geometry = DeviceGeometry(400e-9, 2e-6, H_ELEC, 0.5)
    with pytest.raises(OutOfTableRange, match=r"keff2 = -0.00428571 \(must lie in \[0, 1\)\)"):
        predict(geometry, table, allow_extrapolation=True)
    # a rising coupling extrapolated past 1
    rising = DispersionTable((
        DispersionAnchor(1.0, 0.1, 0.5, 3000.0, 0.5, "rising", ""),
        DispersionAnchor(2.0, 0.1, 0.5, 2900.0, 0.9, "rising", ""),
    ))
    assert _at_ratio(rising, 2.2, "rising", extrapolate=True)[1] < 1.0
    with pytest.raises(OutOfTableRange, match=r"keff2 = 1.02 \(must lie in \[0, 1\)\)"):
        _at_ratio(rising, 2.3, "rising", extrapolate=True)


def test_an_inner_anchor_is_read_from_the_segment_that_ends_at_it():
    # keff2 0.1 -> 0.45 -> 0.2: read from the first segment at t = 1 the inner
    # anchor gives 0.1 + (0.45 - 0.1) = 0.44999999999999996, not 0.45
    steps = DispersionTable(
        DispersionAnchor(r, 0.1, 0.5, 3000.0, k, "steps", "")
        for r, k in ((1.0, 0.1), (2.0, 0.45), (3.0, 0.2))
    )
    assert _at_ratio(steps, 2.0, "steps")[1] == 0.1 + (0.45 - 0.1) != 0.45


@pytest.mark.parametrize("family", ["plain", "m%d{0}", "100%"])
def test_every_message_kind_renders_its_text(family):
    # the texts written as the f-strings that formatted them row by row; a
    # family is read from a CSV, so a % or a brace in its name is plain text
    table = load_dispersion_csv(
        "h_ln_over_lambda,h_elec_over_lambda,duty,v_p_mps,keff2,family,provenance\n"
        f"1.0,0.1,0.5,4000,0.1,{family},a\n"
        f"2.0,0.1,0.5,3000,0.05,{family},b\n"
        f"1.5,0.1,0.7,3500,0.08,{family},c\n"
    )
    hull = f"[{1.0:g}, {2.0:g}]"

    def rows(axis, values, duty=0.5, extrapolate=False):
        # on a 1 m pitch h_ln is the thickness ratio
        base = DeviceGeometry(1.0, 1.5, 0.1, duty)
        return sweep(base, axis, values, table, family, extrapolate)

    plain, outside = rows("h_ln", [1.5, 3.0])
    assert plain[1:] == (3500.0, 0.1 + 0.5 * (0.05 - 0.1), (), None)
    assert outside.error == f"h_ln/lambda = {3.0:g} outside table hull {hull} for family {family!r}"
    mismatch = rows("h_elec", [0.1, 0.15])[1]
    assert mismatch.warnings == (
        f"h_elec/lambda = {0.15:g} differs from the anchor value {0.1:g}; "
        f"electrode loading is not modeled",
    )
    exact, single = rows("h_ln", [1.5, 1.8], duty=0.7)
    assert exact == (1.5, 3500.0, 0.08, (), None)
    assert single.error == (
        f"family {family!r} at duty {0.7:g} has a single anchor at "
        f"h_ln/lambda = {1.5:g}; cannot interpolate to {1.8:g}"
    )
    # one note per duty and group, its tuple shared by the rows it covers
    fell_back = rows("h_ln", [1.2, 1.8], duty=0.6)
    note = f"duty {0.6:g} has no anchors in family {family!r}; using duty {0.5:g} anchors"
    assert [row.warnings for row in fell_back] == [(note,), (note,)]
    assert fell_back[0].warnings is fell_back[1].warnings
    # v_p = 4000 - 1000 (r - 1) and keff2 = 0.1 - 0.05 (r - 1) past both ends
    below, above, no_keff2, no_v_p = rows("h_ln", [0.5, 2.5, 4.0, 6.0], extrapolate=True)
    assert below.warnings == (f"h_ln/lambda = {0.5:g} extrapolated beyond {hull}",)
    assert above.warnings == (f"h_ln/lambda = {2.5:g} extrapolated beyond {hull}",)
    k2 = 0.1 + (4.0 - 1.0) / (2.0 - 1.0) * (0.05 - 0.1)
    assert no_keff2.error == (
        f"h_ln/lambda = {4.0:g} extrapolates to keff2 = {k2:g} (must lie in [0, 1))"
    )
    v = 4000.0 + (6.0 - 1.0) / (2.0 - 1.0) * (3000.0 - 4000.0)
    assert no_v_p.error == (
        f"h_ln/lambda = {6.0:g} extrapolates to v_p = {v:g} m/s (must be positive and finite)"
    )


def test_the_chooser_stops_at_the_group_of_its_duty(table, monkeypatch):
    # serves runs once per sweep where the duty's own group comes first (the
    # better populated), and once per group where the scan must go on
    counts = []
    choose = DispersionTable._choose

    def counted(self, family, duty, serves):
        counts.append(0)

        def counting(group):
            counts[-1] += 1
            return serves(group)

        return choose(self, family, duty, counting)

    monkeypatch.setattr(DispersionTable, "_choose", counted)
    groups = len(table._members("measured"))
    assert groups == 2
    for duty, runs in ((0.5, 1), (0.6, groups), (0.7, groups)):
        counts.clear()
        sweep(_geometry(400.0, duty), "lambda", _GOLDEN_VALUES["lambda"], table)
        assert counts == [runs], duty
    for duty, runs in ((0.5, 1), (0.6, groups)):
        counts.clear()
        scale_to_frequency(11e9, H_LN, table, duty=duty)
        assert counts == [runs], duty
    # one sweep whose rows take their own group (0.5, 0.7) or fall back (0.6)
    counts.clear()
    rows = sweep(_geometry(400.0), "duty", [0.5, 0.6, 0.7], table)
    assert counts == [groups]
    note = "duty 0.6 has no anchors in family 'measured'; using duty 0.5 anchors"
    assert [row.warnings for row in rows] == [(), (note,), ()]
    fifty, seventy = predict(_geometry(400.0), table)[0], predict(_geometry(400.0, 0.7), table)[0]
    assert [row.f_s for row in rows] == [fifty, fifty, seventy] and fifty != seventy


@pytest.mark.parametrize("family", ["measured", "simulated"])
def test_scalar_and_array_choices_agree(table, family):
    duties = _GOLDEN_VALUES["duty"]
    ratios = [1.0, 1.75, 2.05, 3.0]
    duty, ratio = np.repeat(duties, len(ratios)), np.tile(ratios, len(duties))

    def reach(x):
        return lambda group: (group.reach[0] <= x) & (x <= group.reach[1])

    def segments(x):
        return lambda group: len(group.ratios) > 1

    for serves in (reach, segments):
        choice, fell_back = table._choose(family, duty, serves(ratio))
        choice = np.broadcast_to(choice, duty.shape)
        for i, (d, x) in enumerate(zip(duty.tolist(), ratio.tolist())):
            k, open_ = table._choose(family, d, serves(x))
            assert type(k) is int and type(open_) is bool
            assert (k, open_) == (choice[i], fell_back[i]), (serves.__name__, d, x)
