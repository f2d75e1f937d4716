"""End-to-end acceptance checks.

Each test pins one published-device or numeric contract of the library:
published figure-of-merit closure, dispersion-table ordering, wavelength
scaling inverses, the synthesize-extract-fit round trip, the lossless
coupling identity, Q-extraction guards and invariances, source-impedance
invariance, the file-format round trip, and the closure of the fixture
devices' extracted table on the published rows and on the dispersion table.
"""

import numpy as np
import pytest

from sawkit import cli, mbvd
from sawkit.design import (
    DeviceGeometry,
    builtin_dispersion_table,
    predict,
    scale_to_frequency,
)
from sawkit.extract import bode_q, find_fs_fp, fom, full_extraction, keff2
from sawkit.fit import fit_mbvd
from sawkit.network import OnePortTrace, s_to_y
from sawkit.touchstone import TouchstoneFormat, parse_touchstone, write_touchstone

from conftest import C_0, F_S, KEFF2, Q_M, R_0, R_S

# published per-device metrics: (keff2, q_max, fom)
PUBLISHED_ROWS = [
    (0.15, 213.0, 32.0),
    (0.11, 172.0, 19.0),
    (0.13, 126.0, 16.0),
    (0.09, 111.0, 10.0),
    (0.07, 58.0, 4.0),
    (0.16, 99.0, 16.0),
]

# measured 50 %-duty anchors, thinnest film first: strictly slowing velocity
ANCHOR_RATIOS = [1.75, 1.94, 2.16, 2.36, 2.92]
ANCHOR_VELOCITIES = [3736.0, 3690.0, 3528.0, 3484.0, 3209.0]

PARAM_FIELDS = ("r_s", "r_0", "r_m", "l_m", "c_m", "c_0")

# closure bounds: FoM as test_published_fom_closure; keff2 in percentage
# points against the published row and against the dispersion-table
# prediction, whose f_s is held to a relative bound
CLOSURE_FOM_TOL = 0.5
CLOSURE_KEFF2_PT = 0.02
PREDICTION_KEFF2_PT = 0.05
PREDICTION_FS_REL = 1e-3


def test_published_fom_closure():
    for coupling, q_value, published in PUBLISHED_ROWS:
        assert abs(fom(coupling, q_value) - published) <= 0.5, (coupling, q_value)
    print("PASS 1: all six published FoM values reproduced within 0.5")


def test_dispersion_velocity_strictly_decreases():
    table = builtin_dispersion_table()
    # on a 1 m pitch h_ln is the thickness ratio and f_s is v_p; h_elec/lambda
    # is the 40 nm electrode's on the 0.7 um film
    velocities = [
        predict(DeviceGeometry(1.0, r, r * 0.04 / 0.7, 0.5), table)[0] for r in ANCHOR_RATIOS
    ]
    assert velocities == ANCHOR_VELOCITIES
    assert all(a > b for a, b in zip(velocities, velocities[1:]))
    print("PASS 2: measured 50%-duty phase velocity strictly decreasing")


def test_wavelength_scaling_inverse():
    table = builtin_dispersion_table()
    lam_high = scale_to_frequency(13.37e9, 0.7e-6, table)
    assert abs(lam_high - 240e-9) / 240e-9 < 5e-3
    lam_low = scale_to_frequency(9.34e9, 0.7e-6, table)
    assert abs(lam_low - 400e-9) / 400e-9 < 5e-3
    print("PASS 3: pitch recovered from 13.37 and 9.34 GHz targets within 0.5%")


def test_model_round_trip_extraction_and_fit(device_params, device_trace):
    report = full_extraction(device_trace)
    assert abs(report.f_s - F_S) / F_S < 5e-4
    assert abs(report.keff2 - KEFF2) < 3e-3
    assert abs(report.q_max - Q_M) / Q_M < 0.10

    admittance = s_to_y(device_trace)
    rng = np.random.default_rng(42)
    factors = 1.0 + rng.uniform(-0.2, 0.2, len(PARAM_FIELDS))
    start = mbvd.MbvdParams(
        **{
            f: getattr(device_params, f) * factors[i]
            for i, f in enumerate(PARAM_FIELDS)
        }
    )
    result = fit_mbvd(admittance, start)
    assert result.converged
    for f in PARAM_FIELDS:
        rel = abs(getattr(result.params, f) / getattr(device_params, f) - 1.0)
        assert rel < 0.01, (f, rel)
    print(
        "PASS 4: extraction within 0.05%/0.3pt/10% and fit recovery within 1% "
        f"(q_max {report.q_max:.1f} vs Q_m {Q_M:g})"
    )


def test_lossless_coupling_identity():
    for ratio in (0.01, 0.05, 0.1216, 0.3):
        target = np.pi**2 / 8.0 * ratio
        params = mbvd.params_from_metrics(
            F_S, target, q_m=float("inf"), c_0=C_0
        )
        f_hi = 1.1 * mbvd.derived_fp(params)
        grid = np.linspace(0.9 * F_S, f_hi, 4001)
        trace = mbvd.synthesize_s11(params, grid, z0=50.0)
        f_s, f_p = find_fs_fp(s_to_y(trace))
        extracted = keff2(f_s, f_p)
        assert abs(extracted - target) / target < 5e-3, ratio
    print("PASS 5: lossless coupling identity holds within 0.5% at 4 ratios")


def test_q_extraction_guards_and_invariances(device_trace):
    lossless = mbvd.params_from_metrics(F_S, KEFF2, q_m=float("inf"), c_0=C_0)
    grid = np.linspace(0.9 * F_S, 1.1 * mbvd.derived_fp(lossless), 4001)
    flagged = bode_q(mbvd.synthesize_s11(lossless, grid, z0=50.0))
    assert flagged.frequencies.size == 0
    assert flagged.flagged.size == grid.size

    q_ref = bode_q(device_trace)
    for scale in (2.0, 1.7):
        rescaled = OnePortTrace(
            frequencies=scale * device_trace.frequencies,
            s11=device_trace.s11.copy(),
            z0=50.0,
        )
        q_scaled = bode_q(rescaled)
        np.testing.assert_allclose(q_scaled.q, q_ref.q, rtol=1e-10)

    params = mbvd.params_from_metrics(F_S, KEFF2, Q_M, C_0, r_s=R_S, r_0=R_0)
    values = []
    for n in (2001, 4001):
        g = np.linspace(8.5e9, 10.5e9, n)
        values.append(full_extraction(mbvd.synthesize_s11(params, g, z0=50.0)).q_max)
    assert abs(values[1] - values[0]) / values[0] < 0.01
    print("PASS 6: lossless data fully flagged; Q invariant to axis rescale; grid-converged")


def test_source_impedance_invariance(device_params):
    grid = np.linspace(8.5e9, 10.5e9, 4001)
    reference = None
    for z0 in (25.0, 50.0, 75.0, 200.0):
        report = full_extraction(mbvd.synthesize_s11(device_params, grid, z0=z0))
        values = np.array([report.f_s, report.f_p, report.keff2, report.y_ratio])
        if reference is None:
            reference = values
        else:
            np.testing.assert_allclose(values, reference, rtol=1e-6)
    print("PASS 7: f_s, f_p, coupling and Y-ratio invariant to source impedance")


def test_file_format_round_trip():
    rng = np.random.default_rng(2024)
    cases = 0
    for unit in ("HZ", "KHZ", "MHZ", "GHZ"):
        for value_format in ("RI", "MA", "DB"):
            fmt = TouchstoneFormat(unit, value_format)
            for _ in range(9):
                n = int(rng.integers(16, 64))
                f = np.sort(rng.uniform(1e6, 4e10, n))
                while np.any(np.diff(f) <= 0):  # pragma: no cover
                    f = np.sort(rng.uniform(1e6, 4e10, n))
                magnitude = 10.0 ** rng.uniform(-4, 0, n)
                angle = rng.uniform(-np.pi, np.pi, n)
                trace = OnePortTrace(
                    frequencies=f, s11=magnitude * np.exp(1j * angle), z0=50.0
                )
                back, _ = parse_touchstone(write_touchstone(trace, fmt))
                np.testing.assert_allclose(back.frequencies, f, rtol=1e-9)
                np.testing.assert_allclose(back.s11, trace.s11, rtol=1e-9)
                cases += 1
    assert cases == 108
    print(f"PASS 8: parse-write identity within 1e-9 on {cases} random traces")


def test_fixture_table_closes_on_published_rows_and_dispersion_table(tmp_path):
    # make-fixtures -> extract -> report, as a user runs them
    fixtures = tmp_path / "fixtures"
    assert cli.main(["make-fixtures", "-o", str(fixtures)]) == 0
    reports = []
    for device, (lambda_nm, *_) in cli.FIXTURE_DEVICES.items():
        report = str(tmp_path / f"device{device}.json")
        args = ["extract", str(fixtures / f"device{device}.s1p"), "-o", report]
        assert cli.main(args + ["--device", device, "--lambda-nm", str(lambda_nm)]) == 0
        reports.append(report)
    table_path = tmp_path / "table.csv"
    assert cli.main(["report", *reports, "-o", str(table_path)]) == 0
    header, *rows = table_path.read_text().splitlines()
    assert header == "device,lambda_nm,f_s_GHz,keff2_pct,q_max,fom"
    assert [row.split(",")[0] for row in rows] == list(cli.FIXTURE_DEVICES)

    table = builtin_dispersion_table()
    for row, (coupling, _, published) in zip(rows, PUBLISHED_ROWS):
        device, lambda_nm, f_s_ghz, keff2_pct, _, fom_value = row.split(",")
        assert abs(float(fom_value) - published) <= CLOSURE_FOM_TOL, row
        assert abs(float(keff2_pct) - 100 * coupling) <= CLOSURE_KEFF2_PT, row
        # the design half of the toolkit: the 0.7 um film with 40 nm electrodes
        geometry = DeviceGeometry(
            float(lambda_nm) * 1e-9, 0.7e-6, 40e-9, 0.7 if device == "A" else 0.5
        )
        f_s_predicted, keff2_predicted, _ = predict(geometry, table)
        assert abs(float(f_s_ghz) * 1e9 / f_s_predicted - 1) <= PREDICTION_FS_REL, row
        assert abs(float(keff2_pct) - 100 * keff2_predicted) <= PREDICTION_KEFF2_PT, row
    print("PASS 9: fixture table closes on the published rows and on the dispersion table")
