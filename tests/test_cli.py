import json
import warnings

import numpy as np
import pytest

from sawkit import cli, mbvd
from sawkit.errors import SawkitError
from sawkit.touchstone import parse_touchstone

from conftest import C_0, F_S, KEFF2, Q_M


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert cli.main(["make-fixtures", "-o", str(out), "--points", "4001"]) == 0
    return out


@pytest.fixture(scope="module")
def wide_s1p(fixture_dir, tmp_path_factory):
    # grid reaching past [0.9 f_s, 1.1 f_p] so the closed-form guess has
    # out-of-band samples to read the static branch from
    out = tmp_path_factory.mktemp("synth") / "wide.s1p"
    rc = cli.main(
        [
            "synth", str(fixture_dir / "deviceA.params.json"),
            "-o", str(out),
            "--f-lo", "8.0e9", "--f-hi", "10.8e9", "--points", "3001",
        ]
    )
    assert rc == 0
    return out


def test_make_fixtures_writes_all_devices(fixture_dir):
    for device in "ABCDEF":
        assert (fixture_dir / f"device{device}.s1p").exists()
        params = json.loads((fixture_dir / f"device{device}.params.json").read_text())
        assert params["schema_version"] == 1
        assert params["c_0_f"] == pytest.approx(100e-15)


def test_extract_summary_row(fixture_dir, tmp_path):
    csv_path = tmp_path / "a.csv"
    json_path = tmp_path / "a.json"
    rc = cli.main(
        [
            "extract", str(fixture_dir / "deviceA.s1p"),
            "--device", "deviceA", "--lambda-nm", "400",
            "--csv", str(csv_path), "-o", str(json_path),
        ]
    )
    assert rc == 0
    header, row = csv_path.read_text().splitlines()
    assert header == "device,lambda_nm,f_s_GHz,keff2_pct,q_max,fom"
    assert row == "deviceA,400,9.04906,15.0545,210.542,31.696"
    obj = json.loads(json_path.read_text())
    assert obj["schema_version"] == 1
    assert obj["device"] == "deviceA"
    assert obj["lambda_nm"] == 400.0
    np.testing.assert_allclose(obj["f_s_hz"], 9.04906e9, rtol=1e-5)


def test_extract_missing_file(tmp_path, capsys):
    rc = cli.main(["extract", str(tmp_path / "nope.s1p")])
    assert rc == 4
    assert "nope.s1p" in capsys.readouterr().err


def test_extract_rejects_non_resonant_data(tmp_path, capsys):
    # plain capacitor: no interior |Y| peak to lock onto
    f = np.linspace(1e9, 2e9, 201)
    y = 1j * 2 * np.pi * f * 1e-12
    s = (1 - 50 * y) / (1 + 50 * y)
    lines = ["# HZ S RI R 50"] + [
        f"{fi:.6e} {si.real:.9e} {si.imag:.9e}" for fi, si in zip(f, s)
    ]
    path = tmp_path / "cap.s1p"
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["extract", str(path)])
    assert rc == 3
    assert "not bracketed" in capsys.readouterr().err


def test_extract_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.s1p"
    path.write_text("# GHZ S RI R 50\n1 0\n2 0\n")
    rc = cli.main(["extract", str(path)])
    assert rc == 2
    assert "bad.s1p" in capsys.readouterr().err


def test_convert_formats_agree(fixture_dir, tmp_path):
    src = fixture_dir / "deviceB.s1p"
    ma = tmp_path / "b_ma.s1p"
    assert cli.main(["convert", str(src), str(ma), "--format", "MA", "--unit", "MHZ"]) == 0
    orig, fmt_orig = parse_touchstone(src.read_text())
    conv, fmt_conv = parse_touchstone(ma.read_text())
    assert fmt_conv.value_format == "MA"
    assert fmt_conv.frequency_unit == "MHZ"
    np.testing.assert_allclose(conv.frequencies, orig.frequencies, rtol=1e-9)
    np.testing.assert_allclose(conv.s11, orig.s11, rtol=1e-9, atol=1e-12)


def test_convert_renormalizes(fixture_dir, tmp_path):
    src = fixture_dir / "deviceB.s1p"
    out = tmp_path / "b75.s1p"
    assert cli.main(["convert", str(src), str(out), "--z0", "75"]) == 0
    conv, fmt = parse_touchstone(out.read_text())
    assert fmt.reference_resistance == 75.0
    assert conv.z0 == 75.0
    # admittance is the invariant under the change of reference
    from sawkit.network import s_to_y

    orig, _ = parse_touchstone(src.read_text())
    np.testing.assert_allclose(s_to_y(conv).y, s_to_y(orig).y, rtol=1e-9, atol=1e-12)


def test_synth_validates_grid(fixture_dir, tmp_path, capsys):
    rc = cli.main(
        [
            "synth", str(fixture_dir / "deviceA.params.json"),
            "-o", str(tmp_path / "x.s1p"),
            "--f-lo", "1e9", "--f-hi", "2e9", "--points", "1",
        ]
    )
    assert rc == 2
    assert "at least 2 points" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_convert_rejects_non_finite_frequency(value, tmp_path, capsys):
    src = tmp_path / "bad.s1p"
    src.write_text(f"# GHZ S RI R 50\n1 0.1 0\n2 0.2 0\n{value} 0.1 0.1\n")
    out = tmp_path / "out.s1p"
    assert cli.main(["convert", str(src), str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad.s1p: frequencies must be positive and strictly increasing" in err
    assert not out.exists()


def test_synth_rejects_infinite_grid(fixture_dir, capsys):
    rc = cli.main(
        [
            "synth", str(fixture_dir / "deviceA.params.json"), "-o", "-",
            "--f-lo", "1e9", "--f-hi", "inf", "--points", "3",
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert "frequencies must be positive and strictly increasing" in captured.err
    assert captured.out == ""


def test_synth_lossless_is_unimodular(tmp_path):
    params = mbvd.params_from_metrics(F_S, KEFF2, q_m=float("inf"), c_0=C_0)
    params_path = tmp_path / "lossless.json"
    params_path.write_text(json.dumps(mbvd.params_to_json(params)))
    out = tmp_path / "lossless.s1p"
    rc = cli.main(
        [
            "synth", str(params_path), "-o", str(out),
            "--f-lo", "8.5e9", "--f-hi", "10.5e9", "--points", "801",
        ]
    )
    assert rc == 0
    trace, _ = parse_touchstone(out.read_text())
    np.testing.assert_allclose(np.abs(trace.s11), 1.0, atol=1e-12)


def test_synth_noise_is_seeded(fixture_dir, tmp_path):
    args = [
        "synth", str(fixture_dir / "deviceA.params.json"),
        "--f-lo", "8.5e9", "--f-hi", "10.5e9", "--points", "401",
        "--noise", "1e-3", "--seed", "7",
    ]
    a, b, c = tmp_path / "a.s1p", tmp_path / "b.s1p", tmp_path / "c.s1p"
    assert cli.main(args + ["-o", str(a)]) == 0
    assert cli.main(args + ["-o", str(b)]) == 0
    assert cli.main(args[:-1] + ["8", "-o", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_fit_from_stored_parameters(fixture_dir, tmp_path):
    out = tmp_path / "fit.json"
    rc = cli.main(
        [
            "fit", str(fixture_dir / "deviceA.s1p"),
            "--init", str(fixture_dir / "deviceA.params.json"),
            "-o", str(out),
        ]
    )
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["converged"] is True
    assert obj["iterations"] <= 2
    assert obj["rms_residual_s"] < 1e-9
    np.testing.assert_allclose(obj["params"]["c_0_f"], C_0, rtol=1e-6)


def test_fit_with_automatic_guess_and_report(wide_s1p, tmp_path, capsys):
    out = tmp_path / "fit.json"
    rc = cli.main(["fit", str(wide_s1p), "-o", str(out), "--report"])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["converged"] is True
    comparison = obj["comparison"]
    np.testing.assert_allclose(
        comparison["keff2_from_elements"], KEFF2, rtol=1e-6
    )
    # extrema-based and element-based coupling agree to well under a point
    assert abs(comparison["keff2_measured"] - comparison["keff2_fitted_model"]) < 1e-3
    assert "keff2" in capsys.readouterr().err


def test_fit_guess_needs_out_of_band_samples(fixture_dir, tmp_path, capsys):
    # the fixture grid covers exactly [0.9 f_s, 1.1 f_p]: nothing to read the
    # static branch from, so the closed-form guess must refuse
    rc = cli.main(["fit", str(fixture_dir / "deviceA.s1p"), "-o", str(tmp_path / "f.json")])
    assert rc == 3
    assert "static capacitance" in capsys.readouterr().err


def test_fit_nonconvergence_exit_code(wide_s1p, tmp_path, capsys):
    out = tmp_path / "fit1.json"
    rc = cli.main(["fit", str(wide_s1p), "-o", str(out), "--max-iter", "1"])
    assert rc == 5
    obj = json.loads(out.read_text())  # result is still written
    assert obj["converged"] is False
    assert "DID NOT converge" in capsys.readouterr().err


def test_sweep_wavelength_axis(tmp_path):
    geometry = {
        "lambda_m": 400e-9, "h_ln_m": 0.7e-6, "h_elec_m": 40e-9,
        "duty": 0.5, "n_e": 40, "n_r": 40, "aperture_lambdas": 20.0,
    }
    gpath = tmp_path / "geometry.json"
    gpath.write_text(json.dumps(geometry))
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        [
            "sweep", str(gpath), "--axis", "lambda",
            "--values", "400e-9,360e-9,324e-9,296e-9,240e-9",
            "-o", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,f_s_GHz,keff2_pct,warnings,error"
    fs = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(fs) == 5
    assert all(b > a for a, b in zip(fs, fs[1:]))


def test_sweep_reports_out_of_table_rows(tmp_path, capsys):
    geometry = {
        "lambda_m": 400e-9, "h_ln_m": 0.7e-6, "h_elec_m": 40e-9,
        "duty": 0.5, "n_e": 40, "n_r": 40, "aperture_lambdas": 20.0,
    }
    gpath = tmp_path / "geometry.json"
    gpath.write_text(json.dumps(geometry))
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["sweep", str(gpath), "--axis", "lambda", "--values", "400e-9,100e-9", "-o", str(out)]
    )
    assert rc == 3
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + both rows, the bad one annotated
    assert "outside table hull" in lines[2]
    assert "sweep rows failed" in capsys.readouterr().err


def _write_report(path, device, lambda_nm, fs_hz, keff2, qmax):
    obj = {
        "schema_version": 1,
        "device": device,
        "lambda_nm": lambda_nm,
        "f_s_hz": fs_hz,
        "f_p_hz": fs_hz * 1.05,
        "keff2": keff2,
        "y_ratio": 100.0,
        "y_ratio_db": 40.0,
        "q_max": qmax,
        "fom": keff2 * qmax,
        "z0_star_ohm": 170.0,
        "q_bode": {"frequency_hz": [], "q": [], "flagged_hz": []},
    }
    path.write_text(json.dumps(obj))


def test_report_merges_and_sorts(tmp_path):
    _write_report(tmp_path / "e.json", "deviceE", 240.0, 13.37e9, 0.07, 58.0)
    _write_report(tmp_path / "a.json", "deviceA", 400.0, 9.05e9, 0.15, 213.0)
    out = tmp_path / "table.csv"
    rc = cli.main(
        [
            "report", str(tmp_path / "e.json"), str(tmp_path / "a.json"),
            "--sort-lambda", "-o", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("device,")
    assert lines[1].startswith("deviceA,400")  # longest wavelength first
    assert lines[2].startswith("deviceE,240")


def test_report_disambiguates_duplicate_names(tmp_path, capsys):
    _write_report(tmp_path / "r1.json", "deviceA", 400.0, 9.05e9, 0.15, 213.0)
    _write_report(tmp_path / "r2.json", "deviceA", 400.0, 9.06e9, 0.15, 213.0)
    out = tmp_path / "table.csv"
    rc = cli.main(["report", str(tmp_path / "r1.json"), str(tmp_path / "r2.json"), "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("deviceA,")
    assert lines[2].startswith("deviceA-2,")
    assert "duplicate" in capsys.readouterr().err


def test_report_markdown(tmp_path):
    _write_report(tmp_path / "r1.json", "deviceA", 400.0, 9.05e9, 0.15, 213.0)
    out = tmp_path / "table.md"
    rc = cli.main(["report", str(tmp_path / "r1.json"), "--markdown", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("| device |")
    assert lines[1].startswith("| ---")
    assert "| deviceA |" in lines[2]


def test_report_with_no_inputs_gives_header(tmp_path):
    out = tmp_path / "empty.csv"
    assert cli.main(["report", "-o", str(out)]) == 0
    assert out.read_text().splitlines() == ["device,lambda_nm,f_s_GHz,keff2_pct,q_max,fom"]


def test_report_rejects_foreign_json(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema_version": 1, "params": {}}))
    rc = cli.main(["report", str(path), "-o", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "missing keys" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["9e9", None, True, [9e9], {"hz": 9e9}])
@pytest.mark.parametrize("key", ["f_s_hz", "keff2", "q_max", "fom"])
def test_report_rejects_non_numeric_metric(key, value, tmp_path, capsys):
    path = tmp_path / "r.json"
    _write_report(path, "deviceA", 400.0, 9.05e9, 0.15, 213.0)
    obj = json.loads(path.read_text())
    obj[key] = value
    path.write_text(json.dumps(obj))
    rc = cli.main(["report", str(path), "-o", str(tmp_path / "t.csv")])
    assert rc == 2
    assert f"{path}: report key '{key}' must be a number" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bad")
    (out / "bad.s1p").write_text("# GHZ S RI R 50\n1 0\n2 0\n")
    # S11 = -1 in the first row: the admittance is undefined there
    (out / "singular.s1p").write_text("# GHZ S RI R 50\n1 -1 0\n2 0.5 0\n3 0.5 0.1\n")
    f = np.linspace(1e9, 2e9, 201)
    y = 1j * 2 * np.pi * f * 1e-12
    s = (1 - 50 * y) / (1 + 50 * y)
    (out / "cap.s1p").write_text(
        "# HZ S RI R 50\n"
        + "".join(f"{fi:.6e} {si.real:.9e} {si.imag:.9e}\n" for fi, si in zip(f, s))
    )
    (out / "garbage.json").write_text("{not json")
    (out / "list.json").write_text("[1, 2]")
    (out / "no_params.json").write_text(json.dumps({"schema_version": 1}))
    (out / "bad_table.csv").write_text("not,a,dispersion,header\n")
    (out / "geometry.json").write_text(
        json.dumps(
            {
                "lambda_m": 400e-9, "h_ln_m": 0.7e-6, "h_elec_m": 40e-9,
                "duty": 0.5, "n_e": 40, "n_r": 40, "aperture_lambdas": 20.0,
            }
        )
    )
    return out


# (command line, exit code, stderr fragment); {fx} is the fixture directory,
# {bad} the bad-input directory, {wide} a trace the closed-form guess accepts,
# {tmp} a fresh directory for outputs
EXIT_CODE_CASES = {
    # file I/O -> 4
    "convert-missing-input": ("convert {tmp}/nope.s1p {tmp}/o.s1p", 4, "nope.s1p"),
    "extract-missing-input": ("extract {tmp}/nope.s1p", 4, "nope.s1p"),
    "extract-unwritable-output": (
        "extract {fx}/deviceA.s1p -o {tmp}/no/such/dir/r.json", 4, "cannot write"
    ),
    "fit-missing-input": ("fit {tmp}/nope.s1p", 4, "nope.s1p"),
    "fit-missing-init": (
        "fit {fx}/deviceA.s1p --init {tmp}/nope.json -o {tmp}/f.json", 4, "nope.json"
    ),
    "synth-missing-params": (
        "synth {tmp}/nope.json -o {tmp}/o.s1p --f-lo 1e9 --f-hi 2e9 --points 11", 4, "nope.json"
    ),
    "sweep-missing-geometry": ("sweep {tmp}/nope.json --axis lambda --values 4e-7", 4, "nope.json"),
    "sweep-missing-table": (
        "sweep {bad}/geometry.json --axis lambda --values 4e-7 --table {tmp}/nope.csv",
        4,
        "nope.csv",
    ),
    "report-missing-input": ("report {tmp}/nope.json", 4, "nope.json"),
    "make-fixtures-unwritable": ("make-fixtures -o {bad}/bad.s1p/sub", 4, "cannot create"),
    # unparseable Touchstone -> 2, message prefixed with the path
    "convert-malformed": ("convert {bad}/bad.s1p {tmp}/o.s1p", 2, "bad.s1p: line"),
    "extract-malformed": ("extract {bad}/bad.s1p", 2, "bad.s1p: line"),
    "fit-malformed": ("fit {bad}/bad.s1p", 2, "bad.s1p: line"),
    # extraction or domain failure -> 3
    "convert-singular": ("convert {bad}/singular.s1p {tmp}/o.s1p --z0 75", 3, "S11 = -1"),
    "extract-singular": ("extract {bad}/singular.s1p -o {tmp}/r.json", 3, "S11 = -1"),
    "extract-not-bracketed": ("extract {bad}/cap.s1p -o {tmp}/r.json", 3, "not bracketed"),
    "fit-singular": ("fit {bad}/singular.s1p -o {tmp}/f.json", 3, "S11 = -1"),
    "fit-no-static-branch": ("fit {fx}/deviceA.s1p -o {tmp}/f.json", 3, "static capacitance"),
    "sweep-out-of-table": (
        "sweep {bad}/geometry.json --axis lambda --values 4e-7,1e-7 -o {tmp}/s.csv",
        3,
        "sweep rows failed",
    ),
    # invalid option values and malformed JSON/CSV content -> 2
    "convert-negative-z0": ("convert {fx}/deviceA.s1p {tmp}/o.s1p --z0 -5", 2, "z0 must be positive"),
    "extract-even-smooth": (
        "extract {fx}/deviceA.s1p -o {tmp}/r.json --smooth 4", 2, "smooth_window must be odd"
    ),
    "extract-smooth-longer-than-trace": (
        "extract {fx}/deviceA.s1p -o {tmp}/r.json --smooth 4003", 2, "exceeds the trace length"
    ),
    "fit-zero-iterations": (
        "fit {fx}/deviceA.s1p --init {fx}/deviceA.params.json -o {tmp}/f.json --max-iter 0",
        2,
        "max_iterations",
    ),
    "fit-init-without-elements": (
        "fit {fx}/deviceA.s1p --init {bad}/no_params.json -o {tmp}/f.json", 2, "missing keys"
    ),
    "synth-negative-z0": (
        "synth {fx}/deviceA.params.json -o {tmp}/o.s1p --f-lo 1e9 --f-hi 2e9 --points 11 --z0 -1",
        2,
        "z0 must be positive",
    ),
    "synth-invalid-json": (
        "synth {bad}/garbage.json -o {tmp}/o.s1p --f-lo 1e9 --f-hi 2e9 --points 11",
        2,
        "invalid JSON",
    ),
    "synth-bad-grid": (
        "synth {fx}/deviceA.params.json -o {tmp}/o.s1p --f-lo 2e9 --f-hi 1e9 --points 11",
        2,
        "f-lo < f-hi",
    ),
    # 1e308 Hz is finite but 2 pi f overflows in the model
    "synth-overflowing-grid": (
        "synth {fx}/deviceA.params.json -o - --f-lo 1e9 --f-hi 1e308 --points 3",
        2,
        "2 pi f-hi must be finite",
    ),
    "sweep-unknown-axis": ("sweep {bad}/geometry.json --axis color --values 1", 2, "unknown sweep axis"),
    "sweep-unknown-family": (
        "sweep {bad}/geometry.json --axis lambda --values 4e-7 --family nope", 2, "unknown family"
    ),
    "sweep-bad-table": (
        "sweep {bad}/geometry.json --axis lambda --values 4e-7 --table {bad}/bad_table.csv",
        2,
        "header",
    ),
    "sweep-bad-values": ("sweep {bad}/geometry.json --axis lambda --values 4e-7,x", 2, "sweep values"),
    "report-not-an-object": ("report {bad}/list.json", 2, "expected a JSON object"),
    "report-foreign-json": ("report {bad}/no_params.json", 2, "missing keys"),
    # fit did not converge -> 5
    "fit-no-convergence": ("fit {wide} -o {tmp}/f.json --max-iter 1", 5, "DID NOT converge"),
}


@pytest.mark.parametrize("case", list(EXIT_CODE_CASES), ids=list(EXIT_CODE_CASES))
def test_exit_code_map(case, fixture_dir, bad_inputs, wide_s1p, tmp_path, capsys):
    command, code, fragment = EXIT_CODE_CASES[case]
    places = {"fx": fixture_dir, "bad": bad_inputs, "wide": wide_s1p, "tmp": tmp_path}
    argv = [token.format(**places) for token in command.split()]
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert fragment in err
    if code != 5:
        assert err.startswith("error: ")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_type_has_a_cli_exit_code():
    found = list(_subclasses(SawkitError))
    assert len(found) >= 14
    for cls in [SawkitError, *found]:
        assert cls.exit_code in (cli.EXIT_PARSE, cli.EXIT_EXTRACT), cls.__name__


def test_extract_rejects_non_finite_s11(fixture_dir, tmp_path, capsys):
    lines = (fixture_dir / "deviceA.s1p").read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("#")) + 1
    f, _, b = lines[first + 10].split()
    lines[first + 10] = f"{f} nan {b}"
    path = tmp_path / "nan.s1p"
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["extract", str(path)])
    assert rc == 2
    assert f"line {first + 11}: non-finite value in data row" in capsys.readouterr().err
