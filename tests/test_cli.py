import csv
import json
import re
import warnings
from importlib import resources

import numpy as np
import pytest

from sawkit import cli, extract, mbvd, network, touchstone
from sawkit.errors import SawkitError
from sawkit.touchstone import OnePortTrace, TouchstoneFormat, parse_touchstone, write_touchstone

from conftest import C_0, F_S, KEFF2, Q_M


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert cli.main(["make-fixtures", "-o", str(out), "--points", "4001"]) == 0
    return out


@pytest.fixture(scope="module")
def wide_s1p(fixture_dir, tmp_path_factory):
    # device A on a grid reaching past [0.9 f_s, 1.1 f_p]: a second grid,
    # 3001 points, for the fit tests
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


@pytest.fixture(scope="module")
def active_s1p(fixture_dir, tmp_path_factory):
    # device A with |S11| scaled by 1.01: Re Y < 0 and flagged Bode-Q samples
    # where |S11| now exceeds 1, yet the resonances are still bracketed
    trace, fmt = parse_touchstone((fixture_dir / "deviceA.s1p").read_text())
    out = tmp_path_factory.mktemp("active") / "active.s1p"
    out.write_text(write_touchstone(OnePortTrace(trace.frequencies, 1.01 * trace.s11, 50.0), fmt))
    return out


def test_make_fixtures_writes_all_devices(fixture_dir):
    for device in "ABCDEF":
        assert (fixture_dir / f"device{device}.s1p").exists()
        params = json.loads((fixture_dir / f"device{device}.params.json").read_text())
        assert params["schema_version"] == 1
        assert params["c_0_f"] == pytest.approx(100e-15)


def test_make_fixtures_runs_the_grid_rule_once_per_device(tmp_path, monkeypatch):
    # synthesis checks each device's grid, and the commented trace keeps it
    calls = []

    def grid_rule(values):
        calls.append(len(values))
        return as_frequency_grid(values)

    as_frequency_grid = touchstone._as_frequency_grid
    for module in (touchstone, network, mbvd):
        monkeypatch.setattr(module, "_as_frequency_grid", grid_rule)
    assert cli.main(["make-fixtures", "-o", str(tmp_path), "--points", "11"]) == 0
    assert calls == [11] * len(cli.FIXTURE_DEVICES)


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
    assert row == "deviceA,400,9.05018,14.9917,210.542,31.5638"
    obj = json.loads(json_path.read_text())
    assert obj["schema_version"] == 2
    assert obj["device"] == "deviceA"
    assert obj["lambda_nm"] == 400.0
    np.testing.assert_allclose(obj["f_s_hz"], 9.05018e9, rtol=1e-5)


def test_extract_to_stdout_writes_the_report_alone(fixture_dir, tmp_path, capsys):
    # '-o -' puts the report JSON on stdout, the same bytes as '-o PATH',
    # and the summary line stays on stderr
    device_a = str(fixture_dir / "deviceA.s1p")
    assert cli.main(["extract", device_a, "-o", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    assert cli.main(["extract", device_a, "-o", "-"]) == 0
    out, err = capsys.readouterr()
    assert out == (tmp_path / "a.json").read_text()
    assert json.loads(out)["y_ratio_db"] > 3.0
    assert err.startswith("deviceA: f_s ") and err.count("\n") == 1


def test_sweep_and_report_write_to_stdout_by_default(tmp_path, capsys):
    geometry = {"lambda_m": 400e-9, "h_ln_m": 0.7e-6, "h_elec_m": 40e-9, "duty": 0.5}
    gpath = tmp_path / "geometry.json"
    gpath.write_text(json.dumps(geometry))
    _write_report(tmp_path / "a.json", "deviceA", 400.0, 9.05e9, 0.15, 213.0)
    # a header and one row per sweep value or report
    for command, rows in (
        (["sweep", str(gpath), "--axis", "lambda", "--values", "400e-9,240e-9"], 2),
        (["report", str(tmp_path / "a.json")], 1),
    ):
        out_path = tmp_path / f"{command[0]}.csv"
        assert cli.main([*command, "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert cli.main(command) == 0
        out, err = capsys.readouterr()
        assert out == out_path.read_text() and err == ""
        assert len(out.splitlines()) == 1 + rows


def test_extract_q_trace_rows_are_percent_formatted(active_s1p, tmp_path):
    csv_path = tmp_path / "q.csv"
    assert cli.main(["extract", str(active_s1p), "-o", str(tmp_path / "r.json"),
                     "--q-trace", str(csv_path)]) == 0
    trace, _ = parse_touchstone(active_s1p.read_text())
    q_trace = extract.full_extraction(trace).q_bode
    q_at = dict(zip(q_trace.frequencies.tolist(), q_trace.q.tolist()))
    expected = [
        "%.12e,%.12e" % (f, q_at.get(f, float("nan"))) for f in trace.frequencies.tolist()
    ]
    lines = csv_path.read_text().split("\n")
    assert lines[0] == "frequency_hz,q_bode"
    assert lines[-1] == ""
    assert lines[1:-1] == expected
    assert len(expected) == trace.frequencies.size
    flagged = [line for line in expected if line.endswith(",nan")]
    assert len(flagged) == q_trace.flagged.size > 0


def test_a_failed_extraction_writes_no_output(tmp_path, capsys):
    # a lossless trace flags every Bode-Q sample: the extraction exits 3, and
    # the curve, like the report and the summary row, is never written
    params = mbvd.params_from_metrics(F_S, KEFF2, float("inf"), C_0)
    trace = mbvd.synthesize_s11(params, np.linspace(8.5e9, 10.5e9, 800))
    s1p = tmp_path / "l.s1p"
    s1p.write_text(write_touchstone(trace, TouchstoneFormat()))
    outputs = [tmp_path / name for name in ("r.json", "r.csv", "q.csv")]
    argv = ["extract", str(s1p), "-o", str(outputs[0]), "--csv", str(outputs[1]),
            "--q-trace", str(outputs[2])]
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("error: no unflagged Bode-Q samples in [")
    assert not any(path.exists() for path in outputs)
    assert [path.name for path in tmp_path.iterdir()] == ["l.s1p"]


def test_passivity_violations_are_one_warning_line(active_s1p, fixture_dir, tmp_path, capsys):
    trace, _ = parse_touchstone(active_s1p.read_text())
    count, worst = network.passivity_violations(network.s_to_y(trace))
    assert count > 0
    line = (
        f"warning: active: {count} samples have conductance below -1e-06 S "
        f"(lowest {worst:.3g} S); the trace may not be passive"
    )
    report_path = tmp_path / "r.json"
    init = str(fixture_dir / "deviceA.params.json")
    # fit --report also compares couplings, which must add no line of its own
    for argv in (
        ["extract", str(active_s1p), "-o", str(report_path)],
        ["fit", str(active_s1p), "--init", init, "-o", str(tmp_path / "f.json"), "--report"],
    ):
        capsys.readouterr()
        assert cli.main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert [entry for entry in err if entry.startswith("warning:")] == [line]
    diagnostics = json.loads(report_path.read_text())["diagnostics"]
    assert diagnostics["passivity_violations"] == count
    assert diagnostics["worst_conductance_s"] == worst


def test_fixtures_extract_q_trace_and_report_v1_and_v2(tmp_path):
    fx = tmp_path / "fx"
    assert cli.main(["make-fixtures", "-o", str(fx), "--points", "1001"]) == 0
    for device, lambda_nm in (("A", "400"), ("E", "240")):
        argv = ["extract", str(fx / f"device{device}.s1p"), "--device", f"device{device}",
                "--lambda-nm", lambda_nm, "-o", str(tmp_path / f"{device}.json"),
                "--q-trace", str(tmp_path / f"{device}.csv")]
        assert cli.main(argv) == 0
        assert len((tmp_path / f"{device}.csv").read_text().splitlines()) == 1 + 1001
    # device A's report again in schema 1: the same scalars, the curve as lists
    report = json.loads((tmp_path / "A.json").read_text())
    assert report["schema_version"] == 2
    rows = [line.split(",") for line in (tmp_path / "A.csv").read_text().splitlines()[1:]]
    curve = np.array(rows, dtype=float)
    flagged = np.isnan(curve[:, 1])
    del report["diagnostics"]
    report.update(
        schema_version=1,
        q_bode={
            "frequency_hz": curve[~flagged, 0].tolist(),
            "q": curve[~flagged, 1].tolist(),
            "flagged_hz": curve[flagged, 0].tolist(),
        },
    )
    (tmp_path / "A.v1.json").write_text(json.dumps(report))
    tables = []
    for a_report in ("A.json", "A.v1.json"):
        out = tmp_path / "table.csv"
        argv = ["report", str(tmp_path / "E.json"), str(tmp_path / a_report),
                "--sort-lambda", "-o", str(out)]
        assert cli.main(argv) == 0
        tables.append(out.read_text().splitlines())
    assert tables[0] == tables[1]
    assert [line.split(",")[:2] for line in tables[1]] == [
        ["device", "lambda_nm"], ["deviceA", "400"], ["deviceE", "240"]
    ]


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


def test_inputs_read_the_same_with_a_byte_order_mark(fixture_dir, tmp_path):
    # a UTF-8 byte-order mark on a trace, a params JSON or a dispersion CSV
    # changes no output byte
    table = tmp_path / "table.csv"
    table.write_bytes((resources.files("sawkit") / "data/dispersion.csv").read_bytes())
    geometry = tmp_path / "geometry.json"
    geometry.write_text(json.dumps({"lambda_m": 4e-7, "h_ln_m": 7e-7, "h_elec_m": 4e-8, "duty": 0.5}))
    inputs = {
        "trace": fixture_dir / "deviceA.s1p",
        "params": fixture_dir / "deviceA.params.json",
        "table": table,
    }
    commands = {
        "trace": "extract {trace} -o {out}",
        "params": f"fit {inputs['trace']} --init {{params}} -o {{out}}",
        "table": f"sweep {geometry} --axis lambda --values 4e-7,2.4e-7 --table {{table}} -o {{out}}",
    }
    for name, path in inputs.items():
        bom = tmp_path / f"bom-{path.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        outputs = []
        for source in (path, bom):
            out = tmp_path / f"{name}-{source.name}.out"
            argv = commands[name].format(**{name: source, "out": out}).split()
            assert cli.main(argv) == 0, argv
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name


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
    conv, _ = parse_touchstone(out.read_text())
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


def test_fit_with_automatic_guess_and_report(wide_s1p, tmp_path, capsys, monkeypatch):
    trace, _ = parse_touchstone(wide_s1p.read_text())
    measured = extract.full_extraction(trace).keff2
    # operation counts: the comparison needs the resonance pairs only, so no
    # extraction, tuning, Bode-Q or S11 synthesis runs under fit --report, and
    # the model keeps the parsed grid: the grid rule runs once, in the parse
    calls = dict.fromkeys(
        ("full_extraction", "tune_source_impedance", "bode_q", "synthesize_s11", "grid_rule"), 0
    )

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in (
        (extract, "full_extraction"), (extract, "tune_source_impedance"),
        (network, "tune_source_impedance"), (extract, "bode_q"), (mbvd, "synthesize_s11"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    grid_rule = counted("grid_rule", touchstone._as_frequency_grid)
    for module in (touchstone, network, mbvd):
        monkeypatch.setattr(module, "_as_frequency_grid", grid_rule)
    out = tmp_path / "fit.json"
    rc = cli.main(["fit", str(wide_s1p), "-o", str(out), "--report"])
    assert rc == 0
    assert calls == {**dict.fromkeys(calls, 0), "grid_rule": 1}
    obj = json.loads(out.read_text())
    assert obj["converged"] is True
    comparison = obj["comparison"]
    np.testing.assert_allclose(
        comparison["keff2_from_elements"], KEFF2, rtol=1e-6
    )
    assert comparison["keff2_measured"] == measured
    # extrema-based and element-based coupling agree to well under a point
    assert abs(comparison["keff2_measured"] - comparison["keff2_fitted_model"]) < 1e-3
    assert "keff2" in capsys.readouterr().err


def test_fit_json_carries_the_fit_diagnostics(wide_s1p, tmp_path):
    # one definition of the fit JSON: the CLI writes fit.result_to_json as it
    # stands, stop reason and cost history too
    out = tmp_path / "fit.json"
    assert cli.main(["fit", str(wide_s1p), "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["stop_reason"] in ("cost_tolerance", "step_tolerance")
    history = obj["cost_history"]
    assert len(history) >= 2 and history == sorted(history, reverse=True)
    assert set(obj["params"]) == {"r_s_ohm", "r_0_ohm", "r_m_ohm", "l_m_h", "c_m_f", "c_0_f"}
    assert not set(obj["params"]) & set(obj)


def _fitted_element_errors(fit_json, params_json):
    """Largest relative error of l_m, c_m and c_0 in a fit JSON against the truth."""
    fitted = json.loads(fit_json.read_text())
    truth = json.loads(params_json.read_text())
    assert fitted["converged"] is True
    return max(abs(fitted["params"][k] / truth[k] - 1.0) for k in ("l_m_h", "c_m_f", "c_0_f"))


def test_fit_without_init_converges_on_every_fixture_device(fixture_dir, tmp_path):
    # the fixture grid spans exactly [0.9 f_s, 1.1 f_p]; the start reads c_0
    # from every sample farther than 1 % from f_s
    for device in cli.FIXTURE_DEVICES:
        out = tmp_path / f"{device}.fit.json"
        assert cli.main(["fit", str(fixture_dir / f"device{device}.s1p"), "-o", str(out)]) == 0
        assert _fitted_element_errors(out, fixture_dir / f"device{device}.params.json") < 1e-6


@pytest.mark.parametrize("sigma", ["1e-3", "3e-3"])
def test_fit_without_init_on_noisy_fixture_grids(sigma, fixture_dir, tmp_path):
    # the fixture grid with complex S11 noise of rms sigma (noise seed 7) on
    # every device; the largest element error seen at 3e-3 was 2.8e-4
    for device, (_, f_s, _, _) in cli.FIXTURE_DEVICES.items():
        params = fixture_dir / f"device{device}.params.json"
        f_p = mbvd.derived_fp(cli.fixture_params(device))
        noisy, out = tmp_path / f"{device}.s1p", tmp_path / f"{device}.fit.json"
        assert cli.main([
            "synth", str(params), "-o", str(noisy), "--f-lo", repr(0.9 * f_s),
            "--f-hi", repr(float(1.1 * f_p)), "--points", "4001", "--noise", sigma, "--seed", "7",
        ]) == 0
        assert cli.main(["fit", str(noisy), "-o", str(out)]) == 0
        assert _fitted_element_errors(out, params) < 1e-3


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


def test_report_merges_and_sorts(fixture_dir, tmp_path):
    _write_report(tmp_path / "e.json", "deviceE", 240.0, 13.37e9, 0.07, 58.0)
    _write_report(tmp_path / "a.json", "deviceA", 400.0, 9.05e9, 0.15, 213.0)
    # sawkit extract without --lambda-nm writes "lambda_nm": null
    null_path = tmp_path / "b.json"
    assert cli.main(["extract", str(fixture_dir / "deviceB.s1p"), "-o", str(null_path)]) == 0
    assert json.loads(null_path.read_text())["lambda_nm"] is None
    out = tmp_path / "table.csv"
    rc = cli.main(
        [
            "report", str(tmp_path / "e.json"), str(null_path), str(tmp_path / "a.json"),
            "--sort-lambda", "-o", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("device,")
    assert lines[1].startswith("deviceA,400,")  # longest wavelength first
    assert lines[2].startswith("deviceE,240,")
    assert lines[3].startswith("b,,")  # no wavelength: an empty field, sorted last


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


def test_report_names_every_device_once(tmp_path, capsys):
    # a renamed duplicate skips a name another report already has
    paths = []
    for i, device in enumerate(("a", "a", "a-2", "a", "a-2")):
        paths.append(str(tmp_path / f"r{i}.json"))
        _write_report(tmp_path / f"r{i}.json", device, 400.0, 9.05e9, 0.15, 213.0)
    out = tmp_path / "table.csv"
    capsys.readouterr()
    assert cli.main(["report", *paths, "-o", str(out)]) == 0
    names = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert names == ["a", "a-2", "a-2-2", "a-3", "a-2-3"]
    assert capsys.readouterr().err.splitlines() == [
        "warning: duplicate device name 'a'; renaming to a-2",
        "warning: duplicate device name 'a-2'; renaming to a-2-2",
        "warning: duplicate device name 'a'; renaming to a-3",
        "warning: duplicate device name 'a-2'; renaming to a-2-3",
    ]


def test_report_markdown(tmp_path):
    _write_report(tmp_path / "r1.json", "deviceA", 400.0, 9.05e9, 0.15, 213.0)
    out = tmp_path / "table.md"
    rc = cli.main(["report", str(tmp_path / "r1.json"), "--markdown", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("| device |")
    assert lines[1].startswith("| ---")
    assert "| deviceA |" in lines[2]


@pytest.mark.parametrize("device", ["dev,A", 'dev "A"', "a|b"])
def test_summary_tables_keep_the_device_name_in_one_field(fixture_dir, tmp_path, device):
    # the CSV quotes a name holding a comma or a quote, and Markdown escapes a '|'
    json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    assert cli.main(["extract", str(fixture_dir / "deviceA.s1p"), "--device", device,
                     "--csv", str(csv_path), "-o", str(json_path)]) == 0
    table_path, md_path = tmp_path / "t.csv", tmp_path / "t.md"
    assert cli.main(["report", str(json_path), "-o", str(table_path)]) == 0
    assert cli.main(["report", str(json_path), "--markdown", "-o", str(md_path)]) == 0
    for path in (csv_path, table_path):
        with open(path, newline="") as f:
            header, row = csv.reader(f)
        assert header == extract.CSV_HEADER.split(",")
        assert len(row) == 6 and row[0] == device
    cells = re.split(r"(?<!\\)\|", md_path.read_text().splitlines()[2])[1:-1]
    assert len(cells) == 6 and cells[0].strip().replace("\\|", "|") == device


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
def bad_inputs(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("bad")
    # device A with S11 conjugated: the susceptance turns inductive
    trace, fmt = parse_touchstone((fixture_dir / "deviceA.s1p").read_text())
    (out / "conjugate.s1p").write_text(
        write_touchstone(OnePortTrace(trace.frequencies, np.conj(trace.s11), 50.0), fmt)
    )
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
    (out / "empty_table.csv").write_text("")
    metrics = {"f_s_hz": 9.05e9, "keff2": 0.15, "q_max": 213.0, "fom": 32.0}
    for name, extra in (
        ("device_number", {"device": 5}),
        ("lambda_string", {"lambda_nm": "400"}),
        ("lambda_bool", {"lambda_nm": True}),
        # numbers JSON can carry but a float cannot hold
        ("fs_huge_integer", {"f_s_hz": 10**400}),
        ("lambda_huge_integer", {"lambda_nm": 10**400}),
        ("lambda_negative", {"lambda_nm": -400}),
        ("lambda_zero", {"lambda_nm": 0}),
        ("q_max_nan", {"q_max": float("nan")}),
        ("fom_infinity", {"fom": float("inf")}),
        ("keff2_minus_infinity", {"keff2": float("-inf")}),
    ):
        (out / f"{name}.json").write_text(json.dumps({**metrics, **extra}))
    (out / "geometry.json").write_text(
        json.dumps(
            {
                "lambda_m": 400e-9, "h_ln_m": 0.7e-6, "h_elec_m": 40e-9,
                "duty": 0.5, "n_e": 40, "n_r": 40, "aperture_lambdas": 20.0,
            }
        )
    )
    geometry = json.loads((out / "geometry.json").read_text())
    (out / "geometry_nan_h_elec.json").write_text(json.dumps({**geometry, "h_elec_m": float("nan")}))
    (out / "geometry_fractional_n_e.json").write_text(json.dumps({**geometry, "n_e": 2.5}))
    (out / "geometry_huge_integer.json").write_text(json.dumps({**geometry, "lambda_m": 10**400}))
    (out / "geometry_no_duty.json").write_text(
        json.dumps({k: v for k, v in geometry.items() if k != "duty"})
    )
    (out / "geometry_string.json").write_text(json.dumps({**geometry, "h_ln_m": "7e-7"}))
    params = json.loads((fixture_dir / "deviceA.params.json").read_text())
    for name, extra in (
        ("infinite_l_m", {"l_m_h": float("inf")}),
        ("infinite_c_0", {"c_0_f": float("inf")}),
        ("huge_integer", {"r_s_ohm": 10**400}),
        ("string", {"r_s_ohm": "0.5"}),
    ):
        (out / f"params_{name}.json").write_text(json.dumps({**params, **extra}))
    # the option line's R must be positive and finite, like every z0
    device_a = (fixture_dir / "deviceA.s1p").read_text()
    for name, ohms in (("inf", "inf"), ("overflow", "1e400"), ("nan", "nan")):
        (out / f"r_{name}.s1p").write_text(device_a.replace("R 50\n", f"R {ohms}\n", 1))
    (out / "infinite_velocity_table.csv").write_text(
        "h_ln_over_lambda,h_elec_over_lambda,duty,v_p_mps,keff2,family,provenance\n"
        "1.75,0.1,0.5,inf,0.16,measured,x\n"
    )
    # a latin-1 degree sign in a comment and in a device name: not UTF-8
    (out / "latin1.s1p").write_bytes(("! at 25 \u00b0C\n" + device_a).encode("latin-1"))
    (out / "latin1.json").write_bytes(
        json.dumps({**metrics, "device": "A at 25 \u00b0C"}, ensure_ascii=False).encode("latin-1")
    )
    return out


# (command line, exit code, stderr fragment); {fx} is the fixture directory,
# {bad} the bad-input directory, {wide} device A on a wider grid,
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
    # a file that is not UTF-8 -> 2, the message naming it
    "convert-not-utf8": ("convert {bad}/latin1.s1p {tmp}/o.s1p", 2, "latin1.s1p: not UTF-8"),
    "report-not-utf8": ("report {bad}/latin1.json", 2, "latin1.json: not UTF-8"),
    # extraction or domain failure -> 3
    "convert-singular": ("convert {bad}/singular.s1p {tmp}/o.s1p --z0 75", 3, "S11 = -1"),
    "extract-singular": ("extract {bad}/singular.s1p -o {tmp}/r.json", 3, "S11 = -1"),
    "extract-not-bracketed": ("extract {bad}/cap.s1p -o {tmp}/r.json", 3, "not bracketed"),
    "fit-singular": ("fit {bad}/singular.s1p -o {tmp}/f.json", 3, "S11 = -1"),
    "fit-no-static-branch": ("fit {bad}/conjugate.s1p -o {tmp}/f.json", 3, "static-capacitance"),
    "sweep-out-of-table": (
        "sweep {bad}/geometry.json --axis lambda --values 4e-7,1e-7 -o {tmp}/s.csv",
        3,
        "sweep rows failed",
    ),
    # invalid option values and malformed JSON/CSV content -> 2
    "convert-negative-z0": ("convert {fx}/deviceA.s1p {tmp}/o.s1p --z0 -5", 2, "z0 must be positive"),
    # an infinite z0 would write S11 = -1 on every row
    "convert-infinite-z0": (
        "convert {fx}/deviceA.s1p {tmp}/o.s1p --z0 inf", 2, "z0 must be positive and finite"
    ),
    "convert-overflowing-z0": (
        "convert {fx}/deviceA.s1p {tmp}/o.s1p --z0 1e400", 2, "z0 must be positive and finite"
    ),
    "convert-option-line-nan-r": (
        "convert {bad}/r_nan.s1p {tmp}/o.s1p",
        2,
        "r_nan.s1p: line 2: reference resistance must be positive and finite",
    ),
    "extract-option-line-infinite-r": (
        "extract {bad}/r_inf.s1p -o {tmp}/r.json",
        2,
        "r_inf.s1p: line 2: reference resistance must be positive and finite",
    ),
    "fit-option-line-overflowing-r": (
        "fit {bad}/r_overflow.s1p -o {tmp}/f.json",
        2,
        "r_overflow.s1p: line 2: reference resistance must be positive and finite",
    ),
    "extract-reversed-tune-band": (
        "extract {fx}/deviceA.s1p -o {tmp}/r.json --tune-band 1e10 8e9",
        2,
        "tune_band must be finite with lo < hi",
    ),
    "extract-nan-tune-band": (
        "extract {fx}/deviceA.s1p -o {tmp}/r.json --tune-band nan nan",
        2,
        "tune_band must be finite with lo < hi",
    ),
    "extract-nan-qmax-band": (
        "extract {fx}/deviceA.s1p -o {tmp}/r.json --qmax-band nan 1e10",
        2,
        "qmax_band must be finite with lo < hi",
    ),
    "extract-even-smooth": (
        "extract {fx}/deviceA.s1p -o {tmp}/r.json --smooth 4", 2, "smooth_window must be odd"
    ),
    # refused with the options, before a trace without a resonance fails the extraction
    "extract-capacitor-even-smooth": (
        "extract {bad}/cap.s1p -o {tmp}/r.json --smooth 4", 2, "smooth_window must be odd"
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
    "synth-infinite-z0": (
        "synth {fx}/deviceA.params.json -o {tmp}/o.s1p --f-lo 1e9 --f-hi 2e9 --points 11 --z0 inf",
        2,
        "z0 must be positive and finite",
    ),
    "synth-overflowing-z0": (
        "synth {fx}/deviceA.params.json -o {tmp}/o.s1p --f-lo 1e9 --f-hi 2e9 --points 11 --z0 1e400",
        2,
        "z0 must be positive and finite",
    ),
    "synth-negative-noise": (
        "synth {fx}/deviceA.params.json -o {tmp}/o.s1p --f-lo 1e9 --f-hi 2e9 --points 11 --noise -0.5",
        2,
        "noise must be finite and >= 0",
    ),
    "synth-nan-noise": (
        "synth {fx}/deviceA.params.json -o {tmp}/o.s1p --f-lo 1e9 --f-hi 2e9 --points 11 --noise nan",
        2,
        "noise must be finite and >= 0",
    ),
    "extract-nan-lambda": (
        "extract {fx}/deviceA.s1p -o {tmp}/r.json --lambda-nm nan",
        2,
        "lambda_nm must be positive and finite",
    ),
    "extract-infinite-lambda": (
        "extract {fx}/deviceA.s1p -o {tmp}/r.json --lambda-nm inf",
        2,
        "lambda_nm must be positive and finite",
    ),
    "extract-negative-lambda": (
        "extract {fx}/deviceA.s1p -o {tmp}/r.json --lambda-nm -400",
        2,
        "lambda_nm must be positive and finite",
    ),
    "sweep-wavelength-axis": (
        "sweep {bad}/geometry.json --axis wavelength --values 4e-7 -o {tmp}/s.csv",
        2,
        "unknown sweep axis",
    ),
    "synth-invalid-json": (
        "synth {bad}/garbage.json -o {tmp}/o.s1p --f-lo 1e9 --f-hi 2e9 --points 11",
        2,
        "invalid JSON",
    ),
    # an infinite element would synthesize S11 = -1 rows
    "synth-infinite-l-m": (
        "synth {bad}/params_infinite_l_m.json -o {tmp}/o.s1p --f-lo 8e9 --f-hi 10e9 --points 3",
        2,
        "l_m must be positive and finite",
    ),
    "synth-infinite-c-0": (
        "synth {bad}/params_infinite_c_0.json -o {tmp}/o.s1p --f-lo 8e9 --f-hi 10e9 --points 3",
        2,
        "c_0 must be positive and finite",
    ),
    "synth-huge-integer": (
        "synth {bad}/params_huge_integer.json -o {tmp}/o.s1p --f-lo 8e9 --f-hi 10e9 --points 3",
        2,
        "params JSON values must be finite numbers",
    ),
    "synth-params-string": (
        "synth {bad}/params_string.json -o {tmp}/o.s1p --f-lo 8e9 --f-hi 10e9 --points 3",
        2,
        "params JSON values must be numbers",
    ),
    "fit-init-infinite-l-m": (
        "fit {fx}/deviceA.s1p --init {bad}/params_infinite_l_m.json -o {tmp}/f.json",
        2,
        "l_m must be positive and finite",
    ),
    "fit-init-huge-integer": (
        "fit {fx}/deviceA.s1p --init {bad}/params_huge_integer.json -o {tmp}/f.json",
        2,
        "params JSON values must be finite numbers",
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
    "sweep-empty-table": (
        "sweep {bad}/geometry.json --axis lambda --values 4e-7 --table {bad}/empty_table.csv",
        2,
        "empty dispersion CSV",
    ),
    "sweep-bad-values": ("sweep {bad}/geometry.json --axis lambda --values 4e-7,x", 2, "sweep values"),
    "sweep-geometry-nan-h-elec": (
        "sweep {bad}/geometry_nan_h_elec.json --axis lambda --values 4e-7", 2, "h_elec must be finite"
    ),
    "sweep-geometry-huge-integer": (
        "sweep {bad}/geometry_huge_integer.json --axis lambda --values 4e-7",
        2,
        "geometry JSON key 'lambda_m' must be a finite number",
    ),
    "sweep-geometry-without-duty": (
        "sweep {bad}/geometry_no_duty.json --axis lambda --values 4e-7",
        2,
        "geometry JSON missing keys: duty",
    ),
    "sweep-geometry-string": (
        "sweep {bad}/geometry_string.json --axis lambda --values 4e-7",
        2,
        "geometry JSON key 'h_ln_m' must be a number",
    ),
    "sweep-nan-h-elec": ("sweep {bad}/geometry.json --axis h_elec --values nan", 2, "h_elec must be finite"),
    "sweep-infinite-wavelength": (
        "sweep {bad}/geometry.json --axis lambda --values inf", 2, "wavelength must be positive and finite"
    ),
    # finite lengths whose ratio to the wavelength overflows
    "sweep-overflowing-h-ln-ratio": (
        "sweep {bad}/geometry.json --axis h_ln --values 1e308",
        2,
        "h_ln_over_lambda must be positive and finite",
    ),
    "sweep-overflowing-h-elec-ratio": (
        "sweep {bad}/geometry.json --axis h_elec --values 1e308",
        2,
        "h_elec_over_lambda must be finite and >= 0",
    ),
    "sweep-infinite-aperture": (
        "sweep {bad}/geometry.json --axis aperture --values inf", 2, "unknown sweep axis"
    ),
    "sweep-infinite-table-velocity": (
        "sweep {bad}/geometry.json --axis lambda --values 4e-7 --table {bad}/infinite_velocity_table.csv",
        2,
        "v_p must be positive and finite",
    ),
    "sweep-infinite-n-e": (
        "sweep {bad}/geometry.json --axis n_e --values inf", 2, "unknown sweep axis"
    ),
    "sweep-fractional-n-r": (
        "sweep {bad}/geometry.json --axis n_r --values 40,2.5", 2, "unknown sweep axis"
    ),
    "report-not-an-object": ("report {bad}/list.json", 2, "expected a JSON object"),
    "report-foreign-json": ("report {bad}/no_params.json", 2, "missing keys"),
    "report-device-not-a-string": (
        "report {bad}/device_number.json", 2, "report key 'device' must be a string or null"
    ),
    "report-lambda-not-a-number": (
        "report {bad}/lambda_string.json", 2, "report key 'lambda_nm' must be a number or null"
    ),
    "report-lambda-not-a-number-sorted": (
        "report {bad}/lambda_string.json --sort-lambda",
        2,
        "report key 'lambda_nm' must be a number or null",
    ),
    "report-lambda-bool": (
        "report {bad}/lambda_bool.json", 2, "report key 'lambda_nm' must be a number or null"
    ),
    "report-fs-huge-integer": (
        "report {bad}/fs_huge_integer.json", 2, "report key 'f_s_hz' must be a finite number"
    ),
    "report-lambda-huge-integer": (
        "report {bad}/lambda_huge_integer.json",
        2,
        "report key 'lambda_nm' must be a finite number or null",
    ),
    "report-lambda-negative": (
        "report {bad}/lambda_negative.json",
        2,
        "lambda_negative.json: lambda_nm must be positive and finite",
    ),
    "report-lambda-zero": (
        "report {bad}/lambda_zero.json --sort-lambda",
        2,
        "lambda_zero.json: lambda_nm must be positive and finite",
    ),
    "report-q-max-nan": (
        "report {bad}/q_max_nan.json", 2, "report key 'q_max' must be a finite number"
    ),
    "report-fom-infinity": (
        "report {bad}/fom_infinity.json", 2, "report key 'fom' must be a finite number"
    ),
    "report-keff2-minus-infinity": (
        "report {bad}/keff2_minus_infinity.json", 2, "report key 'keff2' must be a finite number"
    ),
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
    if code == cli.EXIT_PARSE:
        # an invalid input or option is refused before any output is written
        assert list(tmp_path.iterdir()) == []


def test_sweep_ignores_geometry_keys_it_does_not_model(bad_inputs, tmp_path):
    # n_e, n_r and aperture_lambdas, whole or not, change no row
    legacy = json.loads((bad_inputs / "geometry.json").read_text())
    four = tmp_path / "four.json"
    four.write_text(json.dumps({k: legacy[k] for k in ("lambda_m", "h_ln_m", "h_elec_m", "duty")}))
    outputs = []
    for geometry in (four, bad_inputs / "geometry.json", bad_inputs / "geometry_fractional_n_e.json"):
        out = tmp_path / f"{geometry.stem}.csv"
        argv = ["sweep", str(geometry), "--axis", "lambda", "--values", "4e-7,3.2e-7,2.4e-7"]
        assert cli.main(argv + ["-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_type_has_a_cli_exit_code():
    found = list(_subclasses(SawkitError))
    assert len(found) >= 14
    for cls in [SawkitError, *found]:
        assert cls.exit_code in (cli.EXIT_PARSE, 3), cls.__name__


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
