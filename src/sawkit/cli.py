"""Command-line front end.

Subcommands: convert, extract, fit, synth, sweep, report, plus a hidden
make-fixtures generator for self-contained test data.  Exit codes: 0 ok,
2 unparseable input or invalid option value, 3 extraction/domain failure,
4 file I/O, 5 fit did not converge.  Commands raise on failure, and `main`
alone maps an escaping exception to its exit code; `fit` returns 5 itself,
after writing its JSON.  Diagnostics go to stderr; stdout carries data
only when an output path of '-' is chosen.  A trace with negative
conductance gets one 'warning:' line from extract and fit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import design, extract, fit, mbvd, network, touchstone
from .errors import FINITE_NONNEGATIVE, SawkitError, is_json_number, require
from .extract import SCHEMA_VERSION, format_number as _fmt

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 4
EXIT_NO_CONVERGENCE = 5

# target metrics per fixture device: lambda_nm, f_s Hz, coupling fraction, motional Q
FIXTURE_DEVICES = {
    "A": (400.0, 9.05e9, 0.15, 213.0),
    "B": (360.0, 10.25e9, 0.11, 172.0),
    "C": (324.0, 10.89e9, 0.13, 126.0),
    "D": (296.0, 11.77e9, 0.09, 111.0),
    "E": (240.0, 13.37e9, 0.07, 58.0),
    "F": (400.0, 9.34e9, 0.16, 99.0),
}
FIXTURE_C_0 = 100e-15
# representative access and dielectric losses; keeps the Bode-Q curve peaked
# near resonance the way measured devices are, instead of climbing toward the
# nearly lossless static branch off-band
FIXTURE_R_S = 0.5
FIXTURE_R_0 = 0.5


class _CliIOError(Exception):
    exit_code = EXIT_IO


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _CliIOError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _CliIOError(f"cannot write {path}: {exc}") from exc


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return obj


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _parse_trace(path: str) -> tuple[touchstone.OnePortTrace, touchstone.TouchstoneFormat]:
    text = _read_text(path)
    try:
        return touchstone.parse_touchstone(text)
    except SawkitError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _warn_passivity(label: str, count: int, worst_conductance: float) -> None:
    if count:
        _diag(
            f"warning: {label}: {count} samples have conductance below "
            f"-{network._PASSIVITY_EPS:g} S (lowest {worst_conductance:.3g} S); "
            "the trace may not be passive"
        )


# --- convert -----------------------------------------------------------


def cmd_convert(args) -> int:
    trace, fmt = _parse_trace(args.input)
    if args.z0 is not None:
        trace = network.renormalize(trace, args.z0)
    out_fmt = touchstone.TouchstoneFormat(
        args.unit or fmt.frequency_unit, args.format or fmt.value_format
    )
    _write_text(args.output, touchstone.write_touchstone(trace, out_fmt))
    return EXIT_OK


# --- extract -----------------------------------------------------------


def _q_trace_csv(q_trace: extract.QTrace) -> str:
    """The Bode-Q curve on the whole grid, in frequency order; nan where flagged."""
    freqs = np.concatenate([q_trace.frequencies, q_trace.flagged])
    q = np.concatenate([q_trace.q, np.full(q_trace.flagged.size, np.nan)])
    order = np.argsort(freqs, kind="stable")
    rows = np.column_stack((freqs[order], q[order]))
    return touchstone._format_rows(rows, ",", head="frequency_hz,q_bode\n")


def cmd_extract(args) -> int:
    extract.check_lambda_nm(args.lambda_nm)
    trace, _ = _parse_trace(args.input)
    options = extract.ExtractOptions(
        tune_band=args.tune_band,
        qmax_band=args.qmax_band,
        smooth_window=args.smooth,
    )
    report = extract.full_extraction(trace, options)
    output = args.output or str(Path(args.input).with_suffix(".report.json"))
    payload = extract.report_to_json(report, device=args.device, lambda_nm=args.lambda_nm)
    _write_json(output, payload)
    if args.csv:
        row = extract.report_csv_row(report, device=args.device or "", lambda_nm=args.lambda_nm)
        _write_text(args.csv, extract.CSV_HEADER + "\n" + row + "\n")
    if args.q_trace:
        _write_text(args.q_trace, _q_trace_csv(report.q_bode))
    label = args.device or Path(args.input).stem
    _diag(
        f"{label}: f_s {_fmt(report.f_s / 1e9)} GHz  f_p {_fmt(report.f_p / 1e9)} GHz  "
        f"keff2 {_fmt(report.keff2 * 100)} %  Y-ratio {_fmt(report.y_ratio_db)} dB  "
        f"Q_max {_fmt(report.q_max)}  FoM {_fmt(report.fom)}  z0* {_fmt(report.z0_star)} ohm"
    )
    diagnostics = report.diagnostics
    _warn_passivity(label, diagnostics.passivity_violations, diagnostics.worst_conductance_s)
    return EXIT_OK


# --- fit ---------------------------------------------------------------


def cmd_fit(args) -> int:
    trace, _ = _parse_trace(args.input)
    admittance = network.s_to_y(trace)
    _warn_passivity(Path(args.input).stem, *network.passivity_violations(admittance))
    if args.init:
        init = mbvd.params_from_json(_read_json(args.init))
    else:
        init = fit.initial_guess(admittance)
    result = fit.fit_mbvd(admittance, init, args.max_iter)
    payload = fit.result_to_json(result)
    if args.report:
        # the resonance pair only: no tuning, Bode-Q or S11 synthesis
        freqs = admittance.frequencies
        model = network.AdmittanceTrace(freqs, mbvd.admittance(result.params, freqs))
        payload["comparison"] = comparison = {
            "keff2_measured": extract.keff2(*extract.find_fs_fp(admittance)),
            "keff2_fitted_model": extract.keff2(*extract.find_fs_fp(model)),
            "keff2_from_elements": mbvd.derived_keff2(result.params),
        }
        _diag(
            f"keff2 measured {_fmt(comparison['keff2_measured'] * 100)} %  "
            f"fitted model {_fmt(comparison['keff2_fitted_model'] * 100)} %  "
            f"from elements {_fmt(comparison['keff2_from_elements'] * 100)} %"
        )
    output = args.output or str(Path(args.input).with_suffix(".fit.json"))
    _write_json(output, payload)
    _diag(
        f"fit {'converged' if result.converged else 'DID NOT converge'} after "
        f"{result.iterations} iterations ({result.stop_reason}); "
        f"rms residual {result.rms_residual:.3e} S"
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


# --- synth -------------------------------------------------------------


def cmd_synth(args) -> int:
    params = mbvd.params_from_json(_read_json(args.params))
    if args.points < 2:
        raise ValueError("grid needs at least 2 points")
    require("noise", args.noise, FINITE_NONNEGATIVE)
    if not args.f_lo > 0 or not args.f_hi > args.f_lo:
        raise ValueError("need 0 < f-lo < f-hi")
    if not np.isfinite(2.0 * np.pi * args.f_hi):  # the model works in angular frequency
        raise ValueError(
            "frequencies must be positive and strictly increasing; 2 pi f-hi must be finite"
        )
    grid = np.linspace(args.f_lo, args.f_hi, args.points)
    s11 = mbvd.synthesize_s11(params, grid, z0=args.z0).s11
    if args.noise > 0:
        rng = np.random.default_rng(args.seed)
        s11 = s11 + args.noise * (
            rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        ) / np.sqrt(2.0)
    comments = (
        "! synthesized mBVD one-port reflection",
        f"! elements: r_s={params.r_s:g} r_0={params.r_0:g} r_m={params.r_m:g} "
        f"l_m={params.l_m:g} c_m={params.c_m:g} c_0={params.c_0:g}",
    )
    trace = touchstone.OnePortTrace(grid, s11, args.z0, comments)
    fmt = touchstone.TouchstoneFormat(args.unit, args.format)
    _write_text(args.output, touchstone.write_touchstone(trace, fmt))
    return EXIT_OK


# --- sweep -------------------------------------------------------------


def cmd_sweep(args) -> int:
    geometry = design.geometry_from_json(_read_json(args.geometry))
    if args.table:
        table = design.load_dispersion_csv(_read_text(args.table))
    else:
        table = design.builtin_dispersion_table()
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"cannot parse sweep values {args.values!r}") from None
    rows = design.sweep(geometry, args.axis, values, table, args.family, args.allow_extrapolation)
    lines = [f"{args.axis},f_s_GHz,keff2_pct,warnings,error"]
    for row in rows:
        warn = ";".join(row.warnings).replace(",", ";")
        err = (row.error or "").replace(",", ";")
        f_s = "" if row.f_s is None else _fmt(row.f_s / 1e9)
        k2 = "" if row.keff2 is None else _fmt(row.keff2 * 100)
        lines.append(f"{_fmt(row.value)},{f_s},{k2},{warn},{err}")
    _write_text(args.output, "\n".join(lines) + "\n")
    failed = [row for row in rows if row.error]
    if failed:
        # raised after the CSV is written: the rows that did scale are kept
        raise SawkitError(f"{len(failed)} of {len(rows)} sweep rows failed: {failed[0].error}")
    return EXIT_OK


# --- report ------------------------------------------------------------

_REPORT_KEYS = ("f_s_hz", "keff2", "q_max", "fom")


def _check_number(path: str, obj: dict, key: str, nullable: bool = False) -> None:
    """Raise ValueError unless obj[key] is a finite JSON number (or null, if allowed)."""
    value = obj.get(key)
    if nullable and value is None:
        return
    or_null = " or null" if nullable else ""
    if not is_json_number(value):
        raise ValueError(f"{path}: report key '{key}' must be a number{or_null}")
    in_range, _ = FINITE_NONNEGATIVE  # |value| is out of it if value is not finite
    if not in_range(abs(value)):
        raise ValueError(f"{path}: report key '{key}' must be a finite number{or_null}")


def cmd_report(args) -> int:
    """Summary table of report JSON files, schema 1 or 2: both hold the same scalars."""
    rows = []
    taken: set[str] = set()
    for path in args.reports:
        obj = _read_json(path)
        missing = [k for k in _REPORT_KEYS if k not in obj]
        if missing:
            raise ValueError(f"{path}: report JSON missing keys: {', '.join(missing)}")
        for k in _REPORT_KEYS:
            _check_number(path, obj, k)
        device, lambda_nm = obj.get("device"), obj.get("lambda_nm")
        if not (device is None or isinstance(device, str)):
            raise ValueError(f"{path}: report key 'device' must be a string or null")
        _check_number(path, obj, "lambda_nm", nullable=True)
        name = device or Path(path).stem
        try:
            fields = extract.summary_fields(name, lambda_nm, *(obj[k] for k in _REPORT_KEYS))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        # a repeated name takes the first free <name>-<k>, k = 2, 3, ...
        unique, count = name, 1
        while unique in taken:
            count += 1
            unique = f"{name}-{count}"
        taken.add(unique)
        if unique != name:
            _diag(f"warning: duplicate device name {name!r}; renaming to {unique}")
            fields[0] = unique  # the device column
        rows.append((lambda_nm, fields))
    if args.sort_lambda:
        rows.sort(key=lambda item: (item[0] is None, -(item[0] or 0.0)))
    table_rows = [fields for _, fields in rows]
    if args.markdown:
        header = extract.CSV_HEADER.split(",")
        lines = ["| " + " | ".join(header) + " |", "|" + "|".join([" --- "] * len(header)) + "|"]
        # a '|' in a cell would end it
        lines += ["| " + " | ".join(f.replace("|", "\\|") for f in r) + " |" for r in table_rows]
    else:
        lines = [extract.CSV_HEADER] + [extract.csv_line(r) for r in table_rows]
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


# --- make-fixtures (hidden) ---------------------------------------------


def fixture_params(device: str) -> mbvd.MbvdParams:
    """mBVD elements reproducing a fixture device's target metrics."""
    _, f_s, coupling, q_m = FIXTURE_DEVICES[device]
    return mbvd.params_from_metrics(
        f_s=f_s, keff2=coupling, q_m=q_m, c_0=FIXTURE_C_0, r_s=FIXTURE_R_S, r_0=FIXTURE_R_0
    )


def cmd_make_fixtures(args) -> int:
    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliIOError(f"cannot create {out_dir}: {exc}") from exc
    for device, (lambda_nm, f_s, coupling, q_m) in FIXTURE_DEVICES.items():
        params = fixture_params(device)
        f_p = mbvd.derived_fp(params)
        grid = np.linspace(0.9 * f_s, 1.1 * f_p, args.points)
        trace = mbvd.synthesize_s11(params, grid, z0=50.0)
        trace = touchstone.OnePortTrace(
            trace.frequencies,
            trace.s11,
            trace.z0,
            comments=(
                f"! fixture device {device}: lambda {lambda_nm:g} nm, "
                f"target f_s {f_s / 1e9:g} GHz, keff2 {coupling * 100:g} %, Q_m {q_m:g}",
            ),
        )
        fmt = touchstone.TouchstoneFormat("GHZ", "RI")
        _write_text(str(out_dir / f"device{device}.s1p"), touchstone.write_touchstone(trace, fmt))
        _write_json(
            str(out_dir / f"device{device}.params.json"),
            {"schema_version": SCHEMA_VERSION, **mbvd.params_to_json(params)},
        )
        _diag(f"wrote device{device}.s1p ({args.points} points)")
    return EXIT_OK


# --- parser ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawkit",
        description="One-port SAW resonator toolkit: mBVD modeling, metric extraction, frequency scaling.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{convert,extract,fit,synth,sweep,report}",
    )

    p = sub.add_parser("convert", help="rewrite a one-port Touchstone file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--format", choices=touchstone._VALUE_FORMATS, help="value encoding (default: keep)")
    p.add_argument("--unit", choices=tuple(touchstone._UNIT_SCALE), help="frequency unit (default: keep)")
    p.add_argument("--z0", type=float, help="renormalize to this reference impedance (ohm)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("extract", help="run the full metric extraction on a .s1p file")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="report JSON path (default: <input>.report.json, '-' for stdout)")
    p.add_argument("--csv", help="also write a one-row CSV summary here")
    p.add_argument("--device", help="device label for the summary row")
    p.add_argument("--lambda-nm", type=float, help="acoustic wavelength in nm for the summary row")
    p.add_argument("--tune-band", nargs=2, type=float, metavar=("LO", "HI"),
                   help="source-tuning band in Hz (default 0.98 f_s .. 1.02 f_p)")
    p.add_argument("--qmax-band", nargs=2, type=float, metavar=("LO", "HI"),
                   help="Q search band in Hz (default 0.9 f_s .. 1.1 f_p)")
    p.add_argument("--smooth", type=int, help="odd Savitzky-Golay window for S11 smoothing")
    p.add_argument("--q-trace", metavar="PATH",
                   help="also write the Bode-Q curve as CSV (frequency_hz,q_bode; nan where flagged); "
                        "like the report, written only when the extraction succeeds")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit", help="fit mBVD elements to a .s1p file")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="fit JSON path (default: <input>.fit.json, '-' for stdout)")
    p.add_argument("--init", help="params JSON to start from (default: closed-form guess)")
    p.add_argument("--max-iter", type=int, default=200,
                   help="Jacobian builds allowed in all (default 200): the coarse stage on "
                        "every k-th sample and the full-trace polish share them, and the "
                        "polish keeps at least one")
    p.add_argument("--report", action="store_true",
                   help="also compare measured vs fitted-model coupling")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("synth", help="synthesize a .s1p file from mBVD params JSON")
    p.add_argument("params")
    p.add_argument("-o", "--output", required=True, help="output .s1p path ('-' for stdout)")
    p.add_argument("--f-lo", type=float, required=True, help="grid start in Hz")
    p.add_argument("--f-hi", type=float, required=True, help="grid end in Hz")
    p.add_argument("--points", type=int, required=True, help="grid size (>= 2)")
    p.add_argument("--z0", type=float, default=50.0)
    p.add_argument("--format", choices=touchstone._VALUE_FORMATS, default="RI")
    p.add_argument("--unit", choices=tuple(touchstone._UNIT_SCALE), default="GHZ")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive complex Gaussian noise sigma on S11")
    p.add_argument("--seed", type=int, default=0, help="noise RNG seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="sweep a geometry axis against the dispersion table")
    p.add_argument("geometry", help="geometry JSON path")
    p.add_argument("--axis", required=True, help="geometry field to vary: lambda, h_ln, h_elec or duty")
    p.add_argument("--values", required=True, help="comma-separated axis values (SI units)")
    p.add_argument("--family", default="measured")
    p.add_argument("--table", help="dispersion CSV path (default: builtin table)")
    p.add_argument("--allow-extrapolation", action="store_true")
    p.add_argument("-o", "--output", default="-", help="sweep CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate extraction reports into a summary table")
    p.add_argument("reports", nargs="*", help="report JSON paths")
    p.add_argument("-o", "--output", default="-", help="table path (default stdout)")
    p.add_argument("--markdown", action="store_true", help="emit Markdown instead of CSV")
    p.add_argument("--sort-lambda", action="store_true", help="sort rows by wavelength, descending")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("make-fixtures")
    p.add_argument("-o", "--output", required=True, help="directory for fixture files")
    p.add_argument("--points", type=int, default=4001)
    p.set_defaults(func=cmd_make_fixtures)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_CliIOError, SawkitError) as exc:
        code, message = exc.exit_code, str(exc)
    except ValueError as exc:
        # invalid option values and malformed JSON/CSV content
        code, message = EXIT_PARSE, str(exc)
    _diag(f"error: {message}")
    return code


if __name__ == "__main__":
    sys.exit(main())
