"""Command-line front end.

Subcommands: convert, extract, fit, synth, sweep, report, plus a hidden
make-fixtures generator for self-contained test data.  Exit codes: 0 ok,
2 unparseable input or invalid option value, 3 extraction/domain failure,
4 file I/O, 5 fit did not converge.  Commands raise; `main` alone maps an
escaping exception to its exit code.  Diagnostics go to stderr; stdout
carries data only when an output path of '-' is chosen.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import design, extract, fit, mbvd, network, touchstone
from .errors import SawkitError
from .extract import SCHEMA_VERSION

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EXTRACT = 3
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


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


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


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _parse_trace(path: str) -> tuple[touchstone.OnePortTrace, touchstone.TouchstoneFormat]:
    text = _read_text(path)
    try:
        return touchstone.parse_touchstone(text)
    except SawkitError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _band(values) -> tuple[float, float] | None:
    if values is None:
        return None
    lo, hi = values
    return (float(lo), float(hi))


# --- convert -----------------------------------------------------------


def cmd_convert(args) -> int:
    trace, fmt = _parse_trace(args.input)
    if args.z0 is not None:
        trace = network.renormalize(trace, args.z0)
    out_fmt = touchstone.TouchstoneFormat(
        frequency_unit=args.unit or fmt.frequency_unit,
        parameter_kind="S",
        value_format=args.format or fmt.value_format,
        reference_resistance=trace.z0,
    )
    _write_text(args.output, touchstone.write_touchstone(trace, out_fmt))
    return EXIT_OK


# --- extract -----------------------------------------------------------


def cmd_extract(args) -> int:
    trace, _ = _parse_trace(args.input)
    options = extract.ExtractOptions(
        tune_band=_band(args.tune_band),
        qmax_band=_band(args.qmax_band),
        smooth_window=args.smooth,
    )
    report = extract.full_extraction(trace, options)
    output = args.output or str(Path(args.input).with_suffix(".report.json"))
    payload = extract.report_to_json(report, device=args.device, lambda_nm=args.lambda_nm)
    _write_json(output, payload)
    if args.csv:
        row = extract.report_csv_row(report, device=args.device or "", lambda_nm=args.lambda_nm)
        _write_text(args.csv, extract.CSV_HEADER + "\n" + row + "\n")
    label = args.device or Path(args.input).stem
    _diag(
        f"{label}: f_s {_fmt(report.f_s / 1e9)} GHz  f_p {_fmt(report.f_p / 1e9)} GHz  "
        f"keff2 {_fmt(report.keff2 * 100)} %  Y-ratio {_fmt(report.y_ratio_db)} dB  "
        f"Q_max {_fmt(report.q_max)}  FoM {_fmt(report.fom)}  z0* {_fmt(report.z0_star)} ohm"
    )
    return EXIT_OK


# --- fit ---------------------------------------------------------------


def cmd_fit(args) -> int:
    trace, _ = _parse_trace(args.input)
    admittance = network.s_to_y(trace)
    if args.init:
        init = mbvd.params_from_json(_read_json(args.init))
    else:
        init = fit.initial_guess(admittance)
    result = fit.fit_mbvd(admittance, init, args.max_iter)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": mbvd.params_to_json(result.params),
        "rms_residual_s": result.rms_residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if args.report:
        raw_report = extract.full_extraction(trace)
        model_trace = mbvd.synthesize_s11(result.params, trace.frequencies, trace.z0)
        model_report = extract.full_extraction(model_trace)
        payload["comparison"] = {
            "keff2_measured": raw_report.keff2,
            "keff2_fitted_model": model_report.keff2,
            "keff2_from_elements": mbvd.derived_keff2(result.params),
        }
        _diag(
            f"keff2 measured {_fmt(raw_report.keff2 * 100)} %  "
            f"fitted model {_fmt(model_report.keff2 * 100)} %  "
            f"from elements {_fmt(mbvd.derived_keff2(result.params) * 100)} %"
        )
    output = args.output or str(Path(args.input).with_suffix(".fit.json"))
    _write_json(output, payload)
    _diag(
        f"fit {'converged' if result.converged else 'DID NOT converge'} after "
        f"{result.iterations} iterations; rms residual {result.rms_residual:.3e} S"
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


# --- synth -------------------------------------------------------------


def cmd_synth(args) -> int:
    params = mbvd.params_from_json(_read_json(args.params))
    if args.points < 2:
        return _fail(EXIT_PARSE, "grid needs at least 2 points")
    if not args.f_lo > 0 or not args.f_hi > args.f_lo:
        return _fail(EXIT_PARSE, "need 0 < f-lo < f-hi")
    if not np.isfinite(2.0 * np.pi * args.f_hi):  # the model works in angular frequency
        msg = "frequencies must be positive and strictly increasing; 2 pi f-hi must be finite"
        return _fail(EXIT_PARSE, msg)
    grid = np.linspace(args.f_lo, args.f_hi, args.points)
    trace = mbvd.synthesize_s11(params, grid, z0=args.z0)
    if args.noise > 0:
        rng = np.random.default_rng(args.seed)
        noise = args.noise * (
            rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        ) / np.sqrt(2.0)
        trace = touchstone.OnePortTrace(
            grid, trace.s11 + noise, z0=args.z0, comments=trace.comments
        )
    comments = (
        "! synthesized mBVD one-port reflection",
        f"! elements: r_s={params.r_s:g} r_0={params.r_0:g} r_m={params.r_m:g} "
        f"l_m={params.l_m:g} c_m={params.c_m:g} c_0={params.c_0:g}",
    )
    trace = touchstone.OnePortTrace(trace.frequencies, trace.s11, trace.z0, comments)
    fmt = touchstone.TouchstoneFormat(
        frequency_unit=args.unit, value_format=args.format, reference_resistance=args.z0
    )
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
        return _fail(EXIT_PARSE, f"cannot parse sweep values {args.values!r}")
    if not values:
        return _fail(EXIT_PARSE, "no sweep values given")
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
        return _fail(EXIT_EXTRACT, f"{len(failed)} of {len(rows)} sweep rows failed: {failed[0].error}")
    return EXIT_OK


# --- report ------------------------------------------------------------

_REPORT_KEYS = ("f_s_hz", "keff2", "q_max", "fom")


def cmd_report(args) -> int:
    rows = []
    seen: dict[str, int] = {}
    for path in args.reports:
        obj = _read_json(path)
        missing = [k for k in _REPORT_KEYS if k not in obj]
        if missing:
            return _fail(
                EXIT_PARSE, f"{path}: report JSON missing keys: {', '.join(missing)}"
            )
        for k in _REPORT_KEYS:
            if isinstance(obj[k], bool) or not isinstance(obj[k], (int, float)):
                return _fail(EXIT_PARSE, f"{path}: report key '{k}' must be a number")
        name = obj.get("device") or Path(path).stem
        count = seen.get(name, 0) + 1
        seen[name] = count
        if count > 1:
            _diag(f"warning: duplicate device name {name!r}; renaming to {name}-{count}")
            name = f"{name}-{count}"
        rows.append((name, obj.get("lambda_nm"), obj))
    if args.sort_lambda:
        rows.sort(key=lambda item: (item[1] is None, -(item[1] or 0.0)))
    header = extract.CSV_HEADER.split(",")
    table_rows = []
    for name, lambda_nm, obj in rows:
        table_rows.append(
            [
                name,
                "" if lambda_nm is None else _fmt(lambda_nm),
                _fmt(obj["f_s_hz"] / 1e9),
                _fmt(obj["keff2"] * 100),
                _fmt(obj["q_max"]),
                _fmt(obj["fom"]),
            ]
        )
    if args.markdown:
        lines = ["| " + " | ".join(header) + " |", "|" + "|".join([" --- "] * len(header)) + "|"]
        lines += ["| " + " | ".join(r) + " |" for r in table_rows]
    else:
        lines = [extract.CSV_HEADER] + [",".join(r) for r in table_rows]
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
        fmt = touchstone.TouchstoneFormat(
            frequency_unit="GHZ", value_format="RI", reference_resistance=50.0
        )
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
    p.add_argument("--format", choices=["RI", "MA", "DB"], help="value encoding (default: keep)")
    p.add_argument("--unit", choices=["HZ", "KHZ", "MHZ", "GHZ"], help="frequency unit (default: keep)")
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
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit", help="fit mBVD elements to a .s1p file")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="fit JSON path (default: <input>.fit.json, '-' for stdout)")
    p.add_argument("--init", help="params JSON to start from (default: closed-form guess)")
    p.add_argument("--max-iter", type=int, default=200)
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
    p.add_argument("--format", choices=["RI", "MA", "DB"], default="RI")
    p.add_argument("--unit", choices=["HZ", "KHZ", "MHZ", "GHZ"], default="GHZ")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive complex Gaussian noise sigma on S11")
    p.add_argument("--seed", type=int, default=0, help="noise RNG seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="sweep a geometry axis against the dispersion table")
    p.add_argument("geometry", help="geometry JSON path")
    p.add_argument("--axis", required=True, help="geometry field to vary (lambda, h_ln, h_elec, duty, ...)")
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
        return _fail(exc.exit_code, str(exc))
    except ValueError as exc:
        # invalid option values and malformed JSON/CSV content
        return _fail(EXIT_PARSE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
