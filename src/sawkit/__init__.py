"""One-port SAW resonator toolkit.

Touchstone I/O, mBVD equivalent-circuit modeling and fitting, reflection
metric extraction (resonances, coupling, Bode-Q, figure of merit) and
dispersion-table frequency scaling.

`import sawkit` loads no layer: each public name below, and each layer
module, is imported on first use (PEP 562), so a caller that needs only
the dispersion table does not compile the Touchstone, network, mBVD,
extraction and fit code.
"""

import importlib

__version__ = "0.1.0"

# each layer and the public names it exports; `errors` exports none here
_EXPORTS = {
    "design": (
        "DeviceGeometry", "DispersionAnchor", "DispersionTable", "SweepRow",
        "builtin_dispersion_table", "geometry_from_json", "load_dispersion_csv", "predict",
        "scale_to_frequency", "sweep",
    ),
    "errors": (),
    "extract": (
        "Diagnostics", "ExtractOptions", "ExtractionReport", "QTrace", "bode_q", "find_fs_fp",
        "fom", "full_extraction", "keff2", "q_max", "report_csv_row", "report_to_json",
    ),
    "fit": ("FitResult", "fit_mbvd", "initial_guess", "result_to_json"),
    "mbvd": (
        "MbvdParams", "admittance", "derived_fp", "derived_fs", "derived_keff2", "derived_q_m",
        "params_from_json", "params_from_metrics", "params_to_json", "synthesize_s11",
    ),
    "network": (
        "AdmittanceTrace", "SmithCircle", "Tuning", "passivity_violations", "renormalize",
        "s_to_y", "tune_source_impedance", "y_to_s",
    ),
    "touchstone": ("OnePortTrace", "TouchstoneFormat", "parse_touchstone", "write_touchstone"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
