"""One-port SAW resonator toolkit.

Touchstone I/O, mBVD equivalent-circuit modeling and fitting, reflection
metric extraction (resonances, coupling, Bode-Q, figure of merit) and
dispersion-table frequency scaling.
"""

__version__ = "0.1.0"

from .design import (
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
from .extract import (
    Diagnostics,
    ExtractOptions,
    ExtractionReport,
    QTrace,
    bode_q,
    find_fs_fp,
    fom,
    full_extraction,
    keff2,
    q_max,
    report_csv_row,
    report_to_json,
)
from .fit import FitResult, fit_mbvd, initial_guess, result_to_json
from .mbvd import (
    MbvdParams,
    admittance,
    derived_fp,
    derived_fs,
    derived_keff2,
    derived_q_m,
    params_from_json,
    params_from_metrics,
    params_to_json,
    synthesize_s11,
)
from .network import (
    AdmittanceTrace,
    SmithCircle,
    Tuning,
    passivity_violations,
    renormalize,
    s_to_y,
    tune_source_impedance,
    y_to_s,
)
from .touchstone import OnePortTrace, TouchstoneFormat, parse_touchstone, write_touchstone

__all__ = [
    "AdmittanceTrace",
    "DeviceGeometry",
    "Diagnostics",
    "DispersionAnchor",
    "DispersionTable",
    "ExtractOptions",
    "ExtractionReport",
    "FitResult",
    "MbvdParams",
    "OnePortTrace",
    "QTrace",
    "SmithCircle",
    "SweepRow",
    "TouchstoneFormat",
    "Tuning",
    "admittance",
    "bode_q",
    "builtin_dispersion_table",
    "derived_fp",
    "derived_fs",
    "derived_keff2",
    "derived_q_m",
    "find_fs_fp",
    "fit_mbvd",
    "fom",
    "full_extraction",
    "geometry_from_json",
    "initial_guess",
    "keff2",
    "load_dispersion_csv",
    "params_from_json",
    "params_from_metrics",
    "params_to_json",
    "parse_touchstone",
    "passivity_violations",
    "predict",
    "q_max",
    "renormalize",
    "report_csv_row",
    "report_to_json",
    "result_to_json",
    "s_to_y",
    "scale_to_frequency",
    "sweep",
    "synthesize_s11",
    "tune_source_impedance",
    "write_touchstone",
    "y_to_s",
]
