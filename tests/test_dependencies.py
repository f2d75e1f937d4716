"""The runtime needs numpy only, and `import sawkit` loads a layer only on first use."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sawkit

ROOT = Path(__file__).resolve().parents[1]

LAYERS = ("design", "errors", "extract", "fit", "mbvd", "network", "touchstone")
# the package's public names as the eager imports defined them
PUBLIC_NAMES = [
    "AdmittanceTrace", "DeviceGeometry", "Diagnostics", "DispersionAnchor", "DispersionTable",
    "ExtractOptions", "ExtractionReport", "FitResult", "MbvdParams", "OnePortTrace", "QTrace",
    "SmithCircle", "SweepRow", "TouchstoneFormat", "Tuning", "admittance", "bode_q",
    "builtin_dispersion_table", "derived_fp", "derived_fs", "derived_keff2", "derived_q_m",
    "find_fs_fp", "fit_mbvd", "fom", "full_extraction", "geometry_from_json", "initial_guess",
    "keff2", "load_dispersion_csv", "params_from_json", "params_from_metrics", "params_to_json",
    "parse_touchstone", "passivity_violations", "predict", "q_max", "renormalize",
    "report_csv_row", "report_to_json", "result_to_json", "s_to_y", "scale_to_frequency",
    "sweep", "synthesize_s11", "tune_source_impedance", "write_touchstone", "y_to_s",
]


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports sawkit from this tree."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def _sawkit_modules(code: str) -> set:
    return set(ast.literal_eval(_fresh(
        f"{code}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sawkit'))"
    )))


def test_cli_import_loads_no_scipy():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import sawkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_numpy_as_its_only_third_party_package():
    # what a bare interpreter already has (the site .pth hooks) and the
    # standard library are not dependencies
    out = _fresh(
        "bare = {m.split('.')[0] for m in sys.modules}; import sawkit.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} - bare - sys.stdlib_module_names))"
    )
    assert ast.literal_eval(out) == ["numpy", "sawkit"]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import sawkit", {"sawkit"}),
        # the benchmark's cold setup
        ("import sawkit; sawkit.builtin_dispersion_table()",
         {"sawkit", "sawkit.design", "sawkit.errors"}),
        ("from sawkit.touchstone import parse_touchstone",
         {"sawkit", "sawkit.errors", "sawkit.touchstone"}),
    ],
)
def test_an_entry_point_loads_only_the_layers_it_uses(code, loaded):
    assert _sawkit_modules(code) == loaded


def test_cli_import_loads_neither_fit_nor_design():
    # only `fit` and `sweep` need them, and each imports its own
    loaded = _sawkit_modules("import sawkit.cli")
    assert "sawkit.cli" in loaded
    assert not loaded & {"sawkit.fit", "sawkit.design"}


def test_public_names_are_their_layers_own_objects():
    assert sawkit.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(sawkit, name)
        home = obj.__module__
        assert home.partition(".")[2] in LAYERS, (name, home)
        assert obj is getattr(sys.modules[home], name), name


def test_layer_names_and_dir_in_a_fresh_interpreter():
    out = json.loads(_fresh(
        "import json, sawkit; names = dir(sawkit); print(json.dumps("
        f"{{'layers': [getattr(sawkit, layer).__name__ for layer in {LAYERS!r}], 'dir': names}}))"
    ))
    assert out["layers"] == [f"sawkit.{layer}" for layer in LAYERS]
    assert set(out["dir"]) >= {*PUBLIC_NAMES, *LAYERS}


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        sawkit.no_such_name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from sawkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(sawkit, name) for name in PUBLIC_NAMES)
