"""Self-tests of the benchmark, kept out of the tier-1 suite.

Run from the repository root (about two minutes):

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# every end-to-end metric the benchmark prints, with its unit; the gated
# subset in BENCHMARK.json is what every workload can report
PRINTED_UNITS = {
    "setup_s": "s", "requests_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_tail": "ms",
    "ref_requests_per_s": "1/ref_s", "ref_latency_ms_p50": "ref_ms", "peak_rss_mb": "MB", "failed_frac": "fraction", "keff2_err_pt": "pt",
    "q_err_rel": "fraction", "elem_err_rel": "fraction", "fs_err_rel": "fraction",
    "fs_target_miss_frac": "fraction",
}
ALWAYS = ("setup_s", "requests_per_s", "latency_ms_p50", "latency_ms_tail",
          "ref_requests_per_s", "ref_latency_ms_p50", "peak_rss_mb", "failed_frac")
ACCURACY = {
    "extract_batch": ("keff2_err_pt", "q_err_rel", "fs_err_rel", "fs_target_miss_frac"),
    "fit_batch": ("keff2_err_pt", "q_err_rel", "elem_err_rel", "fs_err_rel"),
    "design_sweep": ("fs_err_rel",),
}


def test_generator_matches_sawkit_synthesis():
    from sawkit import cli, mbvd

    device = "E"
    freqs = ref.grid(device, 4001, wide=False)
    ours = ref.s11(ref.device_elements(device), freqs)
    theirs = mbvd.synthesize_s11(cli.fixture_params(device), freqs, z0=ref.Z0).s11
    assert np.abs(ours - theirs).max() < 1e-12


def test_device_targets_match_cli_fixtures():
    from sawkit import cli

    assert ref.DEVICES == cli.FIXTURE_DEVICES
    assert (ref.C_0, ref.R_S, ref.R_0) == (cli.FIXTURE_C_0, cli.FIXTURE_R_S, cli.FIXTURE_R_0)


def test_reader_inverts_formatter():
    freqs = ref.grid("A", 101, wide=True)
    s = ref.noisy(ref.s11(ref.device_elements("A"), freqs), np.random.default_rng(0))
    f_back, s_back, z0 = ref.read_touchstone(ref.format_touchstone(freqs, s, "x"))
    assert z0 == ref.Z0
    assert np.allclose(f_back, freqs, rtol=1e-12, atol=0.0)
    assert np.abs(s_back - s).max() < 1e-12


@pytest.mark.parametrize("option", ["# HZ S RI R 50", "# GHZ S MA R 50", "# GHZ S RI R"])
def test_reader_refuses_other_formats(option):
    with pytest.raises(ValueError):
        ref.read_touchstone(f"{option}\n1.0 0.5 0.25\n")


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    text = "\n".join(lines[:-1])
    names = list(ACCURACY[workload]) + [n for n in ALWAYS if not (trace and n == "peak_rss_mb")]
    for name in names:
        pattern = rf"^(traced )?{name} \S+ {re.escape(PRINTED_UNITS[name])}( |$)"
        assert re.search(pattern, text, re.MULTILINE), f"{name} missing from:\n{text}"
    if trace:
        assert "tracing overhead" in text
        for name, unit in run.PER_LAYER_UNITS.items():
            assert any(l.startswith(f"{name} ") and l.endswith(f" {unit}") for l in lines), name


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "extract_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
