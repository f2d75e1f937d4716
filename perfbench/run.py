"""sawkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload extract_batch --seed 1 --seconds 15 --trace 0

Workloads: extract_batch, fit_batch, design_sweep (see
perfbench/README.md).  sawkit is imported from ./src; the benchmark
writes its own inputs from --seed and checks every output outside the
timed region.  With --trace 0 it measures the end-to-end metrics with
tracing off; with --trace 1 it spends half the time untraced and half
traced and reports the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON
object.
"""

import os

# one BLAS/OpenMP thread everywhere, set before numpy loads, so runs on a
# small shared machine do not depend on how many cores happen to be idle
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_RUNS = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120
SETUP_CODE = "import sawkit; sawkit.builtin_dispersion_table()"
IMPORT_PROBE = (
    "import sys, time; b = len(sys.modules); t = time.perf_counter(); import sawkit.cli; "
    "print((time.perf_counter() - t) * 1e3, len(sys.modules) - b)"
)

# gated metrics; ref_ timings are rescaled to the machine speed at which
# calibrate() takes CAL_REF_S (README.md, "Why the gated timings are calibrated")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ref_requests_per_s": "1/ref_s",
    "ref_latency_ms_p50": "ref_ms",
    "peak_rss_mb": "MB",
}
# defines the reference speed: about calibrate()'s fastest result on the
# 2-vCPU x86-64 Xeon machine the benchmark was tuned on
CAL_REF_S = 0.006
# regimes of the shared machine last seconds or more; this keeps each
# request within a quarter second of a calibration at 4-7 % cost
CAL_INTERVAL_S = 0.25
_CAL_GRID = np.linspace(1.0, 2.0, 4001)
_CAL_MATRIX = np.linspace(0.0, 1.0, 8002 * 6).reshape(8002, 6)
_CAL_KEYS = [0.37 * i for i in range(512)]
_CAL_TABLE = {i: (1.5 * i, 2.5 * i) for i in range(512)}
ACCURACY_UNITS = {
    "keff2_err_pt": "pt",
    "q_err_rel": "fraction",
    "elem_err_rel": "fraction",
    "fs_err_rel": "fraction",
}
PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.modules_loaded": "count",
    "touchstone.parse_ms": "ms",
    "touchstone.parse_mb_per_s": "MB/s",
    "touchstone.write_ms": "ms",
    "network.tune_ms": "ms",
    "network.circle_fits": "count",
    "network.renormalize_ms": "ms",
    "network.s_to_y_calls": "count",
    "network.s_to_y_ms": "ms",
    "extract.full_extraction_ms": "ms",
    "extract.self_ms": "ms",
    "extract.find_fs_fp_ms": "ms",
    "extract.bode_q_ms": "ms",
    "extract.bode_q_smooth_ms": "ms",
    "fit.fit_mbvd_ms": "ms",
    "fit.iterations": "count",
    "fit.model_evals": "count",
    "fit.initial_guess_ms": "ms",
    "fit.converged_frac": "fraction",
    "mbvd.synthesize_ms": "ms",
    "mbvd.kernel_msamples_per_s": "Msample/s",
    "design.sweep_ms": "ms",
    "design.lookups": "count",
    "design.scale_ms": "ms",
    "design.rows_out_of_hull": "count",
    "extract.fs_target_miss_frac": "fraction",
}


def calibrate() -> float:
    """Geometric mean of the seconds two fixed pieces of work take.

    One piece is numpy, BLAS, integer and text work; the other is pure
    Python (list bisection, dict lookups, float arithmetic).  The shared
    machine's numpy and interpreter speeds drift apart at times, and the
    workloads mix the two in different shares.  Neither piece runs sawkit
    code, so the result measures only how fast the machine runs right now;
    see README.md, "Why the gated timings are calibrated".
    """
    start = time.perf_counter()
    for k in range(20):
        float(np.median(np.abs(np.gradient(np.exp(1j * k * _CAL_GRID)))))
        _CAL_MATRIX.T @ _CAL_MATRIX
        total = 0
        for i in range(1500):
            total += i * i
        np.array(" ".join("%.12e" % v for v in _CAL_GRID[:200]).split(), dtype=float)
    middle = time.perf_counter()
    acc = 0.0
    for k in range(20):
        for i in range(300):
            x = (i * 7919 + k) % 512 * 0.37 + 0.1
            j = bisect.bisect_left(_CAL_KEYS, x)
            a, b = _CAL_TABLE[j % 512]
            acc += a + (b - a) * (x - _CAL_KEYS[j - 1]) / 0.37 + math.sqrt(x)
    return math.sqrt((middle - start) * (time.perf_counter() - middle))


class Stats:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        # per pass, in pool order: (latency, index of the calibrate() before it)
        self.passes: list[list[tuple[float, int]]] = [[]]
        self.cal: list[float] = []
        self.failed = 0
        self.errors: dict[str, float] = {}
        # extractions checked against the motional f_s target, and misses
        self.target_checks = 0
        self.target_misses = 0
        self.first_failure = ""

    @property
    def latencies(self) -> list[float]:
        return [t for p in self.passes for t, _ in p]

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    @property
    def requests_per_s(self) -> float:
        return self.attempted / sum(self.latencies)

    def _ref_passes(self) -> list[list[float]]:
        """Latencies rescaled to the reference speed by the calibrations around them."""
        return [[t * CAL_REF_S * 2.0 / (self.cal[k] + self.cal[k + 1]) for t, k in p]
                for p in self.passes]

    @property
    def ref_requests_per_s(self) -> float:
        ref = self._ref_passes()
        return len(ref[0]) / statistics.median(sum(p) for p in ref)

    @property
    def ref_latency_ms_p50(self) -> float:
        return 1e3 * statistics.median(t for p in self._ref_passes() for t in p)


def drive(workload, seconds: float, tracer=None) -> Stats:
    """Closed loop, one client: send the next request when the last one is done.

    Requests cycle through the workload's seeded pool.  The loop stops at the
    first pass boundary after `seconds`, so every run sees the same mix.
    calibrate() runs first, then between requests at every pass boundary and
    whenever CAL_INTERVAL_S has passed since the last one.
    """
    stats = Stats()
    pool = workload.pool
    stats.cal.append(calibrate())
    last_cal = time.perf_counter()
    deadline = last_cal + seconds
    i = 0
    while True:
        item = pool[i % len(pool)]
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        try:
            out = workload.run(item)
            raised = None
        except Exception:  # a failed request is counted, and the loop goes on
            raised = traceback.format_exc(limit=3)
        stats.passes[-1].append((time.perf_counter() - start, len(stats.cal) - 1))
        if tracer is not None:
            tracer.request = None
        ok, errors = False, {}
        if raised is None:
            try:
                ok, errors = workload.check(item, out)
            except Exception:  # malformed output fails its check
                raised = traceback.format_exc(limit=3)
        if not ok:
            stats.failed += 1
            stats.first_failure = stats.first_failure or (raised or f"check failed on {item!r:.200}")
        if "fs_target_miss" in errors:
            stats.target_checks += 1
            stats.target_misses += int(errors.pop("fs_target_miss"))
        for key, value in errors.items():
            stats.errors[key] = max(stats.errors.get(key, 0.0), value)
        i += 1
        boundary = i % workload.pass_len == 0
        if boundary or time.perf_counter() - last_cal >= CAL_INTERVAL_S:
            stats.cal.append(calibrate())
            last_cal = time.perf_counter()
        if boundary:
            if last_cal >= deadline:
                return stats
            stats.passes.append([])


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing sawkit and loading the table."""
    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for attempt in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"importing sawkit failed:\n{done.stderr}")
        if attempt:  # the first run also compiles bytecode; users pay that once
            times.append(elapsed)
    return statistics.median(times)


def probe_cli_import() -> tuple[float, float]:
    """Median (import ms, modules added) of `import sawkit.cli` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append([float(v) for v in done.stdout.split()])
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def layer_metrics(spans: list[list], stats: Stats, cli_import: tuple[float, float]) -> dict:
    from tracing import has_ancestor, self_times

    requests = stats.attempted
    own = self_times(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for s in spans:
        total[s[0]] = total.get(s[0], 0.0) + s[4] - s[3]
        count[s[0]] = count.get(s[0], 0) + 1

    def ms(name):
        return 1e3 * total.get(name, 0.0) / requests

    def ratio(a, b):
        return a / b if b else 0.0

    def attr_sum(name, key):
        return sum(s[5].get(key, 0) for s in spans if s[0] == name and s[5])

    fits = count.get("fit.fit_mbvd", 0)
    model_evals = sum(1 for i, s in enumerate(spans)
                      if s[0] == "mbvd.element_admittance" and has_ancestor(spans, i, "fit.fit_mbvd"))
    # rows outside the hull stop at their first, failing lookup; count the
    # lookups that served a row against the rows that got a prediction
    served_rows = attr_sum("design.sweep", "rows") - attr_sum("design.sweep", "out_of_hull")
    served_lookups = sum(1 for i, s in enumerate(spans)
                         if s[0] == "design.lookup" and not s[5]
                         and has_ancestor(spans, i, "design.sweep"))
    smooth_s = sum(s[4] - s[3] for s in spans if s[0] == "extract.bode_q" and s[5] and s[5].get("smoothed"))
    return {
        "cli.import_ms": cli_import[0],
        "cli.modules_loaded": cli_import[1],
        "touchstone.parse_ms": ms("touchstone.parse"),
        "touchstone.parse_mb_per_s": ratio(attr_sum("touchstone.parse", "bytes") / 1e6,
                                           total.get("touchstone.parse", 0.0)),
        "touchstone.write_ms": ms("touchstone.write"),
        "network.tune_ms": ms("network.tune"),
        "network.circle_fits": ratio(count.get("network.circle_fit", 0), count.get("network.tune", 0)),
        "network.renormalize_ms": ms("network.renormalize"),
        "network.s_to_y_calls": count.get("network.s_to_y", 0) / requests,
        "network.s_to_y_ms": ms("network.s_to_y"),
        "extract.full_extraction_ms": ms("extract.full_extraction"),
        "extract.self_ms": 1e3 * sum(t for s, t in zip(spans, own)
                                     if s[0] == "extract.full_extraction") / requests,
        "extract.find_fs_fp_ms": ms("extract.find_fs_fp"),
        "extract.bode_q_ms": ms("extract.bode_q"),
        "extract.bode_q_smooth_ms": 1e3 * smooth_s / requests,
        "fit.fit_mbvd_ms": ms("fit.fit_mbvd"),
        "fit.iterations": ratio(attr_sum("fit.fit_mbvd", "iterations"), fits),
        "fit.model_evals": ratio(model_evals, fits),
        "fit.initial_guess_ms": ms("fit.initial_guess"),
        "fit.converged_frac": ratio(attr_sum("fit.fit_mbvd", "converged"), fits),
        "mbvd.synthesize_ms": ms("mbvd.synthesize"),
        "mbvd.kernel_msamples_per_s": ratio(attr_sum("mbvd.element_admittance", "samples") / 1e6,
                                            total.get("mbvd.element_admittance", 0.0)),
        "design.sweep_ms": ms("design.sweep"),
        "design.lookups": ratio(served_lookups, served_rows),
        "design.scale_ms": ms("design.scale"),
        "design.rows_out_of_hull": attr_sum("design.sweep", "out_of_hull") / requests,
        "extract.fs_target_miss_frac": ratio(stats.target_misses, stats.target_checks),
    }


def environment() -> str:
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"env nproc={os.cpu_count()} {threads} python={platform.python_version()} "
            f"numpy={np.__version__} machine={platform.machine()}")


def report_phase(stats: Stats, label: str) -> None:
    n = stats.attempted
    print(f"{label}requests_per_s {stats.requests_per_s:.4f} 1/s (n={n})")
    print(f"{label}latency_ms_p50 {1e3 * statistics.median(stats.latencies):.4f} ms (n={n})")
    t = tail(stats.latencies)
    if t is None:
        print(f"{label}latency_ms_tail n/a ms (n={n}: fewer than 11 samples)")
    else:
        print(f"{label}latency_ms_tail {1e3 * t[1]:.4f} ms (p{t[0]:.2f}, 10 of {n} samples beyond)")
    cal_ms = 1e3 * statistics.median(stats.cal)
    print(f"{label}ref_requests_per_s {stats.ref_requests_per_s:.4f} 1/ref_s "
          f"(median over {len(stats.passes)} passes; calibration median {cal_ms:.2f} ms, "
          f"reference {1e3 * CAL_REF_S:g} ms)")
    print(f"{label}ref_latency_ms_p50 {stats.ref_latency_ms_p50:.4f} ref_ms (n={n})")
    print(f"{label}failed_frac {stats.failed / n:.4f} fraction ({stats.failed} of {n} failed)")
    for key, unit in ACCURACY_UNITS.items():
        if key in stats.errors:
            print(f"{label}{key} {stats.errors[key]:.6g} {unit} (largest over the requests' devices)")
    if stats.target_checks:
        print(f"{label}fs_target_miss_frac {stats.target_misses / stats.target_checks:.4f} fraction "
              f"({stats.target_misses} of {stats.target_checks} extractions put f_s more than "
              "5e-4 from the motional target; see perfbench/README.md)")
    if stats.failed:
        print(f"{label}first failure: {stats.first_failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sawkit" / "__init__.py").is_file():
        print(f"error: no sawkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    return run(args)


def run(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    setup_s = measure_setup()
    import sawkit
    from sawkit import cli, design, extract, fit, mbvd, network, touchstone  # noqa: F401

    if Path(sawkit.__file__).resolve().parent != (SRC / "sawkit").resolve():
        print(f"error: sawkit imported from {sawkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](sawkit, ROOT, args.seed)

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(environment())
    print(f"input {workload.size}; closed loop, 1 client")
    print(f"setup_s {setup_s:.4f} s (median of {SETUP_RUNS} fresh interpreters)")

    # one untimed pass first, so lazy set-up and caches are done before timing
    warmup = drive(workload, 0.0)
    if not args.trace:
        stats = drive(workload, args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report_phase(stats, "")
        print(f"peak_rss_mb {rss:.4f} MB (benchmark process)")
        values = {
            "setup_s": setup_s,
            "ref_requests_per_s": stats.ref_requests_per_s,
            "ref_latency_ms_p50": stats.ref_latency_ms_p50,
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
    else:
        plain = drive(workload, args.seconds / 2)
        tracer = Tracer()
        undo = tracer.install()
        try:
            stats = drive(workload, args.seconds / 2, tracer)
        finally:
            Tracer.uninstall(undo)
        report_phase(plain, "untraced ")
        report_phase(stats, "traced ")
        print(f"tracing overhead {stats.requests_per_s - plain.requests_per_s:+.4f} 1/s "
              f"requests_per_s, {stats.ref_requests_per_s - plain.ref_requests_per_s:+.4f} 1/ref_s "
              "ref_requests_per_s (traced minus untraced)")
        values = layer_metrics(tracer.spans, stats, probe_cli_import())
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name} {values[name]:.6g} {unit}")
        units = PER_LAYER_UNITS

    attempted = warmup.attempted + stats.attempted + (plain.attempted if args.trace else 0)
    failed = warmup.failed + stats.failed + (plain.failed if args.trace else 0)
    if warmup.failed:
        print(f"warm-up: {warmup.failed} of {warmup.attempted} failed: {warmup.first_failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
