"""Run the benchmark over several seeds and print one trajectory entry.

Usage (from the repository root):

    python3 perfbench/summarize.py --label "seed commit" --runs 10 > entry.json

For every workload in BENCHMARK.json it makes --runs untraced runs, each
with another seed, and one traced run.  Per end-to-end metric it reports
the median, the quartiles and the spread (quartile distance over median,
as statistics.quantiles(values, n=4) gives them); per layer, the traced
run's values.  Append the entry to perfbench/trajectory.json by hand.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    entry = {
        "label": args.label,
        "run_seconds": seconds,
        "runs": args.runs,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1 (set by run.py)"},
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        results = []
        for k in range(args.runs):
            results.append(one_run(name, args.first_seed + k, seconds, 0))
            print(f"{name} run {k + 1}/{args.runs}: "
                  f"{json.dumps({m: v['value'] for m, v in results[-1]['metrics'].items()})}",
                  file=sys.stderr)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / median, "unit": m["unit"]}
        traced = one_run(name, args.first_seed, seconds, 1)
        entry["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    print(json.dumps(entry, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
