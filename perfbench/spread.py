"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload converge_replay --seeds 1-10 [--out runs.json]

Runs ``run.py`` once per seed, one run at a time, with the settings in
``BENCHMARK.json``. For each end-to-end metric it prints the median and
the distance between the first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound. A spread at or above a third of the bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run's result here as JSON")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "details": json.loads(lines[-2]), "result": result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        mark = " <-- above a third of its bound" if bound and spread >= bound / 3 else ""
        print(f"{name:34s} median {median:14.6g}  spread {spread:7.2%}  bound {bound}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
