"""chordcheck benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload explore_m4 --seed 1 --seconds 30 --trace 0

Runs one workload in this process against the package in ``src/`` of the
checkout holding this script (stdlib only, nothing to build). Set-up is
done five times, each time re-importing the package, and its median is
reported. The timed phase then runs batches in a closed loop, each
starting when the previous one ends, until ``--seconds`` have passed.
Set-up and timed phase are timed with the machine-speed gauge of
``gauge.py``: every time reported is wall time scaled to a reference
speed, so that other tenants' load on a shared host cancels out.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the batches run with every layer boundary wrapped (see
``tracer.py``), then run again untraced on the same inputs, and the last
line carries per-layer calls and self time per batch plus the tracing
overhead. Kept spans go to ``.perfbench/spans-<workload>-seed<n>.tsv``.
Either way, after the timed phase the workload's untimed known-answer
check runs (``explore_m4`` explores to depth 5 once); its operations
count in ``attempted`` and ``failed`` but in no metric, and the metrics,
``peak_rss_mb`` too, are taken before it.

The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's details (sample counts, explore counts, machine). Metric
definitions and the layer-to-metric map are in ``README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from gauge import Gauge, WallClock
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUPS = 5

sys.path.insert(0, str(SRC))


def import_chordcheck():
    """Import the package afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "chordcheck" or n.startswith("chordcheck.")]:
        del sys.modules[name]
    cc = importlib.import_module("chordcheck")
    cli = importlib.import_module("chordcheck.cli")
    if Path(cc.__file__).resolve().parent != SRC / "chordcheck":
        raise ImportError(f"chordcheck was imported from {cc.__file__}, not from {SRC}")
    return cc, cli


def set_up(kind, seed: int, clock):
    mark = clock.start()
    cc, cli = import_chordcheck()
    workload = kind(cc, cli, seed, WORKDIR, clock)
    return workload, clock.seconds(mark)


def timed_batch(workload, index: int, clock):
    mark = clock.start()
    ops = workload.batch(index)
    return clock.seconds(mark), ops


def run_batches(workload, seconds: float, clock):
    """Closed loop of batches until ``seconds`` of wall time have passed; at least one."""
    batches = []
    started = time.perf_counter()
    while not batches or time.perf_counter() - started < seconds:
        batches.append(timed_batch(workload, len(batches), clock))
    return batches


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(batches, setups: list[float]) -> dict:
    ops = [op for _, batch in batches for op in batch]
    op_seconds = [op.seconds for op in ops]
    timed = sum(s for s, _ in batches)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (statistics.median(s for s, _ in batches), "s"),
        "steps_per_s": (sum(op.steps for op in ops) / timed, "1/s"),
        "states_per_s": (sum(op.states for op in ops) / timed, "1/s"),
        "traces_per_s": (len(ops) / timed, "1/s"),
        "trace_p50_ms": (statistics.median(op_seconds) * 1e3, "ms"),
        "trace_p90_ms": (p90(op_seconds) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def call_checks(name: str, tracer: Tracer, ops) -> list[str]:
    """Compare wrapper call counts with counts the program reported."""
    totals = tracer.totals()
    problems = []
    applied = totals["protocol.apply_step"][0]
    if applied != sum(op.steps for op in ops):
        problems.append(f"protocol.apply_step.calls {applied} != steps {sum(op.steps for op in ops)}")
    if name == "explore_m4":
        enumerated = totals["protocol.enabled_steps"][0]
        expanded = sum(op.expanded for op in ops)
        if enumerated != expanded:
            problems.append(f"protocol.enabled_steps.calls {enumerated} != "
                            f"states_visited - frontier_size {expanded}")
    return problems


def per_layer(name: str, tracer: Tracer, traced, overhead: float) -> dict:
    count = len(traced)
    ops = [op for _, batch in traced for op in batch]
    metrics = {}
    for layer, (calls, self_s) in tracer.totals().items():
        metrics[f"{layer}.calls"] = {"value": calls / count, "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": self_s / count, "unit": "s"}
    transitions = sum(op.steps for op in ops) if name == "explore_m4" else 0
    hits = transitions - sum(op.states - 1 for op in ops) if transitions else 0
    metrics["explorer.dedup_hit_ratio"] = {
        "value": hits / transitions if transitions else 0.0, "unit": "ratio"}
    metrics["files.trace_bytes"] = {
        "value": sum(op.trace_bytes for op in ops) / count, "unit": "bytes"}
    metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def timed_run(kind, args, details):
    with Gauge() as gauge:
        setups = []
        for _ in range(SETUPS):
            workload, setup = set_up(kind, args.seed, gauge)
            setups.append(setup)
        batches = run_batches(workload, args.seconds, gauge)
    metrics = end_to_end(batches, setups)
    details["setup_s"] = setups
    details["batches"] = len(batches)
    details["probe_ms_median"] = gauge.probe_ms()
    return [op for _, batch in batches for op in batch] + workload.check(), metrics, []


def traced_run(kind, args, details):
    clock = WallClock()
    workload, setup = set_up(kind, args.seed, clock)
    details["setup_s"] = [setup]
    tracer = Tracer()
    tracer.calibrate()
    tracer.install()
    try:
        traced = run_batches(workload, args.seconds, clock)
    finally:
        tracer.uninstall()
    reference = [timed_batch(workload, i, clock) for i in range(len(traced))]
    overhead = statistics.median(s for s, _ in traced) - statistics.median(s for s, _ in reference)
    extra = sum(s for s, _ in traced) - sum(s for s, _ in reference)
    details["span_cost_ns"] = {"probe": tracer.probe_ns, "run": extra * 1e9 / sum(tracer.calls)}
    tracer.set_span_cost(details["span_cost_ns"]["run"])
    problems = call_checks(args.workload, tracer, [op for _, batch in traced for op in batch])
    metrics = per_layer(args.workload, tracer, traced, overhead)
    spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    details["spans_kept"] = tracer.write_spans(spans_path)
    details["spans_file"] = str(spans_path.relative_to(ROOT))
    details["self_s_sum_per_batch"] = sum(s for _, s in tracer.totals().values()) / len(traced)
    details["untraced_batch_s_mean"] = sum(s for s, _ in reference) / len(reference)
    details["batches"] = len(traced)
    ops = [op for _, batch in traced + reference for op in batch] + workload.check()
    return ops, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    kind = WORKLOADS[args.workload]

    try:
        import_chordcheck()
    except ImportError as exc:
        print(f"perfbench: cannot import chordcheck from {SRC}: {exc}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "python": platform.python_version(),
               "nproc": os.cpu_count(), "machine": platform.machine()}
    run = traced_run if args.trace else timed_run
    ops, metrics, problems = run(kind, args, details)

    failed = sum(not op.ok for op in ops)
    details.update(operations=len(ops), failed_share=failed / len(ops), problems=problems)
    if args.workload == "explore_m4":
        details["explore"] = sorted({(op.states, op.steps) for op in ops})
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
