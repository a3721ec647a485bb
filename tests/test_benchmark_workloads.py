"""Every benchmark workload builds against the package and runs its first
batch with every operation correct, so a change to the API the benchmark
uses fails here, not in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

import chordcheck
import chordcheck.cli

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
# the benchmark's scratch directory; its parent holds ``scenarios/``
WORKDIR = ROOT / ".perfbench"


def load_workloads():
    """The benchmark's workloads module, loaded from its file; it imports
    nothing but the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOAD_KINDS = load_workloads().WORKLOADS


class StillClock:
    """A clock that reads zero; the batches are checked, not timed."""

    def start(self):
        return 0.0

    def seconds(self, mark) -> float:
        return 0.0


@pytest.mark.parametrize("name", sorted(WORKLOAD_KINDS))
def test_workload_runs_its_first_batch(name):
    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOAD_KINDS[name](chordcheck, chordcheck.cli, 1, WORKDIR, StillClock())
    ops = workload.batch(0)
    assert ops
    assert all(op.ok for op in ops), [op for op in ops if not op.ok]
    if name == "converge_replay":
        assert len(workload.states) == 14_979
