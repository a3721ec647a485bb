"""The benchmark's three workloads, driven through chordcheck's public API.

Each workload is built by its constructor (the set-up: scenario load,
input generation and one warm-up operation) and then run in batches.
Operations are timed with the clock handed to the constructor (see
``gauge.py``).
``batch(index)`` is one verdict a user waits for: a fixed amount of
work whose inputs depend only on the seed and the batch index, so a
batch can be run again, traced or untraced, on identical inputs. Every
operation in a batch is checked against its known answer. ``check()``
returns untimed operations run once after the timed phase, for a known
answer at a scope too costly to time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path
from typing import NamedTuple


class Op(NamedTuple):
    """One timed operation: an exploration, or one trace produced and replayed."""

    seconds: float
    steps: int  # atomic protocol steps applied, replay included
    states: int  # states checked: distinct states for explore, produced states otherwise
    ok: bool
    expanded: int = 0  # explore only: states whose successors were enumerated
    trace_bytes: int = 0  # simulate_m6 only: size of the trace file written


class ExploreM4:
    """Full-churn BFS over the m=4 five-member ring to depth ``DEPTH``.

    Inputs are fixed; the seed does not change them. The warm-up is the
    same exploration cut at depth 3. After the timed phase, :meth:`check`
    runs the exploration once to depth ``CHECK_DEPTH`` and checks it
    against that scope's known answer; it is not timed.
    """

    name = "explore_m4"
    DEPTH = 4
    STATES = 10_517
    TRANSITIONS = 35_896
    CHECK_DEPTH = 5
    CHECK_STATES = 55_501
    CHECK_TRANSITIONS = 217_336

    def __init__(self, cc, cli, seed: int, workdir: Path, clock):
        self.cc = cc
        self.clock = clock
        self.ring = cc.ideal_ring(cc.IdSpace(4), 2, (0, 3, 6, 9, 12))
        cc.explore(self.ring, cc.ExploreConfig(max_depth=3, churn="full"))

    def op(self, depth: int, states: int, transitions: int) -> Op:
        cfg = self.cc.ExploreConfig(max_depth=depth, churn="full")
        mark = self.clock.start()
        result = self.cc.explore(self.ring, cfg)
        seconds = self.clock.seconds(mark)
        ok = (result.verdict, result.states_visited, result.transitions) == (
            "ok", states, transitions)
        return Op(seconds, result.transitions, result.states_visited, ok,
                  expanded=result.states_visited - result.frontier_size)

    def batch(self, index: int) -> list[Op]:
        return [self.op(self.DEPTH, self.STATES, self.TRANSITIONS)]

    def check(self) -> list[Op]:
        return [self.op(self.CHECK_DEPTH, self.CHECK_STATES, self.CHECK_TRANSITIONS)]


class ConvergeReplay:
    """Converge then replay, in process, from states sampled out of the
    m=3 five-member ring's depth-6 full-churn exploration (the set-up).

    The states are kept in BFS order and cut into ``BATCH`` equal strata;
    a batch draws one state per stratum, so every batch has the same mix
    of shallow and deep states and batches differ only in which ones.
    """

    name = "converge_replay"
    BATCH = 100
    REACHED = 14_979

    def __init__(self, cc, cli, seed: int, workdir: Path, clock):
        self.cc = cc
        self.clock = clock
        self.seed = seed
        result = cc.explore(
            cc.ideal_ring(cc.IdSpace(3), 2, (0, 2, 3, 5, 7)),
            cc.ExploreConfig(max_depth=6, churn="full", collect_states=True),
        )
        if result.verdict != "ok" or len(result.states) != self.REACHED:
            raise RuntimeError(
                f"sample exploration gave {result.verdict} with {len(result.states)} states, "
                f"expected ok with {self.REACHED}")
        self.states = result.states
        self.op(*self.inputs(-1)[0])

    def inputs(self, index: int) -> list[tuple[object, int]]:
        rng = random.Random(f"{self.seed}:{index}")
        n = len(self.states)
        bounds = [n * i // self.BATCH for i in range(self.BATCH + 1)]
        return [(self.states[rng.randrange(lo, hi)], rng.randrange(1 << 30))
                for lo, hi in zip(bounds, bounds[1:])]

    def op(self, state, schedule_seed: int) -> Op:
        cc = self.cc
        mark = self.clock.start()
        trace = cc.converge(state, cc.Schedule(schedule_seed))
        try:
            cc.replay(trace)
            replayed = True
        except Exception:  # noqa: BLE001 - any replay error is a failed operation
            replayed = False
        seconds = self.clock.seconds(mark)
        produced = len(trace.prelude) + len(trace.records)
        return Op(seconds, 2 * produced, produced, replayed and trace.verdict == "converged")

    def batch(self, index: int) -> list[Op]:
        return [self.op(state, s) for state, s in self.inputs(index)]

    def check(self) -> list[Op]:
        return []


class SimulateM6:
    """``chordcheck simulate`` under full churn then ``chordcheck replay``,
    through ``chordcheck.cli.main`` in process, on the m=6 join scenario."""

    name = "simulate_m6"
    BATCH = 20
    SCENARIO = "scenarios/join_lifecycle_m6.json"

    def __init__(self, cc, cli, seed: int, workdir: Path, clock):
        self.cli = cli
        self.clock = clock
        self.seed = seed
        self.scenario = str(workdir.parent / self.SCENARIO)
        cc.files.load_scenario(self.scenario)
        self.trace_path = str(workdir / f"simulate-{os.getpid()}.trace")
        self.op(self.inputs(-1)[0])

    def inputs(self, index: int) -> list[int]:
        rng = random.Random(f"{self.seed}:{index}")
        return [rng.randrange(1 << 30) for _ in range(self.BATCH)]

    def op(self, sim_seed: int) -> Op:
        out = io.StringIO()
        mark = self.clock.start()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            simulated = self.cli.main(["simulate", self.scenario, "--churn", "full",
                                       "--seed", str(sim_seed), "--out", self.trace_path])
            replayed = self.cli.main(["replay", self.trace_path])
        seconds = self.clock.seconds(mark)
        size = 0
        if simulated == 0:
            size = os.path.getsize(self.trace_path)
            os.remove(self.trace_path)
        try:
            report = json.loads(out.getvalue().splitlines()[-1])
            ok = (simulated, replayed, report["verdict"]) == (0, 0, "replay-ok")
            produced = report["records"] + report["prelude_records"]
        except (IndexError, KeyError, TypeError, ValueError):
            ok, produced = False, 0
        return Op(seconds, 2 * produced, produced, ok, trace_bytes=size)

    def batch(self, index: int) -> list[Op]:
        return [self.op(s) for s in self.inputs(index)]

    def check(self) -> list[Op]:
        return []


WORKLOADS = {w.name: w for w in (ExploreM4, ConvergeReplay, SimulateM6)}
