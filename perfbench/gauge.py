"""Clocks for the timed phase: plain wall time, and wall time scaled by a
machine-speed gauge.

The benchmark's host is a few cores of a machine shared with other
tenants. Their load slows the same work by up to a third for seconds or
minutes at a time, which no median over one run removes. :class:`Gauge`
samples the machine's speed while the workload runs: every ``PERIOD_S``
a timer signal runs a fixed, stdlib-only probe (tuple building, hashing
and dict updates, the kind of work chordcheck does) in the main thread.
A measured span is reported as its wall time, less the probes run inside
it, times ``REFERENCE_S`` over the mean probe time seen during the span.
That is the span's length on a machine where one probe takes
``REFERENCE_S``: the slowdowns that hit the probe and the program alike
cancel, and what the program's own code costs stays.

The probe uses nothing of chordcheck, so a change to the program cannot
move it. It runs with the garbage collector off, so the program's heap
size does not change its time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import NamedTuple


class WallClock:
    """Unscaled wall time; used by the traced run."""

    def start(self):
        return time.perf_counter()

    def seconds(self, mark) -> float:
        return time.perf_counter() - mark


class _Mark(NamedTuple):
    started: float
    samples: int  # probes taken before the span began
    probed: float  # probe seconds spent before the span began


def probe(n: int = 3000) -> int:
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(n):
        key = (i % 61, (i * 7) % 53, i % 5)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class Gauge:
    """Wall time scaled to a reference machine speed; see the module docstring.

    Use as a context manager around the timed phase (it owns ``SIGALRM``
    while active), and time spans with :meth:`start` and :meth:`seconds`.
    """

    PERIOD_S = 0.05
    REFERENCE_S = 0.001  # one probe, about its time on a quiet 2-vCPU Xeon VM
    WINDOW = 8  # a span with fewer probes inside is scaled by the last WINDOW

    def __init__(self):
        self.samples: list[float] = []
        self.probed = 0.0

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        probe()
        took = time.perf_counter() - started
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.probed += took

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        for _ in range(self.WINDOW):
            self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> _Mark:
        return _Mark(time.perf_counter(), len(self.samples), self.probed)

    def seconds(self, mark: _Mark) -> float:
        elapsed = time.perf_counter() - mark.started - (self.probed - mark.probed)
        inside = self.samples[mark.samples:]
        speed = statistics.fmean(inside if len(inside) >= self.WINDOW
                                 else self.samples[-self.WINDOW:])
        return elapsed * self.REFERENCE_S / speed

    def probe_ms(self) -> float:
        """Median probe time so far, in ms: how loaded the machine was."""
        return statistics.median(self.samples) * 1e3
