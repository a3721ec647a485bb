"""Span tracing from outside the package, for the benchmark's traced run.

Each layer boundary is a public name of a ``chordcheck`` module. The
tracer swaps the function for a wrapper in *every* module namespace that
holds it (``from .protocol import apply_step`` copies the name into
``chordcheck.explorer``, so wrapping ``chordcheck.protocol`` alone would
miss the explorer's calls), and swaps class attributes for the methods.
Nothing inside the package is edited.

Per name it keeps a call count and self time (span duration minus the
durations of its child spans). The first ``span_cap`` spans are also
kept in memory as (name, parent, start, end) and can be written out when
the run ends; hot leaves such as ``IdSpace.between`` are called millions
of times, so keeping every span would cost more memory than the
workload itself.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from typing import Callable

# Layer name -> (module, attribute path). A dotted attribute is a method,
# wrapped on its class; a plain one is a module-level function, wrapped in
# every chordcheck module that imported it.
LAYERS = {
    "idspace.between": ("chordcheck.idspace", "IdSpace.between"),
    "state.build": ("chordcheck.state", "GlobalState.__init__"),
    "state.hash": ("chordcheck.state", "GlobalState.__hash__"),
    "state.principals": ("chordcheck.state", "principals"),
    "state.ring_members": ("chordcheck.state", "ring_members"),
    "protocol.enabled_steps": ("chordcheck.protocol", "enabled_steps"),
    "protocol.safely_failable": ("chordcheck.protocol", "safely_failable"),
    "protocol.lookup_predecessor": ("chordcheck.protocol", "lookup_predecessor"),
    "protocol.apply_step": ("chordcheck.protocol", "apply_step"),
    "properties.check_all": ("chordcheck.properties", "check_all"),
    "properties.error_metric": ("chordcheck.properties", "error_metric"),
    "properties.is_ideal": ("chordcheck.properties", "is_ideal"),
    "properties.invariant_holds": ("chordcheck.properties", "invariant_holds"),
    "explorer.state_digest": ("chordcheck.explorer", "state_digest"),
    "explorer.explore": ("chordcheck.explorer", "explore"),
    "explorer.converge": ("chordcheck.explorer", "converge"),
    "explorer.simulate": ("chordcheck.explorer", "simulate"),
    "explorer.replay": ("chordcheck.explorer", "replay"),
    "files.write_trace": ("chordcheck.files", "write_trace"),
    "files.read_trace": ("chordcheck.files", "read_trace"),
    "files.load_scenario": ("chordcheck.files", "load_scenario"),
    "cli.main": ("chordcheck.cli", "main"),
}


def _noop(a, b, c) -> None:
    return None


class Tracer:
    """Wraps the layer boundaries in :data:`LAYERS` and accumulates spans."""

    def __init__(self, span_cap: int = 100_000):
        self.names = list(LAYERS)
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.kids = [0] * len(self.names)  # direct child spans, per layer
        self.probe_ns, self.inner_share = 0.0, 0.0
        self.inner_ns = self.outer_ns = 0.0  # wrapper cost per call, see set_span_cost
        self.span_cap = span_cap
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # open spans: [child_ns, span index, children]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: int, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        calls, self_ns, kids = self.calls, self.self_ns, self.kids
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        cap = self.span_cap

        def traced(*args, **kwargs):
            span = len(starts)
            if span < cap:
                names.append(layer)
                parents.append(stack[-1][1] if stack else -1)
                starts.append(0)
                ends.append(0)
            else:
                span = -1
            frame = [0, span, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[layer] += 1
                self_ns[layer] += duration - frame[0]
                kids[layer] += frame[2]
                if stack:
                    stack[-1][0] += duration
                    stack[-1][2] += 1
                if span >= 0:
                    starts[span] = start
                    ends[span] = end

        return traced

    def calibrate(self, n: int = 100_000, repeats: int = 5) -> None:
        """Measure, on a no-op, what one traced call costs and how that
        cost splits.

        Part of it lies inside the callee's span (the clock reads and the
        extra call) and part around it, where only the caller's clock sees
        it (the bookkeeping). Uncorrected, a caller of a hot leaf would be
        charged for millions of its callee's wrappers.
        """
        clock = time.perf_counter_ns
        inner, total = [], []
        for _ in range(repeats):
            probe = Tracer(span_cap=0)
            leaf = probe._wrap(0, _noop)
            t0 = clock()
            for i in range(n):
                pass
            t1 = clock()
            for i in range(n):
                _noop(i, i, i)
            t2 = clock()
            for i in range(n):
                leaf(i, i, i)
            t3 = clock()
            plain = (t2 - t1) - (t1 - t0)
            inner.append((probe.self_ns[0] - plain) / n)
            total.append(((t3 - t2) - (t2 - t1)) / n)
        self.probe_ns = max(1.0, statistics.median(total))
        self.inner_share = min(1.0, max(0.0, statistics.median(inner) / self.probe_ns))

    def set_span_cost(self, cost_ns: float) -> None:
        """Take ``cost_ns`` per traced call out of the self times, split as
        :meth:`calibrate` measured.

        The no-op probe misjudges the cost on real calls by tens of percent
        either way; traced minus untraced time on the same inputs, per span,
        is the better figure.
        """
        cost_ns = max(0.0, cost_ns)
        self.inner_ns = cost_ns * self.inner_share
        self.outer_ns = cost_ns - self.inner_ns

    def install(self) -> None:
        """Wrap every layer; raises if a layer name no longer exists."""
        modules = [m for name, m in sys.modules.items()
                   if name == "chordcheck" or name.startswith("chordcheck.")]
        for layer, (modname, attr) in enumerate(LAYERS.values()):
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(layer, vars(cls)[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Layer name -> (calls, self seconds less the calibrated tracing cost)."""
        return {
            name: (calls, max(0.0, self.self_ns[i] - calls * self.inner_ns
                              - self.kids[i] * self.outer_ns) / 1e9)
            for i, (name, calls) in enumerate(zip(self.names, self.calls))
        }

    def write_spans(self, path) -> int:
        """Write the kept spans as tab-separated lines; returns how many."""
        count = len(self.span_start)
        origin = self.span_start[0] if count else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(count):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - origin}\t{self.span_end[i] - origin}\n")
        return count
