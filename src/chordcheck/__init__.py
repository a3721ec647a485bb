"""Deterministic Chord ring-maintenance protocol model and checkers.

The package models the ring-maintenance protocol as atomic, interleaved
steps over immutable global snapshots, and layers on top of it:

- structural queries (best successors, principal members, ring
  membership),
- every named global property, the two-part inductive invariant, ideality,
  and a pointer error metric,
- a bounded breadth-first explorer for invariant checking with minimal
  counterexample traces,
- a seeded fair simulator and a convergence checker,
- scripted reproductions of two initialization/invariant design flaws,
- a command-line interface with diffable scenario and trace files.
"""

__version__ = "0.1.0"

from .idspace import IdSpace
from .state import (
    GlobalState,
    NodeState,
    best_successors,
    ideal_ring,
    make_state,
    principals,
    ring_members,
)
from .protocol import (
    Step,
    StepKind,
    apply_step,
    enabled_steps,
    lookup_predecessor,
    safely_failable,
    step_fail,
    step_join,
    step_rectify,
    step_stabilize_from_predecessor,
    step_stabilize_from_successor,
)
from .properties import (
    ErrorMetric,
    PropertyReport,
    check_all,
    error_metric,
    invariant_holds,
    is_ideal,
    valid_initial,
)
from .explorer import (
    ExploreConfig,
    ExploreResult,
    Schedule,
    Trace,
    TraceRecord,
    converge,
    explore,
    replay,
    run_script,
    simulate,
    state_digest,
)
from .repro import build_fig3_state, build_fig4_state, run_fig3, run_fig4, run_scenario

__all__ = [
    "IdSpace",
    "GlobalState",
    "NodeState",
    "Step",
    "StepKind",
    "ExploreConfig",
    "ExploreResult",
    "Schedule",
    "Trace",
    "TraceRecord",
    "PropertyReport",
    "ErrorMetric",
    "apply_step",
    "best_successors",
    "build_fig3_state",
    "build_fig4_state",
    "check_all",
    "converge",
    "enabled_steps",
    "error_metric",
    "explore",
    "ideal_ring",
    "invariant_holds",
    "is_ideal",
    "lookup_predecessor",
    "make_state",
    "principals",
    "replay",
    "ring_members",
    "run_fig3",
    "run_fig4",
    "run_scenario",
    "run_script",
    "safely_failable",
    "simulate",
    "state_digest",
    "step_fail",
    "step_join",
    "step_rectify",
    "step_stabilize_from_predecessor",
    "step_stabilize_from_successor",
    "valid_initial",
]
