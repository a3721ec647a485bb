"""Scripted reproductions of two design flaws the corrected rules guard
against.

``fig3`` shows why a ring must never be initialized at size one: both
appendages copy the founder's degenerate successor list, so a single
failure strands them with no live successor and no way to find each
other.

``fig4`` shows that six plausible structural properties (one ordered
ring, connected appendages, duplicate-free and ordered successor lists)
are not an inductive invariant: a five-member network can satisfy all six
with zero principal members, and one failure plus two ordinary stabilize
steps disorders the ring.

Both scenarios are fixed scripts over m=6, r=2; there is no free-form
legacy exploration. The builders assert the documented preconditions
instead of trusting them.
"""

from __future__ import annotations

from .explorer import Trace, run_script
from .idspace import IdSpace
from .properties import check_all, valid_initial
from .protocol import Step, StepKind
from .state import GlobalState, make_state, principals

SCENARIO_NAMES = ("fig3", "fig4")

_TRIAL_INVARIANT = (
    "no_duplicates",
    "ordered_successor_lists",
    "at_least_one_ring",
    "at_most_one_ring",
    "ordered_ring",
    "connected_appendages",
)


def build_fig3_state() -> GlobalState:
    """Aftermath of a size-one initialization: founder 48 plus appendages
    62 and 37, both of whose list entries point at 48 alone.

    The figure leaves 48's own pointers open; they are completed with the
    ring-natural values, since the violation is insensitive to them.
    """
    space = IdSpace(6)
    state = make_state(
        space,
        r=2,
        nodes=[
            (48, 37, (62, 37)),
            (62, 48, (48, 48)),
            (37, 62, (48, 48)),
        ],
    )
    report = check_all(state)
    assert not report.flags["no_duplicates"], "appendages must hold duplicate entries"
    assert not valid_initial(state), "a size-one-rooted network must not validate"
    return state


def run_fig3() -> Trace:
    """Force the founder's failure and record the stranded aftermath; the
    trace says ``ok`` iff some member is left with no live successor."""
    state = build_fig3_state()
    return run_script(
        state,
        [Step(StepKind.FAIL, 48, forced=True)],
        kind="repro",
        meta={"scenario": "fig3", "m": 6, "r": 2, "violates": "one_live_successor"},
    )


def build_fig4_state() -> GlobalState:
    """Five-member network satisfying the six-property trial invariant
    with no principal members.

    The ring is 3 -> 20 -> 31 -> 52 -> 3; node 45 is an appendage whose
    successor 20 sits inside the ring, and ring node 52 holds appendage 45
    as its second successor. Pointers the figure leaves out are completed
    so that all six conjuncts hold, which the builder asserts rather than
    trusts.
    """
    space = IdSpace(6)
    state = make_state(
        space,
        r=2,
        nodes=[
            (3, 52, (20, 31)),
            (20, 3, (31, 45)),
            (31, 20, (52, 3)),
            (45, 31, (20, 31)),
            (52, 31, (3, 45)),
        ],
    )
    report = check_all(state)
    for name in _TRIAL_INVARIANT:
        assert report.flags[name], f"first stage must satisfy {name}"
    assert not principals(state), "first stage must have no principal members"
    return state


def run_fig4() -> Trace:
    """Fail node 3, then let 52 stabilize twice: once to shed the dead
    head (padding the tail with one past the last real entry), once to
    adopt its now-first successor 45. The best-successor ring becomes
    52 -> 45 -> 20 -> 31 -> 52, which is out of identifier order; the trace
    says ``ok`` iff it is."""
    state = build_fig4_state()
    return run_script(
        state,
        [
            Step(StepKind.FAIL, 3, forced=True),
            Step(StepKind.STABILIZE_FROM_SUCCESSOR, 52),
            Step(StepKind.STABILIZE_FROM_SUCCESSOR, 52),
        ],
        kind="repro",
        meta={"scenario": "fig4", "m": 6, "r": 2, "violates": "ordered_ring"},
    )


def run_scenario(name: str) -> Trace:
    if name == "fig3":
        return run_fig3()
    if name == "fig4":
        return run_fig4()
    raise ValueError(f"unknown reproduction scenario {name!r}; choose from {SCENARIO_NAMES}")
