import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from chordcheck import (
    ExploreConfig,
    GlobalState,
    IdSpace,
    NodeState,
    Schedule,
    Step,
    StepKind,
    apply_step,
    converge,
    explore,
    explorer,
    ideal_ring,
    properties,
    run_fig3,
    run_fig4,
    run_script,
    simulate,
)
from chordcheck.files import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def space3():
    return IdSpace(3)


@pytest.fixture
def space6():
    return IdSpace(6)


def random_global_state(rng: random.Random, m: int = 4, r: int = 2,
                        min_members: int = 3, max_members: int = 8,
                        member_bias: float = 0.7) -> GlobalState:
    """A random snapshot whose list entries are biased toward live members,
    so states satisfying the invariant actually occur."""
    space = IdSpace(m)
    n = rng.randint(min_members, min(max_members, space.size))
    idents = rng.sample(range(space.size), n)

    def entry() -> int:
        if rng.random() < member_bias:
            return rng.choice(idents)
        return rng.randrange(space.size)

    nodes = tuple(
        NodeState(i, entry(), tuple(entry() for _ in range(r))) for i in idents
    )
    return GlobalState(space, r, nodes)


def scan_best_successor(state, member):
    """Literal definition of a best successor: the first successor-list
    entry found among the member identifiers, or None."""
    live = set(state.idents())
    return next((e for e in state.node(member).succ_list if e in live), None)


def esl(state, member):
    """Literal definition of an extended successor list: the member's own
    identifier followed by its successor list."""
    node = state.node(member)
    return (node.ident,) + node.succ_list


def brute_force_principals(state):
    """Literal definition: p is principal iff no contiguous ESL pair
    skips it, checked pair by pair for every candidate."""
    result = set()
    for p in state.idents():
        skipped = False
        for node in state.members:
            entries = esl(state, node.ident)
            for x, y in zip(entries, entries[1:]):
                if state.space.between(x, p, y):
                    skipped = True
        if not skipped:
            result.add(p)
    return frozenset(result)


def scan_one_live_successor(state):
    """Literal definition: the members with no live successor-list entry,
    found by looking every entry up among the member identifiers."""
    live = set(state.idents())
    offenders = tuple(
        node.ident for node in state.members
        if not any(e in live for e in node.succ_list)
    )
    return (not offenders, offenders)


def clear_property_memos():
    """Empty the process-wide memos of member facts, property reports, mask
    rows and state digests, so the next record derives everything
    afresh."""
    properties._member_facts.cache_clear()
    properties._report.cache_clear()
    properties._mask_rows.cache_clear()
    explorer._digests.clear()


def rotated(state: GlobalState, k: int) -> GlobalState:
    """The snapshot with every identifier turned ``k`` places clockwise:
    members, pointers and pending entries alike. The ring's shape is the
    same, but members sit at other positions of the key."""
    size = state.space.size

    def turn(ident: int) -> int:
        return (ident + k) % size

    return GlobalState(
        state.space, state.r,
        (NodeState(turn(n.ident), turn(n.prdc), tuple(map(turn, n.succ_list)))
         for n in state.members),
        ((turn(a), turn(b)) for a, b in state.pending_stabilize),
        ((turn(a), turn(b)) for a, b in state.pending_notify),
    )


def doubled(state: GlobalState) -> GlobalState:
    """The snapshot embedded in the space one bit wider, every identifier
    doubled: members, pointers and pending entries alike. Circular order
    among the doubled identifiers is the order among the originals, and
    the odd identifiers between them are new and free."""

    def double(ident: int) -> int:
        return 2 * ident

    return GlobalState(
        IdSpace(state.space.m + 1), state.r,
        (NodeState(double(n.ident), double(n.prdc), tuple(map(double, n.succ_list)))
         for n in state.members),
        ((double(a), double(b)) for a, b in state.pending_stabilize),
        ((double(a), double(b)) for a, b in state.pending_notify),
    )


def doubled_step(step: Step) -> Step:
    """``step`` with its actor and argument doubled (see :func:`doubled`)."""
    return step._replace(actor=2 * step.actor, arg=None if step.arg is None else 2 * step.arg)


def rotated_step(step: Step, k: int, size: int) -> Step:
    """``step`` with its actor and argument turned ``k`` places clockwise
    in a space of ``size`` identifiers."""
    arg = None if step.arg is None else (step.arg + k) % size
    return step._replace(actor=(step.actor + k) % size, arg=arg)


@pytest.fixture(scope="session")
def every_trace_kind():
    """One trace from each writer, by name: a script, the two flaw
    reproductions, an explore counterexample, a full-churn m=6 simulate
    and a converge whose header carries a prelude. Tests must not modify
    them."""
    space = IdSpace(3)
    ring = ideal_ring(space, 2, [0, 2, 5])
    stranded = load_scenario(str(SCENARIOS / "stranded_appendages_m6.json"))
    lifecycle = load_scenario(str(SCENARIOS / "join_lifecycle_m6.json"))
    traces = {
        "script": run_script(ring, [Step(StepKind.JOIN, 1, 0),
                                    Step(StepKind.STABILIZE_FROM_SUCCESSOR, 1)]),
        "fig3": run_fig3(),
        "fig4": run_fig4(),
        "explore": explore(stranded.starting_state(),
                           ExploreConfig(max_depth=2, require_valid_initial=False)).trace,
        "simulate": simulate(lifecycle.starting_state(), Schedule(seed=5), 100, churn="full"),
        "converge": converge(GlobalState(space, 2, ring.members, pending_notify=[(2, 0)]),
                             Schedule(seed=1)),
    }
    assert traces["explore"].verdict == "invariant-violated"
    assert traces["converge"].prelude
    return traces


def repeated_table_record(trace):
    """The index of the first record of a converge trace's retention
    window whose state has the same members as the record before it, so
    that the report memo answers its check from the earlier report."""
    start = trace.meta["steps_to_ideal"]
    assert start is not None
    state = trace.initial
    before = None
    for i, rec in enumerate(trace.records):
        state = apply_step(state, rec.step)
        if i >= start and state.members == before:
            return i
        before = state.members
    raise AssertionError("no record repeats its predecessor's members")


@st.composite
def global_states(draw, m: int = 3, r: int = 2, max_members: int = 5,
                  with_pending: bool = False):
    space = IdSpace(m)
    idents = draw(
        st.lists(st.integers(0, space.size - 1), min_size=1, max_size=max_members, unique=True)
    )
    members = frozenset(idents)
    anywhere = st.integers(0, space.size - 1)
    biased = st.one_of(st.sampled_from(sorted(members)), anywhere)
    nodes = tuple(
        NodeState(i, draw(biased), tuple(draw(biased) for _ in range(r)))
        for i in idents
    )
    pending_stabilize = ()
    pending_notify = ()
    if with_pending and len(idents) > 1:
        if draw(st.booleans()):
            # a continuation only ever holds a candidate the owner saw
            # strictly between itself and its head, and the owner's list
            # cannot change while the continuation is in flight
            owner = draw(st.sampled_from(nodes))
            head = owner.succ_list[0]
            candidates = [c for c in range(space.size)
                          if space.between(owner.ident, c, head)]
            if candidates:
                pending_stabilize = ((owner.ident, draw(st.sampled_from(candidates))),)
        if draw(st.booleans()):
            target = draw(st.sampled_from(idents))
            pending_notify = ((target, draw(anywhere)),)
    return GlobalState(space, r, nodes, pending_stabilize, pending_notify)
