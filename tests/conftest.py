import random

import pytest
from hypothesis import strategies as st

from chordcheck import GlobalState, IdSpace, NodeState, apply_step, properties


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
    """Empty the process-wide memos of member facts and property reports,
    so the next check derives everything afresh."""
    properties._member_facts.cache_clear()
    properties._reports.clear()


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
