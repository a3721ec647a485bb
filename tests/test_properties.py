"""Property flags, witnesses, ideality, the error metric, and sampled
invariant-implication checks (the exhaustive versions live in the
acceptance suite)."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordcheck import (
    ErrorMetric,
    ExploreConfig,
    GlobalState,
    IdSpace,
    Schedule,
    StepKind,
    apply_step,
    check_all,
    converge,
    enabled_steps,
    error_metric,
    explore,
    ideal_ring,
    invariant_holds,
    is_ideal,
    make_state,
    replay,
    valid_initial,
)
from chordcheck import properties
from chordcheck.cli import main
from chordcheck.properties import (
    FLAG_NAMES,
    MASK_ROWS_CEILING,
    MEMBER_FACTS_CEILING,
    REPORTS_CEILING,
    mask_rows,
)

from chordcheck.state import _frozen

from conftest import (
    SCENARIOS,
    brute_force_principals,
    clear_property_memos,
    global_states,
    random_global_state,
    scan_best_successor,
    scan_one_live_successor,
)


def literal_ring_flags(state):
    """The four ring flags and their witnesses, written literally: ring
    membership by walking each member's chain, ring order by ``between``
    on every pair of ring members."""
    between = state.space.between

    def succ(member):
        return scan_best_successor(state, member)

    def reaches_itself(start):
        cur = succ(start)
        for _ in range(state.live_count):
            if cur is None or cur == start:
                break
            cur = succ(cur)
        return cur == start

    ring = {m for m in state.idents() if reaches_itself(m)}
    witnesses = {}
    if not ring:
        witnesses["at_least_one_ring"] = state.idents()
    else:
        start = min(ring)
        cycle = {start}
        cur = succ(start)
        while cur is not None and cur != start:
            cycle.add(cur)
            cur = succ(cur)
        stray = sorted(ring - cycle)
        if stray:
            witnesses["at_most_one_ring"] = (start, stray[0])
    for n1 in sorted(ring):
        n2 = succ(n1)
        for nb in sorted(ring):
            if between(n1, nb, n2) and "ordered_ring" not in witnesses:
                witnesses["ordered_ring"] = (n1, nb, n2)
    offenders = []
    for start in (i for i in state.idents() if i not in ring):
        seen = set()
        cur = start
        while cur is not None and cur not in seen and cur not in ring:
            seen.add(cur)
            cur = succ(cur)
        if cur not in ring:
            offenders.append(start)
    if offenders:
        witnesses["connected_appendages"] = tuple(offenders)
    names = ("at_least_one_ring", "at_most_one_ring", "ordered_ring", "connected_appendages")
    return {name: name not in witnesses for name in names}, witnesses


def nearest_live(state, ident, reverse=False):
    """The live member next to ``ident`` clockwise (counterclockwise with
    ``reverse``): the one with no live member strictly between them. A
    lone member is its own neighbour."""
    live = state.idents()
    for c in live:
        if c != ident:
            a, b = (c, ident) if reverse else (ident, c)
            if not any(state.space.between(a, d, b) for d in live):
                return c
    return ident


def literal_ideal_witness(state):
    """The lowest member whose successor list is not its r clockwise
    neighbours in turn, or whose predecessor is not its counterclockwise
    neighbour, and which pointer; None when there is none."""
    for node in state.members:
        expected, cur = [], node.ident
        for _ in range(state.r):
            cur = nearest_live(state, cur)
            expected.append(cur)
        if node.succ_list != tuple(expected):
            return (node.ident, "succ_list")
        if node.prdc != nearest_live(state, node.ident, reverse=True):
            return (node.ident, "prdc")
    return None


def literal_no_duplicates(state):
    """The members whose extended successor list repeats an identifier."""
    return tuple(
        node.ident for node in state.members if len({node.ident, *node.succ_list}) != state.r + 1
    )


def literal_ordered_successor_lists(state):
    """The lowest member with a sublist [x, y, z] of its ESL, contiguous or
    not, that fails between(x, y, z), and the first such sublist; None
    when every ESL is ordered."""
    between = state.space.between
    for node in state.members:
        for x, y, z in combinations((node.ident,) + node.succ_list, 3):
            if not between(x, y, z):
                return (node.ident, (x, y, z))
    return None


def literal_list_error(state, node):
    """The length of the suffix of the member's list from its first entry
    that is not its next clockwise live neighbour in turn."""
    cur = node.ident
    for i, entry in enumerate(node.succ_list):
        cur = nearest_live(state, cur)
        if entry != cur:
            return state.r - i
    return 0


def literal_report(state):
    """Every flag, the witnesses of the false ones in ``check_all``'s
    order, and the error metric's fields, from the literal definitions."""
    witnesses = {}
    live_ok, stranded = scan_one_live_successor(state)
    if not live_ok:
        witnesses["one_live_successor"] = stranded
    prins = brute_force_principals(state)
    if len(prins) < state.r + 1:
        witnesses["sufficient_principals"] = {"principals": tuple(sorted(prins)),
                                              "required": state.r + 1}
    if literal_no_duplicates(state):
        witnesses["no_duplicates"] = literal_no_duplicates(state)
    if literal_ordered_successor_lists(state) is not None:
        witnesses["ordered_successor_lists"] = literal_ordered_successor_lists(state)
    witnesses.update(literal_ring_flags(state)[1])
    ideal = literal_ideal_witness(state)
    if ideal is not None or not state.members:
        witnesses["ideal"] = ideal
    successor_error = {n.ident: oracle_pointer_error(state, n.ident, n.succ_list[0])
                       for n in state.members}
    predecessor_error = {n.ident: oracle_pointer_error(state, n.ident, n.prdc, reverse=True)
                         for n in state.members}
    metric = {
        "s": state.live_count,
        "successor_error": successor_error,
        "predecessor_error": predecessor_error,
        "list_error": {n.ident: literal_list_error(state, n) for n in state.members},
        "cumulative": sum(successor_error.values()) + sum(predecessor_error.values()),
        "witness": ideal,
    }
    flags = {name: name not in witnesses for name in FLAG_NAMES}
    flags["invariant"] = flags["one_live_successor"] and flags["sufficient_principals"]
    return flags, witnesses, metric


def related_states(state):
    """``state``, then its members under other live sets (each member
    failed in turn), then the same state in the next wider space, whose
    members share its facts."""
    yield state
    for node in state.members:
        yield state.derive(node.ident)
    if state.space.m < 6:
        yield GlobalState(IdSpace(state.space.m + 1), state.r, state.members,
                          state.pending_stabilize, state.pending_notify)


# m = 1..6 and r = 1..3, the empty network among them
any_states = st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
    lambda mr: st.one_of(
        global_states(m=mr[0], r=mr[1], max_members=6, with_pending=True),
        st.just(GlobalState(IdSpace(mr[0]), mr[1], ())),
    )
)


# m = 3..5 and r = 1..3, with in-flight continuations and notifications
varied_states = st.tuples(st.integers(3, 5), st.integers(1, 3)).flatmap(
    lambda mr: global_states(m=mr[0], r=mr[1], max_members=6, with_pending=True)
)

IMPLIED = (
    "no_duplicates",
    "ordered_successor_lists",
    "at_least_one_ring",
    "at_most_one_ring",
    "ordered_ring",
    "connected_appendages",
)


class TestCheckAll:
    def test_ideal_ring_all_true(self, space3):
        report = check_all(ideal_ring(space3, 2, [0, 2, 5]))
        assert all(report.flags.values())
        assert report.witnesses == {}

    def test_stranded_members_witnessed(self, space6):
        s = make_state(space6, 2, [(62, 48, (48, 48)), (37, 62, (48, 48))])
        report = check_all(s)
        assert not report.flags["one_live_successor"]
        assert report.witnesses["one_live_successor"] == (37, 62)
        assert not report.flags["at_least_one_ring"]

    def test_disordered_ring_witnessed(self, space6):
        # best-successor cycle 52 -> 45 -> 20 -> 31 -> 52 is out of order
        s = make_state(space6, 2, [
            (20, 45, (31, 45)),
            (31, 20, (52, 3)),
            (45, 31, (20, 31)),
            (52, 31, (45, 20)),
        ])
        report = check_all(s)
        assert not report.flags["ordered_ring"]
        n1, nb, n2 = report.witnesses["ordered_ring"]
        assert s.space.between(n1, nb, n2)
        assert (n1, nb, n2) == (31, 45, 52)

    def test_ring_witnesses_pinned(self, space3):
        # two best-successor cycles, 0 <-> 2 and 4 <-> 6
        two_rings = make_state(space3, 1, [(0, 2, (2,)), (2, 0, (0,)), (4, 6, (6,)), (6, 4, (4,))])
        assert check_all(two_rings).witnesses["at_most_one_ring"] == (0, 4)
        # every chain ends at a member whose only entry is dead
        no_ring = make_state(space3, 1, [(0, 4, (1,)), (4, 0, (0,))])
        report = check_all(no_ring)
        assert report.witnesses["at_least_one_ring"] == (0, 4)
        assert report.witnesses["connected_appendages"] == (0, 4)
        # ring 0 -> 2 -> 4 -> 0; 1 hangs on it, 6 -> 5 -> (dead 7) does not
        stranded = make_state(space3, 1, [(0, 4, (2,)), (1, 0, (2,)), (2, 0, (4,)),
                                          (4, 2, (0,)), (5, 4, (7,)), (6, 5, (5,))])
        report = check_all(stranded)
        assert report.flags["at_least_one_ring"] and report.flags["at_most_one_ring"]
        assert report.witnesses["connected_appendages"] == (5, 6)

    @settings(max_examples=400, deadline=None)
    @given(varied_states)
    def test_ring_flags_and_ideal_witness_match_literal_definitions(self, s):
        report = check_all(s)
        flags, witnesses = literal_ring_flags(s)
        for name, flag in flags.items():
            assert report.flags[name] == flag, name
            assert report.witnesses.get(name) == witnesses.get(name), name
        witness = literal_ideal_witness(s)
        assert report.flags["ideal"] == (witness is None)
        assert report.witnesses.get("ideal") == witness
        assert report.metric == error_metric(s)

    def test_duplicate_entries_witnessed(self, space6):
        s = make_state(space6, 2, [(62, 48, (48, 48)), (48, 62, (62, 37)), (37, 62, (48, 62))])
        report = check_all(s)
        assert not report.flags["no_duplicates"]
        assert 62 in report.witnesses["no_duplicates"]

    def test_invariant_is_the_two_way_conjunction(self):
        rng = random.Random(13)
        for _ in range(200):
            s = random_global_state(rng, m=3, r=2)
            report = check_all(s)
            assert report.flags["invariant"] == (
                report.flags["one_live_successor"] and report.flags["sufficient_principals"]
            )

    def test_flags_ignore_predecessors(self):
        # every flag except ideal is a successor-list/liveness property
        rng = random.Random(14)
        for _ in range(100):
            s = random_global_state(rng, m=3, r=2)
            scrambled = make_state(
                s.space, s.r,
                [(n.ident, (n.prdc + 3) % s.space.size, n.succ_list) for n in s.members],
            )
            a, b = check_all(s).flags, check_all(scrambled).flags
            for name in a:
                if name != "ideal":
                    assert a[name] == b[name]


def fresh_report(state):
    """``check_all(state)`` derived from empty memos."""
    clear_property_memos()
    return check_all(state)


class TestMemberFacts:
    """``check_all``, and ``error_metric`` through it, read per-member facts
    from a memo that every state of the process shares."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(any_states, min_size=1, max_size=5))
    def test_shared_facts_match_fresh_and_literal(self, stream):
        states = [s for drawn in stream for s in related_states(drawn)]
        shared = []
        for s in states:
            report = check_all(s)
            assert report.metric == error_metric(s)
            shared.append(report)
        for s, report in zip(states, shared):
            fresh = fresh_report(s)
            same_report(report, fresh)
            properties._report.cache_clear()
            # no stored report: error_metric builds one
            assert error_metric(s) == fresh.metric
            flags, witnesses, metric = literal_report(s)
            assert report.flags == flags
            assert list(report.witnesses.items()) == list(witnesses.items())
            assert report.metric == ErrorMetric(**metric)

    def test_memo_never_grows_past_its_ceiling(self):
        rng = random.Random(41)
        seen = set()
        while len(seen) <= 2 * MEMBER_FACTS_CEILING:
            s = random_global_state(rng, m=6, r=2, min_members=1, max_members=3)
            seen.update((s.mask, node) for node in s.members)
            metric = error_metric(s)
            assert 0 < properties._member_facts.cache_info().currsize <= MEMBER_FACTS_CEILING
            if rng.random() < 0.05:
                assert metric == ErrorMetric(**literal_report(s)[2])

    @pytest.mark.parametrize("nodes, r, witnesses", [
        # an ESL holding its owner last: duplicated, yet in order
        ([(0, 5, (2, 0)), (2, 0, (5, 0)), (5, 2, (0, 2))], 2,
         {"sufficient_principals": {"principals": (0, 2), "required": 3},
          "no_duplicates": (0,), "ideal": (0, "succ_list")}),
        # an ESL holding its owner midway: the first triple out of order,
        # in combinations order, is the witness
        ([(0, 5, (3, 0, 5)), (3, 0, (5, 0, 3)), (5, 3, (0, 3, 5))], 3,
         {"sufficient_principals": {"principals": (0,), "required": 4},
          "no_duplicates": (0, 3, 5), "ordered_successor_lists": (0, (0, 0, 5)),
          "ideal": (0, "succ_list")}),
        # the ESLs (0, 3, 0) and (3, 0, 3) wrap a whole turn: in order
        ([(0, 3, (3, 0)), (3, 0, (0, 3))], 2,
         {"sufficient_principals": {"principals": (0, 3), "required": 3},
          "no_duplicates": (0, 3)}),
        # offsets 5 then 3 from the owner: out of order
        ([(0, 5, (5, 3)), (3, 0, (5, 0)), (5, 3, (0, 3))], 2,
         {"sufficient_principals": {"principals": (5,), "required": 3},
          "ordered_successor_lists": (0, (0, 5, 3)), "ideal": (0, "succ_list")}),
        # r = 1: an ESL of two entries is never out of order
        ([(0, 6, (0,)), (2, 0, (6,)), (6, 2, (0,))], 1,
         {"sufficient_principals": {"principals": (0,), "required": 2},
          "no_duplicates": (0,), "ideal": (0, "succ_list")}),
        ([(0, 6, (1,)), (2, 0, (6,)), (6, 2, (0,))], 1,
         {"one_live_successor": (0,), "at_least_one_ring": (0, 2, 6),
          "connected_appendages": (0, 2, 6), "ideal": (0, "succ_list")}),
    ])
    def test_boundary_witnesses_pinned(self, space3, nodes, r, witnesses):
        s = make_state(space3, r, nodes)
        report = check_all(s)
        assert list(report.witnesses.items()) == list(witnesses.items())
        assert list(literal_report(s)[1].items()) == list(witnesses.items())


def same_report(a, b):
    """Equal flags, equal witnesses in the same order, and an equal metric."""
    assert a.flags == b.flags
    assert list(a.witnesses.items()) == list(b.witnesses.items())
    assert a.metric == b.metric


@st.composite
def other_pending(draw, state):
    """``state``'s members with other in-flight entries: a continuation for
    some members, any candidate, and any notifications."""
    space = state.space
    anywhere = st.integers(0, space.size - 1)
    owners = draw(st.lists(st.sampled_from(state.idents()), unique=True)) if state.members else []
    stabilize = [(owner, draw(anywhere)) for owner in owners]
    notify = draw(st.lists(st.tuples(anywhere, anywhere), max_size=3))
    return GlobalState(space, state.r, state.members, stabilize, notify)


class TestReportMemo:
    """The report memo keeps one report per ``(m, r, members)``: no
    property reads the pending entries."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_report_ignores_pending_entries(self, data):
        s = data.draw(any_states)
        bare = GlobalState(s.space, s.r, s.members)
        other = data.draw(other_pending(s))
        report = fresh_report(s)
        for variant in (bare, other):
            same_report(fresh_report(variant), report)

    def test_pending_only_difference_shares_the_report(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        busy = GlobalState(space3, 2, s.members, [(0, 1)], [(2, 0), (5, 4)])
        report = check_all(s)
        assert check_all(busy) is report
        assert error_metric(s) is report.metric
        assert error_metric(busy) is report.metric
        clear_property_memos()
        assert report.metric == error_metric(busy)

    def test_empty_network_keyed_by_r(self, space3):
        for r in (1, 2):
            report = check_all(GlobalState(space3, r, ()))
            assert report.witnesses["sufficient_principals"] == {"principals": (), "required": r + 1}

    def test_wider_space_shares_the_report(self):
        # the best-successor cycle 1 -> 6 -> 4 -> 1 runs against the
        # identifier order; its arcs 6 -> 4 and 4 -> 1 wrap past 0
        nodes = [(1, 4, (6, 4)), (4, 6, (1, 6)), (6, 1, (4, 1))]
        narrow = make_state(IdSpace(3), 2, nodes)
        wide = make_state(IdSpace(4), 2, nodes)
        report = fresh_report(narrow)
        assert not report.flags["ordered_ring"]
        # each width keys its own report, and the two are equal
        same_report(check_all(wide), report)
        same_report(report, fresh_report(narrow))
        same_report(report, fresh_report(wide))

    def test_memo_never_grows_past_its_ceiling(self):
        rng = random.Random(43)
        seen = set()
        while len(seen) <= 2 * REPORTS_CEILING:
            s = random_global_state(rng, m=4, r=2, min_members=1, max_members=4)
            seen.add((s.r, s.members))
            report = check_all(s)
            assert 0 < properties._report.cache_info().currsize <= REPORTS_CEILING
            assert check_all(s) is report
            if len(seen) % 32 == 0:
                same_report(report, fresh_report(s))

    def test_stored_reports_stay_literal_after_runs(self):
        # every report a batch of runs and replays left in the memo is the
        # literal report of its members: no caller mutated a shared one
        space = IdSpace(3)
        clear_property_memos()
        ring = ideal_ring(space, 2, [0, 2, 5])
        states = explore(ring, ExploreConfig(max_depth=3, churn="full",
                                             collect_states=True)).states
        # explore reads its root's invariant from the root's report
        tables = {ring.members}
        for seed, state in enumerate(states[::7]):
            trace = converge(state, Schedule(seed=seed))
            replay(trace)
            # a run reads its seed state's invariant from its report, then
            # checks its initial state and each record's
            tables.add(state.members)
            tables.add(trace.initial.members)
            for start, records in ((trace.seed_state, trace.prelude),
                                   (trace.initial, trace.records)):
                for rec in records:
                    start = apply_step(start, rec.step)
                    tables.add(start.members)
        stored = properties._report.cache_info()
        # the memo holds the report of every table the runs met, and only those
        assert 10 < stored.currsize == stored.misses == len(tables)
        for members in tables:
            s = GlobalState(space, 2, members)
            report = check_all(s)
            flags, witnesses, metric = literal_report(s)
            assert report.flags == flags
            assert list(report.witnesses.items()) == list(witnesses.items())
            assert report.metric == ErrorMetric(**metric)
        assert properties._report.cache_info().misses == stored.misses


class TestMaskRowsMemo:
    """The invariant's mask rows are memoized per ``(m, r, members)``: no
    conjunct and no fail verdict reads the pending entries."""

    def test_snapshot_verdicts_read_no_rows(self, capsys):
        # a snapshot's invariant is its report's flag: converge's seed
        # check, every record, every replay and `chordcheck check` read
        # reports, and only the steps (joins, fail guards) read the rows
        states = explore(ideal_ring(IdSpace(3), 2, [0, 2, 3, 5, 7]),
                         ExploreConfig(max_depth=4, churn="full", collect_states=True)).states
        clear_property_memos()
        sample = states[::len(states) // 24]
        assert len(sample) >= 20
        for seed, state in enumerate(sample):
            replay(converge(state, Schedule(seed=seed)))
        scenarios = sorted(SCENARIOS.glob("*.json"))
        assert len(scenarios) == 4
        for path in scenarios:
            main(["check", str(path)])
        assert '"valid_initial": true' in capsys.readouterr().out
        lookups = properties._mask_rows.cache_info()
        assert (lookups.hits, lookups.misses, lookups.currsize) == (0, 0, 0)
        assert properties._last_rows[0] is None

    def test_memoized_rows_equal_fresh_rows_on_every_explored_state(self):
        result = explore(ideal_ring(IdSpace(3), 2, [0, 2, 5]),
                         ExploreConfig(max_depth=6, churn="full", collect_states=True))
        assert result.ok
        assert any(s.pending_stabilize or s.pending_notify for s in result.states)
        fresh = properties._mask_rows.__wrapped__
        for s in result.states:
            assert mask_rows(s) == fresh(s.space.m, s.r, s.members)

    def test_pending_only_difference_shares_the_rows(self, space3):
        bare = ideal_ring(space3, 2, [0, 2, 5])
        busy = GlobalState(space3, 2, bare.members, [(0, 1)], [(2, 0), (5, 4)])
        assert mask_rows(busy) is mask_rows(bare)
        assert invariant_holds(busy) and mask_rows(busy).failable == mask_rows(bare).failable

    def test_wider_space_keeps_its_own_rows_and_the_same_verdicts(self):
        # 6 -> 4 and 4 -> 1 wrap past 0, over 7 alone at m=3 but over 7 to
        # 15 at m=4: the skip masks differ, their live parts do not
        nodes = [(1, 4, (6, 4)), (4, 6, (1, 6)), (6, 1, (4, 1))]
        narrow = make_state(IdSpace(3), 2, nodes)
        wide = make_state(IdSpace(4), 2, nodes)
        assert narrow.members == wide.members
        a, b = mask_rows(narrow), mask_rows(wide)
        assert a is not b
        assert a.skipped != b.skipped
        assert a.skipped & narrow.mask == b.skipped & wide.mask
        assert invariant_holds(narrow) == invariant_holds(wide)
        assert mask_rows(narrow).failable == mask_rows(wide).failable
        assert check_all(narrow).flags["invariant"] == invariant_holds(wide)

    def test_memo_never_grows_past_its_ceiling(self):
        rng = random.Random(47)
        fresh = properties._mask_rows.__wrapped__
        seen = set()
        while len(seen) <= 2 * MASK_ROWS_CEILING:
            s = random_global_state(rng, m=4, r=2, min_members=1, max_members=5)
            seen.add(s.members)
            rows = mask_rows(s)
            assert 0 < properties._mask_rows.cache_info().currsize <= MASK_ROWS_CEILING
            if len(seen) % 64 == 0:
                assert rows == fresh(s.space.m, s.r, s.members)

    def test_one_members_tuple_gets_its_rows_in_each_width(self):
        # the last-table slot answers a repeat of one tuple object: asked
        # for that object at m=3 and then at m=4, where 6 -> 4 and 4 -> 1
        # wrap past 0 over other identifiers, it must not answer for the
        # other width
        nodes = [(1, 4, (6, 4)), (4, 6, (1, 6)), (6, 1, (4, 1))]
        narrow = make_state(IdSpace(3), 2, nodes)
        wide = make_state(IdSpace(4), 2, nodes)
        wide = _frozen(wide.space, wide.r, narrow.members, wide.pending_stabilize,
                       wide.pending_notify, wide.mask, wide.key)
        assert wide == make_state(IdSpace(4), 2, nodes) and wide.members is narrow.members
        fresh = properties._mask_rows.__wrapped__
        for s in (narrow, wide, narrow, narrow, wide):
            assert mask_rows(s) == fresh(s.space.m, s.r, s.members)
        assert mask_rows(narrow) != mask_rows(wide)

    def test_clearing_the_property_memos_clears_the_rows(self, space3):
        mask_rows(ideal_ring(space3, 2, [0, 2, 5]))
        clear_property_memos()
        assert properties._mask_rows.cache_info().currsize == 0


class TestIsIdeal:
    def test_construction_is_ideal(self, space3):
        assert is_ideal(ideal_ring(space3, 2, [0, 2, 5]))

    def test_wrong_predecessor_breaks_ideal(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        node = s.node(0)
        broken = s.with_node(node._replace(prdc=7))
        assert not is_ideal(broken)
        assert check_all(broken).witnesses["ideal"] == (0, "prdc")

    def test_empty_network_not_ideal_and_unwitnessed(self, space3):
        empty = GlobalState(space3, 2, ())
        assert not is_ideal(empty)
        report = check_all(empty)
        assert report.flags["ideal"] is False
        assert report.witnesses["ideal"] is None

    def test_wrong_tail_breaks_ideal(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        node = s.node(2)
        broken = s.with_node(node._replace(succ_list=(5, 2)))
        assert not is_ideal(broken)

    @settings(max_examples=300, deadline=None)
    @given(global_states(m=3, r=2, max_members=5, with_pending=True))
    def test_ideal_flag_predicate_and_zero_error_agree(self, s):
        metric = error_metric(s)
        zero_error = metric.cumulative == 0 and not any(metric.list_error.values())
        literal = literal_ideal_witness(s) is None
        assert check_all(s).flags["ideal"] == is_ideal(s) == zero_error == literal

    def test_ideal_implies_every_other_flag(self):
        rng = random.Random(15)
        space = IdSpace(4)
        for _ in range(50):
            ids = rng.sample(range(16), rng.randint(3, 8))
            report = check_all(ideal_ring(space, 2, ids))
            assert all(report.flags.values())

    def test_fixpoint_under_repair_steps(self, space3):
        # churn-free steps on a quiescent ideal state never move a pointer
        s = ideal_ring(space3, 2, [0, 2, 5])
        frontier = [s]
        for _ in range(3):
            nxt = []
            for state in frontier:
                for step in enabled_steps(state, churn="none"):
                    post = apply_step(state, step)
                    assert post.members == s.members  # pointer-identical
                    assert is_ideal(post)
                    nxt.append(post)
            frontier = nxt


class TestValidInitial:
    def test_size_one_network_rejected(self, space6):
        s = make_state(space6, 2, [(48, 48, (48, 48))])
        assert not valid_initial(s)
        report = check_all(s)
        assert report.flags["one_live_successor"]
        assert not report.flags["sufficient_principals"]

    def test_minimal_ideal_ring_accepted(self, space3):
        assert valid_initial(ideal_ring(space3, 2, [0, 2, 5]))

    def test_pending_traffic_rejected(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        withnotify = make_state(
            space3, 2, [(n.ident, n.prdc, n.succ_list) for n in s.members],
            pending_notify=[(0, 2)],
        )
        assert invariant_holds(withnotify)
        assert not valid_initial(withnotify)


def oracle_pointer_error(state, member, target, reverse=False):
    """Rank by counting strictly better live choices, the independent
    formulation of the pointer error."""
    live = state.idents()
    if target not in live:
        return len(live)
    better = 0
    for c in live:
        if reverse:
            if state.space.between(target, c, member):
                better += 1
        else:
            if state.space.between(member, c, target):
                better += 1
    return better


class TestErrorMetric:
    def test_ideal_is_zero(self, space3):
        metric = error_metric(ideal_ring(space3, 2, [0, 2, 5]))
        assert metric.cumulative == 0
        assert set(metric.list_error.values()) == {0}

    def test_skipping_successor_scores_one(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        broken = s.with_node(s.node(0)._replace(succ_list=(5, 0)))
        metric = error_metric(broken)
        assert metric.successor_error[0] == 1

    def test_dead_target_scores_live_count(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        broken = s.with_node(s.node(0)._replace(succ_list=(7, 2)))
        metric = error_metric(broken)
        assert metric.s == 3
        assert metric.successor_error[0] == 3

    def test_list_error_is_suffix_length(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        metric = error_metric(s.with_node(s.node(0)._replace(succ_list=(2, 0))))
        assert metric.list_error[0] == 1
        metric = error_metric(s.with_node(s.node(0)._replace(succ_list=(5, 0))))
        assert metric.list_error[0] == 2

    def test_matches_counting_oracle(self):
        rng = random.Random(16)
        for _ in range(300):
            s = random_global_state(rng, m=4, r=2)
            metric = error_metric(s)
            for node in s.members:
                assert metric.successor_error[node.ident] == oracle_pointer_error(
                    s, node.ident, node.succ_list[0]
                )
                assert metric.predecessor_error[node.ident] == oracle_pointer_error(
                    s, node.ident, node.prdc, reverse=True
                )


class TestInvariantImplications:
    """Sampled here; the acceptance suite runs these exhaustively."""

    @settings(max_examples=300, deadline=None)
    @given(global_states(m=3, r=2, max_members=5))
    def test_invariant_implies_structure(self, s):
        if invariant_holds(s):
            report = check_all(s)
            for name in IMPLIED:
                assert report.flags[name], (name, s)

    def test_invariant_implies_minimum_size(self):
        rng = random.Random(17)
        for _ in range(300):
            s = random_global_state(rng, m=3, r=2, min_members=1)
            if invariant_holds(s):
                assert s.live_count >= s.r + 1

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_invariant_implies_structure_sampled_larger_spaces(self, m):
        # corrupted ideal rings keep the invariant often enough to give the
        # implication real exercise at every width
        rng = random.Random(100 + m)
        space = IdSpace(m)
        hits = 0
        for _ in range(400):
            ids = rng.sample(range(space.size), rng.randint(3, 8))
            s = ideal_ring(space, 2, ids)
            node = s.node(rng.choice(ids))
            succ = list(node.succ_list)
            succ[rng.randrange(2)] = rng.randrange(space.size)
            s = s.with_node(node._replace(succ_list=tuple(succ)))
            if invariant_holds(s):
                hits += 1
                report = check_all(s)
                for name in IMPLIED:
                    assert report.flags[name], (name, s)
        assert hits > 50
