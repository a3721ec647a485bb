"""Property flags, witnesses, ideality, the error metric, and sampled
invariant-implication checks (the exhaustive versions live in the
acceptance suite)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordcheck import (
    GlobalState,
    IdSpace,
    StepKind,
    apply_step,
    check_all,
    enabled_steps,
    error_metric,
    ideal_ring,
    invariant_holds,
    is_ideal,
    make_state,
    valid_initial,
)

from conftest import global_states, random_global_state, scan_best_successor


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
