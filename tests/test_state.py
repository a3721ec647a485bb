"""Snapshot structure: extended successor lists, best successors,
principal members, ring membership."""

import pickle
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chordcheck import (
    GlobalState,
    IdSpace,
    NodeState,
    Step,
    StepKind,
    apply_step,
    best_successors,
    check_all,
    enabled_steps,
    ideal_ring,
    make_state,
    principals,
    ring_members,
    safely_failable,
)
from chordcheck.errors import UnknownMemberError
from chordcheck.properties import invariant_holds, invariant_with
from chordcheck.state import (
    DECODED_FIELDS_CEILING,
    MEMBER_MASKS_CEILING,
    _decode_field,
    _masks,
    member_masks,
)

from conftest import (
    brute_force_principals,
    clear_property_memos,
    global_states,
    random_global_state,
    scan_best_successor,
    scan_one_live_successor,
)


def literal_safely_failable(state, member):
    """Literal definition: after the member fails, every survivor still
    has a live successor and at least r + 1 members are principal."""
    after = state.derive(member)
    return (scan_one_live_successor(after)[0]
            and len(brute_force_principals(after)) >= state.r + 1)


def networkx_ring_members(state):
    """Independent oracle: ring members are the nodes on cycles of the
    best-successor functional graph."""
    g = nx.DiGraph()
    g.add_nodes_from(state.idents())
    for ident in state.idents():
        succ = scan_best_successor(state, ident)
        if succ is not None:
            g.add_edge(ident, succ)
    ring = set()
    for component in nx.strongly_connected_components(g):
        if len(component) > 1:
            ring |= component
        else:
            (node,) = component
            if g.has_edge(node, node):
                ring.add(node)
    return frozenset(ring)


class TestGlobalState:
    def test_rejects_wrong_list_length(self, space3):
        with pytest.raises(ValueError, match="length"):
            make_state(space3, 2, [(0, 0, (1,))])

    def test_rejects_lists_of_length_zero(self, space3):
        with pytest.raises(ValueError, match="r must be >= 1, got 0"):
            GlobalState(space3, 0, [])

    def test_rejects_a_bool_list_length(self, space3):
        # a trace of such a state would record "r":true and refuse to read it
        message = "successor list length r must be an integer, got True"
        with pytest.raises(ValueError, match=message):
            GlobalState(space3, True, [NodeState(0, 0, (0,))])
        with pytest.raises(ValueError, match=message):
            ideal_ring(space3, True, [0, 2, 5])
        with pytest.raises(ValueError, match=message):
            make_state(space3, True, [(0, 0, (0,))])

    def test_rejects_duplicate_members(self, space3):
        with pytest.raises(ValueError, match="duplicate"):
            make_state(space3, 2, [(0, 0, (1, 2)), (0, 1, (2, 3))])

    @pytest.mark.parametrize("nodes,pending_notify", [
        ([(0, 0, (1, 8))], ()),
        ([(-1, 0, (1, 2))], ()),
        ([(0, 0, (1, 2))], [(0, -1)]),
    ])
    def test_rejects_identifiers_outside_the_space(self, space3, nodes, pending_notify):
        with pytest.raises(ValueError, match="outside"):
            make_state(space3, 2, nodes, pending_notify=pending_notify)

    @pytest.mark.parametrize("pending_stabilize", [[(1, 2)], [(0, 1), (0, 2)]])
    def test_rejects_continuations_a_member_cannot_own(self, space3, pending_stabilize):
        # a continuation belongs to a live member, one at a time
        with pytest.raises(ValueError, match="stabilize in flight"):
            make_state(space3, 2, [(0, 0, (2, 2)), (2, 0, (0, 0))],
                       pending_stabilize=pending_stabilize)

    def test_pickle_roundtrip(self, space3):
        s = make_state(space3, 2, [(0, 5, (2, 5)), (5, 0, (0, 2))], pending_notify=[(0, 2)])
        assert pickle.loads(pickle.dumps(s)) == s

    def test_immutable(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        with pytest.raises(AttributeError):
            s.r = 3
        with pytest.raises(AttributeError):
            del s.members

    def test_canonical_ordering_makes_equal_states_equal(self, space3):
        a = make_state(space3, 2, [(0, 5, (2, 5)), (5, 2, (0, 2))],
                       pending_notify=[(0, 2), (5, 0)])
        b = make_state(space3, 2, [(5, 2, (0, 2)), (0, 5, (2, 5))],
                       pending_notify=[(5, 0), (0, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_duplicate_notifications_collapse(self, space3):
        nodes = [(0, 5, (2, 5)), (2, 0, (5, 0)), (5, 2, (0, 2))]
        doubled = make_state(space3, 2, nodes, pending_notify=[(0, 2), (0, 2)])
        single = make_state(space3, 2, nodes, pending_notify=[(0, 2)])
        assert doubled.pending_notify == ((0, 2),)
        assert doubled == single
        assert doubled.key == single.key
        assert apply_step(doubled, Step(StepKind.RECTIFY, 0, 2)).pending_notify == ()

    def test_snapshots_usable_as_dict_keys(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        assert {s: 1}[ideal_ring(space3, 2, [0, 2, 5])] == 1


def fields(state):
    return (state.space, state.r, state.members, state.pending_stabilize, state.pending_notify)


# every (m, r) with m = 1..6 and r = 1..3, with pending entries
any_scope_states = st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
    lambda mr: global_states(m=mr[0], r=mr[1], with_pending=True))
# two states of one scope, to compare
scope_pairs = st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
    lambda mr: st.tuples(*[global_states(m=mr[0], r=mr[1], max_members=3, with_pending=True)] * 2))


def assert_unchanged_pending_is_shared(parent, post):
    """A step that leaves a pending tuple as it was returns the parent's own."""
    if post.pending_stabilize == parent.pending_stabilize:
        assert post.pending_stabilize is parent.pending_stabilize
    if post.pending_notify == parent.pending_notify:
        assert post.pending_notify is parent.pending_notify


def assert_unchanged_members_are_shared(parent, post):
    """A step that leaves every member row as it was returns the parent's
    own members tuple, which explore reads as an inherited verdict."""
    if post.members == parent.members:
        assert post.members is parent.members


def zero_field_states():
    """States that differ only in fields whose packed bits are all zero:
    member 0 pointing at itself, a continuation to 0, a (0, 0)
    notification, and the empty network."""
    space = IdSpace(3)
    zero = (0, 0, (0, 0))
    return [
        GlobalState(space, 2, ()),
        GlobalState(space, 2, (), pending_notify=[(0, 0)]),
        make_state(space, 2, [zero]),
        make_state(space, 2, [zero], pending_stabilize=[(0, 0)]),
        make_state(space, 2, [zero], pending_notify=[(0, 0)]),
        make_state(space, 2, [zero], pending_notify=[(0, 0), (0, 1)]),
        make_state(space, 2, [zero], pending_stabilize=[(0, 0)], pending_notify=[(0, 0)]),
        make_state(space, 2, [zero, (1, 0, (0, 0))]),
        make_state(IdSpace(1), 1, [(0, 0, (0,))], pending_notify=[(0, 0)]),
    ]


class TestKey:
    @settings(max_examples=300, deadline=None)
    @given(any_scope_states)
    @example(zero_field_states()[0])  # the empty network
    @example(zero_field_states()[2])  # member 0, every pointer 0
    @example(zero_field_states()[4])  # a (0, 0) notification
    def test_decodes_to_the_same_snapshot(self, s):
        decoded = GlobalState.from_key(s.space, s.r, s.key)
        assert decoded == s
        assert fields(decoded) == fields(s)
        assert decoded.mask == s.mask

    @settings(max_examples=300, deadline=None)
    @given(scope_pairs)
    def test_equal_exactly_when_keys_are(self, pair):
        a, b = pair
        assert (a.key == b.key) == (fields(a) == fields(b))
        assert (a == b) == (fields(a) == fields(b))
        # the same state given in another order packs to the same key
        shuffled = GlobalState(a.space, a.r, a.members[::-1], a.pending_stabilize[::-1],
                               a.pending_notify[::-1])
        assert shuffled.key == a.key

    def test_all_zero_fields_still_count(self):
        states = zero_field_states()
        assert len({s.key for s in states}) == len(states)
        for s in states:
            assert GlobalState.from_key(s.space, s.r, s.key) == s
            assert fields(GlobalState.from_key(s.space, s.r, s.key)) == fields(s)

    @settings(max_examples=200, deadline=None)
    @given(any_scope_states)
    # 12 lists only the dead 2, and the join of 2 unstrands it
    @example(make_state(IdSpace(4), 1, [(0, 12, (4,)), (4, 0, (8,)), (8, 4, (12,)),
                                        (12, 8, (2,))]))
    # a (0, 0) notification at the bottom of the notification bits
    @example(make_state(IdSpace(3), 2, [(0, 0, (0, 0))], pending_notify=[(0, 0), (0, 1)]))
    # failing 1, 3 or 5 drops the notifications at the bottom, in the
    # middle or at the top of the notification bits
    @example(make_state(IdSpace(3), 2, [(1, 5, (3, 5)), (3, 1, (5, 1)), (5, 3, (1, 3))],
                        pending_stabilize=[(3, 4)],
                        pending_notify=[(1, 5), (3, 1), (3, 4), (5, 3)]))
    def test_step_results_match_their_rebuild(self, s):
        # steps splice the key from the parent's; the constructor packs it
        # from scratch, and the two must agree. Explore reads a non-fail
        # post-state's verdict from the rows of the parent's members and
        # the actor's new row; the rebuilt snapshot would find its members'
        # rows in the memo, so its verdict is computed from emptied memos.
        # The same state with many notifications in flight, a (0, 0) entry
        # at the bottom of their bits, puts each one at many positions
        low, top = 0, s.space.size - 1
        crowded = GlobalState(s.space, s.r, s.members, s.pending_stabilize, [
            (target, new_prdc) for target in {low, top, *s.idents()}
            for new_prdc in {low, top, s.idents()[0]}])
        for state in (s, crowded):
            steps = enabled_steps(state, churn="full")
            steps += [Step(StepKind.FAIL, ident, forced=True) for ident in state.idents()]
            # deliver every pending notification, to a member or not
            steps += [Step(StepKind.RECTIFY, *entry) for entry in state.pending_notify]
            for step in steps:
                post = apply_step(state, step)
                rebuilt = GlobalState(*fields(post))
                assert rebuilt.key == post.key
                assert rebuilt == post
                assert_unchanged_pending_is_shared(state, post)
                assert_unchanged_members_are_shared(state, post)
                if step.kind == StepKind.FAIL:
                    assert post.pending_notify == tuple(
                        e for e in state.pending_notify if e[0] != step.actor)
                elif step.kind == StepKind.RECTIFY:
                    assert post.pending_notify == tuple(
                        e for e in state.pending_notify if e != (step.actor, step.arg))
                if step.kind != StepKind.FAIL and post.is_member(step.actor):
                    verdict = invariant_with(state, post.node(step.actor))
                    clear_property_memos()
                    assert verdict == invariant_holds(rebuilt), step
            # a notification spliced in at every position, with the
            # sender's row put back unchanged; delivering one that is not
            # pending changes nothing
            sender = state.idents()[0]
            unchanged = (sender, state.node(sender), state.pending_stabilize_for(sender))
            for target in range(state.space.size):
                post = state.derive(*unchanged, sent=(target, sender))
                assert GlobalState(*fields(post)).key == post.key
                assert_unchanged_pending_is_shared(state, post)
                assert post.members is state.members
                if (target, sender) not in state.pending_notify:
                    assert state.derive(*unchanged, delivered=(target, sender)) == state

    def test_rejects_keys_no_snapshot_has(self, space3):
        s = make_state(space3, 2, [(0, 0, (2, 2)), (2, 0, (0, 0))])
        at = s.key.bit_length() - 1  # the sentinel bit
        with pytest.raises(ValueError):
            GlobalState.from_key(space3, 2, s.key ^ 1 << at)  # no sentinel
        # member 0's field starts above the 8-bit mask; its flag bit
        # follows prdc and two entries (9 bits), its candidate the flag.
        # The decode memo keeps no exception: every call raises
        for _ in range(3):
            with pytest.raises(ValueError, match="without its continuation flag"):
                GlobalState.from_key(space3, 2, s.key ^ 1 << (8 + 9 + 1))
        assert GlobalState.from_key(space3, 2, s.key) == s

    def test_decoded_members_are_shared_across_calls(self, space3):
        s = make_state(space3, 2, [(0, 5, (2, 5)), (2, 0, (5, 0)), (5, 2, (0, 2))],
                       pending_stabilize=[(2, 3)])
        other = s.derive(5, NodeState(5, 0, (0, 2)))  # members 0 and 2 unchanged
        a = GlobalState.from_key(space3, 2, s.key)
        b = GlobalState.from_key(space3, 2, s.key)
        c = GlobalState.from_key(space3, 2, other.key)
        assert a == b == s and c == other
        assert all(x is y for x, y in zip(a.members, b.members))
        assert a.members[0] is c.members[0] and a.members[1] is c.members[1]
        assert a.pending_stabilize == c.pending_stabilize == ((2, 3),)

    def test_decode_memo_never_grows_past_its_ceiling(self):
        rng = random.Random(37)
        seen = set()
        while len(seen) <= 2 * DECODED_FIELDS_CEILING:
            s = random_global_state(rng, m=5, r=2, min_members=1, max_members=4)
            seen.update(s.members)
            assert GlobalState.from_key(s.space, s.r, s.key) == s
            assert 0 < _decode_field.cache_info().currsize <= DECODED_FIELDS_CEILING


class TestEsl:
    """The extended successor list (ESL) is the owner's identifier followed
    by its successor list; :func:`member_masks` reads its contiguous pairs."""

    def test_owner_prepended(self, space6):
        s = make_state(space6, 2, [(52, 45, (3, 45)), (45, 31, (20, 31)),
                                   (3, 52, (20, 31)), (20, 3, (31, 45)), (31, 20, (52, 3))])
        arc = space6.arc
        assert member_masks(space6, s.node(52))[0] == arc(52, 3) | arc(3, 45)
        assert member_masks(space6, s.node(45))[0] == arc(45, 20) | arc(20, 31)

    def test_degenerate_duplicates_representable(self, space3):
        s = make_state(space3, 2, [(0, 0, (0, 0))])
        assert s.node(0) == NodeState(0, 0, (0, 0))
        # the ESL (0, 0, 0) skips every identifier but 0
        assert member_masks(space3, s.node(0)) == (0b11111110, 0b1)

    def test_unknown_member(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        with pytest.raises(UnknownMemberError):
            s.node(1)


class TestBestSuccessor:
    def test_skips_dead_entry(self, space6):
        s = make_state(space6, 2, [(40, 53, (48, 53)), (53, 40, (40, 48))])
        assert best_successors(s)[40] == 53

    def test_prefers_first_live(self, space6):
        s = make_state(space6, 2, [(48, 53, (50, 53)), (50, 48, (53, 48)), (53, 50, (48, 50))])
        assert best_successors(s)[48] == 50

    def test_none_when_all_dead(self, space6):
        s = make_state(space6, 2, [(62, 48, (48, 48)), (37, 48, (48, 48))])
        assert best_successors(s)[62] is None
        assert best_successors(s)[37] is None

    @settings(max_examples=200)
    @given(global_states(m=4, r=3, max_members=6, with_pending=True))
    def test_table_matches_scan(self, s):
        table = best_successors(s)
        assert list(table) == list(s.idents())
        for member in s.idents():
            assert table[member] == scan_best_successor(s, member), member


class TestPrincipals:
    def test_ideal_ring_all_principal(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        assert principals(s) == {0, 2, 5}

    def test_skipped_member_not_principal(self, space3):
        # 0 skips 3 by listing (2, 5); everyone else is ideal for {0,2,3,5}
        s = make_state(space3, 2, [
            (0, 5, (2, 5)),
            (2, 0, (3, 5)),
            (3, 2, (5, 0)),
            (5, 3, (0, 2)),
        ])
        assert principals(s) == {0, 2, 5}

    def test_matches_brute_force_on_random_states(self):
        rng = random.Random(20260810)
        for _ in range(300):
            s = random_global_state(rng, m=4, r=2)
            assert principals(s) == brute_force_principals(s)

    @settings(max_examples=200)
    @given(global_states(m=3, r=2))
    def test_matches_brute_force_hypothesis(self, s):
        assert principals(s) == brute_force_principals(s)

    @settings(max_examples=200)
    @given(global_states(m=3, r=2, with_pending=True))
    # failing 1 strands 0, whose other entry is dead, yet 0, 4 and 6
    # stay principal: only the stranding test can refuse this fail
    @example(make_state(IdSpace(3), 2, [(0, 6, (1, 3)), (1, 0, (2, 4)), (2, 1, (4, 6)),
                                        (4, 2, (6, 0)), (6, 4, (0, 2))]))
    def test_mask_queries_match_literal_definitions(self, s):
        report = check_all(s)
        live_ok = report.flags["one_live_successor"]
        assert (live_ok, report.witnesses.get("one_live_successor", ())) == scan_one_live_successor(s)
        for member in s.idents():
            assert safely_failable(s, member) == literal_safely_failable(s, member), member

    def test_padding_entry_counts_as_ordinary(self, space3):
        # (4, 5) skips nothing even though 5 may be nobody: entries are
        # compared as identifiers, live or not
        s = make_state(space3, 2, [
            (0, 6, (2, 4)), (2, 0, (4, 5)), (4, 2, (6, 0)), (6, 4, (0, 2)),
        ])
        assert 6 in principals(s)


def scan_skipped(space, node):
    """Literal definition: the identifiers some contiguous pair of the
    member's ESL skips, found with one between test per identifier."""
    entries = (node.ident,) + node.succ_list
    return sum(1 << p for p in space.idents()
               if any(space.between(x, p, y) for x, y in zip(entries, entries[1:])))


class TestMemberMasks:
    def test_wrapped_pair_depends_on_the_space(self):
        node = NodeState(6, 0, (1, 2))
        small, large = IdSpace(3), IdSpace(4)
        # the pair (6, 1) wraps: it skips 7 and 0 at m=3, and 7..15 and 0 at m=4
        assert member_masks(small, node) == (1 << 7 | 1 << 0, 0b110)
        assert member_masks(large, node) == (sum(1 << p for p in (*range(7, 16), 0)), 0b110)
        for space in (small, large):
            assert member_masks(space, node)[0] == scan_skipped(space, node)

    @settings(max_examples=200)
    @given(global_states(m=4, r=3, max_members=6))
    def test_skipped_mask_matches_between_scan_fresh_and_filled(self, s):
        # principals are the members outside the union of the skip masks
        skipped = 0
        for node in s.members:
            skipped |= scan_skipped(s.space, node)
            assert member_masks(s.space, node)[1] == sum(1 << e for e in set(node.succ_list))
        expected = frozenset(n.ident for n in s.members if not skipped >> n.ident & 1)
        assert principals(s) == expected
        # an equal space reads the same entries
        assert principals(GlobalState(IdSpace(4), s.r, s.members)) == expected

    def test_memo_leaves_equality_hash_and_repr_alone(self):
        a, b = IdSpace(4), IdSpace(4)
        principals(ideal_ring(a, 2, [0, 5, 9]))
        assert _masks.cache_info().currsize
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "IdSpace(m=4)"
        assert ideal_ring(a, 2, [0, 5]) == ideal_ring(b, 2, [0, 5])
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_memo_never_grows_past_its_ceiling(self):
        space = IdSpace(6)
        rng = random.Random(31)
        seen = set()
        while len(seen) <= 2 * MEMBER_MASKS_CEILING:
            node = NodeState(rng.randrange(64), rng.randrange(64),
                             (rng.randrange(64), rng.randrange(64)))
            if node in seen:
                continue
            seen.add(node)
            skipped, _ = member_masks(space, node)
            assert 0 < _masks.cache_info().currsize <= MEMBER_MASKS_CEILING
            if len(seen) % 64 == 0:
                assert skipped == scan_skipped(space, node)

    def test_nodes_differing_only_in_prdc_share_one_entry(self):
        space = IdSpace(5)
        node = NodeState(3, 1, (9, 20))
        masks = member_masks(space, node)
        before = _masks.cache_info()
        assert member_masks(space, node._replace(prdc=30)) == masks
        after = _masks.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert after.currsize == before.currsize


class TestRingMembers:
    def test_ideal_ring_is_all_ring(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        assert ring_members(s) == {0, 2, 5} == set(s.idents())

    def test_appendages_excluded(self, space6):
        # ring 1 -> 21 -> 40 -> 48 -> 1 with appendages hanging off it
        s = make_state(space6, 2, [
            (1, 48, (21, 40)),
            (21, 1, (40, 48)),
            (40, 21, (48, 1)),
            (48, 40, (1, 21)),
            (50, 48, (1, 21)),   # appendage: reaches the ring at 1
            (53, 50, (50, 1)),   # appendage chain through 50
        ])
        assert ring_members(s) == {1, 21, 40, 48}
        assert set(s.idents()) - ring_members(s) == {50, 53}

    def test_valid_network_with_four_appendages(self, space6):
        # an ordered ring holding the ring structure while members
        # 9, 50, 53, 63 hang off it as appendages
        s = make_state(space6, 2, [
            (1, 58, (21, 37)),
            (21, 1, (37, 48)),
            (37, 21, (48, 58)),
            (48, 37, (58, 1)),
            (58, 48, (1, 21)),
            (50, 48, (58, 1)),
            (53, 50, (58, 1)),
            (63, 58, (1, 21)),
            (9, 1, (21, 37)),
        ])
        assert ring_members(s) == {1, 21, 37, 48, 58}
        assert set(s.idents()) - ring_members(s) == {9, 50, 53, 63}

    def test_dead_chains_make_empty_ring(self, space3):
        s = make_state(space3, 2, [(0, 1, (1, 1)), (4, 0, (1, 1))])
        assert ring_members(s) == frozenset()
        assert set(s.idents()) - ring_members(s) == {0, 4}

    def test_self_loop_is_a_ring(self, space3):
        s = make_state(space3, 2, [(0, 0, (0, 0))])
        assert ring_members(s) == {0}

    def test_matches_networkx_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            s = random_global_state(rng, m=4, r=2)
            assert ring_members(s) == networkx_ring_members(s)

    def test_closed_under_best_successor(self):
        rng = random.Random(7)
        for _ in range(200):
            s = random_global_state(rng, m=4, r=2)
            ring = ring_members(s)
            succ_of = best_successors(s)
            for member in ring:
                succ = succ_of[member]
                assert succ is not None and succ in ring
