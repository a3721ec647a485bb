"""Atomic protocol steps: the join lifecycle, each branch of each step,
frame and determinism properties, and the step-enabling rules."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chordcheck import (
    ExploreConfig,
    GlobalState,
    IdSpace,
    NodeState,
    Step,
    StepKind,
    apply_step,
    check_all,
    enabled_steps,
    explore,
    ideal_ring,
    lookup_predecessor,
    make_state,
    principals,
    safely_failable,
    step_fail,
    step_join,
    step_rectify,
    step_stabilize_from_predecessor,
    step_stabilize_from_successor,
)
from chordcheck.errors import (
    AlreadyMemberError,
    FailUnsafeError,
    NoCandidateError,
    NoPendingNotifyError,
    NoPendingStabilizeError,
    StabilizeInProgressError,
    UnknownMemberError,
)
from chordcheck.properties import failable_mask, invariant_holds
from chordcheck.protocol import STEPS_CEILING, shared_step

from conftest import (
    doubled,
    doubled_step,
    global_states,
    random_global_state,
    rotated,
    rotated_step,
)


@pytest.fixture
def ring4(space6):
    """Ideal ring over {7, 19, 34, 50} at m=6, r=2."""
    return ideal_ring(space6, 2, [7, 19, 34, 50])


class TestLookup:
    def test_finds_covering_member(self, ring4):
        assert lookup_predecessor(ring4, 10) == 7

    def test_ideal_small_ring(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        assert lookup_predecessor(s, 1) == 0
        assert lookup_predecessor(s, 4) == 2

    def test_rejects_existing_member(self, ring4):
        with pytest.raises(AlreadyMemberError):
            lookup_predecessor(ring4, 19)

    def test_no_candidate_surfaced(self, space3):
        # 0's arc (0, 1) is empty and 4's arc (4, 0) misses 1
        s = make_state(space3, 2, [(0, 4, (1, 1)), (4, 0, (0, 0))])
        with pytest.raises(NoCandidateError):
            lookup_predecessor(s, 1)


def literal_join_predecessor(state, joiner):
    """Literal definition: the first member, in ascending identifier
    order, whose arc to the head of its successor list strictly contains
    the joiner; None when no member's arc does."""
    for p in sorted(state.idents()):
        if state.space.between(p, joiner, state.node(p).succ_list[0]):
            return p
    return None


class TestJoinEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 6).flatmap(
               lambda m: global_states(m=m, r=2, max_members=6, with_pending=True)))
    def test_join_steps_match_literal_definition(self, s):
        free = [i for i in range(s.space.size) if not s.is_member(i)]
        for churn in ("joins_only", "full"):
            steps = enabled_steps(s, churn=churn)
            assert steps == sorted(steps, key=Step.sort_key)
            joins = {st.actor: st.arg for st in steps if st.kind == StepKind.JOIN}
            assert len(joins) == sum(st.kind == StepKind.JOIN for st in steps)
            # a candidate gets a step exactly when some member covers it,
            # and the step names the lowest covering member
            expected = {j: literal_join_predecessor(s, j) for j in free}
            assert joins == {j: p for j, p in expected.items() if p is not None}
        for joiner in free:
            expected = literal_join_predecessor(s, joiner)
            if expected is None:
                with pytest.raises(NoCandidateError):
                    lookup_predecessor(s, joiner)
            else:
                assert lookup_predecessor(s, joiner) == expected


class TestJoin:
    def test_copies_predecessor_list(self, ring4):
        s = step_join(ring4, 10, 7)
        node = s.node(10)
        assert node.succ_list[0] == 19
        assert node.succ_list == ring4.node(7).succ_list
        assert node.prdc == 7

    def test_aborts_when_predecessor_dead(self, space3):
        s = ideal_ring(space3, 2, [1, 2, 5])
        assert step_join(s, 4, 0) is s

    def test_rejects_double_join(self, ring4):
        with pytest.raises(AlreadyMemberError):
            step_join(ring4, 19, 7)

    @pytest.mark.parametrize("joiner", [8, -1])
    def test_rejects_joiner_outside_the_space(self, space3, joiner):
        # a member outside [0, 2**m) has no place in the packed key
        with pytest.raises(NoCandidateError, match="outside"):
            step_join(ideal_ring(space3, 2, [0, 2, 5]), joiner, 0)

    def test_rejects_join_without_predecessor(self, space3):
        ring = ideal_ring(space3, 2, [0, 2, 5])
        with pytest.raises(ValueError, match="join of 1 needs a predecessor"):
            apply_step(ring, Step(StepKind.JOIN, 1))

    def test_new_member_not_yet_anyones_successor(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        s2 = step_join(s, 4, 2)
        assert s2.node(4).succ_list == (5, 0)
        assert s2.node(4).prdc == 2
        for other in (0, 2, 5):
            assert 4 not in s2.node(other).succ_list
        assert invariant_holds(s2)


class TestFail:
    def test_safe_fail_allowed(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5, 7])
        s2 = step_fail(s, 5)
        assert not s2.is_member(5)
        # dead entries linger in other lists; that is legal state
        assert 5 in s2.node(2).succ_list

    def test_unsafe_fail_rejected(self, space6):
        s = make_state(space6, 2, [(48, 37, (62, 37)), (62, 48, (48, 48)), (37, 62, (48, 48))])
        with pytest.raises(FailUnsafeError):
            step_fail(s, 48)

    def test_fail_leaving_too_few_principals_rejected(self, space3):
        # nobody is stranded, but only 2 of the r + 1 = 3 principals remain
        s = ideal_ring(space3, 2, [0, 2, 5])
        with pytest.raises(FailUnsafeError, match="principal"):
            step_fail(s, 0)
        with pytest.raises(FailUnsafeError):
            apply_step(s, Step(StepKind.FAIL, 0))
        assert step_fail(s, 0, forced=True).idents() == (2, 5)

    @settings(max_examples=300, deadline=None)
    @given(global_states(m=3, r=2, with_pending=True))
    def test_fail_precondition_is_the_survivors_invariant(self, s):
        assert invariant_holds(s) == check_all(s).flags["invariant"]
        for member in s.idents():
            safe = safely_failable(s, member)
            assert safe == invariant_holds(s.without_member(member)), member
            try:
                step_fail(s, member)
            except FailUnsafeError:
                assert not safe, member
            else:
                assert safe, member

    def test_forced_fail_overrides(self, space6):
        s = make_state(space6, 2, [(48, 37, (62, 37)), (62, 48, (48, 48)), (37, 62, (48, 48))])
        s2 = step_fail(s, 48, forced=True)
        assert s2.idents() == (37, 62)

    def test_fail_discards_own_pending_entries(self, space3):
        s = make_state(
            space3, 2,
            [(0, 5, (2, 5)), (2, 0, (5, 0)), (5, 2, (0, 2))],
            pending_stabilize=[(2, 0)],
            pending_notify=[(2, 0), (0, 2)],
        )
        s2 = step_fail(s, 2, forced=True)
        assert s2.pending_stabilize == ()
        assert s2.pending_notify == ((0, 2),)  # entries naming 2 as value survive

    def test_unknown_member(self, space3):
        with pytest.raises(UnknownMemberError):
            step_fail(ideal_ring(space3, 2, [0, 2, 5]), 1)


def per_member_enabled_steps(state, churn):
    """Reference: the joins, then a fail step for each member that
    safely_failable accepts, asked one member at a time, then the repair
    steps."""
    repairs = enabled_steps(state, churn="none")
    joins = []
    if churn == "full":
        with_joins = enabled_steps(state, churn="joins_only")
        joins = with_joins[:len(with_joins) - len(repairs)]
    fails = [Step(StepKind.FAIL, x) for x in state.idents() if safely_failable(state, x)]
    return joins + fails + repairs


# any m in 3..5 and r in 1..3, invariant-violating states included
varied_states = st.integers(3, 5).flatmap(lambda m: st.integers(1, 3).flatmap(
    lambda r: global_states(m=m, r=r, max_members=6, with_pending=True)))


class TestFailableMask:
    @settings(max_examples=300, deadline=None)
    @given(varied_states)
    def test_every_bit_is_the_single_fail_verdict(self, s):
        failable = failable_mask(s)
        assert failable & ~s.mask == 0
        for x in s.idents():
            bit = failable >> x & 1 == 1
            assert bit == safely_failable(s, x) == invariant_holds(s.without_member(x)), x

    def test_member_listing_only_itself_live_is_not_stranded_by_its_fail(self):
        ring = ideal_ring(IdSpace(4), 2, [0, 4, 8, 12])
        # 1's only live entry is 1 itself; its list skips every other member
        s = ring.with_node(NodeState(1, 0, (1, 2)))
        assert failable_mask(s) == 1 << 1
        assert safely_failable(s, 1)

    def test_one_stranded_member_may_fail_and_blocks_every_other_fail(self):
        ring = ideal_ring(IdSpace(4), 2, [0, 4, 8, 12])
        assert failable_mask(ring) == sum(1 << x for x in (0, 4, 8, 12))
        # 1 has no live entry and skips no one
        s = ring.with_node(NodeState(1, 0, (2, 3)))
        assert not invariant_holds(s)
        assert failable_mask(s) == 1 << 1
        assert safely_failable(s, 1)
        # failing 4 leaves enough principals; only 1's stranding refuses it
        assert len(principals(s.without_member(4))) >= 3
        assert not safely_failable(s, 4)

    def test_two_stranded_members_leave_no_fail(self):
        ring = ideal_ring(IdSpace(4), 2, [0, 4, 8, 12])
        s = ring.with_node(NodeState(1, 0, (2, 3))).with_node(NodeState(5, 4, (6, 7)))
        assert failable_mask(s) == 0
        assert not any(safely_failable(s, x) for x in s.idents())
        assert [st for st in enabled_steps(s) if st.kind == StepKind.FAIL] == []

    def test_enabled_steps_match_per_member_fail_tests(self):
        explored = explore(ideal_ring(IdSpace(3), 2, [0, 2, 3, 5, 7]),
                           ExploreConfig(max_depth=3, churn="full", collect_states=True))
        rng = random.Random(23)
        randoms = [random_global_state(rng, m=rng.randint(1, 6), r=rng.randint(1, 3),
                                       min_members=1) for _ in range(500)]
        for s in [*explored.states, *randoms]:
            for churn in ("full", "fails_only"):
                assert enabled_steps(s, churn=churn) == per_member_enabled_steps(s, churn)


class TestStabilizeFromSuccessor:
    def test_dead_head_removed_and_padded(self, space6):
        s = make_state(space6, 2, [(62, 48, (48, 48)), (37, 62, (48, 48))])
        s2 = step_stabilize_from_successor(s, 62)
        assert s2.node(62).succ_list == (48, 49)
        s3 = step_stabilize_from_successor(s2, 62)
        assert s3.node(62).succ_list == (49, 50)
        # the operation is not complete, so no notification was queued
        assert s3.pending_notify == ()

    def test_live_head_no_better_candidate(self, ring4):
        # 10 has just joined; its successor 19 still has predecessor 7
        s = step_join(ring4, 10, 7)
        s2 = step_stabilize_from_successor(s, 10)
        assert s2.node(10).succ_list[0] == 19  # successor unchanged
        assert s2.pending_stabilize == ()
        assert (19, 10) in s2.pending_notify

    def test_live_head_better_candidate_captured(self, ring4):
        # after 19 adopts 10 as predecessor, 7's stabilize captures it
        s = step_join(ring4, 10, 7)
        s = step_stabilize_from_successor(s, 10)
        s = step_rectify(s, 19, 10)
        s2 = step_stabilize_from_successor(s, 7)
        assert s2.pending_stabilize == ((7, 10),)
        assert (19, 7) not in s2.pending_notify  # operation continues

    def test_blocked_while_pending(self, ring4):
        s = step_join(ring4, 10, 7)
        s = step_stabilize_from_successor(s, 10)
        s = step_rectify(s, 19, 10)
        s = step_stabilize_from_successor(s, 7)
        with pytest.raises(StabilizeInProgressError):
            step_stabilize_from_successor(s, 7)

    def test_adopts_successors_list_behind_it(self, space6):
        s = make_state(space6, 2, [
            (7, 50, (19, 27)), (19, 7, (27, 33)), (27, 19, (33, 50)),
            (33, 27, (50, 7)), (50, 33, (7, 19)),
        ])
        s2 = step_stabilize_from_successor(s, 7)
        assert s2.node(7).succ_list == (19, 27)


class TestStabilizeFromPredecessor:
    def _captured(self, ring4):
        s = step_join(ring4, 10, 7)
        s = step_stabilize_from_successor(s, 10)
        s = step_rectify(s, 19, 10)
        return step_stabilize_from_successor(s, 7)

    def test_adopts_live_candidate(self, ring4):
        s = self._captured(ring4)
        s2 = step_stabilize_from_predecessor(s, 7)
        assert s2.node(7).succ_list == (10, 19)
        assert s2.pending_stabilize == ()
        assert (10, 7) in s2.pending_notify

    def test_dead_candidate_no_change_but_notify(self, ring4):
        s = self._captured(ring4)
        s = step_fail(s, 10, forced=True)
        # the continuation survives in the stabilizer, not the failed node
        assert s.pending_stabilize == ((7, 10),)
        s2 = step_stabilize_from_predecessor(s, 7)
        assert s2.node(7).succ_list == (19, 34)
        assert (19, 7) in s2.pending_notify

    def test_append_butlast_literal(self, space6):
        s = make_state(space6, 2, [
            (7, 50, (19, 27)), (10, 7, (19, 27)), (19, 10, (27, 7)), (27, 19, (7, 10)),
            (50, 27, (7, 10)),
        ], pending_stabilize=[(7, 10)])
        s2 = step_stabilize_from_predecessor(s, 7)
        assert s2.node(7).succ_list == (10, 19)

    def test_requires_pending(self, ring4):
        with pytest.raises(NoPendingStabilizeError):
            step_stabilize_from_predecessor(ring4, 7)


class TestRectify:
    def test_adopts_closer_notifier(self, ring4):
        s = step_join(ring4, 10, 7)
        s = step_stabilize_from_successor(s, 10)
        s2 = step_rectify(s, 19, 10)
        assert s2.node(19).prdc == 10
        assert s2.pending_notify == ()

    def test_keeps_live_predecessor_against_worse_notifier(self, space6):
        s = make_state(space6, 2, [
            (7, 50, (10, 19)), (10, 7, (19, 50)), (19, 10, (50, 7)), (50, 19, (7, 10)),
        ], pending_notify=[(19, 7)])
        s2 = step_rectify(s, 19, 7)
        assert s2.node(19).prdc == 10

    def test_replaces_dead_predecessor(self, space6):
        # 19's predecessor 10 has died; even the farther 7 is adopted
        s = make_state(space6, 2, [
            (7, 50, (19, 50)), (19, 10, (50, 7)), (50, 19, (7, 19)),
        ], pending_notify=[(19, 7)])
        s2 = step_rectify(s, 19, 7)
        assert s2.node(19).prdc == 7

    def test_stale_notification_can_install_dead_predecessor(self, space6):
        # deliberate consequence of presuming the notifier live
        s = make_state(space6, 2, [
            (7, 50, (19, 50)), (19, 7, (50, 7)), (50, 19, (7, 19)),
        ], pending_notify=[(19, 10)])
        s2 = step_rectify(s, 19, 10)
        assert s2.node(19).prdc == 10
        assert not s2.is_member(10)

    def test_dead_target_drops_notification(self, space3):
        s = make_state(space3, 2, [(0, 5, (2, 5)), (2, 0, (5, 0)), (5, 2, (0, 2))],
                       pending_notify=[(1, 0)])
        s2 = step_rectify(s, 1, 0)
        assert s2.pending_notify == ()
        assert s2.members == s.members

    def test_requires_pending_entry(self, ring4):
        with pytest.raises(NoPendingNotifyError):
            step_rectify(ring4, 19, 10)


class TestJoinLifecycle:
    """The five-stage walkthrough: a node joins, stabilizes, is adopted."""

    def test_full_incorporation(self, ring4):
        s = step_join(ring4, 10, 7)                      # stage 1
        s = step_stabilize_from_successor(s, 10)         # stage 2
        s = step_rectify(s, 19, 10)                      # stage 3
        s = step_stabilize_from_successor(s, 7)          # stage 4a
        s = step_stabilize_from_predecessor(s, 7)        # stage 4b
        s = step_rectify(s, 10, 7)                       # stage 5
        assert s.node(7).succ_list[0] == 10
        assert s.node(10).succ_list[0] == 19
        assert s.node(10).prdc == 7
        assert s.node(19).prdc == 10


class TestEnabledSteps:
    def test_ideal_ring_offers_stabilizes_and_churn(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        steps = enabled_steps(s)
        sfs = [st for st in steps if st.kind == StepKind.STABILIZE_FROM_SUCCESSOR]
        joins = [st for st in steps if st.kind == StepKind.JOIN]
        fails = [st for st in steps if st.kind == StepKind.FAIL]
        assert {st.actor for st in sfs} == {0, 2, 5}
        assert {st.actor for st in joins} == {1, 3, 4, 6, 7}
        # failing any of the 3 members would leave fewer than r+1 principals
        assert fails == []

    def test_pending_stabilize_blocks_sfs(self, ring4):
        s = step_join(ring4, 10, 7)
        s = step_stabilize_from_successor(s, 10)
        s = step_rectify(s, 19, 10)
        s = step_stabilize_from_successor(s, 7)
        steps = enabled_steps(s, churn="none")
        kinds = {(st.kind, st.actor) for st in steps}
        assert (StepKind.STABILIZE_FROM_PREDECESSOR, 7) in kinds
        assert (StepKind.STABILIZE_FROM_SUCCESSOR, 7) not in kinds

    def test_fail_enabled_only_when_invariant_preserved(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 4, 6])
        fails = [st for st in enabled_steps(s, churn="fails_only")]
        assert {st.actor for st in fails} == {0, 2, 4, 6}
        for st in fails:
            assert invariant_holds(apply_step(s, st))

    def test_stranding_fail_not_offered(self, space6):
        s = make_state(space6, 2, [(48, 37, (62, 37)), (62, 48, (48, 48)), (37, 62, (48, 48))])
        fails = [st.actor for st in enabled_steps(s, churn="fails_only")
                 if st.kind == StepKind.FAIL]
        assert fails == []

    def test_unknown_churn_policy_refused(self, space3):
        with pytest.raises(ValueError, match="unknown churn policy 'most'"):
            enabled_steps(ideal_ring(space3, 2, [0, 2, 5]), churn="most")

    def test_canonical_order_deterministic(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        assert enabled_steps(s) == enabled_steps(s)
        keys = [st.sort_key() for st in enabled_steps(s)]
        assert keys == sorted(keys)


class TestMalformedSteps:
    """Scripted steps that no enumeration offers: a kind outside StepKind's
    range is refused, never indexed, and a negative or out-of-space actor
    or argument meets the step's own precondition, never a bit test."""

    @pytest.fixture
    def s(self, space3):
        # 2 has a continuation to 3; 0 and 5 have notifications in flight
        return make_state(space3, 2, [(0, 5, (2, 5)), (2, 0, (5, 0)), (5, 2, (0, 2))],
                          pending_stabilize=[(2, 3)], pending_notify=[(0, 5), (5, 2)])

    @pytest.mark.parametrize("kind", [-1, 5, "join", 1.0, None])
    @pytest.mark.parametrize("actor, arg", [(0, None), (1, 0), (-1, -1), (5, 2)])
    def test_unknown_kind(self, s, kind, actor, arg):
        with pytest.raises(ValueError, match="unknown step kind"):
            apply_step(s, Step(kind, actor, arg))

    @pytest.mark.parametrize("kind, actor, arg, error", [
        (StepKind.JOIN, -1, 0, NoCandidateError),
        (StepKind.JOIN, 8, 0, NoCandidateError),
        (StepKind.JOIN, -1, -1, NoCandidateError),
        (StepKind.JOIN, 1, -1, None),  # no such predecessor: the join aborts
        (StepKind.JOIN, 1, 8, None),
        (StepKind.FAIL, -1, None, UnknownMemberError),
        (StepKind.FAIL, 8, None, UnknownMemberError),
        (StepKind.FAIL, 1, -1, UnknownMemberError),
        (StepKind.STABILIZE_FROM_SUCCESSOR, -1, None, UnknownMemberError),
        (StepKind.STABILIZE_FROM_SUCCESSOR, 8, None, UnknownMemberError),
        (StepKind.STABILIZE_FROM_SUCCESSOR, 1, -1, UnknownMemberError),
        (StepKind.STABILIZE_FROM_PREDECESSOR, -1, None, NoPendingStabilizeError),
        (StepKind.STABILIZE_FROM_PREDECESSOR, 8, 3, NoPendingStabilizeError),
        (StepKind.STABILIZE_FROM_PREDECESSOR, 2, -1, NoPendingStabilizeError),
        (StepKind.STABILIZE_FROM_PREDECESSOR, 2, 8, NoPendingStabilizeError),
        (StepKind.RECTIFY, -1, 5, NoPendingNotifyError),
        (StepKind.RECTIFY, 8, 5, NoPendingNotifyError),
        (StepKind.RECTIFY, 0, -1, NoPendingNotifyError),
        (StepKind.RECTIFY, 0, 8, NoPendingNotifyError),
        (StepKind.RECTIFY, -1, -1, NoPendingNotifyError),
    ])
    def test_out_of_space_actor_or_argument(self, s, kind, actor, arg, error):
        # each kind also as the plain integer a script might hold
        for k in (kind, int(kind)):
            if error is None:
                assert apply_step(s, Step(k, actor, arg)) is s
            else:
                with pytest.raises(error):
                    apply_step(s, Step(k, actor, arg))

    def test_plain_integer_kind_gives_the_same_post_state(self):
        # a StepKind member takes apply_step's fast path; a plain integer
        # must reach the same rule with the same fields
        kinds = set()
        differ = []

        def compare(pre, step, post):
            kinds.add(step.kind)
            if apply_step(pre, step._replace(kind=int(step.kind))) != post:
                differ.append((pre, step))

        s = ideal_ring(IdSpace(3), 2, [0, 2, 3, 5, 7])
        assert explore(s, ExploreConfig(max_depth=4, churn="full"), compare).ok
        assert kinds == set(StepKind) and differ == []

    @pytest.mark.parametrize("call, args, error, message", [
        (step_join, (-1, 0), NoCandidateError, "identifier -1 is outside the identifier space"),
        (step_join, (8, 0), NoCandidateError, "identifier 8 is outside the identifier space"),
        (step_join, (2, 0), AlreadyMemberError, "identifier 2 is already a member"),
        (step_join, (1, None), ValueError, "a join of 1 needs a predecessor identifier, got None"),
        (step_fail, (-1,), UnknownMemberError, "identifier -1 is not a member"),
        (step_fail, (8,), UnknownMemberError, "identifier 8 is not a member"),
        (step_fail, (1,), UnknownMemberError, "identifier 1 is not a member"),
        (step_fail, (1, True), UnknownMemberError, "identifier 1 is not a member"),
        (step_fail, (2,), FailUnsafeError, "fail of 2 would leave a member with no live "
                                           "successor or fewer than r + 1 = 3 principal members"),
        (step_stabilize_from_successor, (-1,), UnknownMemberError, "identifier -1 is not a member"),
        (step_stabilize_from_successor, (8,), UnknownMemberError, "identifier 8 is not a member"),
        (step_stabilize_from_successor, (1,), UnknownMemberError, "identifier 1 is not a member"),
        (lookup_predecessor, (-1,), NoCandidateError, "no member covers identifier -1"),
        (lookup_predecessor, (8,), NoCandidateError, "no member covers identifier 8"),
        (lookup_predecessor, (2,), AlreadyMemberError, "identifier 2 is already a member"),
    ])
    def test_guards_keep_their_exceptions_and_messages(self, space3, call, args, error, message):
        with pytest.raises(error) as info:
            call(ideal_ring(space3, 2, [0, 2, 5]), *args)
        assert type(info.value) is error and str(info.value) == message

    def test_guards_let_members_and_covered_non_members_through(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        assert step_join(s, 1, 1) is s  # a non-member predecessor: the join aborts
        assert step_join(s, 1, 2).node(1) == NodeState(1, 2, (5, 0))
        assert step_fail(s, 2, forced=True).idents() == (0, 5)
        assert step_stabilize_from_successor(s, 2).pending_notify == ((5, 2),)
        assert [lookup_predecessor(s, j) for j in (1, 3, 4, 6, 7)] == [0, 2, 2, 5, 5]

    @pytest.mark.parametrize("kind", [StepKind.FAIL, StepKind.STABILIZE_FROM_SUCCESSOR])
    @pytest.mark.parametrize("arg", [-1, 8])
    def test_argument_of_a_kind_without_one_is_ignored(self, s, kind, arg):
        for actor in (0, 5):
            expected = apply_step(s, Step(kind, actor, None, forced=True))
            assert apply_step(s, Step(kind, actor, arg, forced=True)) == expected


class TestSharedSteps:
    """Every enumeration hands out one Step object per distinct step."""

    @settings(max_examples=100, deadline=None)
    @given(global_states(m=4, r=2, with_pending=True))
    def test_two_enumerations_of_a_state_return_the_same_objects(self, s):
        first = enabled_steps(s, churn="full")
        second = enabled_steps(s, churn="full")
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))
        assert all(type(step.kind) is StepKind and not step.forced for step in first)

    def test_shared_steps_equal_literal_steps(self, space3):
        steps = enabled_steps(ideal_ring(space3, 2, [0, 2, 5]))
        literal = [Step(StepKind.JOIN, 1, 0), Step(StepKind.JOIN, 3, 2), Step(StepKind.JOIN, 4, 2),
                   Step(StepKind.JOIN, 6, 5), Step(StepKind.JOIN, 7, 5),
                   Step(StepKind.STABILIZE_FROM_SUCCESSOR, 0),
                   Step(StepKind.STABILIZE_FROM_SUCCESSOR, 2),
                   Step(StepKind.STABILIZE_FROM_SUCCESSOR, 5)]
        assert steps == literal
        assert [repr(step) for step in steps] == [repr(step) for step in literal]
        assert [type(step.kind) for step in steps] == [StepKind] * len(literal)

    def test_equal_steps_of_different_states_are_one_object(self, ring4):
        s = step_join(ring4, 10, 7)
        mine = {step: step for step in enabled_steps(ring4)}
        shared = [step for step in enabled_steps(s) if step in mine]
        assert shared and all(mine[step] is step for step in shared)

    def test_memo_never_grows_past_its_ceiling(self):
        for actor in range(2 * STEPS_CEILING + 1):
            # keyed by plain ints, handed out with a StepKind
            step = shared_step(int(StepKind.RECTIFY), actor, 0)
            assert step == Step(StepKind.RECTIFY, actor, 0) and type(step.kind) is StepKind
        assert shared_step.cache_info().currsize <= STEPS_CEILING


class TestStepProperties:
    @settings(max_examples=150, deadline=None)
    @given(global_states(m=3, r=2, with_pending=True))
    def test_determinism_and_frame(self, s):
        for step in enabled_steps(s):
            post1 = apply_step(s, step)
            post2 = apply_step(s, step)
            assert post1 == post2
            # frame: only the actor's node may change
            for node in post1.members:
                if node.ident != step.actor:
                    assert node == s.node(node.ident)
            for member, _ in post1.pending_stabilize:
                assert post1.is_member(member)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_prdc_and_notifications_decide_no_list(self, data):
        # a sweep that pins every prdc and holds no notification relies on
        # this: they add only RECTIFY steps, which change only a prdc, and
        # they decide no other step and no successor list; prdc does decide
        # which candidate a stabilize captures, but any captured candidate
        # lies in its owner's arc
        s = data.draw(st.integers(3, 5).flatmap(
            lambda m: global_states(m=m, r=2, max_members=6, with_pending=True)))
        ids = st.integers(0, s.space.size - 1)
        varied = GlobalState(s.space, s.r, [node._replace(prdc=data.draw(ids)) for node in s.members],
                             s.pending_stabilize, data.draw(st.lists(st.tuples(ids, ids), max_size=3)))

        def lists(state):
            return [(node.ident, node.succ_list) for node in state.members]

        def split(state):
            steps = enabled_steps(state)
            return ([step for step in steps if step.kind != StepKind.RECTIFY],
                    [step for step in steps if step.kind == StepKind.RECTIFY])

        core, _ = split(s)
        varied_core, rectifies = split(varied)
        assert varied_core == core
        for step in rectifies:
            assert lists(apply_step(varied, step)) == lists(varied)
        for step in core:
            posts = [apply_step(s, step), apply_step(varied, step)]
            assert lists(posts[0]) == lists(posts[1])
            if step.kind == StepKind.STABILIZE_FROM_SUCCESSOR:
                for post in posts:
                    candidate = post.pending_stabilize_for(step.actor)
                    if candidate is not None:
                        head = post.node(step.actor).succ_list[0]
                        assert s.space.between(step.actor, candidate, head)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 4]).flatmap(lambda m: st.tuples(
        global_states(m=m, r=2, max_members=6, with_pending=True), st.integers(1, 2 ** m - 1))))
    # member 5's head 6 is dead, and the padding after its last entry 7 wraps to 0
    @example((make_state(IdSpace(3), 2, [(0, 5, (2, 5)), (2, 0, (5, 0)), (5, 2, (6, 7))]), 3))
    def test_rotation_commutes_with_every_step(self, case):
        # between, the +1 padding and every step rule see only the
        # distances on the ring, so turning every identifier by k before a
        # step gives the state the step gives, turned by k
        s, k = case
        size = s.space.size
        turned = rotated(s, k)
        steps = enabled_steps(s, churn="full")
        for step in steps:
            # the turned step, not turned's own: a join's lowest covering
            # member need not stay the lowest one
            assert apply_step(turned, rotated_step(step, k, size)) == rotated(apply_step(s, step), k), step

        def without_join_predecessors(steps):
            return {step._replace(arg=None) if step.kind == StepKind.JOIN else step for step in steps}

        # which steps are enabled turns with the ring too, but for a join's predecessor
        assert without_join_predecessors(enabled_steps(turned, churn="full")) == \
            without_join_predecessors(rotated_step(step, k, size) for step in steps)

    def test_lowest_covering_join_does_not_commute_with_rotation(self, space3):
        # 0 and 2 both cover 3 (both heads are 4), and 0 is the lower; turned
        # by 6 they become 6 and 0, both covering 1, and the lower is now 0,
        # the turned 2: a join through every covering member would commute
        s = make_state(space3, 2, [(0, 4, (4, 0)), (2, 0, (4, 0)), (4, 2, (0, 2))])
        turned = rotated(s, 6)
        assert Step(StepKind.JOIN, 3, 0) in enabled_steps(s)
        assert rotated_step(Step(StepKind.JOIN, 3, 0), 6, 8) == Step(StepKind.JOIN, 1, 6)
        assert [step for step in enabled_steps(turned) if step.kind == StepKind.JOIN
                and step.actor == 1] == [Step(StepKind.JOIN, 1, 0)]
        assert lookup_predecessor(turned, 1) == 0
        assert [p for p in turned.idents()
                if space3.between(p, 1, turned.node(p).succ_list[0])] == [0, 6]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 4]).flatmap(
        lambda m: global_states(m=m, r=2, max_members=6, with_pending=True)))
    # member 5's head 6 is dead and its last entry 7 is the top of the space:
    # the pad wraps to 0 at m=3 but is 15 at m=4
    @example(make_state(IdSpace(3), 2, [(0, 5, (2, 5)), (2, 0, (5, 0)), (5, 2, (6, 7))]))
    def test_doubling_commutes_with_every_step_but_the_pad(self, s):
        # doubling every identifier into the space one bit wider keeps
        # circular order and membership, so every guard, the join table and
        # every step rule agree; the one place the width enters is the
        # padding after a dead head, one past the last entry
        wide = doubled(s)
        join = StepKind.JOIN
        steps = enabled_steps(s, churn="full")
        # the odd identifiers are new, free and may be covered: their joins are extra
        assert [step for step in enabled_steps(wide, churn="full")
                if step.kind != join or step.actor % 2 == 0] == list(map(doubled_step, steps))
        for step in steps:
            post, wide_post = apply_step(s, step), apply_step(wide, doubled_step(step))
            dead_head = (step.kind == StepKind.STABILIZE_FROM_SUCCESSOR
                         and not s.is_member(s.node(step.actor).succ_list[0]))
            if not dead_head:
                assert wide_post == doubled(post), step
                continue
            # only the padded entry differs: the odd successor of the doubled
            # last entry, not the double of its successor
            node, wide_node = post.node(step.actor), wide_post.node(2 * step.actor)
            last = s.node(step.actor).succ_list[-1]
            assert wide_node.succ_list[-1] == 2 * last + 1 != 2 * node.succ_list[-1]
            padded = wide_node._replace(succ_list=wide_node.succ_list[:-1]
                                        + (2 * node.succ_list[-1],))
            assert wide_post.with_node(padded) == doubled(post), step

        def refusal(call, *args):
            try:
                call(*args)
            except Exception as exc:  # compared by type
                return type(exc)
            return None

        # every guard refuses the doubled identifier as it refuses the original
        size = s.space.size
        anchor = s.members[0].ident
        for ident, wide_ident in [(-1, -1), (size, 2 * size)] + [(i, 2 * i) for i in range(size)]:
            for call, arg, wide_arg in ((lookup_predecessor, (), ()),
                                        (step_join, (anchor,), (2 * anchor,)),
                                        (step_fail, (), ()),
                                        (step_stabilize_from_successor, (), ())):
                assert refusal(call, wide, wide_ident, *wide_arg) == refusal(call, s, ident, *arg)
            if refusal(lookup_predecessor, s, ident) is None:
                assert lookup_predecessor(wide, wide_ident) == 2 * lookup_predecessor(s, ident)

    @settings(max_examples=150, deadline=None)
    @given(global_states(m=3, r=2, with_pending=True))
    def test_list_lengths_preserved(self, s):
        for step in enabled_steps(s):
            post = apply_step(s, step)
            for node in post.members:
                assert len(node.succ_list) == post.r

    @settings(max_examples=150, deadline=None)
    @given(global_states(m=3, r=2, with_pending=True))
    def test_repair_steps_never_demote_principals(self, s):
        pre = principals(s)
        for step in enabled_steps(s, churn="none"):
            post_principals = principals(apply_step(s, step))
            assert post_principals >= pre

    def test_join_never_demotes_principals(self):
        rng = random.Random(11)
        for _ in range(200):
            s = random_global_state(rng, m=3, r=2, min_members=2, max_members=6)
            pre = principals(s)
            for step in enabled_steps(s, churn="joins_only"):
                assert principals(apply_step(s, step)) >= pre

    def test_nonprincipal_fail_never_demotes_other_principals(self):
        rng = random.Random(12)
        for _ in range(200):
            s = random_global_state(rng, m=3, r=2, min_members=2, max_members=6)
            pre = principals(s)
            for node in s.members:
                if node.ident in pre:
                    continue
                post = step_fail(s, node.ident, forced=True)
                assert principals(post) >= pre
