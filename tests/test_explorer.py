"""Exploration, simulation, convergence, and replay."""

import pytest

from chordcheck import (
    ExploreConfig,
    GlobalState,
    Schedule,
    StepKind,
    build_fig3_state,
    converge,
    error_metric,
    explore,
    ideal_ring,
    is_ideal,
    make_state,
    replay,
    simulate,
    state_digest,
    step_join,
)
from chordcheck.errors import InvalidInitialStateError, ReplayMismatchError
from chordcheck.explorer import _FairScheduler


class TestExplore:
    def test_depth_zero_summary(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=0))
        assert result.ok
        assert result.states_visited == 1
        assert result.transitions == 0

    def test_ideal_ring_full_churn_no_violations(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=4, churn="full"))
        assert result.ok
        assert result.states_visited > 100

    def test_requires_valid_initial_unless_waived(self):
        s = build_fig3_state()
        with pytest.raises(InvalidInitialStateError):
            explore(s, ExploreConfig(max_depth=2))
        result = explore(s, ExploreConfig(max_depth=2, require_valid_initial=False))
        assert result.verdict == "invariant-violated"
        assert len(result.trace.records) == 1  # minimal counterexample

    def test_violation_trace_replays(self):
        s = build_fig3_state()
        result = explore(s, ExploreConfig(max_depth=2, require_valid_initial=False))
        replay(result.trace)

    def test_cap_hit_is_not_success(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=6, max_states=50))
        assert result.verdict == "cap-hit"
        assert not result.ok

    def test_collected_states_are_reachable_and_deduped(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=3, collect_states=True))
        assert len(result.states) == result.states_visited
        assert len(set(result.states)) == len(result.states)
        assert result.states[0] == s

    def test_every_visited_state_reconstructible(self, space3):
        # soundness: a concrete step sequence reaches each visited state
        from chordcheck import apply_step

        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=3, collect_states=True))
        for state in result.states[:: max(1, len(result.states) // 100)]:
            cur = s
            for step in result.path_to(state):
                cur = apply_step(cur, step)
            assert cur == state

    def test_derived_states_are_canonical(self, space3):
        # step results skip the constructor's validation and sorting; each
        # must equal its rebuild through the validating constructor
        s = ideal_ring(space3, 2, [0, 2, 3, 5, 7])
        result = explore(s, ExploreConfig(max_depth=5, churn="full", collect_states=True))
        assert result.states_visited == 4752
        for state in result.states:
            rebuilt = GlobalState(state.space, state.r, state.members,
                                  state.pending_stabilize, state.pending_notify)
            assert rebuilt == state
            assert hash(rebuilt) == hash(state)
            assert rebuilt.mask == state.mask
            assert [state.get(i) for i in space3.idents()] == \
                [rebuilt.get(i) for i in space3.idents()]

    def test_churn_none_stays_near_ideal(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=4, churn="none", collect_states=True))
        assert result.ok
        for state in result.states:
            assert state.members == s.members


class TestSimulate:
    def test_same_seed_same_trace(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        a = simulate(s, Schedule(seed=1), steps=60, churn="full")
        b = simulate(s, Schedule(seed=1), steps=60, churn="full")
        assert [r.digest for r in a.records] == [r.digest for r in b.records]

    def test_different_seeds_diverge(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        a = simulate(s, Schedule(seed=1), steps=60, churn="full")
        b = simulate(s, Schedule(seed=2), steps=60, churn="full")
        assert [r.digest for r in a.records] != [r.digest for r in b.records]

    def test_churn_none_from_ideal_stays_ideal(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        trace = simulate(s, Schedule(seed=3), steps=40, churn="none")
        assert all(r.flags["ideal"] for r in trace.records)

    def test_full_churn_preserves_invariant(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 4, 6])
        trace = simulate(s, Schedule(seed=4), steps=200, churn="full")
        assert len(trace.records) == 200
        assert all(r.flags["invariant"] for r in trace.records)

    def test_fairness_window_respected(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 4, 6])
        window = Schedule(seed=5).window_for(s)
        trace = simulate(s, Schedule(seed=5), steps=150, churn="none")
        last_stab = {ident: 0 for ident in s.idents()}
        for i, rec in enumerate(trace.records, start=1):
            if rec.step.kind in (StepKind.STABILIZE_FROM_SUCCESSOR,
                                 StepKind.STABILIZE_FROM_PREDECESSOR):
                gap = i - last_stab[rec.step.actor]
                assert gap <= window, (rec.step.actor, gap)
                last_stab[rec.step.actor] = i

    def test_negative_counts_rejected(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        with pytest.raises(ValueError, match="join_candidate_cap"):
            ExploreConfig(join_candidate_cap=-1)
        with pytest.raises(ValueError, match="steps"):
            simulate(s, Schedule(seed=1), steps=-1)
        with pytest.raises(ValueError, match="join_candidate_cap"):
            simulate(s, Schedule(seed=1), steps=5, join_candidate_cap=-1)
        with pytest.raises(ValueError, match="step_cap"):
            converge(s, Schedule(seed=1), step_cap=-1)

    def test_window_must_cover_members(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 4, 6])
        with pytest.raises(ValueError):
            simulate(s, Schedule(seed=1, fairness_window=2), steps=5)


class TestConverge:
    def test_ideal_seed_converges_in_zero_steps(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        trace = converge(s, Schedule(seed=1))
        assert trace.verdict == "converged"
        assert trace.meta["steps_to_ideal"] == 0
        # the retention window still runs and stays ideal
        assert len(trace.records) == trace.meta["fairness_window"]
        assert all(r.flags["ideal"] for r in trace.records)

    def test_join_stage_one_reaches_stage_five(self, space6):
        ring = ideal_ring(space6, 2, [7, 19, 34, 50])
        stage1 = step_join(ring, 10, 7)
        trace = converge(stage1, Schedule(seed=2))
        assert trace.verdict == "converged"
        final = trace.final_state()
        assert is_ideal(final)
        assert final.node(7).succ_list[0] == 10
        assert final.node(10).succ_list == (19, 34)
        assert final.node(10).prdc == 7
        assert final.node(19).prdc == 10

    def test_requires_invariant(self):
        with pytest.raises(InvalidInitialStateError):
            converge(build_fig3_state(), Schedule(seed=1))

    def test_prelude_drains_inflight_messages(self, space3):
        base = ideal_ring(space3, 2, [0, 2, 4, 6])
        seeded = make_state(
            space3, 2,
            [(n.ident, n.prdc, n.succ_list) for n in base.members],
            pending_notify=[(0, 7)],  # stale notification from a dead node
        )
        trace = converge(seeded, Schedule(seed=3))
        assert trace.verdict == "converged"
        assert trace.seed_state == seeded
        assert [r.step.kind for r in trace.prelude] == [StepKind.RECTIFY]
        assert trace.initial.pending_notify == ()
        replay(trace)

    def test_error_metrics_recorded_per_state(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        stage1 = step_join(s, 1, 0)
        trace = converge(stage1, Schedule(seed=4))
        assert trace.metrics is not None
        assert len(trace.metrics) == len(trace.records) + 1
        assert trace.metrics[0].cumulative == error_metric(trace.initial).cumulative
        assert trace.metrics[-1].cumulative == 0


class TestReplay:
    def test_roundtrip(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        trace = simulate(s, Schedule(seed=9), steps=30, churn="full")
        reports = replay(trace)
        assert len(reports) == len(trace.records)

    def test_corrupted_digest_detected(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        trace = simulate(s, Schedule(seed=9), steps=10, churn="none")
        bad = trace.records[4]._replace(digest="0" * 64)
        trace.records[4] = bad
        with pytest.raises(ReplayMismatchError, match=r"records\[4\]"):
            replay(trace)

    def test_corrupted_flags_detected(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        trace = simulate(s, Schedule(seed=9), steps=10, churn="none")
        flags = dict(trace.records[2].flags)
        flags["ideal"] = not flags["ideal"]
        trace.records[2] = trace.records[2]._replace(flags=flags)
        with pytest.raises(ReplayMismatchError, match="flags"):
            replay(trace)


class TestDigest:
    def test_digest_tracks_content(self, space3):
        a = ideal_ring(space3, 2, [0, 2, 5])
        b = ideal_ring(space3, 2, [0, 2, 5])
        assert state_digest(a) == state_digest(b)
        c = a.with_node(a.node(0)._replace(prdc=1))
        assert state_digest(c) != state_digest(a)
