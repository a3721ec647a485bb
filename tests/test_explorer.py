"""Exploration, simulation, convergence, and replay."""

import functools
import gc
import hashlib
import io
import json
import random
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    build_fig3_state,
    converge,
    enabled_steps,
    error_metric,
    explore,
    ideal_ring,
    is_ideal,
    make_state,
    replay,
    run_fig3,
    run_fig4,
    run_script,
    simulate,
    state_digest,
    step_join,
    valid_initial,
)
from chordcheck import explorer, properties, protocol
from chordcheck.errors import InvalidInitialStateError, ReplayMismatchError, TraceFormatError
from chordcheck.explorer import (
    MEMBER_TEXTS_CEILING,
    VisitedStates,
    _FairScheduler,
    _member_text,
    _record,
)
from chordcheck.files import load_scenario, read_trace, write_trace
from chordcheck.state import _decode_field

from conftest import clear_property_memos, repeated_table_record

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class ReferenceScheduler:
    """The fair scheduler's rules, enumerating every enabled step every
    round: no step when none is enabled, else the most-overdue member at
    its deadline stabilizes, else the lowest over-age notification to a
    live member is delivered, else a seeded draw from the enabled list."""

    def __init__(self, state, schedule, churn):
        self.rng = random.Random(schedule.seed)
        self.window = schedule.window_for(state)
        self.churn = churn
        self.idle = {ident: i for i, ident in enumerate(state.idents())}
        self.notify_age = {entry: 0 for entry in state.pending_notify}

    def pick(self, state):
        enabled = enabled_steps(state, churn=self.churn)
        if not enabled:
            return None
        due = [m for m, idle in self.idle.items() if idle >= self.window - 1]
        if due:
            member = max(due, key=lambda m: (self.idle[m], -m))
            candidate = state.pending_stabilize_for(member)
            if candidate is None:
                return Step(StepKind.STABILIZE_FROM_SUCCESSOR, member)
            return Step(StepKind.STABILIZE_FROM_PREDECESSOR, member, candidate)
        stale = sorted(e for e, age in self.notify_age.items()
                       if age >= self.window and state.is_member(e[0]))
        if stale:
            return Step(StepKind.RECTIFY, *stale[0])
        return self.rng.choice(enabled)

    def account(self, step, post):
        self.idle = {i: self.idle.get(i, -1) + 1 for i in post.idents()}
        if step.kind in (StepKind.STABILIZE_FROM_SUCCESSOR, StepKind.STABILIZE_FROM_PREDECESSOR):
            self.idle[step.actor] = 0
        self.notify_age = {e: self.notify_age.get(e, -1) + 1 for e in post.pending_notify}


def picks_agree(state, seed, churn, rounds, window=None):
    """Run the fair scheduler and the reference side by side from
    ``state``; return the number of rounds both scheduled."""
    schedule = Schedule(seed=seed, fairness_window=window)
    fair = _FairScheduler(state, schedule, churn)
    ref = ReferenceScheduler(state, schedule, churn)
    for done in range(rounds):
        step = fair.pick(state)
        assert step == ref.pick(state), (done, state)
        if step is None:
            return done
        state = apply_step(state, step)
        fair.account(step, state)
        ref.account(step, state)
    return rounds


class TestExplore:
    def test_depth_zero_summary(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=0))
        assert result.ok
        assert result.states_visited == 1
        assert result.transitions == 0

    def test_unknown_churn_policy_refused_by_the_config(self):
        # a depth-0 exploration enumerates nothing, so enabled_steps would never see it
        with pytest.raises(ValueError, match="unknown churn policy 'bogus'"):
            ExploreConfig(max_depth=0, churn="bogus")

    def test_ideal_ring_full_churn_no_violations(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=4, churn="full"))
        assert result.ok
        assert result.states_visited > 100

    def test_each_fail_transition_asks_safely_failable_once(self, monkeypatch):
        # enabled_steps reads every fail verdict from one pass over the rows;
        # only step_fail's guard asks safely_failable, once per fail applied
        callers = []
        real = protocol.safely_failable

        def counting(state, member):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(state, member)

        monkeypatch.setattr(protocol, "safely_failable", counting)
        fails = []

        def on_transition(state, step, post):
            if step.kind == StepKind.FAIL:
                fails.append(step)

        s = ideal_ring(IdSpace(3), 2, [0, 2, 3, 5, 7])
        result = explore(s, ExploreConfig(max_depth=4, churn="full"), on_transition)
        assert result.ok and fails
        assert len(callers) == len(fails)
        assert set(callers) == {"step_fail"}

    def test_one_apply_per_transition_and_one_enumeration_per_expansion(self, monkeypatch):
        # the traced benchmark checks these counts on explore_m4; a batched
        # or key-only successor must keep them, or change them openly here.
        # Of the 8,234 new non-fail states, 5,624 keep their parent's
        # members, and so its verdict: only 2,610 are checked
        calls = {"apply_step": 0, "enabled_steps": 0, "invariant_with": 0}

        def counting(name):
            real = getattr(explorer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(explorer, name, counting(name))
        s = ideal_ring(IdSpace(4), 2, [0, 3, 6, 9, 12])
        before = properties._mask_rows.cache_info()
        result = explore(s, ExploreConfig(max_depth=4, churn="full"))
        assert (result.verdict, result.states_visited, result.transitions,
                result.frontier_size) == ("ok", 10_517, 35_896, 8_753)
        assert calls == {"apply_step": 35_896, "enabled_steps": 10_517 - 8_753,
                         "invariant_with": 2_610}
        # one rows-memo lookup per expansion and one for the root's check:
        # a fail guard and a verdict reuse the table enabled_steps fetched
        lookups = properties._mask_rows.cache_info()
        lookups = lookups.hits + lookups.misses - before.hits - before.misses
        assert lookups <= 10_517 - 8_753 + 1

    def test_fail_post_states_are_not_rechecked(self, monkeypatch):
        # step_fail's guard has already tested the survivors, so explore
        # checks the initial state whole, and each new state reached
        # otherwise from its parent's rows and the actor's new row, except
        # one that keeps its parent's members, and so its verdict
        checked = []
        real_holds = explorer.invariant_holds
        real_with = explorer.invariant_with

        def counting_holds(state):
            checked.append(state.key)
            return real_holds(state)

        def counting_with(state, node):
            checked.append((state.key, node))
            return real_with(state, node)

        monkeypatch.setattr(explorer, "invariant_holds", counting_holds)
        monkeypatch.setattr(explorer, "invariant_with", counting_with)
        s = ideal_ring(IdSpace(3), 2, [0, 2, 3, 5, 7])
        result = explore(s, ExploreConfig(max_depth=4, churn="full", collect_states=True))
        assert result.ok
        reached = [(state, result.parents[state.key]) for state in result.states[1:]]
        fail_posts = {state.key for state, (_, step) in reached if step.kind == StepKind.FAIL}
        assert fail_posts
        members = {key: GlobalState.from_key(s.space, s.r, key).members
                   for key in result.parents}
        kept = {state.key for state, (parent, step) in reached
                if step.kind != StepKind.FAIL and state.members == members[parent]}
        assert kept
        assert checked == [s.key] + [(parent, state.node(step.actor))
                                     for state, (parent, step) in reached
                                     if step.kind != StepKind.FAIL and state.key not in kept]
        assert not fail_posts & set(checked)

    @pytest.mark.parametrize("m, ring, depth, counts, digest", [
        (4, (0, 3, 6, 9, 12), 4, ("ok", 10_517, 35_896, 8_753), "b5b963d7c8d05252"),
        (3, (0, 2, 3, 5, 7), 5, ("ok", 4_752, 16_714, 3_332), "05c23f60cf5cab09"),
        (3, (0, 2, 5), 8, ("ok", 14_130, 74_340, 7_950), "bb56ceea5ccf33e7"),
    ])
    def test_exploration_pinned(self, m, ring, depth, counts, digest):
        # verdict, states, transitions and frontier, and every parent link
        # in BFS order, hashed
        result = explore(ideal_ring(IdSpace(m), 2, ring),
                         ExploreConfig(max_depth=depth, churn="full", collect_states=True))
        assert (result.verdict, result.states_visited, result.transitions,
                result.frontier_size) == counts
        links = repr(list(result.parents.items())).encode("ascii")
        assert hashlib.sha256(links).hexdigest()[:16] == digest

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

    def test_replay_refuses_verdicts_its_records_do_not_give(self, space3):
        run = simulate(ideal_ring(space3, 2, [0, 2, 5]), Schedule(seed=2), steps=10)
        stranded = run_script(build_fig3_state(), [Step(StepKind.FAIL, 48, forced=True),
                                                   Step(StepKind.STABILIZE_FROM_SUCCESSOR, 62)])
        violation = explore(build_fig3_state(),
                            ExploreConfig(max_depth=2, require_valid_initial=False)).trace
        for trace in (run, stranded, violation):
            replay(trace)
        for trace in (
            replace(run, verdict="invariant-violated"),
            replace(stranded, verdict="unexpected-pass"),
            replace(violation, verdict="ok"),
            replace(violation, records=[]),
            # the last record satisfies the invariant
            replace(run, kind="explore", verdict="invariant-violated"),
            # a record before the last violates it
            replace(stranded, kind="explore", verdict="invariant-violated"),
        ):
            with pytest.raises(ReplayMismatchError):
                replay(trace)

    def test_cap_hit_is_not_success(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=6, max_states=50))
        assert result.verdict == "cap-hit"
        assert not result.ok

    @pytest.mark.parametrize("cap,pinned", [
        (1, ("cap-hit", 1, 0, 0, 1)),
        (2, ("cap-hit", 2, 1, 1, 1)),
        (50, ("cap-hit", 50, 90, 3, 8)),
    ])
    def test_visited_states_never_exceed_the_cap(self, space3, cap, pinned):
        # the root alone fills a cap of 1; larger caps stop at the state
        # that reaches them
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=6, max_states=cap))
        assert (result.verdict, result.states_visited, result.transitions,
                result.depth_reached, result.frontier_size) == pinned

    def test_collected_states_are_reachable_and_deduped(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=3, collect_states=True))
        assert len(result.states) == result.states_visited
        assert len(set(result.states)) == len(result.states)
        assert result.states[0] == s

    def test_every_visited_state_reconstructible(self, space3):
        # soundness: a concrete step sequence reaches each visited state, so
        # a decoding fault cannot hide behind from_key agreeing with itself
        from chordcheck import apply_step

        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=3, collect_states=True))
        for state in result.states[:: max(1, len(result.states) // 100)]:
            path = []
            key = state.key
            while result.parents[key] is not None:
                key, step = result.parents[key]
                path.append(step)
            cur = s
            for step in reversed(path):
                cur = apply_step(cur, step)
            assert cur == state

    def test_derived_states_are_canonical(self, space3):
        # step results and decoded keys skip the constructor's validation
        # and sorting; each must equal its rebuild through the validating
        # constructor. The hook keeps each state's first step result, as
        # reached; the collected states are decoded from their keys
        s = ideal_ring(space3, 2, [0, 2, 3, 5, 7])
        reached = {}
        result = explore(s, ExploreConfig(max_depth=5, churn="full", collect_states=True),
                         on_transition=lambda pre, step, post: reached.setdefault(post.key, post))
        assert result.states_visited == 4752
        assert reached.keys() <= result.parents.keys()
        for state in [*reached.values(), *result.states]:
            rebuilt = GlobalState(state.space, state.r, state.members,
                                  state.pending_stabilize, state.pending_notify)
            assert rebuilt == state
            assert rebuilt.key == state.key
            assert hash(rebuilt) == hash(state)
            assert rebuilt.mask == state.mask
            assert [state.get(i) for i in space3.idents()] == \
                [rebuilt.get(i) for i in space3.idents()]

    def test_parents_link_keys(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=3, collect_states=True))
        assert result.parents[s.key] is None
        assert list(result.parents) == [state.key for state in result.states]
        for state in result.states[1:]:
            parent, step = result.parents[state.key]
            assert apply_step(GlobalState.from_key(space3, 2, parent), step) == state

    def test_memory_per_visited_state(self, space3):
        # the visited set holds one packed key and one parent link per
        # state, not a snapshot: about 250 bytes a state, where keeping
        # snapshots took about 900
        s = ideal_ring(space3, 2, [0, 2, 3, 5, 7])
        gc.collect()
        tracemalloc.start()
        try:
            result = explore(s, ExploreConfig(max_depth=5, churn="full"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.verdict, result.states_visited) == ("ok", 4752)
        assert peak / result.states_visited < 400

    def test_parents_share_equal_steps(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 3, 5, 7])
        result = explore(s, ExploreConfig(max_depth=4, churn="full", collect_states=True))
        first: dict = {}
        links = [link for link in result.parents.values() if link is not None]
        for _, step in links:
            assert first.setdefault(step, step) is step
        assert len(first) < len(links)

    def test_hook_sees_every_transition(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 4, 6])
        seen = []
        result = explore(s, ExploreConfig(max_depth=4, churn="full"),
                         on_transition=lambda *args: seen.append(args))
        assert result.ok
        assert len(seen) == result.transitions
        assert len({post for _, _, post in seen}) < len(seen)  # revisits happen
        for pre, step, post in seen:
            assert apply_step(pre, step) == post

    def test_fig3_counterexample_pinned(self):
        result = explore(build_fig3_state(), ExploreConfig(max_depth=2, require_valid_initial=False))
        assert (result.verdict, result.states_visited, result.transitions) == \
            ("invariant-violated", 1, 1)
        [record] = result.trace.records
        assert record.step == Step(StepKind.JOIN, 0, 62)
        assert record.digest == "ca23e9fc43fbf27db4633f57637938f045f5124633f11c9b40051124ef3202c2"

    def test_deep_counterexample_pinned(self, space3):
        # a continuation whose candidate lies outside the owner's arc to its
        # head breaks the invariant three steps later; the two states before
        # the violation are decoded from their keys to build the trace
        ring = ideal_ring(space3, 2, [0, 2, 4, 6])
        s = GlobalState(space3, 2, ring.members, pending_stabilize=[(0, 3)])
        result = explore(s, ExploreConfig(max_depth=6, require_valid_initial=False))
        assert (result.verdict, result.states_visited, result.transitions) == \
            ("invariant-violated", 180, 331)
        assert [r.step for r in result.trace.records] == [
            Step(StepKind.JOIN, 3, 2),
            Step(StepKind.FAIL, 4),
            Step(StepKind.STABILIZE_FROM_PREDECESSOR, 0, 3),
        ]
        assert [r.digest[:12] for r in result.trace.records] == \
            ["9520ae45dfee", "75052839f929", "3806c46e5ec8"]
        replay(result.trace)

    def test_violating_initial_state_is_checked_when_revisited(self, space3):
        # stabilizing the lone member changes nothing (the notification it
        # sends is already pending), so the first transition leads back to
        # the violating initial state and must be reported there
        s = make_state(space3, 2, [(0, 0, (0, 0))], pending_notify=[(0, 0)])
        result = explore(s, ExploreConfig(max_depth=1, churn="none", require_valid_initial=False))
        assert result.verdict == "invariant-violated"
        assert [r.step for r in result.trace.records] == [Step(StepKind.STABILIZE_FROM_SUCCESSOR, 0)]
        assert result.trace.final_state() == s

    def test_churn_none_stays_near_ideal(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        result = explore(s, ExploreConfig(max_depth=4, churn="none", collect_states=True))
        assert result.ok
        for state in result.states:
            assert state.members == s.members


@functools.lru_cache(maxsize=None)
def collected_m3_ring():
    """The initial state and the collected depth-4 full-churn exploration of
    the m=3 ring (0, 2, 3, 5, 7)."""
    initial = ideal_ring(IdSpace(3), 2, [0, 2, 3, 5, 7])
    return initial, explore(initial, ExploreConfig(max_depth=4, churn="full",
                                                    collect_states=True))


class TestVisitedStates:
    """``ExploreResult.states`` is a read-only view over the visited keys in
    BFS order, decoded on access."""

    def test_reads_agree_with_the_decoded_keys(self):
        initial, result = collected_m3_ring()
        decoded = [GlobalState.from_key(initial.space, initial.r, key) for key in result.parents]
        states = result.states
        assert list(states) == decoded
        assert [states[i] for i in range(len(states))] == decoded
        assert [states[-i] for i in range(1, len(states) + 1)] == decoded[::-1]
        for cut in (slice(None), slice(1, None), slice(5, 900, 7), slice(-40, -3),
                    slice(None, None, -13), slice(600, 2), slice(2_000, None)):
            assert states[cut] == decoded[cut], cut
            assert type(states[cut]) is list

    def test_out_of_range_index_raises(self):
        _, result = collected_m3_ring()
        n = len(result.states)
        for index in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                result.states[index]

    def test_equal_explorations_give_equal_views(self):
        initial, result = collected_m3_ring()
        again = explore(initial, ExploreConfig(max_depth=4, churn="full", collect_states=True))
        assert again.states is not result.states
        assert again.states == result.states
        assert again == result
        shallower = explore(initial, ExploreConfig(max_depth=3, churn="full",
                                                   collect_states=True))
        assert shallower.states != result.states
        keys = list(result.parents)
        assert VisitedStates(IdSpace(4), 2, keys) != result.states
        assert VisitedStates(IdSpace(3), 3, keys) != result.states

    def test_collected_exploration_keeps_no_snapshots(self):
        # traced after the memos are emptied, the m=3 ring (0,2,3,5,7) at
        # depth 6 (14,979 states) retained 2.58 MB with a view over its
        # keys, and 7.92 MB when every collected state was kept as a
        # snapshot; 0.47 MB without collecting
        _decode_field.cache_clear()
        clear_property_memos()
        initial = ideal_ring(IdSpace(3), 2, [0, 2, 3, 5, 7])
        gc.collect()
        tracemalloc.start()
        try:
            result = explore(initial, ExploreConfig(max_depth=6, churn="full",
                                                    collect_states=True))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (result.verdict, len(result.states)) == ("ok", 14_979)
        assert retained < 4.5e6


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
        with pytest.raises(ValueError, match="steps"):
            simulate(s, Schedule(seed=1), steps=-1)
        with pytest.raises(ValueError, match="step_cap"):
            converge(s, Schedule(seed=1), step_cap=-1)

    def test_bool_steps_rejected(self, space3):
        # true is no count: the run's own verdict rule would refuse it
        s = ideal_ring(space3, 2, [0, 2, 5])
        with pytest.raises(ValueError, match="steps must be an integer, got True"):
            simulate(s, Schedule(seed=1), True)

    def test_bool_step_cap_rejected(self, space3):
        # true is no count: a trace would record "step_cap":true
        s = ideal_ring(space3, 2, [0, 2, 5])
        with pytest.raises(ValueError, match="step_cap must be an integer, got True"):
            converge(s, Schedule(seed=1), step_cap=True)

    @pytest.mark.parametrize("seed,window", [(True, None), (1.0, None), ("1", None),
                                             (1, True), (1, 6.0)],
                             ids=["seed true", "seed 1.0", "seed '1'", "window true", "window 6.0"])
    def test_schedule_settings_must_be_integers(self, seed, window):
        # a trace records both, and its reader refuses another type
        with pytest.raises(ValueError, match="seed and fairness_window must be integers"):
            Schedule(seed=seed, fairness_window=window)

    def test_window_must_cover_members(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 4, 6])
        with pytest.raises(ValueError):
            simulate(s, Schedule(seed=1, fairness_window=2), steps=5)

    def test_unknown_churn_policy_refused_before_any_step(self, space3):
        # a run of no steps enumerates nothing, so enabled_steps would never see it
        s = ideal_ring(space3, 2, [0, 2, 5])
        with pytest.raises(ValueError, match="unknown churn policy 'bogus'"):
            simulate(s, Schedule(seed=1), steps=0, churn="bogus")


CHURNS = ["full", "joins_only", "fails_only", "none"]


class TestFairScheduler:
    @pytest.mark.parametrize("churn", CHURNS)
    def test_matches_reference_on_join_lifecycle(self, churn):
        state = load_scenario(str(SCENARIOS / "join_lifecycle_m6.json")).starting_state()
        for seed in range(6):
            assert picks_agree(state, seed, churn, rounds=150) == 150

    @pytest.mark.parametrize("churn", CHURNS)
    def test_matches_reference_on_explored_states(self, space3, churn):
        # explored states carry continuations and notifications in flight
        result = explore(ideal_ring(space3, 2, [0, 2, 4, 6]),
                         ExploreConfig(max_depth=3, churn="full", collect_states=True))
        for seed, state in enumerate(result.states[::40]):
            picks_agree(state, seed, churn, rounds=60)

    @pytest.mark.parametrize("churn", CHURNS)
    def test_matches_reference_with_window_of_live_count(self, space3, churn):
        # the tightest window: every member is due once per live-count rounds
        state = load_scenario(str(SCENARIOS / "join_lifecycle_m6.json")).starting_state()
        for seed in range(3):
            picks_agree(state, seed, churn, rounds=100, window=state.live_count)
        for seed, state in enumerate(full_churn_states()[::40]):
            picks_agree(state, seed, churn, rounds=60, window=state.live_count)

    def test_resent_notification_restarts_its_age(self, space3):
        # (2, 0) is sent in round 0, delivered in round 1 and sent again in
        # round 3, so in round 7 it is 3 rounds old, not 6: no notification
        # is over age, and no member is at its deadline
        state = ideal_ring(space3, 2, [0, 2, 5])
        schedule = Schedule(seed=1)
        assert schedule.window_for(state) == 6
        fair = _FairScheduler(state, schedule, "none")
        ref = ReferenceScheduler(state, schedule, "none")
        sfs = StepKind.STABILIZE_FROM_SUCCESSOR
        script = [Step(sfs, 0), Step(StepKind.RECTIFY, 2, 0), Step(sfs, 5), Step(sfs, 0),
                  Step(sfs, 2), Step(StepKind.RECTIFY, 0, 5), Step(sfs, 5)]
        for step in script:
            assert fair.pick(state) == ref.pick(state)
            state = apply_step(state, step)
            fair.account(step, state)
            ref.account(step, state)
        assert ref.notify_age == {(0, 5): 0, (2, 0): 3, (5, 2): 2}
        pick = fair.pick(state)
        assert pick == ref.pick(state) != Step(StepKind.RECTIFY, 2, 0)

    def test_no_members_no_step(self, space3):
        assert picks_agree(GlobalState(space3, 2, ()), 1, "full", rounds=5) == 0

    def test_seeded_simulate_pinned(self):
        state = load_scenario(str(SCENARIOS / "join_lifecycle_m6.json")).starting_state()
        trace = simulate(state, Schedule(seed=3), steps=200, churn="full")
        assert len(trace.records) == 200
        assert trace.records[-1].digest == \
            "9f45d607457a2d184735ef558ab7e6fbb29f1b0002d7aa93b891255e1ec53ecf"

    def test_seeded_converge_pinned(self, space6):
        stage1 = step_join(ideal_ring(space6, 2, [7, 19, 34, 50]), 10, 7)
        trace = converge(stage1, Schedule(seed=2))
        assert (trace.verdict, trace.meta["steps_to_ideal"], len(trace.records)) == \
            ("converged", 40, 50)
        assert trace.records[-1].digest == \
            "70a6b3aac1df41251d9d672e79cbdf5c27c28e2cdef5744323a5805236c97ef5"


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
        metrics = [error_metric(trace.initial)] + [report.metric for report in replay(trace)]
        assert len(metrics) == len(trace.records) + 1
        assert metrics[0].cumulative > 0
        assert [metric.cumulative for metric in metrics[1:]] == \
            [rec.cumulative_error for rec in trace.records]
        assert metrics[-1].cumulative == 0


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

    @pytest.mark.parametrize("field", ["ideal", "cumulative_error"])
    def test_tampering_on_a_repeated_member_table_detected(self, space3, field):
        # the record's report comes from the report memo, built for the
        # record before it, and is still compared with the record
        trace = converge(step_join(ideal_ring(space3, 2, [0, 2, 5]), 1, 0), Schedule(seed=1))
        replay(trace)
        i = repeated_table_record(trace)
        rec = trace.records[i]
        if field == "ideal":
            flags = dict(rec.flags)
            flags["ideal"] = not flags["ideal"]
            trace.records[i] = rec._replace(flags=flags)
            match = "property flags"
        else:
            trace.records[i] = rec._replace(cumulative_error=rec.cumulative_error + 1)
            match = "cumulative error"
        with pytest.raises(ReplayMismatchError, match=rf"records\[{i}\]: {match}"):
            replay(trace)


    def test_replay_same_with_warm_and_cleared_memos(self, space3):
        # the memos hold reports derived from members, never from a trace:
        # a replay that finds its run's reports gives what a cold one does
        s = ideal_ring(space3, 2, [0, 2, 5])
        for trace in (converge(step_join(s, 1, 0), Schedule(seed=1)),
                      simulate(s, Schedule(seed=9), steps=40, churn="full")):
            warm = replay(trace)
            clear_property_memos()
            cold = replay(trace)
            assert len(warm) == len(cold) == len(trace.records)
            for a, b in zip(warm, cold):
                assert a is not b
                assert a.flags == b.flags and a.metric == b.metric
                assert list(a.witnesses.items()) == list(b.witnesses.items())


def converged_trace(space3):
    """A converge trace on the m=3 ring (0, 2, 5) just after 1 joined."""
    trace = converge(step_join(ideal_ring(space3, 2, [0, 2, 5]), 1, 0), Schedule(seed=1))
    assert (trace.verdict, trace.meta["steps_to_ideal"]) == ("converged", 9)
    return trace


class TestReplayOutcome:
    """Replay re-derives a converge trace's ``steps_to_ideal`` and verdict
    from the ideal flags it re-checks."""

    def test_flipped_verdict_detected(self, space3):
        trace = converged_trace(space3)
        trace.verdict = "not-converged"
        with pytest.raises(ReplayMismatchError, match="verdict"):
            replay(trace)

    @pytest.mark.parametrize("steps_to_ideal", [0, 8, 10, None, True, 9.0])
    def test_tampered_steps_to_ideal_detected(self, space3, steps_to_ideal):
        trace = converged_trace(space3)
        trace.meta["steps_to_ideal"] = steps_to_ideal
        with pytest.raises(ReplayMismatchError, match="steps_to_ideal"):
            replay(trace)

    def test_not_converged_verdict_checked(self, space3):
        trace = converge(step_join(ideal_ring(space3, 2, [0, 2, 5]), 1, 0), Schedule(seed=1),
                         step_cap=4)
        assert (trace.verdict, trace.meta["steps_to_ideal"]) == ("not-converged", None)
        replay(trace)
        trace.verdict = "converged"
        with pytest.raises(ReplayMismatchError, match="verdict"):
            replay(trace)

    def test_cut_converge_trace_refused(self, space3):
        # a converged run keeps its retention window, steps_to_ideal +
        # fairness_window records; a run that never gets ideal runs to
        # its step cap
        trace = converged_trace(space3)
        assert len(trace.records) == 9 + trace.meta["fairness_window"] == 17
        for records in (trace.records[:9], trace.records[:16]):
            with pytest.raises(ReplayMismatchError, match="its run stops after 17"):
                replay(replace(trace, records=records))
        capped = converge(step_join(ideal_ring(space3, 2, [0, 2, 5]), 1, 0), Schedule(seed=1),
                          step_cap=4)
        assert (capped.verdict, len(capped.records)) == ("not-converged", 4)
        with pytest.raises(ReplayMismatchError, match="its run stops after 4"):
            replay(replace(capped, records=capped.records[:3]))
        for step_cap in (5, 4.0, None):
            with pytest.raises(ReplayMismatchError, match="records"):
                replay(replace(capped, meta={**capped.meta, "step_cap": step_cap}))
        for window in (9, None, True):
            with pytest.raises(ReplayMismatchError, match="records"):
                replay(replace(trace, meta={**trace.meta, "fairness_window": window}))

    def test_cut_simulate_trace_refused(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        run = simulate(s, Schedule(seed=1), steps=30)
        assert len(run.records) == 30
        with pytest.raises(ReplayMismatchError, match="steps_requested 30 has 3 records"):
            replay(replace(run, records=run.records[:3]))
        replay(replace(run, records=run.records[:3], meta={**run.meta, "steps_requested": 3}))
        # the fair scheduler finds no step only in a network with no member
        emptied = run_script(s, [Step(StepKind.FAIL, x, forced=True) for x in (0, 2, 5)])
        replay(replace(emptied, kind="simulate", meta={"steps_requested": 10}))
        for requested in (2, 3.0):
            with pytest.raises(ReplayMismatchError, match="steps_requested"):
                replay(replace(emptied, kind="simulate", meta={"steps_requested": requested}))

    def test_every_converge_trace_replays(self, space3):
        # explored states carry continuations and notifications in flight;
        # a small step cap gives not-converged traces too
        result = explore(ideal_ring(space3, 2, [0, 2, 4, 6]),
                         ExploreConfig(max_depth=3, churn="full", collect_states=True))
        verdicts = set()
        for seed, state in enumerate(result.states[::15]):
            for step_cap in (200, 3):
                trace = converge(state, Schedule(seed=seed), step_cap=step_cap)
                verdicts.add(trace.verdict)
                replay(trace)
        assert verdicts == {"converged", "not-converged"}


KINDS = ("script", "repro", "explore", "simulate", "converge")
VERDICTS = ("ok", "unexpected-pass", "invariant-violated", "cap-hit", "converged", "not-converged")


@functools.lru_cache(maxsize=None)
def full_churn_states():
    """The states of an m=3 full-churn exploration, many with
    continuations and notifications in flight."""
    result = explore(ideal_ring(IdSpace(3), 2, [0, 2, 4, 6]),
                     ExploreConfig(max_depth=3, churn="full", collect_states=True))
    return result.states


def with_prelude(trace):
    """``trace`` with a one-record prelude that replays clean: a
    notification that changes nothing, delivered from a seed state that
    holds it."""
    initial = trace.initial
    entry = next((n.ident, n.prdc) for n in initial.members
                 if (n.ident, n.prdc) not in initial.pending_notify)
    seed = GlobalState(initial.space, initial.r, initial.members, initial.pending_stabilize,
                       initial.pending_notify + (entry,))
    step = Step(StepKind.RECTIFY, *entry)
    assert apply_step(seed, step) == initial
    return replace(trace, seed_state=seed, prelude=[_record(0, step, initial)[0]])


def assert_writer_and_replay_agree(trace):
    """``trace``, written and read back, replays clean, and each single
    relabelling of its kind, verdict, ``violates`` or prelude is refused."""
    buf = io.StringIO()
    write_trace(trace, buf)
    lines = buf.getvalue().splitlines()

    def replayed(lines):
        return replay(read_trace(io.StringIO("\n".join(lines) + "\n")))

    def edited(line, edit):
        doc = json.loads(lines[line])
        edit(doc)
        return lines[:line] + [json.dumps(doc)] + lines[line + 1:]

    assert len(replayed(lines)) == len(trace.records)
    last = len(lines) - 1
    refused = [edited(0, lambda d, k=k: d.update(kind=k))
               for k in (*KINDS, "run") if k != trace.kind]
    refused += [edited(last, lambda d, v=v: d.update(verdict=v))
                for v in VERDICTS if v != trace.verdict]
    if trace.kind == "repro":
        flags = trace.records[-1].flags
        refused += [edited(last, lambda d, f=f: d["meta"].update(violates=f))
                    for f in flags if flags[f]]
    for lines_ in refused:
        with pytest.raises(ReplayMismatchError):
            replayed(lines_)
    with pytest.raises(TraceFormatError, match="'kind'"):
        replayed(edited(0, lambda d: d.pop("kind")))
    if trace.kind != "converge":
        prelude = io.StringIO()
        write_trace(with_prelude(trace), prelude)
        prelude.seek(0)
        with pytest.raises(ReplayMismatchError, match="only a converge trace"):
            replay(read_trace(prelude))


class TestWritersAgreeWithReplay:
    """Every trace a writer returns replays clean, by one verdict rule per
    kind, and no single relabelling of what the rule reads does."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), pick=st.integers(0, 10**6))
    def test_drawn_runs(self, seed, pick):
        states = full_churn_states()
        state = states[pick % len(states)]
        rng = random.Random(seed)
        script = [rng.choice(enabled_steps(state, churn="full"))]
        post = apply_step(state, script[0])
        script.append(rng.choice(enabled_steps(post, churn="full")))
        start = state if valid_initial(state) else states[0]
        traces = [
            run_script(state, script),
            simulate(start, Schedule(seed=seed), steps=rng.randint(1, 20), churn="full"),
            converge(state, Schedule(seed=seed)),
            converge(state, Schedule(seed=seed), step_cap=1),
        ]
        for trace in traces:
            assert_writer_and_replay_agree(trace)

    @pytest.mark.parametrize("writer", [
        run_fig3,
        run_fig4,
        lambda: explore(build_fig3_state(),
                        ExploreConfig(max_depth=2, require_valid_initial=False)).trace,
        lambda: converged_trace(IdSpace(3)),
        lambda: converge(step_join(ideal_ring(IdSpace(3), 2, [0, 2, 5]), 1, 0), Schedule(seed=1),
                         step_cap=4),
    ], ids=["fig3", "fig4", "explore", "converged", "not-converged"])
    def test_fixed_runs(self, writer):
        assert_writer_and_replay_agree(writer())


class TestDigest:
    def test_digest_tracks_content(self, space3):
        a = ideal_ring(space3, 2, [0, 2, 5])
        b = ideal_ring(space3, 2, [0, 2, 5])
        assert state_digest(a) == state_digest(b)
        c = a.with_node(a.node(0)._replace(prdc=1))
        assert state_digest(c) != state_digest(a)

    def test_digest_is_its_literal_definition(self, space3):
        # explored states carry continuations and notifications in flight
        result = explore(ideal_ring(space3, 2, [0, 2, 5]),
                         ExploreConfig(max_depth=6, churn="full", collect_states=True))
        assert any(s.pending_stabilize for s in result.states)
        assert any(s.pending_notify for s in result.states)
        ring = result.states[0].members
        edge_cases = [
            GlobalState(space3, 2, ()),
            make_state(space3, 1, [(4, 4, (4,))]),
            GlobalState(space3, 2, ring, pending_stabilize=[(5, 7)]),
            GlobalState(space3, 2, ring, pending_notify=[(2, 5)]),
        ]
        states = [*result.states, *edge_cases]
        assert len(states) > explorer.DIGESTS_CEILING
        for s in states:
            explorer._digests.clear()
            assert state_digest(s) == literal_digest(s), s
        # warm: each snapshot, and an equal one decoded anew, finds its digest
        for s in states:
            digest = state_digest(s)
            assert (s.space.m, s.r, s.key) in explorer._digests
            twin = GlobalState.from_key(s.space, s.r, s.key)
            assert twin is not s
            assert state_digest(twin) == digest == literal_digest(s), s

    def test_memo_tells_equal_keys_of_other_spaces_and_r_apart(self, space3):
        # three snapshots that pack to one key: the empty m=3 network at
        # r=1 and r=2, and the empty m=2 network with a notification
        states = [GlobalState(space3, 1, ()), GlobalState(space3, 2, ()),
                  GlobalState(IdSpace(2), 2, (), pending_notify=[(0, 0)])]
        assert {s.key for s in states} == {256}
        for order in (states, states[::-1]):
            explorer._digests.clear()
            digests = [state_digest(s) for s in order]
            assert digests == [literal_digest(s) for s in order]
            assert len(set(digests)) == 3

    def test_digests_pinned(self, space3):
        assert state_digest(ideal_ring(space3, 2, [0, 2, 5])) == \
            "9b5dc073ad9dd0eaf6a9e0e95d0def757ee84f6e983eb8f9bea4c17960746cd5"
        pending = GlobalState(space3, 2, ideal_ring(space3, 2, [0, 2, 5]).members,
                              pending_stabilize=[(5, 7)], pending_notify=[(0, 7), (2, 5)])
        assert state_digest(pending) == \
            "704fad55de18b2224f8cc8b362b6fb0033e02955201bac9774caee6600ae3e02"

    def test_boolean_fields_digest_like_their_integer_twins(self, space3):
        twin = make_state(space3, 2, [(1, 1, (1, 1))], pending_stabilize=[(1, 1)],
                          pending_notify=[(1, 1)])
        # the constructor refuses a bool identifier, but derive, which the
        # steps build through, checks no types
        boolean = GlobalState(space3, 2, ()).derive(
            True, NodeState(True, True, (True, 1)), True, sent=(True, True))
        assert boolean == twin
        (node,), ((owner, candidate),), (notify,) = (
            boolean.members, boolean.pending_stabilize, boolean.pending_notify)
        assert all(x is True for x in (node.ident, node.prdc, node.succ_list[0],
                                       owner, candidate, *notify))
        # whichever of the two the memo sees first, both give one text
        for first, second in ((boolean, twin), (twin, boolean)):
            _member_text.cache_clear()
            explorer._digests.clear()
            assert state_digest(first) == state_digest(second) == literal_digest(twin)

    def test_boolean_notification_from_steps_digests_like_its_twin(self, space3):
        # a join by actor True, then its stabilize, notifies member 2
        ring = ideal_ring(space3, 2, [0, 2, 5])
        twin, boolean = (
            apply_step(apply_step(ring, Step(StepKind.JOIN, actor, 0)),
                       Step(StepKind.STABILIZE_FROM_SUCCESSOR, actor))
            for actor in (1, True))
        assert boolean == twin and boolean.pending_notify[0][1] is True
        for first, second in ((boolean, twin), (twin, boolean)):
            explorer._digests.clear()
            assert state_digest(first) == state_digest(second) == literal_digest(twin)

    def test_memo_never_grows_past_its_ceiling(self):
        space = IdSpace(6)
        rng = random.Random(37)
        seen = set()
        while len(seen) <= 2 * MEMBER_TEXTS_CEILING:
            node = NodeState(rng.randrange(64), rng.randrange(64),
                             (rng.randrange(64), rng.randrange(64)))
            if node in seen:
                continue
            seen.add(node)
            state = GlobalState(space, 2, [node])
            digest = state_digest(state)
            assert 0 < _member_text.cache_info().currsize <= MEMBER_TEXTS_CEILING
            if len(seen) % 64 == 0:
                assert digest == literal_digest(state)

    def test_digest_memo_never_grows_past_its_ceiling(self):
        space = IdSpace(6)
        rng = random.Random(41)
        explorer._digests.clear()
        keys = []
        while len(keys) <= 2 * explorer.DIGESTS_CEILING:
            state = GlobalState(space, 1, [], pending_notify=[
                (rng.randrange(64), rng.randrange(64)) for _ in range(3)])
            if state.key in keys:
                continue
            keys.append(state.key)
            digest = state_digest(state)
            assert 0 < len(explorer._digests) <= explorer.DIGESTS_CEILING
            if len(keys) % 64 == 0:
                assert digest == literal_digest(state)
        # the oldest go first: the latest ceiling's worth is kept
        assert [key for _, _, key in explorer._digests] == keys[-explorer.DIGESTS_CEILING:]

    def test_replay_refuses_an_edited_digest_its_run_memoized(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        trace = simulate(s, Schedule(seed=9), steps=40, churn="full")
        state = trace.initial
        for rec in trace.records:
            state = apply_step(state, rec.step)
            # the run's digests are still in the memo
            assert explorer._digests[(3, 2, state.key)] == rec.digest
        i = 17
        edited = "0" * 64
        trace.records[i] = trace.records[i]._replace(digest=edited)
        with pytest.raises(ReplayMismatchError,
                           match=rf"records\[{i}\]: state digest '[0-9a-f]{{64}}' != recorded '{edited}'"):
            replay(trace)


def literal_digest(state):
    """The digest's definition: sha256 of the ASCII ``repr`` of the
    snapshot's canonical fields."""
    doc = (state.space.m, state.r, state.members, state.pending_stabilize, state.pending_notify)
    return hashlib.sha256(repr(doc).encode("ascii")).hexdigest()
