"""The two scripted flaw reproductions."""

import pytest

from chordcheck import (
    best_successors,
    build_fig3_state,
    build_fig4_state,
    check_all,
    principals,
    ring_members,
    run_fig3,
    run_fig4,
    run_scenario,
    step_fail,
    valid_initial,
)
from chordcheck.errors import FailUnsafeError
from chordcheck.explorer import replay
from chordcheck.repro import _TRIAL_INVARIANT


class TestFig3:
    def test_built_state(self):
        s = build_fig3_state()
        assert s.idents() == (37, 48, 62)
        report = check_all(s)
        assert not report.flags["no_duplicates"]
        assert len(principals(s)) < s.r + 1
        assert not valid_initial(s)

    def test_unforced_fail_rejected(self):
        with pytest.raises(FailUnsafeError):
            step_fail(build_fig3_state(), 48)

    def test_run_strands_both_appendages(self):
        trace = run_fig3()
        assert trace.verdict == "ok"
        final = trace.final_state()
        report = check_all(final)
        assert not report.flags["one_live_successor"]
        assert report.witnesses["one_live_successor"] == (37, 62)
        assert best_successors(final) == {37: None, 62: None}
        assert not report.flags["at_least_one_ring"]


class TestFig4:
    def test_first_stage_satisfies_trial_invariant(self):
        s = build_fig4_state()
        report = check_all(s)
        for name in _TRIAL_INVARIANT:
            assert report.flags[name], name

    def test_first_stage_has_no_principals(self):
        assert principals(build_fig4_state()) == frozenset()

    def test_run_disorders_the_ring(self):
        trace = run_fig4()
        assert trace.verdict == "ok"
        final = trace.final_state()
        report = check_all(final)
        assert not report.flags["ordered_ring"]
        # the appendage was pulled onto the ring at the wrong place
        assert ring_members(final) == {20, 31, 45, 52}
        assert final.node(52).succ_list == (45, 20)

    def test_padding_entry_appears_midway(self):
        trace = run_fig4()
        mid = trace.records[1]  # after 52's first stabilize
        state = trace.initial
        from chordcheck import apply_step
        state = apply_step(state, trace.records[0].step)
        state = apply_step(state, trace.records[1].step)
        assert state.node(52).succ_list == (45, 46)


class TestScripts:
    @pytest.mark.parametrize("name", ["fig3", "fig4"])
    def test_deterministic_and_short(self, name):
        a = run_scenario(name)
        b = run_scenario(name)
        assert len(a.records) <= 32
        assert [r.digest for r in a.records] == [r.digest for r in b.records]

    @pytest.mark.parametrize("name", ["fig3", "fig4"])
    def test_traces_replay(self, name):
        replay(run_scenario(name))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("fig9")
