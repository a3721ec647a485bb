"""Acceptance suite.

Each test is one numbered criterion, checked at its stated tolerance
(exact / zero violations) and within its stated runtime bound, and prints
one ``acceptance N/9 ... PASS`` line (visible with ``pytest -s``).

Criteria 3, 6, 7, 8, and 9 share heavyweight artifacts through
module-scoped fixtures: criterion 3's explorations feed the convergence
battery, which streams each converge trace through the convergence,
monotonicity, and replay checks before discarding it.
"""

import itertools
import json
import random
import time
from math import ceil

import pytest

from chordcheck import (
    ExploreConfig,
    IdSpace,
    Schedule,
    StepKind,
    check_all,
    converge,
    error_metric,
    explore,
    ideal_ring,
    invariant_holds,
    make_state,
    principals,
    replay,
    run_fig3,
    run_fig4,
    simulate,
)
from chordcheck.cli import EXIT_OK, EXIT_VIOLATION, main
from chordcheck.state import GlobalState, NodeState

IMPLIED_BY_INVARIANT = (
    "no_duplicates",
    "ordered_successor_lists",
    "at_least_one_ring",
    "at_most_one_ring",
    "ordered_ring",
    "connected_appendages",
)

RING_SIZES = {3: (0, 2, 5), 4: (0, 2, 4, 6), 5: (0, 2, 3, 5, 7)}
CONVERGE_SEED = 2026
CONVERGE_STEP_CAP = 200
CONVERGE_SAMPLE_CAP = 10_000


def report(line: str) -> None:
    print(f"\nacceptance {line}")


# ---------------------------------------------------------------------------
# criterion 1: identifier-space theorems, exhaustive for m = 3..6


def test_c1_identifier_space_theorems():
    started = time.perf_counter()
    triples = 0
    for m in (3, 4, 5, 6):
        space = IdSpace(m)
        size = space.size
        between = space.between
        included = space.included_in
        for n1 in range(size):
            for n2 in range(size):
                if n1 != n2:
                    assert between(n1, n2, n1)
                assert included(n1, n2, n1)
                if n1 == n2:
                    continue
                for nb in range(size):
                    triples += 1
                    assert (not between(n1, nb, n2)) == included(n2, nb, n1)
    elapsed = time.perf_counter() - started
    assert triples == sum((1 << m) * ((1 << m) - 1) * (1 << m) for m in (3, 4, 5, 6))
    assert elapsed < 5.0, f"identifier-space theorems took {elapsed:.1f}s"
    report(f"1/9 identifier-space theorems (m=3..6, {triples} triples): PASS in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: invariant-implication theorems


def _skip_free_live_lists(space, members):
    """For each owner, which of the 64 possible lists give an extended
    successor list that has a live entry and skips no member."""
    between = space.between
    size = space.size
    ok = {}
    for owner in members:
        flags = []
        for e1 in range(size):
            for e2 in range(size):
                live = e1 in members or e2 in members
                skips = any(between(owner, p, e1) or between(e1, p, e2) for p in members)
                flags.append(live and not skips)
        ok[owner] = flags
    return ok


def test_c2_invariant_implication_exhaustive_and_random():
    started = time.perf_counter()
    space = IdSpace(3)
    size = space.size
    lists = [(e1, e2) for e1 in range(size) for e2 in range(size)]
    n_lists = len(lists)

    total = 0
    positives = 0
    spot_rng = random.Random(42)
    spot_negatives = []
    for members in itertools.combinations(range(size), 3):
        a, b, c = members
        ok = _skip_free_live_lists(space, set(members))
        ok_a, ok_b, ok_c = ok[a], ok[b], ok[c]
        # with exactly 3 members and r = 2, the invariant demands that all
        # three are principal, which holds iff each member's own extended
        # list is live and skip-free; prdc occurs in none of the checked
        # properties, so one canonical assignment covers them all
        for ia in range(n_lists):
            a_ok = ok_a[ia]
            for ib in range(n_lists):
                ab_ok = a_ok and ok_b[ib]
                for ic in range(n_lists):
                    total += 1
                    if ab_ok and ok_c[ic]:
                        positives += 1
                        state = make_state(
                            space, 2,
                            [(a, a, lists[ia]), (b, b, lists[ib]), (c, c, lists[ic])],
                        )
                        assert invariant_holds(state)  # validate the table
                        flags = check_all(state).flags
                        for name in IMPLIED_BY_INVARIANT:
                            assert flags[name], (members, ia, ib, ic, name)
                    elif spot_rng.random() < 0.001:
                        spot_negatives.append((members, ia, ib, ic))

    assert total == 56 * 64 ** 3  # ~1.5e7 states enumerated
    assert positives > 0
    for members, ia, ib, ic in spot_negatives[:5000]:
        a, b, c = members
        state = make_state(
            space, 2, [(a, a, lists[ia]), (b, b, lists[ib]), (c, c, lists[ic])]
        )
        assert not invariant_holds(state)  # the skipped states were vacuous

    # random states at m = 6 with 3..8 members: half fully random with
    # member-biased entries, half ideal rings with a few corrupted pointers
    # (so the invariant actually holds often enough to test the implication)
    space6 = IdSpace(6)
    rng = random.Random(20260810)
    random_checked = 0
    random_invariant = 0
    while random_checked < 100_000:
        n = rng.randint(3, 8)
        idents = rng.sample(range(64), n)

        def entry():
            return rng.choice(idents) if rng.random() < 0.8 else rng.randrange(64)

        if random_checked % 2:
            state = GlobalState(
                space6, 2,
                tuple(NodeState(i, entry(), (entry(), entry())) for i in idents),
            )
        else:
            state = ideal_ring(space6, 2, idents)
            for _ in range(rng.randint(1, 3)):
                node = state.node(rng.choice(idents))
                if rng.random() < 0.5:
                    node = node._replace(prdc=entry())
                else:
                    succ = list(node.succ_list)
                    succ[rng.randrange(2)] = entry()
                    node = node._replace(succ_list=tuple(succ))
                state = state.with_node(node)
        random_checked += 1
        if invariant_holds(state):
            random_invariant += 1
            flags = check_all(state).flags
            for name in IMPLIED_BY_INVARIANT:
                assert flags[name], (state, name)

    elapsed = time.perf_counter() - started
    assert random_checked >= 100_000 and random_invariant > 0
    assert elapsed < 600.0, f"invariant implications took {elapsed:.1f}s"
    report(
        f"2/9 invariant implications ({total} exhaustive states, {positives} with "
        f"the invariant; {random_checked} random m=6 states, {random_invariant} with "
        f"the invariant): PASS in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criteria 3 + 8: bounded inductive preservation and principal preservation


class TransitionAudit:
    """Observer for every explored transition: invariant preservation is
    checked by the explorer itself; this tracks principal preservation.
    The explorer hands over every transition of one state in a row, so
    the pre-state's principals are kept for the next call."""

    def __init__(self):
        self.transitions = 0
        self.principal_violations = []
        self.pre_key = None
        self.pre_principals = None

    def __call__(self, pre, step, post):
        self.transitions += 1
        if pre.key != self.pre_key:
            self.pre_key, self.pre_principals = pre.key, principals(pre)
        pre_principals, post_principals = self.pre_principals, principals(post)
        exempt = step.kind == StepKind.FAIL and step.actor in pre_principals
        expected = pre_principals - {step.actor} if exempt else pre_principals
        if not post_principals >= expected:
            self.principal_violations.append((pre, step))


@pytest.fixture(scope="module")
def exploration():
    space = IdSpace(3)
    audit = TransitionAudit()
    results = {}
    started = time.perf_counter()
    for n, idents in RING_SIZES.items():
        initial = ideal_ring(space, 2, idents)
        results[n] = explore(
            initial,
            ExploreConfig(max_depth=6, max_states=1_000_000, churn="full",
                          collect_states=True),
            on_transition=audit,
        )
    elapsed = time.perf_counter() - started
    return {"results": results, "audit": audit, "elapsed": elapsed}


def test_c3_inductive_preservation(exploration):
    total_states = 0
    total_transitions = 0
    for n, result in exploration["results"].items():
        assert result.verdict != "invariant-violated", (
            f"{n}-member ring produced a counterexample: "
            f"{[r.step for r in result.trace.records]}"
        )
        assert result.depth_reached >= 6 or result.states_visited >= 1_000_000
        total_states += result.states_visited
        total_transitions += result.transitions
    elapsed = exploration["elapsed"]
    assert elapsed < 900.0, f"exploration took {elapsed:.1f}s"
    report(
        f"3/9 inductive preservation (rings of 3/4/5, depth 6, {total_states} states, "
        f"{total_transitions} transitions, zero violations): PASS in {elapsed:.1f}s"
    )


def test_c8_principal_preservation(exploration):
    audit = exploration["audit"]
    assert audit.transitions > 0
    assert audit.principal_violations == []
    report(
        f"8/9 principal preservation across {audit.transitions} transitions "
        f"(only principal failure may shrink the set): PASS"
    )


# ---------------------------------------------------------------------------
# criteria 4 + 5: figure reproductions


def test_c4_fig3_reproduction(capsys):
    started = time.perf_counter()
    trace = run_fig3()
    assert trace.verdict == "ok"
    final = check_all(trace.final_state())
    assert final.flags["one_live_successor"] is False
    assert final.witnesses["one_live_successor"] == (37, 62)

    assert main(["repro", "fig3"]) == EXIT_OK
    capsys.readouterr()
    code = main(["check", "scenarios/size_one_m6.json"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_VIOLATION
    assert out["flags"]["sufficient_principals"] is False
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fig3 reproduction took {elapsed:.2f}s"
    report(f"4/9 size-one-initialization reproduction (witnesses {{37, 62}}): PASS in {elapsed:.2f}s")


def test_c5_fig4_reproduction(capsys):
    started = time.perf_counter()
    from chordcheck import build_fig4_state

    first_stage = build_fig4_state()
    flags = check_all(first_stage).flags
    for name in IMPLIED_BY_INVARIANT:
        assert flags[name], name
    assert principals(first_stage) == frozenset()

    trace = run_fig4()
    assert trace.verdict == "ok"
    assert check_all(trace.final_state()).flags["ordered_ring"] is False
    assert main(["repro", "fig4"]) == EXIT_OK
    capsys.readouterr()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fig4 reproduction took {elapsed:.2f}s"
    report(f"5/9 trial-invariant counterexample reproduction (ring disordered): PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criteria 6 + 7 (+ the replay half of 9): convergence battery


def _monotonicity_problem(trace, reports):
    """Check one converge trace against the repair-phase structure:
    (a) once every first successor is live, the cumulative pointer error
    never increases and reaches (and stays) 0; (b) once every member has
    performed r - 1 list-refreshing stabilize steps after that point, all
    list errors are 0. ``reports`` are the trace's per-record reports, as
    ``replay`` re-derives them."""
    metrics = [error_metric(trace.initial)] + [report.metric for report in reports]
    s = metrics[0].s
    t_live = None
    for i, metric in enumerate(metrics):
        if all(err < s for err in metric.successor_error.values()):
            t_live = i
            break
    if t_live is None:
        return "no all-live-successors state"
    t_zero = None
    for i in range(t_live + 1, len(metrics)):
        if metrics[i].cumulative > metrics[i - 1].cumulative:
            return f"cumulative error rose at index {i}"
        if t_zero is None and metrics[i].cumulative == 0:
            t_zero = i
    if metrics[t_live].cumulative == 0:
        t_zero = t_live
    if t_zero is None:
        return "cumulative error never reached 0"
    # phase 3: list errors vanish after every member refreshes r - 1 times
    need = trace.initial.r - 1
    members = trace.initial.idents()
    counts = {ident: 0 for ident in members}
    boundary = None
    if need == 0:
        boundary = t_zero
    else:
        for j in range(t_zero, len(trace.records)):
            step = trace.records[j].step
            if step.kind == StepKind.STABILIZE_FROM_SUCCESSOR:
                counts[step.actor] += 1
            if all(count >= need for count in counts.values()):
                boundary = j + 1
                break
    if boundary is None:
        # the run went ideal before the sweep completed; lists were
        # already correct, which "terminates at 0" still requires below
        boundary = len(metrics) - 1
    for i in range(boundary, len(metrics)):
        if any(metrics[i].list_error.values()):
            return f"list error persisted at index {i} (boundary {boundary})"
    if any(metrics[-1].list_error.values()):
        return "list errors never terminated at 0"
    return None


@pytest.fixture(scope="module")
def convergence_battery(exploration):
    reached = []
    for result in exploration["results"].values():
        reached.extend(result.states)
    stride = max(1, ceil(len(reached) / CONVERGE_SAMPLE_CAP))
    sample = reached[::stride][:CONVERGE_SAMPLE_CAP]

    outcome = {
        "sampled": len(sample),
        "converged": 0,
        "not_converged": [],
        "worst_steps": 0,
        "monotonicity_problems": [],
        "replay_mismatches": [],
        "elapsed": 0.0,
        "replay_elapsed": 0.0,
    }
    started = time.perf_counter()
    replay_time = 0.0
    for state in sample:
        trace = converge(state, Schedule(seed=CONVERGE_SEED), step_cap=CONVERGE_STEP_CAP)
        if trace.verdict != "converged":
            outcome["not_converged"].append(state)
            continue
        outcome["converged"] += 1
        outcome["worst_steps"] = max(outcome["worst_steps"], trace.meta["steps_to_ideal"])
        r0 = time.perf_counter()
        try:
            reports = replay(trace)
        except Exception as exc:  # noqa: BLE001 - recorded and reported
            outcome["replay_mismatches"].append((state, repr(exc)))
            outcome["monotonicity_problems"].append((state, "no metrics: replay failed"))
            continue
        finally:
            replay_time += time.perf_counter() - r0
        problem = _monotonicity_problem(trace, reports)
        if problem is not None:
            outcome["monotonicity_problems"].append((state, problem))
    outcome["elapsed"] = time.perf_counter() - started - replay_time
    outcome["replay_elapsed"] = replay_time
    return outcome


def test_c6_convergence(convergence_battery):
    battery = convergence_battery
    assert battery["sampled"] > 0
    assert battery["not_converged"] == [], (
        f"{len(battery['not_converged'])} of {battery['sampled']} states failed to converge"
    )
    assert battery["worst_steps"] <= CONVERGE_STEP_CAP
    assert battery["elapsed"] < 1200.0, f"convergence battery took {battery['elapsed']:.0f}s"
    report(
        f"6/9 convergence ({battery['sampled']} reached states, 100% ideal within "
        f"{CONVERGE_STEP_CAP} steps, worst {battery['worst_steps']}, ideal retained "
        f"one window): PASS in {battery['elapsed']:.0f}s"
    )


def test_c7_error_monotonicity(convergence_battery):
    problems = convergence_battery["monotonicity_problems"]
    assert problems == [], problems[:3]
    report(
        f"7/9 error monotonicity and phase structure over "
        f"{convergence_battery['converged']} converge traces: PASS"
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism and replay


def test_c9_determinism_and_replay(exploration, convergence_battery):
    started = time.perf_counter()
    space = IdSpace(3)
    initial = ideal_ring(space, 2, RING_SIZES[5])
    for seed in range(100):
        first = simulate(initial, Schedule(seed=seed), steps=60, churn="full")
        second = simulate(initial, Schedule(seed=seed), steps=60, churn="full")
        assert [r.digest for r in first.records] == [r.digest for r in second.records], seed
        assert [r.step for r in first.records] == [r.step for r in second.records], seed

    # replay every stored trace: the figure reproductions, any exploration
    # counterexamples (none expected), and the convergence battery (already
    # replayed stream-side; mismatches were recorded there)
    replay(run_fig3())
    replay(run_fig4())
    for result in exploration["results"].values():
        if result.trace is not None:
            replay(result.trace)
    assert convergence_battery["replay_mismatches"] == []
    elapsed = time.perf_counter() - started
    report(
        f"9/9 determinism (100 seeds twice) and replay "
        f"({convergence_battery['converged']} converge traces in "
        f"{convergence_battery['replay_elapsed']:.0f}s, plus both reproductions): "
        f"PASS in {elapsed:.1f}s"
    )
