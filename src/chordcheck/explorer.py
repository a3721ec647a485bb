"""Bounded exhaustive exploration, fair randomized simulation, convergence
checking, and trace replay.

Exploration is breadth-first so the first violating trace found is also a
minimal-length counterexample; no shrinking pass is needed. States are
deduplicated by packed key (``GlobalState.key``, one integer per
canonical snapshot), and the visited set keeps only those keys: every
visited state can be traced back to the initial state through recorded
parent links from key to key, and a state is decoded from its key when
it is expanded.

The simulator is deterministic for a given seed. Fairness is a hard
window constraint, not a probabilistic property: the scheduler forces the
most-overdue member to stabilize before its idle time can exceed the
window, and force-delivers notifications older than one window, so a
non-convergence verdict is always a real finding.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import InvalidInitialStateError, ProtocolError, ReplayMismatchError
from .idspace import IdSpace
from .properties import (
    PropertyReport,
    check_all,
    error_metric,
    invariant_holds,
    invariant_with,
    valid_initial,
)
from .protocol import Step, StepKind, apply_step, check_churn, enabled_steps, shared_step
from .state import GlobalState, NodeState


def state_digest(state: GlobalState) -> str:
    """Stable content digest of a snapshot: the sha256 of the ASCII text
    ``repr((m, r, members, pending_stabilize, pending_notify))``.

    Digests are memoized for the process under ``(m, r, key)``, at most
    :data:`DIGESTS_CEILING` of them, dropping the oldest first: most
    records of a run repeat a state it has already digested, and a replay
    digests exactly its run's states. The key holds ``m`` and ``r`` because
    the packed key alone does not tell every space and ``r`` apart (the
    empty m=3 network packs to 256 at every ``r``). The memo holds only
    digests computed from snapshots, never one read from a trace.

    On a miss the text is assembled from one memoized text per member
    (:func:`_member_text`), so a step that changes one member formats at
    most that member anew; ``m``, ``r`` and the pending tuples are
    formatted per call. A member's text is the ``repr`` of its
    :class:`NodeState` with integer fields, and the members are joined as
    a tuple's ``repr`` joins them (a lone member keeps its trailing
    comma), so the text, and every digest, is the one the literal
    ``repr`` gives.
    """
    key = (state.space.m, state.r, state.key)
    digest = _digests.get(key)
    if digest is None:
        if len(_digests) >= DIGESTS_CEILING:
            del _digests[next(iter(_digests))]
        digest = _digests[key] = _digest(state)
    return digest


def _digest(state: GlobalState) -> str:
    """The digest of ``state``, from its members' texts (see
    :func:`state_digest`)."""
    members = ", ".join(map(_member_text, state.members))
    if len(state.members) == 1:
        members += ","
    text = (f"({state.space.m!r}, {state.r!r}, ({members}), "
            f"{state.pending_stabilize!r}, {state.pending_notify!r})")
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# bounds the digest memo, which lives as long as the process. It must hold
# one run's distinct states: read in run order, a FIFO memo that a run
# overflows evicts exactly what an in-process replay of that run needs
# next. A converge runs up to step_cap (200) records plus a window, a
# 100-round m=6 simulate at most 100; at m=6 an entry takes about 300
# bytes, so a full memo holds several runs in about 0.3 MB. It stays a
# dict because its cheapest key is (m, r, key), three integers: an
# lru_cache could key it only by the snapshot, through GlobalState's
# Python-level __hash__ and __eq__, and holds the snapshots alive; that
# ran simulate_m6 no faster (x0.97-x1.02) with 0.3-0.9 MB more peak RSS
DIGESTS_CEILING = 1024

# (m, r, key) -> digest, oldest first
_digests: dict[tuple[int, int, int], str] = {}


# bounds the memo, which lives as long as the process: one trace and its
# replay format a few hundred distinct members
MEMBER_TEXTS_CEILING = 1024


@lru_cache(maxsize=MEMBER_TEXTS_CEILING)
def _member_text(node: NodeState) -> str:
    """``repr(node)`` with every field formatted as an integer, so that
    members that compare equal (``True`` and ``1``) give one text whichever
    the memo saw first."""
    entries = ", ".join(f"{entry:d}" for entry in node.succ_list)
    if len(node.succ_list) == 1:
        entries += ","
    return f"NodeState(ident={node.ident:d}, prdc={node.prdc:d}, succ_list=({entries}))"


class TraceRecord(NamedTuple):
    index: int
    step: Step
    digest: str
    flags: dict[str, bool]
    cumulative_error: int


@dataclass
class Trace:
    """Replayable record of one run: the initial snapshot and, per step,
    the resulting state digest, property flags, and cumulative pointer
    error. ``seed_state``/``prelude`` are present when the run normalized
    in-flight messages before measuring (see ``converge``)."""

    initial: GlobalState
    records: list[TraceRecord]
    verdict: str
    kind: str
    meta: dict = field(default_factory=dict)
    seed_state: GlobalState | None = None
    prelude: list[TraceRecord] = field(default_factory=list)

    def final_state(self) -> GlobalState:
        state = self.initial
        for rec in self.records:
            state = apply_step(state, rec.step)
        return state


def _record(index: int, step: Step, state: GlobalState) -> tuple[TraceRecord, PropertyReport]:
    """The trace record of one resulting state, and its property report."""
    report = check_all(state)
    # positional: a keyword call costs about twice as much, and every
    # record of a run and of its replay is built here
    record = TraceRecord(index, step, state_digest(state), dict(report.flags),
                         report.metric.cumulative)
    return record, report


_KINDS = ("script", "repro", "explore", "simulate", "converge")
# the kinds whose traces can say ``ok`` are told apart by these meta entries
_MARKS = {"script": set(), "simulate": {"steps_requested"}, "repro": {"violates"}}


def _outcome(kind: str, meta: dict, records: list[TraceRecord], initial: GlobalState,
             final: GlobalState) -> tuple[str, dict]:
    """The verdict of a trace of ``kind`` with these records, from
    ``initial`` to ``final``, and the meta entries derived with it; the one
    rule of each kind, applied by every writer and by :func:`replay`.

    - ``script``: ``ok``.
    - ``simulate``: ``ok``; the run stops after ``meta["steps_requested"]``
      records, or sooner only when ``final`` has no member, the one state
      in which the fair scheduler finds no step.
    - ``repro``: ``ok`` if the last record violates the flag that
      ``meta["violates"]`` names, else ``unexpected-pass``.
    - ``explore``: ``invariant-violated``; the last record must violate the
      invariant and every earlier record satisfy it.
    - ``converge``: ``steps_to_ideal`` is 0 when ``initial`` is ideal, else
      one past the first ideal record, else None; ``converged`` iff it is
      set and every record from there on is ideal, else ``not-converged``.
      The run stops after ``meta["step_cap"]`` records if it never
      becomes ideal, at the end of the retention window
      (``steps_to_ideal + meta["fairness_window"]`` records) if it
      converges, and otherwise at the first record that leaves ideal.

    The kinds that can say ``ok`` are told apart by their meta: of the
    entries ``violates`` and ``steps_requested``, a repro trace carries the
    first, a simulate trace the second and a script trace neither.

    A trace that no rule judges (an unknown kind, meta that does not mark
    its kind, a repro trace whose ``violates`` names no flag, an explore
    trace that is no counterexample, a simulate or converge trace of
    another length than its run stops at) raises
    :class:`ReplayMismatchError`.
    """
    marks = _MARKS.get(kind)
    if marks is not None and marks != meta.keys() & {"violates", "steps_requested"}:
        raise ReplayMismatchError(f"the meta of a {kind} trace must carry exactly {sorted(marks)} "
                                  "of 'violates' and 'steps_requested'")
    if kind == "script":
        return "ok", {}
    if kind == "simulate":
        requested = meta["steps_requested"]
        if type(requested) is not int or not (
                len(records) == requested or len(records) < requested and not final.live_count):
            raise ReplayMismatchError(
                f"a simulate trace with steps_requested {requested!r} has {len(records)} "
                "records, and its final state has members")
        return "ok", {}
    if kind == "repro":
        violates = meta.get("violates")
        if not records or type(violates) is not str or violates not in records[-1].flags:
            raise ReplayMismatchError(
                f"a repro trace's meta 'violates' must name a flag of its last record, "
                f"got {violates!r}")
        return "unexpected-pass" if records[-1].flags[violates] else "ok", {}
    if kind == "explore":
        holds = [rec.flags["invariant"] for rec in records]
        if not holds or holds[-1] or not all(holds[:-1]):
            raise ReplayMismatchError(
                "an explore trace must end at its first record that violates the invariant")
        return "invariant-violated", {}
    if kind == "converge":
        ideal = [rec.flags["ideal"] for rec in records]
        if error_metric(initial).ideal:
            steps_to_ideal = 0
        else:
            steps_to_ideal = ideal.index(True) + 1 if True in ideal else None
        converged = steps_to_ideal is not None and all(ideal[steps_to_ideal:])
        if steps_to_ideal is None:
            expected = meta.get("step_cap")
        elif converged:
            window = meta.get("fairness_window")
            expected = steps_to_ideal + window if type(window) is int else window
        else:
            expected = ideal.index(False, steps_to_ideal) + 1
        if type(expected) is not int or len(records) != expected:
            raise ReplayMismatchError(
                f"a converge trace with steps_to_ideal {steps_to_ideal!r} has {len(records)} "
                f"records; its run stops after {expected!r}")
        return "converged" if converged else "not-converged", {"steps_to_ideal": steps_to_ideal}
    raise ReplayMismatchError(f"unknown trace kind {kind!r}; expected one of {list(_KINDS)}")


def _trace(kind: str, initial: GlobalState, records: list[TraceRecord], final: GlobalState,
           meta: dict, **fields) -> Trace:
    """A writer's trace, with the verdict and derived meta of
    :func:`_outcome`; ``fields`` are the other :class:`Trace` fields."""
    verdict, derived = _outcome(kind, meta, records, initial, final)
    return Trace(initial=initial, records=records, verdict=verdict, kind=kind,
                 meta={**meta, **derived}, **fields)


def run_script(
    initial: GlobalState,
    steps: Iterable[Step],
    kind: str = "script",
    meta: dict | None = None,
) -> Trace:
    """Apply a fixed step sequence, recording each resulting state; the
    verdict is ``kind``'s (see :func:`_outcome`)."""
    records = []
    state = initial
    for i, step in enumerate(steps):
        state = apply_step(state, step)
        records.append(_record(i, step, state)[0])
    return _trace(kind, initial, records, state, meta or {})


# -- bounded breadth-first exploration ---------------------------------------


@dataclass(frozen=True)
class ExploreConfig:
    max_depth: int = 6
    max_states: int = 1_000_000
    churn: str = "full"
    require_valid_initial: bool = True
    collect_states: bool = False

    def __post_init__(self) -> None:
        if self.max_depth < 0 or self.max_states < 1:
            raise ValueError("max_depth must be >= 0 and max_states positive")
        check_churn(self.churn)


Parents = dict[int, tuple[int, Step] | None]


class VisitedStates(Sequence[GlobalState]):
    """The visited states of one exploration, in BFS order, held as their
    packed keys and decoded with :meth:`GlobalState.from_key` when read.

    Indexing (negative indices too) gives a snapshot, a slice gives a list
    of snapshots, and iteration decodes one key at a time; decoded
    snapshots share their equal members through the decode memo. Two
    views are equal when their space, ``r`` and keys are.
    """

    __slots__ = ("space", "r", "keys")

    def __init__(self, space: IdSpace, r: int, keys: Iterable[int]):
        self.space = space
        self.r = r
        self.keys = list(keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: int | slice) -> GlobalState | list[GlobalState]:
        if isinstance(index, slice):
            return [GlobalState.from_key(self.space, self.r, key) for key in self.keys[index]]
        return GlobalState.from_key(self.space, self.r, self.keys[index])

    def __iter__(self) -> Iterator[GlobalState]:
        space, r = self.space, self.r
        for key in self.keys:
            yield GlobalState.from_key(space, r, key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VisitedStates):
            return NotImplemented
        return (self.space, self.r, self.keys) == (other.space, other.r, other.keys)

    def __repr__(self) -> str:
        return f"VisitedStates(space={self.space!r}, r={self.r!r}, {len(self.keys)} keys)"


@dataclass
class ExploreResult:
    """The verdict and counts of one exploration.

    With ``collect_states``, ``states`` holds every visited snapshot in BFS
    order, decoded on access (:class:`VisitedStates`), and ``parents`` maps
    each visited state's packed key (``GlobalState.key``) to its parent's
    key and the step taken from there, or to None for the initial state.
    """

    verdict: str  # ok | invariant-violated | cap-hit
    states_visited: int
    transitions: int
    depth_reached: int
    frontier_size: int
    trace: Trace | None = None
    states: Sequence[GlobalState] | None = None  # BFS order, when collect_states
    parents: Parents | None = None  # key -> (parent key, step) | None, when collect_states

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


TransitionHook = Callable[[GlobalState, Step, GlobalState], None]


def _path(parents: Parents, key: int) -> list[Step]:
    """The steps that lead from the initial state to the state with
    ``key``."""
    path: list[Step] = []
    while parents[key] is not None:
        key, step = parents[key]
        path.append(step)
    path.reverse()
    return path


def explore(
    initial: GlobalState,
    cfg: ExploreConfig | None = None,
    on_transition: TransitionHook | None = None,
) -> ExploreResult:
    """Breadth-first search over atomic-step interleavings.

    Checks the invariant on every distinct post-state, when it is first
    reached, and returns the first (hence minimal) violating trace, else a
    summary. The root's verdict is the ``invariant`` flag of its
    :func:`~chordcheck.properties.check_all` report; a post-state's is
    read from the expanded state's memoized mask rows (see
    :func:`~chordcheck.properties.mask_rows`): the guard of an
    unforced fail has already found it among the survivors, and every
    other step changes only its actor's row (:func:`invariant_with`). A
    post-state that keeps its parent's ``members`` tuple (see
    :meth:`~chordcheck.state.GlobalState.derive`) differs only in pending
    entries, which no conjunct reads, so it inherits the verdict of its
    parent, checked when it was reached; only a root that violates the
    invariant, which ``require_valid_initial=False`` admits, has none to
    hand on. A transition to a state already visited, and so already
    checked, is counted but not checked again; ``on_transition(pre, step,
    post)`` still sees every transition. Reaching the visited-state cap,
    which the root alone does for a cap of 1, yields an inconclusive
    ``cap-hit`` verdict, never success.

    The visited set and the frontier hold packed keys, not snapshots; a
    frontier state is decoded when it is expanded. With
    ``collect_states``, ``parents`` holds the links from key to parent key,
    and ``states`` is a view over its keys in BFS order that decodes each
    state on access; no snapshot is kept.
    """
    cfg = cfg or ExploreConfig()
    if cfg.require_valid_initial and not valid_initial(initial):
        raise InvalidInitialStateError(
            "initial state is not a valid initial network "
            "(invariant must hold and no repair traffic may be in flight)"
        )
    space, r, root = initial.space, initial.r, initial.key
    parents: Parents = {root: None}
    # every other visited state passed the check when it was reached; the
    # initial state did only if it satisfies the invariant, which
    # require_valid_initial=False leaves open
    initial_checked = invariant_holds(initial)
    fail = StepKind.FAIL
    frontier: list[int] = [root]
    transitions = 0
    depth = 0
    capped = len(parents) >= cfg.max_states
    trace = None
    while frontier and depth < cfg.max_depth and not capped and trace is None:
        next_frontier: list[int] = []
        for key in frontier:
            state = GlobalState.from_key(space, r, key)
            for step in enabled_steps(state, churn=cfg.churn):
                post = apply_step(state, step)
                transitions += 1
                post_key = post.key
                if on_transition is not None:
                    on_transition(state, step, post)
                if post_key in parents and (initial_checked or post_key != root):
                    continue
                # enabled_steps offers only unforced fails, and step_fail's
                # guard has just found the invariant among the survivors;
                # every other step it offers leaves its actor a member, and
                # one that keeps the parent's members keeps its verdict,
                # which only a violating root has not passed
                if (step.kind != fail
                        and (post.members is not state.members
                             or not initial_checked and key == root)
                        and not invariant_with(state, post.node(step.actor))):
                    trace = run_script(initial, _path(parents, key) + [step], kind="explore")
                    break
                parents[post_key] = (key, step)
                next_frontier.append(post_key)
                if len(parents) >= cfg.max_states:
                    capped = True
                    break
            if capped or trace is not None:
                break
        depth += 1
        frontier = next_frontier
    verdict = "invariant-violated" if trace is not None else "cap-hit" if capped else "ok"
    return ExploreResult(
        verdict=verdict,
        states_visited=len(parents),
        transitions=transitions,
        depth_reached=depth,
        frontier_size=len(frontier),
        trace=trace,
        states=VisitedStates(space, r, parents) if cfg.collect_states else None,
        parents=parents if cfg.collect_states else None,
    )


# -- fair randomized simulation ----------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Seeded, fairness-window-respecting scheduling policy.

    Every member performs a stabilize step within every
    ``fairness_window`` scheduler rounds, and undelivered notifications
    are force-delivered once they are a window old. The window defaults to
    twice the live member count at the start of the run and must be at
    least the live member count; windows below twice the member count
    leave little or no round capacity for message delivery and churn.
    """

    seed: int
    fairness_window: int | None = None

    def window_for(self, state: GlobalState) -> int:
        window = self.fairness_window
        if window is None:
            window = 2 * max(1, state.live_count)
        if window < state.live_count:
            raise ValueError(
                f"fairness window {window} is smaller than the live member count "
                f"{state.live_count}"
            )
        return window


# the kinds that restamp their actor's clock
_STABILIZES = (StepKind.STABILIZE_FROM_SUCCESSOR, StepKind.STABILIZE_FROM_PREDECESSOR)


class _FairScheduler:
    """Picks one enabled step per round, forcing overdue repair work.

    Members are scheduled deadline-first: a member whose idle time reaches
    window - 1 stabilizes this round. Initial idle times are staggered and
    at most one member resets per round, so deadlines never collide and no
    member's gap between stabilizes can exceed the window. Rounds without
    a deadline deliver over-age notifications first, then fall back to a
    seeded random choice over everything enabled. Only that last branch
    enumerates the enabled steps.

    Idle times and notification ages are read off round clocks: ``round``
    counts the rounds accounted, ``stamps`` holds the round in which each
    member last stabilized or appeared, and ``born`` the round in which
    each pending notification appeared, so an idle time or an age is
    ``round`` less its stamp. ``stamps`` is rebuilt only when the member
    mask changes, ``born`` only when the notifications do, and a stabilize
    restamps its actor; the oldest stamp is the deadline member, lowest
    identifier first.
    """

    def __init__(self, state: GlobalState, schedule: Schedule, churn: str):
        self.rng = random.Random(schedule.seed)
        self.window = schedule.window_for(state)
        self.churn = churn
        self.round = 0
        self.mask = state.mask
        self.stamps = {ident: -i for i, ident in enumerate(state.idents())}
        self.notify = state.pending_notify
        self.born = dict.fromkeys(state.pending_notify, 0)

    def _stabilize_step(self, state: GlobalState, member: int) -> Step:
        candidate = state.pending_stabilize_for(member)
        if candidate is not None:
            return shared_step(StepKind.STABILIZE_FROM_PREDECESSOR, member, candidate)
        return shared_step(StepKind.STABILIZE_FROM_SUCCESSOR, member, None)

    def pick(self, state: GlobalState) -> Step | None:
        """This round's step, or None when no step is enabled.

        Some step is enabled exactly when some member is live: each live
        member can start a stabilize or finish the one it has in flight.
        So the deadline and notification rounds need no enumeration, and
        the seeded random draw, the one consumer of the enabled list,
        draws from a list that is never empty.
        """
        if not state.live_count:
            return None
        oldest = min(self.stamps.values())
        if self.round - oldest >= self.window - 1:
            member = min(m for m, stamp in self.stamps.items() if stamp == oldest)
            return self._stabilize_step(state, member)
        if self.born and self.round - min(self.born.values()) >= self.window:
            due = self.round - self.window
            stale = [e for e, born in self.born.items() if born <= due
                     and state.is_member(e[0])]
            if stale:
                target, new_prdc = min(stale)
                return shared_step(StepKind.RECTIFY, target, new_prdc)
        return self.rng.choice(enabled_steps(state, churn=self.churn))

    def account(self, step: Step, post: GlobalState) -> None:
        self.round += 1
        if post.mask != self.mask:
            self.mask = post.mask
            self.stamps = {ident: self.stamps.get(ident, self.round) for ident in post.idents()}
        if step.kind in _STABILIZES:
            self.stamps[step.actor] = self.round
        if post.pending_notify != self.notify:
            self.notify = post.pending_notify
            self.born = {entry: self.born.get(entry, self.round) for entry in post.pending_notify}


def simulate(
    initial: GlobalState,
    schedule: Schedule,
    steps: int,
    churn: str = "full",
) -> Trace:
    """Run a pseudorandom, fairness-window-respecting interleaving.

    Deterministic for a given seed. The churn policy decides whether joins
    and unforced fails are offered to the scheduler.
    """
    check_churn(churn)
    if type(steps) is not int:  # a bool is no count
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not valid_initial(initial):
        raise InvalidInitialStateError("initial state is not a valid initial network")
    sched = _FairScheduler(initial, schedule, churn)
    state = initial
    records = []
    for i in range(steps):
        step = sched.pick(state)
        if step is None:
            break
        state = apply_step(state, step)
        sched.account(step, state)
        records.append(_record(i, step, state)[0])
    meta = {"seed": schedule.seed, "fairness_window": sched.window, "churn": churn,
            "steps_requested": steps}
    return _trace("simulate", initial, records, state, meta)


def _drain_prelude(state: GlobalState) -> tuple[GlobalState, list[TraceRecord]]:
    """Deliver the seed state's in-flight continuations and notifications.

    Messages queued before a churn-free run began may reference nodes that
    have since died; delivering them mid-measurement could legally install
    a dead predecessor. Draining them first makes the monotonicity and
    remains-ideal claims hold over the measured records.
    """
    records = []
    index = 0
    for member, candidate in state.pending_stabilize:
        step = shared_step(StepKind.STABILIZE_FROM_PREDECESSOR, member, candidate)
        state = apply_step(state, step)
        records.append(_record(index, step, state)[0])
        index += 1
    for target, new_prdc in sorted(state.pending_notify):
        if not state.is_member(target):
            continue
        step = shared_step(StepKind.RECTIFY, target, new_prdc)
        state = apply_step(state, step)
        records.append(_record(index, step, state)[0])
        index += 1
    return state, records


def converge(
    initial: GlobalState,
    schedule: Schedule,
    step_cap: int = 200,
) -> Trace:
    """Churn-free fair run until the network is ideal, plus a retention
    window verifying it stays ideal.

    The seed state must satisfy the invariant (mid-operation states with
    repair traffic in flight are accepted; the traffic is drained first
    and recorded as the trace prelude). Records carry the full property
    flags and the cumulative pointer error; each step's full error metric
    is in the report :func:`replay` returns for its record.
    """
    if type(step_cap) is not int:  # a bool is no count
        raise ValueError(f"step_cap must be an integer, got {step_cap!r}")
    if step_cap < 0:
        raise ValueError(f"step_cap must be >= 0, got {step_cap}")
    if not invariant_holds(initial):
        raise InvalidInitialStateError("convergence requires the invariant to hold")
    start, prelude = _drain_prelude(initial)
    sched = _FairScheduler(start, schedule, churn="none")
    records: list[TraceRecord] = []
    ideal = error_metric(start).ideal
    # until ideal, run up to step_cap steps; from then on, one more window
    limit = sched.window if ideal else step_cap
    state = start
    index = 0
    while index < limit:
        step = sched.pick(state)
        if step is None:
            break
        state = apply_step(state, step)
        sched.account(step, state)
        record = _record(index, step, state)[0]
        records.append(record)
        index += 1
        if not ideal and record.flags["ideal"]:
            ideal = True
            limit = index + sched.window
        elif ideal and not record.flags["ideal"]:
            break
    meta = {"seed": schedule.seed, "fairness_window": sched.window, "step_cap": step_cap}
    return _trace("converge", start, records, state, meta,
                  seed_state=initial if prelude else None, prelude=prelude)


def replay(trace: Trace) -> list:
    """Re-execute a trace and re-derive every record with the writer's own
    :func:`_record`, so no flag is taken from the run that wrote the trace.
    Each member table's report comes from :func:`check_all`'s memo, which
    holds only reports derived from member tables, never a value read from
    a trace: a replay may find the report its run derived, and still
    compares every record with it. Likewise a state's digest may come
    from :func:`state_digest`'s memo, which holds only digests computed
    from snapshots, never one read from a trace, so every recorded digest
    is compared with one derived from the state the replay reached. The
    verdict, and the meta derived with it (a converge trace's
    ``steps_to_ideal``), are re-derived by the writers' one rule,
    :func:`_outcome`, so a trace of unknown kind, and a simulate or
    converge trace cut short or run on, is refused. Only a converge trace
    may carry a prelude.

    A mismatch is a hard error: it means the trace does not describe the
    run it claims to (serialization drift, version skew, or tampering).
    Returns the per-step property reports.
    """
    if trace.prelude:
        if trace.kind != "converge":
            raise ReplayMismatchError(f"a {trace.kind} trace carries a prelude; "
                                      "only a converge trace has one")
        if trace.seed_state is None:
            raise ReplayMismatchError("trace has a prelude but no seed state")
        state, _ = _rederive(trace.seed_state, trace.prelude, "prelude")
        if state != trace.initial:
            raise ReplayMismatchError("prelude does not reproduce the initial state")
    final, reports = _rederive(trace.initial, trace.records, "records")
    verdict, derived = _outcome(trace.kind, trace.meta, trace.records, trace.initial, final)
    for key, value in derived.items():
        recorded = trace.meta.get(key)
        # exact types: a recorded true or 9.0 is not the integer 1 or 9
        if recorded != value or type(recorded) is not type(value):
            raise ReplayMismatchError(
                f"{key} {recorded!r} != {value!r} re-derived from the records")
    if trace.verdict != verdict:
        raise ReplayMismatchError(
            f"verdict {trace.verdict!r} != {verdict!r} re-derived from the records")
    return reports


# the fields of a record that replay derives (it copies the index and step)
_FIELD_LABELS = {"digest": "state digest", "flags": "property flags",
                 "cumulative_error": "cumulative error"}


def _rederive(state: GlobalState, recs: list[TraceRecord], where: str) -> tuple[GlobalState, list]:
    """Apply the steps of ``recs`` to ``state`` and check that each record
    is the one :func:`_record` gives; the final state and the reports. A
    step that the state refuses is a mismatch too: the trace does not
    describe a run from its own start."""
    reports = []
    for rec in recs:
        try:
            state = apply_step(state, rec.step)
        except ProtocolError as exc:
            raise ReplayMismatchError(f"{where}[{rec.index}]: step refused: {exc}") from None
        record, report = _record(rec.index, rec.step, state)
        if record != rec:
            name = next(f for f, a, b in zip(rec._fields, record, rec) if a != b)
            raise ReplayMismatchError(
                f"{where}[{rec.index}]: {_FIELD_LABELS[name]} {getattr(record, name)!r} "
                f"!= recorded {getattr(rec, name)!r}")
        reports.append(report)
    return state, reports
