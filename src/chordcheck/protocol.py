"""The five atomic steps of the ring-maintenance protocol.

Steps are pure state transformers: ``apply_step(state, step)`` returns a
new snapshot and never mutates its input. A stabilize operation spans two
steps; the intermediate state (a captured candidate successor in
``pending_stabilize``) is observable by every other member's steps, which
is exactly the interleaving the shared-state abstraction guarantees.

Each step function defines its kind's effect once, as a delta: the one
member row it replaces, adds or removes, that member's continuation, and
the notification it sends or delivers. A step that leaves its member's
row as it was hands over the row it found. :meth:`GlobalState.derive
<chordcheck.state.GlobalState.derive>` turns the delta into the next
snapshot, splicing into the parent's key only what changes.
:func:`apply_step` unpacks a step once and calls its kind's rule
directly, and a rule builds the row it changes without ``NodeState``'s
Python-level constructor.

The join and fail guards read a member table's mask rows
(:func:`mask_rows`: every fail verdict, the invariant among a fail's
survivors, and the join table; see :class:`MaskRows`), memoized per
``(m, r, members)``, at most :data:`MASK_ROWS_CEILING`, since no guard
reads the pending entries; :func:`invariant_with` gives the invariant
after a stabilize, a rectify or a join, which change one member's row.
A one-entry slot in front of the memo answers a repeat of the last
``members`` tuple object, by identity, so a fail guard and the explorer's
verdict on a step that :func:`enabled_steps` offered do not hash the
table again. The width changes the rows, not only their key: which
non-members an arc that wraps past 0 skips or covers depends on it (the
verdicts do not). A snapshot's own verdicts come from its property
report, not from the rows. The join, fail and stabilize-from-successor
guards test membership on the state's ``mask`` bits.

:func:`enabled_steps`, the fair scheduler and converge's prelude take
one :class:`Step` object per distinct step from :func:`shared_step`'s
bounded memo, so the steps of many states, and the parent links an
exploration keeps, share them.

Joins use an omniscient lookup oracle over the snapshot; the routed
lookup protocol is out of scope here.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .errors import (
    AlreadyMemberError,
    FailUnsafeError,
    NoCandidateError,
    NoPendingNotifyError,
    NoPendingStabilizeError,
    StabilizeInProgressError,
    UnknownMemberError,
)
from .idspace import IdSpace
from .state import GlobalState, NodeState, member_masks


class StepKind(IntEnum):
    JOIN = 0
    FAIL = 1
    STABILIZE_FROM_SUCCESSOR = 2
    STABILIZE_FROM_PREDECESSOR = 3
    RECTIFY = 4


# the kinds, bound once: reading a member off the enum class costs about
# 190 ns under Python 3.11
_JOIN, _FAIL, _FROM_SUCCESSOR, _FROM_PREDECESSOR, _RECTIFY = StepKind


class Step(NamedTuple):
    """One atomic protocol event.

    ``arg`` is the joining member's chosen predecessor for JOIN, the
    notifying identifier for RECTIFY, and the captured candidate successor
    for STABILIZE_FROM_PREDECESSOR; it is None otherwise. ``forced`` is
    meaningful only for FAIL and exists solely for scripted flaw
    reproduction.
    """

    kind: StepKind
    actor: int
    arg: int | None = None
    forced: bool = False


# bounds the memo, which lives as long as the process: one run hands out
# a few hundred distinct steps at most (an m=4 depth-5 exploration 149, a
# 100-round m=6 simulate at most 123 over 40 seeds), but many runs in one
# process, at a wider m, pass through more
STEPS_CEILING = 1024


@lru_cache(maxsize=STEPS_CEILING)
def shared_step(kind: int, actor: int, arg: int | None) -> Step:
    """The one ``Step(StepKind(kind), actor, arg)`` (unforced) that every
    enumeration hands out, keeping the :data:`STEPS_CEILING` most recently
    used: the steps of many states, and the parent links an exploration
    keeps, share one object per distinct step. Pass all three arguments
    positionally, so that equal steps meet one memo entry."""
    return Step(StepKind(kind), actor, arg)


# what each churn policy offers besides the repair steps, in the order
# of the --churn choices
CHURN_POLICIES = {"none": (), "joins_only": (_JOIN,), "fails_only": (_FAIL,),
                  "full": (_JOIN, _FAIL)}


def check_churn(churn: str) -> None:
    """Refuse a churn policy outside :data:`CHURN_POLICIES` with
    ValueError."""
    if not isinstance(churn, str) or churn not in CHURN_POLICIES:  # a list is unhashable
        raise ValueError(f"unknown churn policy {churn!r}")


# the rules build a changed row with this, not ``NodeState(...)``, whose
# Python-level ``__new__`` costs about 330 ns where this costs 150 ns
_tuple_new = tuple.__new__


class MaskRows(NamedTuple):
    """What the invariant reads of one member table (see :func:`mask_rows`).

    ``others[i]`` is the union of the skip masks (see
    :func:`~chordcheck.state.member_masks`) of every member but the i-th,
    in member order, and ``skipped`` the union of all of them.
    ``stranded`` has a bit set for each member with no live entry.
    ``failable`` holds every fail verdict at once: bit x is set iff x is a
    member and the invariant holds for the survivors of x failing, the one
    definition of the verdict that :func:`safely_failable` gives for one
    member and :func:`enabled_steps` reads for all. Failing x strands
    every other member whose only live entry is x, and a member with no
    live entry already is stranded unless it is the one that fails; the
    survivors' skip union is ``others``.

    ``joins`` is the join table: every non-member identifier that some
    member covers (strictly inside the arc from the member to the head of
    its successor list), in ascending order, each followed by its lowest
    covering member, flat: ``(joiner, predecessor, joiner, ...)``. It is
    what :func:`enabled_steps` offers as joins and :func:`lookup_predecessor`
    answers. It is flat because a 2-tuple per joiner would take about 48
    bytes more each, and an m=6 table of the benchmark's simulate holds
    about 59 joiners.
    """

    others: tuple[int, ...]
    skipped: int
    stranded: int
    failable: int
    joins: tuple[int, ...]


def mask_rows(state: GlobalState) -> MaskRows:
    """The mask rows of the members of ``state``, memoized per ``(m, r,
    members)`` (see the module docstring); callers must not mutate them.

    A repeat of the ``members`` tuple object asked last, with the same
    ``m`` and ``r``, is answered from a one-entry slot before the memo
    hashes the tuple: the guard of a fail and the explorer's verdict ask
    for the table that :func:`enabled_steps` has just fetched. The slot
    holds a reference to that tuple, so no other tuple can take its
    identity while it is there."""
    global _last_rows
    members = state.members
    m = state.space.m
    r = state.r
    last = _last_rows
    if members is last[0] and m == last[1] and r == last[2]:
        return last[3]
    rows = _mask_rows(m, r, members)
    _last_rows = (members, m, r, rows)
    return rows


# bounds the rows memo, which lives as long as the process: 1,024 holds
# all 763 tables of an m=4 depth-4 exploration, which ran about 9% slower
# at 256; benchmark peak RSS rose 0.9-1.9 MB at 1,024, 0.1-0.7 MB at 256.
# With its join table an entry holds about 770 bytes at m=4 and 1.6 kB at
# m=6 (590 and 700 bytes without), so a full memo holds 0.8-1.7 MB
MASK_ROWS_CEILING = 1024

# (members, m, r, rows) of the table mask_rows answered last; see there
_last_rows: tuple = (None, 0, 0, None)


@lru_cache(maxsize=MASK_ROWS_CEILING)
def _mask_rows(m: int, r: int, members: tuple[NodeState, ...]) -> MaskRows:
    """One pass over the masks and covering arcs of ``members`` in the
    space of width ``m``, then the prefix and suffix ORs of their skip
    masks, every fail verdict and the join table (see
    :class:`MaskRows`)."""
    space = IdSpace(m)
    arc = space.arc
    live = sum(1 << node.ident for node in members)
    skips = []
    stranded = 0
    candidates = live
    covered = 0
    joiners = []  # (joiner, predecessor)
    for node in members:
        ident = node.ident
        # members come in ascending order, and each claims only what no
        # lower member covers: every joiner gets its lowest covering member
        claimed = arc(ident, node.succ_list[0]) & ~covered
        covered |= claimed
        claimed &= ~live
        while claimed:
            low = claimed & -claimed
            joiners.append((low.bit_length() - 1, ident))
            claimed ^= low
        skipped, entries = member_masks(space, node)
        skips.append(skipped)
        heads = entries & live
        own = 1 << ident
        if not heads:
            stranded |= own
            candidates &= own  # already stranded: only its own fail unstrands it
        elif heads & (heads - 1) == 0 and heads != own:
            candidates &= ~heads  # its one live entry is another member
    after = [0] * (len(skips) + 1)
    for i in range(len(skips) - 1, -1, -1):
        after[i] = after[i + 1] | skips[i]
    others = []
    before = 0
    for i, skipped in enumerate(skips):
        others.append(before | after[i + 1])
        before |= skipped
    failable = 0
    if candidates:
        required = r + 1
        for node, other in zip(members, others):
            own = 1 << node.ident
            if candidates & own and (live & ~own & ~other).bit_count() >= required:
                failable |= own
    joiners.sort()
    joins = tuple(chain.from_iterable(joiners))
    return MaskRows(tuple(others), after[0], stranded, failable, joins)


def invariant_with(state: GlobalState, node: NodeState) -> bool:
    """The invariant of ``state`` with ``node`` in place of the member with
    its identifier, or added as a new member if there is none, whatever
    the pending entries: the verdict on the state a stabilize, a rectify
    or a join leaves, where only the actor's row changes. Read from the
    rows of the members of ``state`` (see :func:`mask_rows`) and the new
    row's masks, without computing the post-state's rows."""
    rows = mask_rows(state)
    space = state.space
    skipped, entries = member_masks(space, node)
    live = state.mask
    own = 1 << node.ident
    stranded = rows.stranded & ~own
    if live & own:
        skipped |= rows.others[(live & (own - 1)).bit_count()]
    else:
        live |= own
        skipped |= rows.skipped
        todo = stranded
        while todo:
            # the joiner is live from now on: a stranded member listing it is not
            low = todo & -todo
            todo ^= low
            if member_masks(space, state.node(low.bit_length() - 1))[1] & own:
                stranded ^= low
    if stranded or not entries & live:
        return False
    return (live & ~skipped).bit_count() > state.r


def lookup_predecessor(state: GlobalState, joiner: int) -> int:
    """Find a member p with ``between(p, joiner, head(p.succ_list))``.

    Omniscient oracle: the lowest such member wins, so results are
    deterministic. Read from the join table of the members' mask rows
    (see :class:`MaskRows`), which :func:`enabled_steps` reads too. Raises NoCandidateError when no
    member covers the joiner (possible in corrupted states; surfaced,
    never silently patched).
    """
    if joiner >= 0 and state.mask >> joiner & 1:
        raise AlreadyMemberError(f"identifier {joiner} is already a member")
    joins = mask_rows(state).joins
    for i in range(0, len(joins), 2):
        if joins[i] == joiner:
            return joins[i + 1]
    raise NoCandidateError(f"no member covers identifier {joiner}")


def step_join(state: GlobalState, joiner: int, new_prdc: int) -> GlobalState:
    """Join: copy the chosen predecessor's successor list and adopt it as
    predecessor. If the chosen predecessor has died, the join aborts and
    the state is unchanged (the node must retry later)."""
    mask = state.mask
    if not 0 <= joiner < state.space.size:
        raise NoCandidateError(f"identifier {joiner} is outside the identifier space")
    if mask >> joiner & 1:
        raise AlreadyMemberError(f"identifier {joiner} is already a member")
    if new_prdc is None:
        raise ValueError(f"a join of {joiner} needs a predecessor identifier, got None")
    if new_prdc < 0 or not mask >> new_prdc & 1:
        return state  # abort: chosen predecessor died before the step
    # a member's position in ``members`` is the count of lower members
    target = state.members[(mask & ((1 << new_prdc) - 1)).bit_count()]
    return state.derive(joiner, _tuple_new(NodeState, (joiner, new_prdc, target.succ_list)))


def step_fail(state: GlobalState, member: int, forced: bool = False) -> GlobalState:
    """Fail: the member deletes its state and ceases to respond.

    An unforced fail must respect both operating assumptions, which keep
    the invariant inductive: the survivors satisfy the invariant (see
    :func:`safely_failable`), so no member is left without a live
    successor and at least r + 1 members stay principal. ``forced`` exists
    solely to script flaw reproductions that violate them deliberately.
    """
    if member < 0 or not state.mask >> member & 1:
        raise UnknownMemberError(f"identifier {member} is not a member")
    if not forced and not safely_failable(state, member):
        raise FailUnsafeError(
            f"fail of {member} would leave a member with no live successor "
            f"or fewer than r + 1 = {state.r + 1} principal members"
        )
    return state.derive(member)


def step_stabilize_from_successor(state: GlobalState, member: int) -> GlobalState:
    """First step of a stabilize operation.

    Dead head: drop it, pad the tail with one past the last real entry,
    and stay due for another stabilize (the operation is not complete, so
    no notification is sent). Live head: adopt its list (all but the last
    entry) behind it, then test its predecessor; a strictly better
    candidate is captured for the follow-up step, otherwise the operation
    completes and the successor is notified.
    """
    mask = state.mask
    if member < 0 or not mask >> member & 1:
        raise UnknownMemberError(f"identifier {member} is not a member")
    if state.pending_stabilize_for(member) is not None:
        raise StabilizeInProgressError(
            f"member {member} has a stabilize in flight and cannot start another"
        )
    members = state.members
    # a member's position in ``members`` is the count of lower members
    node = members[(mask & ((1 << member) - 1)).bit_count()]
    succ_list = node.succ_list
    head = succ_list[0]
    if not mask >> head & 1:
        padded = succ_list[1:] + (state.space.next_ident(succ_list[-1]),)
        return state.derive(member, _tuple_new(NodeState, (member, node.prdc, padded)))
    head_node = members[(mask & ((1 << head) - 1)).bit_count()]
    adopted = (head,) + head_node.succ_list[:-1]
    if adopted != succ_list:
        node = _tuple_new(NodeState, (member, node.prdc, adopted))
    candidate = head_node.prdc
    if state.space.between(member, candidate, head):
        return state.derive(member, node, candidate)
    return state.derive(member, node, sent=(head, member))


def step_stabilize_from_predecessor(state: GlobalState, member: int) -> GlobalState:
    """Second step of a stabilize operation: adopt the captured candidate
    if it is live, then notify the (possibly new) successor either way."""
    candidate = state.pending_stabilize_for(member)
    if candidate is None:
        raise NoPendingStabilizeError(f"member {member} has no stabilize in flight")
    node = state.node(member)
    cand_node = state.get(candidate)
    if cand_node is not None:
        adopted = (candidate,) + cand_node.succ_list[:-1]
        if adopted != node.succ_list:
            node = _tuple_new(NodeState, (member, node.prdc, adopted))
    return state.derive(member, node, sent=(node.succ_list[0], member))


def step_rectify(state: GlobalState, member: int, new_prdc: int) -> GlobalState:
    """Deliver a notification: the member adopts the notifier as its
    predecessor if the notifier is closer in identifier order, or if the
    current predecessor is dead. The closer-notifier branch presumes the
    notifier live, so a stale notification can install a dead predecessor.
    Notifications to dead members are dropped without effect."""
    entry = (member, new_prdc)
    if entry not in state.pending_notify:
        raise NoPendingNotifyError(f"no pending notification ({member}, {new_prdc})")
    node = state.get(member)
    if node is not None and (state.space.between(node.prdc, new_prdc, member)
                             or not state.is_member(node.prdc)):
        node = _tuple_new(NodeState, (member, new_prdc, node.succ_list))
    # a dead target has no row (None), so only the notification goes
    return state.derive(member, node, state.pending_stabilize_for(member), delivered=entry)


def apply_step(state: GlobalState, step: Step) -> GlobalState:
    """Apply one atomic step: call its kind's rule with the step's fields.
    A kind that is not a ``StepKind`` member (a plain integer too) raises
    ValueError. A STABILIZE_FROM_PREDECESSOR whose argument names another
    candidate than the one its member captured raises
    NoPendingStabilizeError."""
    kind, actor, arg, forced = step
    if kind.__class__ is not StepKind:
        raise ValueError(f"unknown step kind {kind!r}")
    if kind is _JOIN:
        return step_join(state, actor, arg)
    if kind is _FROM_SUCCESSOR:
        return step_stabilize_from_successor(state, actor)
    if kind is _FAIL:
        return step_fail(state, actor, forced)
    if kind is _RECTIFY:
        return step_rectify(state, actor, arg)
    if arg is not None:
        expected = state.pending_stabilize_for(actor)
        if expected is not None and arg != expected:
            raise NoPendingStabilizeError(f"member {actor} captured {expected}, not {arg}")
    return step_stabilize_from_predecessor(state, actor)


def safely_failable(state: GlobalState, member: int) -> bool:
    """Whether an unforced fail of ``member`` respects both operating
    assumptions: the invariant holds among the survivors, so nobody is
    left without a live successor and at least r + 1 members stay
    principal. This is the guard of one fail in :func:`step_fail`, read
    from the ``failable`` row of the members' mask rows (see
    :class:`MaskRows`), the one definition of every
    fail verdict, which is computed once per member table: when
    :func:`enabled_steps` has fetched the rows, the guard finds them in
    the last-table slot."""
    return mask_rows(state).failable >> member & 1 == 1


def enabled_steps(state: GlobalState, churn: str = "full") -> list[Step]:
    """Every step whose preconditions hold, in canonical order.

    Every non-member identifier that some member covers joins, in
    ascending order, at the predecessor :func:`lookup_predecessor` would
    pick; a candidate no member covers gets no step. Unforced fails are
    offered only for safely-failable members (see
    :func:`safely_failable`). Both are read from the members' mask rows
    (see :class:`MaskRows`), computed once per
    member table, so a state whose table was met before pays one lookup
    for its joins and fails. The list is deterministic for a given state
    and churn policy, and is built in canonical order (by kind, then
    actor, then argument, a missing argument first), so it is never
    sorted. Each step is :func:`shared_step`'s one object for it.
    """
    check_churn(churn)
    churned = CHURN_POLICIES[churn]
    step = shared_step
    steps: list[Step] = []
    rows = mask_rows(state) if churned else None

    if _JOIN in churned:
        kind = _JOIN
        joins = iter(rows.joins)
        for ident, target in zip(joins, joins):
            steps.append(step(kind, ident, target))

    if _FAIL in churned:
        kind = _FAIL
        failable = rows.failable
        for node in state.members:
            if failable >> node.ident & 1:
                steps.append(step(kind, node.ident, None))

    kind = _FROM_SUCCESSOR
    blocked = {member for member, _ in state.pending_stabilize}
    for node in state.members:
        if node.ident not in blocked:
            steps.append(step(kind, node.ident, None))
    kind = _FROM_PREDECESSOR
    for member, candidate in state.pending_stabilize:
        steps.append(step(kind, member, candidate))
    kind = _RECTIFY
    for target, new_prdc in state.pending_notify:
        if state.is_member(target):
            steps.append(step(kind, target, new_prdc))
    return steps
