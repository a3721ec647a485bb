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
Python-level constructor. The fail guard reads the state's fail
verdicts, and the joins read the state's join table, both kept in the
member table's mask rows (:func:`~chordcheck.properties.mask_rows`),
computed once per member table; the guard of a fail that
:func:`enabled_steps` offered finds them in the rows' last-table slot,
without hashing the table again. The join, fail and
stabilize-from-successor guards test membership on the state's ``mask``
bits.

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
from .properties import failable_mask, mask_rows
from .state import GlobalState, NodeState


class StepKind(IntEnum):
    JOIN = 0
    FAIL = 1
    STABILIZE_FROM_SUCCESSOR = 2
    STABILIZE_FROM_PREDECESSOR = 3
    RECTIFY = 4


# the kinds, bound once: reading a member off the enum class costs about
# 190 ns under Python 3.11
_KINDS = tuple(StepKind)
_JOIN, _FAIL, _FROM_SUCCESSOR, _FROM_PREDECESSOR, _RECTIFY = _KINDS


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

    def sort_key(self) -> tuple[int, int, int]:
        return (int(self.kind), self.actor, -1 if self.arg is None else self.arg)


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


CHURN_POLICIES = ("none", "joins_only", "fails_only", "full")


def check_churn(churn: str) -> None:
    """Refuse a churn policy outside :data:`CHURN_POLICIES` with
    ValueError."""
    if churn not in CHURN_POLICIES:
        raise ValueError(f"unknown churn policy {churn!r}")


# the rules build a changed row with this, not ``NodeState(...)``, whose
# Python-level ``__new__`` costs about 330 ns where this costs 150 ns
_tuple_new = tuple.__new__


def lookup_predecessor(state: GlobalState, joiner: int) -> int:
    """Find a member p with ``between(p, joiner, head(p.succ_list))``.

    Omniscient oracle: the lowest such member wins, so results are
    deterministic. Read from the join table of the members' mask rows
    (see :class:`~chordcheck.properties.MaskRows`), which
    :func:`enabled_steps` reads too. Raises NoCandidateError when no
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
    A kind that is not an integer in the range of ``StepKind`` raises
    ValueError; a plain integer in that range names the kind of its value.
    A STABILIZE_FROM_PREDECESSOR whose argument names another candidate
    than the one its member captured raises NoPendingStabilizeError."""
    kind, actor, arg, forced = step
    if kind.__class__ is not StepKind:
        if not (isinstance(kind, int) and 0 <= kind < len(_KINDS)):
            raise ValueError(f"unknown step kind {kind!r}")
        kind = _KINDS[kind]
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
    from :func:`~chordcheck.properties.failable_mask`, the one definition
    of every fail verdict, which is computed once per member table: when
    :func:`enabled_steps` has asked it, the guard costs a lookup."""
    return failable_mask(state) >> member & 1 == 1


def enabled_steps(state: GlobalState, churn: str = "full") -> list[Step]:
    """Every step whose preconditions hold, in canonical order.

    Every non-member identifier that some member covers joins, in
    ascending order, at the predecessor :func:`lookup_predecessor` would
    pick; a candidate no member covers gets no step. Unforced fails are
    offered only for safely-failable members (see
    :func:`~chordcheck.properties.failable_mask`). Both are read from the
    members' mask rows (see :class:`~chordcheck.properties.MaskRows`),
    computed once per member table, so a state whose table was met
    before pays one lookup for its joins and fails. The list is
    deterministic for a given state and churn policy, and is built in
    ``Step.sort_key`` order (by kind, then actor, then argument), so it is
    never sorted. Each step is :func:`shared_step`'s one object for it.
    """
    check_churn(churn)
    step = shared_step
    steps: list[Step] = []
    rows = None if churn == "none" else mask_rows(state)

    if churn in ("joins_only", "full"):
        kind = _JOIN
        joins = iter(rows.joins)
        for ident, target in zip(joins, joins):
            steps.append(step(kind, ident, target))

    if churn in ("fails_only", "full"):
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
