"""Per-node protocol state and structural queries over a global snapshot.

Liveness is membership: an identifier is live exactly when it keys the
``members`` table of a snapshot. Successor lists may reference dead or
never-seen identifiers; that is legal protocol state, and repairing it
is the protocol's job, not the data model's.

A :class:`GlobalState` is an immutable value. Steps produce new
snapshots; snapshots can be hashed, compared, and used as dictionary
keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Sequence

from .errors import UnknownMemberError
from .idspace import IdSpace


class NodeState(NamedTuple):
    """One member's protocol variables: its identity, predecessor pointer,
    and fixed-length successor list."""

    ident: int
    prdc: int
    succ_list: tuple[int, ...]


@dataclass(frozen=True)
class GlobalState:
    """Snapshot of every member plus in-flight repair messages.

    ``pending_stabilize`` maps a member to the candidate successor it
    captured in a stabilize-from-successor step; the entry lives until the
    follow-up stabilize-from-predecessor step consumes it or the member
    fails. While it exists, the member cannot begin another stabilize.

    ``pending_notify`` holds undelivered ``(target, new_prdc)``
    notifications as a set: at-most-once, unordered, arbitrarily delayed.
    Duplicates collapse. Entries survive the death of ``new_prdc`` (a
    stale notification is deliverable); entries targeting a member are
    discarded when that member fails.
    """

    space: IdSpace
    r: int
    members: tuple[NodeState, ...]
    pending_stabilize: tuple[tuple[int, int], ...] = ()
    pending_notify: tuple[tuple[int, int], ...] = ()
    _by_ident: dict = field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"successor list length r must be >= 1, got {self.r}")
        members = tuple(sorted(self.members))
        by_ident = {}
        for node in members:
            if len(node.succ_list) != self.r:
                raise ValueError(
                    f"member {node.ident} has a successor list of length "
                    f"{len(node.succ_list)}, expected exactly r={self.r}"
                )
            if node.ident in by_ident:
                raise ValueError(f"duplicate member identifier {node.ident}")
            by_ident[node.ident] = node
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "pending_stabilize", tuple(sorted(self.pending_stabilize)))
        object.__setattr__(self, "pending_notify", tuple(sorted(self.pending_notify)))
        object.__setattr__(self, "_by_ident", by_ident)

    # -- membership queries ------------------------------------------------

    def is_member(self, ident: int) -> bool:
        return ident in self._by_ident

    def get(self, ident: int) -> NodeState | None:
        return self._by_ident.get(ident)

    def node(self, ident: int) -> NodeState:
        node = self._by_ident.get(ident)
        if node is None:
            raise UnknownMemberError(f"identifier {ident} is not a member")
        return node

    def idents(self) -> tuple[int, ...]:
        """Member identifiers in ascending order."""
        return tuple(node.ident for node in self.members)

    @property
    def live_count(self) -> int:
        return len(self.members)

    def pending_stabilize_for(self, ident: int) -> int | None:
        for member, new_succ in self.pending_stabilize:
            if member == ident:
                return new_succ
        return None

    # -- functional updates (used by the protocol steps) --------------------

    def with_node(self, node: NodeState) -> GlobalState:
        others = tuple(n for n in self.members if n.ident != node.ident)
        return replace(self, members=others + (node,))

    def without_member(self, ident: int) -> GlobalState:
        return replace(
            self,
            members=tuple(n for n in self.members if n.ident != ident),
            pending_stabilize=tuple(e for e in self.pending_stabilize if e[0] != ident),
            pending_notify=tuple(e for e in self.pending_notify if e[0] != ident),
        )

    def with_pending_stabilize(self, member: int, new_succ: int) -> GlobalState:
        entries = tuple(e for e in self.pending_stabilize if e[0] != member)
        return replace(self, pending_stabilize=entries + ((member, new_succ),))

    def without_pending_stabilize(self, member: int) -> GlobalState:
        return replace(
            self,
            pending_stabilize=tuple(e for e in self.pending_stabilize if e[0] != member),
        )

    def with_notify(self, target: int, new_prdc: int) -> GlobalState:
        entry = (target, new_prdc)
        if entry in self.pending_notify:
            return self
        return replace(self, pending_notify=self.pending_notify + (entry,))

    def without_notify(self, target: int, new_prdc: int) -> GlobalState:
        return replace(
            self,
            pending_notify=tuple(e for e in self.pending_notify if e != (target, new_prdc)),
        )


def make_state(
    space: IdSpace,
    r: int,
    nodes: Iterable[tuple[int, int, Iterable[int]]],
    pending_stabilize: Iterable[tuple[int, int]] = (),
    pending_notify: Iterable[tuple[int, int]] = (),
) -> GlobalState:
    """Build a snapshot from ``(ident, prdc, succ_list)`` triples."""
    members = tuple(NodeState(i, p, tuple(sl)) for i, p, sl in nodes)
    return GlobalState(space, r, members, tuple(pending_stabilize), tuple(pending_notify))


def ideal_nodes(r: int, ring: Sequence[int]) -> tuple[NodeState, ...]:
    """Every member's globally correct pointers, one node per entry of the
    ascending identifier sequence ``ring``: the next ``r`` members in
    clockwise order (cycling when fewer than ``r`` others exist) and the
    nearest member counterclockwise."""
    n = len(ring)
    return tuple(
        NodeState(ident, ring[pos - 1], tuple(ring[(pos + 1 + j) % n] for j in range(r)))
        for pos, ident in enumerate(ring)
    )


def correct_succ_list(space: IdSpace, r: int, live: Iterable[int], ident: int) -> tuple[int, ...]:
    """The globally correct successor list: the next ``r`` live members in
    clockwise identifier order, cycling when fewer than ``r`` others exist."""
    ring = sorted(live)
    return ideal_nodes(r, ring)[ring.index(ident)].succ_list


def correct_predecessor(space: IdSpace, live: Iterable[int], ident: int) -> int:
    """The globally correct predecessor: the nearest live member in
    counterclockwise identifier order."""
    ring = sorted(live)
    return ideal_nodes(1, ring)[ring.index(ident)].prdc


def ideal_ring(space: IdSpace, r: int, idents: Iterable[int]) -> GlobalState:
    """An ideal network over the given members: every pointer globally
    correct and no repair traffic in flight."""
    return GlobalState(space, r, ideal_nodes(r, sorted(idents)))


# -- derived structure ------------------------------------------------------


def esl(state: GlobalState, member: int) -> tuple[int, ...]:
    """The member's extended successor list: its own identifier prepended
    to its successor list (length r + 1)."""
    node = state.node(member)
    return (node.ident,) + node.succ_list


def best_successor(state: GlobalState, member: int) -> int | None:
    """First live entry of the member's successor list; None if every entry
    is dead (a state that violates OneLiveSuccessor but must remain
    representable for flaw reproduction)."""
    node = state.node(member)
    for entry in node.succ_list:
        if entry in state._by_ident:
            return entry
    return None


def principals(state: GlobalState) -> frozenset[int]:
    """Members not skipped by any extended successor list.

    A member p is skipped when some ESL has a contiguous pair (x, y) with
    ``between(x, p, y)``. Padding entries synthesized during stabilization
    count as ordinary entries.
    """
    between = state.space.between
    idents = [node.ident for node in state.members]
    skipped: set[int] = set()
    for node in state.members:
        x = node.ident
        for y in node.succ_list:
            for p in idents:
                if p not in skipped and between(x, p, y):
                    skipped.add(p)
            x = y
    return frozenset(p for p in idents if p not in skipped)


def ring_members(state: GlobalState) -> frozenset[int]:
    """Members that reach themselves by following best successors.

    A chain that hits a member with no live successor classifies its start
    as an appendage; so does a chain that enters a cycle elsewhere.
    """
    ring: set[int] = set()
    for start in state.idents():
        if start in ring:
            continue
        seen: set[int] = set()
        cur = start
        while cur not in seen:
            seen.add(cur)
            nxt = best_successor(state, cur)
            if nxt is None:
                break
            cur = nxt
            if cur == start:
                # everything on this cycle reaches itself
                ring.update(seen)
                break
    return frozenset(ring)


def appendage_members(state: GlobalState) -> frozenset[int]:
    """Members that are not ring members."""
    return frozenset(state.idents()) - ring_members(state)
