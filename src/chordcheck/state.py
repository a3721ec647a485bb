"""Per-node protocol state and structural queries over a global snapshot.

Liveness is membership: an identifier is live exactly when it keys the
``members`` table of a snapshot. Successor lists may reference dead or
never-seen identifiers; that is legal protocol state, and repairing it
is the protocol's job, not the data model's.

A :class:`GlobalState` is an immutable value of a slotted class. Its
members and pending entries are kept sorted, and it carries an integer
bitmask of its member identifiers (bit ``i`` set iff ``i`` is live) and
a hash computed once, when it is built. Steps produce new snapshots;
snapshots can be hashed, compared, and used as dictionary keys. The
public constructor validates and sorts its input; ``evolve`` and the
``with_*``/``without_*`` updates build the next snapshot directly in
canonical order from one that already is.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, NamedTuple

from .errors import UnknownMemberError
from .idspace import IdSpace


class NodeState(NamedTuple):
    """One member's protocol variables: its identity, predecessor pointer,
    and fixed-length successor list."""

    ident: int
    prdc: int
    succ_list: tuple[int, ...]


def _check_list_length(node: NodeState, r: int) -> None:
    if len(node.succ_list) != r:
        raise ValueError(
            f"member {node.ident} has a successor list of length "
            f"{len(node.succ_list)}, expected exactly r={r}"
        )


class _Fields:
    """The slot layout of a snapshot, writable. A derived snapshot is
    filled in as one of these and then frozen into a :class:`GlobalState`
    by a class swap, which costs far less than ``object.__setattr__`` per
    field."""

    __slots__ = ("space", "r", "members", "pending_stabilize", "pending_notify", "mask", "_hash")


class GlobalState(_Fields):
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

    ``mask`` has bit ``i`` set exactly when ``i`` is a member.
    """

    __slots__ = ()

    def __init__(
        self,
        space: IdSpace,
        r: int,
        members: Iterable[NodeState],
        pending_stabilize: Iterable[tuple[int, int]] = (),
        pending_notify: Iterable[tuple[int, int]] = (),
    ) -> None:
        if r < 1:
            raise ValueError(f"successor list length r must be >= 1, got {r}")
        members = tuple(sorted(members))
        size = space.size
        mask = 0
        for node in members:
            _check_list_length(node, r)
            if not all(0 <= i < size for i in (node.ident, node.prdc, *node.succ_list)):
                raise ValueError(f"member {node.ident} holds an identifier outside [0, {size})")
            if mask >> node.ident & 1:
                raise ValueError(f"duplicate member identifier {node.ident}")
            mask |= 1 << node.ident
        pending_stabilize = tuple(sorted(pending_stabilize))
        pending_notify = tuple(sorted(pending_notify))
        if not all(0 <= i < size for entry in pending_stabilize + pending_notify for i in entry):
            raise ValueError(f"a pending entry holds an identifier outside [0, {size})")
        values = (space, r, members, pending_stabilize, pending_notify, mask,
                  hash((r, members, pending_stabilize, pending_notify)))
        for name, value in zip(_Fields.__slots__, values):
            object.__setattr__(self, name, value)

    def _derive(
        self,
        members: tuple[NodeState, ...],
        pending_stabilize: tuple[tuple[int, int], ...],
        pending_notify: tuple[tuple[int, int], ...],
        mask: int,
    ) -> GlobalState:
        """A snapshot with this one's space and r and the given fields,
        which the caller guarantees are canonical: no validation, no sort."""
        new = object.__new__(_Fields)
        new.space = self.space
        new.r = r = self.r
        new.members = members
        new.pending_stabilize = pending_stabilize
        new.pending_notify = pending_notify
        new.mask = mask
        new._hash = hash((r, members, pending_stabilize, pending_notify))
        new.__class__ = GlobalState
        return new

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GlobalState is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GlobalState is immutable; cannot delete {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalState):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.members == other.members
            and self.pending_stabilize == other.pending_stabilize
            and self.pending_notify == other.pending_notify
            and self.r == other.r
            and self.space == other.space
        )

    def __repr__(self) -> str:
        return (
            f"GlobalState(space={self.space!r}, r={self.r!r}, members={self.members!r}, "
            f"pending_stabilize={self.pending_stabilize!r}, "
            f"pending_notify={self.pending_notify!r})"
        )

    def __reduce__(self):
        return (GlobalState, (self.space, self.r, self.members,
                              self.pending_stabilize, self.pending_notify))

    # -- membership queries ------------------------------------------------

    def is_member(self, ident: int) -> bool:
        return ident >= 0 and self.mask >> ident & 1 == 1

    def get(self, ident: int) -> NodeState | None:
        mask = self.mask
        if ident < 0 or not mask >> ident & 1:
            return None
        # a member's position in ``members`` is the count of lower members
        return self.members[(mask & ((1 << ident) - 1)).bit_count()]

    def node(self, ident: int) -> NodeState:
        mask = self.mask
        if ident < 0 or not mask >> ident & 1:
            raise UnknownMemberError(f"identifier {ident} is not a member")
        return self.members[(mask & ((1 << ident) - 1)).bit_count()]

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

    def evolve(
        self,
        node: NodeState | None = None,
        pending_stabilize: tuple[tuple[int, int], ...] | None = None,
        pending_notify: tuple[tuple[int, int], ...] | None = None,
    ) -> GlobalState:
        """The next snapshot, built once: ``node`` added or put in place of
        the member with its identifier, and the given pending tuples, which
        the caller keeps sorted, in place of this snapshot's."""
        members = self.members
        mask = self.mask
        if node is not None:
            ident = node.ident
            i = (mask & ((1 << ident) - 1)).bit_count()
            members = members[:i] + (node,) + members[i + (mask >> ident & 1):]
            mask |= 1 << ident
        return self._derive(
            members,
            self.pending_stabilize if pending_stabilize is None else pending_stabilize,
            self.pending_notify if pending_notify is None else pending_notify,
            mask,
        )

    def with_node(self, node: NodeState) -> GlobalState:
        """Add ``node``, or replace the member with its identifier."""
        _check_list_length(node, self.r)
        return self.evolve(node)

    def without_member(self, ident: int) -> GlobalState:
        """Drop the member, the continuation it owns and the notifications
        that target it."""
        members = self.members
        mask = self.mask
        if self.is_member(ident):
            i = (mask & ((1 << ident) - 1)).bit_count()
            members = members[:i] + members[i + 1:]
            mask &= ~(1 << ident)
        return self._derive(
            members,
            tuple(e for e in self.pending_stabilize if e[0] != ident),
            tuple(e for e in self.pending_notify if e[0] != ident),
            mask,
        )

    def with_notify(self, target: int, new_prdc: int) -> GlobalState:
        entries = with_entry(self.pending_notify, (target, new_prdc))
        return self if entries is self.pending_notify else self.evolve(pending_notify=entries)


def with_entry(entries: tuple[tuple[int, int], ...], entry: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """A sorted tuple of pending entries with ``entry`` added; the same
    tuple if it is already there (duplicates collapse)."""
    if entry in entries:
        return entries
    grown = list(entries)
    insort(grown, entry)
    return tuple(grown)


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


def ideal_ring(space: IdSpace, r: int, idents: Iterable[int]) -> GlobalState:
    """An ideal network over the given members: every pointer globally
    correct and no repair traffic in flight. Each member lists the next
    ``r`` members in clockwise order (cycling when fewer than ``r`` others
    exist) and points back at the nearest member counterclockwise."""
    ring = sorted(idents)
    n = len(ring)
    return GlobalState(space, r, (
        NodeState(ident, ring[pos - 1], tuple(ring[(pos + 1 + j) % n] for j in range(r)))
        for pos, ident in enumerate(ring)
    ))


# -- derived structure ------------------------------------------------------


def esl(state: GlobalState, member: int) -> tuple[int, ...]:
    """The member's extended successor list: its own identifier prepended
    to its successor list (length r + 1)."""
    node = state.node(member)
    return (node.ident,) + node.succ_list


def best_successors(state: GlobalState) -> dict[int, int | None]:
    """Every member's best successor, keyed in ascending identifier order:
    the first live entry of its successor list, or None if every entry is
    dead (a state that violates OneLiveSuccessor but must remain
    representable for flaw reproduction)."""
    mask = state.mask
    table: dict[int, int | None] = {}
    for node in state.members:
        for entry in node.succ_list:
            if mask >> entry & 1:
                break
        else:
            entry = None
        table[node.ident] = entry
    return table


def skipped_mask(space: IdSpace, members: Iterable[NodeState]) -> int:
    """The identifiers skipped by the extended successor lists of
    ``members``, as a bitmask.

    An identifier p is skipped when some ESL has a contiguous pair (x, y)
    with ``between(x, p, y)``. Padding entries synthesized during
    stabilization count as ordinary entries. The mask is the union of the
    arc masks of every contiguous ESL pair, so each pair costs one mask
    operation rather than one ``between`` test per member.
    """
    arc = space.arc
    skipped = 0
    for node in members:
        x = node.ident
        for y in node.succ_list:
            skipped |= arc(x, y)
            x = y
    return skipped


def principals(state: GlobalState) -> frozenset[int]:
    """Members not skipped by any extended successor list (see
    :func:`skipped_mask`)."""
    skipped = skipped_mask(state.space, state.members)
    return frozenset(node.ident for node in state.members if not skipped >> node.ident & 1)


def cycle_members(succ: dict[int, int | None]) -> frozenset[int]:
    """The members on cycles of a best-successor table (see
    :func:`best_successors`): the ones that reach themselves."""
    ring: set[int] = set()
    done: set[int] = set()
    for start in succ:
        walk: dict[int, None] = {}  # this chain's members, in order
        cur = start
        while cur is not None and cur not in done and cur not in walk:
            walk[cur] = None
            cur = succ[cur]
        if cur in walk:
            # the chain closed on itself: the part from ``cur`` on is a cycle
            chain = list(walk)
            ring.update(chain[chain.index(cur):])
        done.update(walk)
    return frozenset(ring)


def ring_members(state: GlobalState) -> frozenset[int]:
    """Members that reach themselves by following best successors.

    A chain that hits a member with no live successor classifies its start
    as an appendage; so does a chain that enters a cycle elsewhere.
    """
    return cycle_members(best_successors(state))


def appendage_members(state: GlobalState) -> frozenset[int]:
    """Members that are not ring members."""
    return frozenset(state.idents()) - ring_members(state)
