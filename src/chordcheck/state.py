"""Per-node protocol state and structural queries over a global snapshot.

Liveness is membership: an identifier is live exactly when it keys the
``members`` table of a snapshot. Successor lists may reference dead or
never-seen identifiers; that is legal protocol state, and repairing it
is the protocol's job, not the data model's.

A :class:`GlobalState` is an immutable value of a slotted class. Its
members and pending entries are kept sorted, and it carries an integer
bitmask of its member identifiers (bit ``i`` set iff ``i`` is live) and
one canonical integer ``key`` that packs the whole snapshot. Hash and
equality come from ``key`` (with ``space`` and ``r``), so snapshots can
be hashed, compared and used as dictionary keys, and a visited set can
hold the keys alone: :meth:`GlobalState.from_key` decodes one back.

With ``m`` bits per identifier, ``key`` holds, from the lowest bit up:

- the member mask, ``2**m`` bits;
- per member in ascending order, one field of ``(r + 2) * m + 1`` bits:
  its ``prdc``, then its ``r`` successor-list entries, then a flag bit
  that is set when the member has a stabilize in flight, then that
  continuation's candidate (0 when the flag is clear);
- the sorted pending notifications, ``2 * m`` bits each (target, then
  new predecessor), under a sentinel bit, so that a trailing ``(0, 0)``
  entry still counts.

Steps produce new snapshots. The public constructor validates and sorts
its input and packs the key. Every other snapshot is made by
:meth:`GlobalState.derive` from a step's delta (the one member row it
replaces, adds or removes, that member's continuation, and the
notification sent or delivered): it builds the next snapshot directly in
canonical order from one that already is, and splices into the parent's
key only what the delta changes. Changed list bits are XORed in, and so
are continuation bits, read from the key and compared with the delta's;
a joining member's field is shifted in, a failing member's shifted out,
and the notification a step sends or delivers is shifted in or out at
its sorted position, as are the notifications that target a failing
member; nothing is packed anew. A row equal to the member's own leaves
the parent's ``members`` tuple in place, and a pending tuple that a step
leaves alone is the parent's own. ``with_node`` is a delta too.

A snapshot is a plain value and keeps nothing derived from it: what is
derived from members is memoized by value under a named ceiling (decoded
key fields here, skip masks in :func:`member_masks`, mask rows in
:func:`~chordcheck.properties.mask_rows`), so every snapshot with equal
members shares one entry.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import UnknownMemberError
from .idspace import IdSpace


class NodeState(NamedTuple):
    """One member's protocol variables: its identity, predecessor pointer,
    and fixed-length successor list."""

    ident: int
    prdc: int
    succ_list: tuple[int, ...]


def _check_node(node: NodeState, r: int, size: int) -> None:
    if len(node.succ_list) != r:
        raise ValueError(
            f"member {node.ident} has a successor list of length "
            f"{len(node.succ_list)}, expected exactly r={r}"
        )
    if not all(0 <= i < size for i in (node.ident, node.prdc, *node.succ_list)):
        raise ValueError(f"member {node.ident} holds an identifier outside [0, {size})")


def _pack_lists(node: NodeState, m: int) -> int:
    """A member's ``prdc`` and successor-list entries, ``m`` bits each:
    the low ``(r + 1) * m`` bits of its key field."""
    bits = node.prdc
    shift = m
    for entry in node.succ_list:
        bits |= entry << shift
        shift += m
    return bits


def _spliced_in(key: int, at: int, width: int, bits: int) -> int:
    """``key`` with ``bits``, ``width`` bits wide, put in at bit ``at``;
    the bits from ``at`` up move up by ``width``."""
    return (key >> at << width | bits) << at | key & ((1 << at) - 1)


def _spliced_out(key: int, at: int, width: int) -> int:
    """``key`` without its ``width`` bits from bit ``at``; the bits above
    them move down by ``width``."""
    return key >> (at + width) << at | key & ((1 << at) - 1)


# bounds the decode memo, which lives as long as the process: an m=4
# exploration decodes 76, 174 and 256 distinct fields at depths 4, 5, 6;
# a ceiling of 128 saved no measurable peak RSS in the benchmark
DECODED_FIELDS_CEILING = 1024


@lru_cache(maxsize=DECODED_FIELDS_CEILING)
def _decode_field(ident: int, field: int, m: int, r: int) -> tuple[NodeState, int | None]:
    """A member and its continuation's candidate (or None), from its key
    field, memoized so that snapshots share equal members; a field that no
    member has raises ValueError on every call."""
    ids = (1 << m) - 1
    continuation = field >> (r + 1) * m
    if continuation and not continuation & 1:
        raise ValueError(f"member {ident}: a candidate without its continuation flag")
    node = NodeState(ident, field & ids, tuple(field >> j * m & ids for j in range(1, r + 1)))
    return node, continuation >> 1 if continuation else None


class _Fields:
    """The slot layout of a snapshot, writable. A derived snapshot is
    filled in as one of these and then frozen into a :class:`GlobalState`
    by a class swap, which costs far less than ``object.__setattr__`` per
    field. Every slot is part of the value."""

    __slots__ = ("space", "r", "members", "pending_stabilize", "pending_notify", "mask", "key")


def _frozen(
    space: IdSpace,
    r: int,
    members: tuple[NodeState, ...],
    pending_stabilize: tuple[tuple[int, int], ...],
    pending_notify: tuple[tuple[int, int], ...],
    mask: int,
    key: int,
) -> GlobalState:
    """A snapshot of the given fields, which the caller guarantees are
    canonical and agree with ``mask`` and ``key``: no validation, no sort."""
    new = object.__new__(_Fields)
    new.space = space
    new.r = r
    new.members = members
    new.pending_stabilize = pending_stabilize
    new.pending_notify = pending_notify
    new.mask = mask
    new.key = key
    new.__class__ = GlobalState
    return new


class GlobalState(_Fields):
    """Snapshot of every member plus in-flight repair messages.

    ``pending_stabilize`` maps a member to the candidate successor it
    captured in a stabilize-from-successor step; the entry lives until the
    follow-up stabilize-from-predecessor step consumes it or the member
    fails. While it exists, the member cannot begin another stabilize, so
    a member owns at most one entry, and only a member owns one.

    ``pending_notify`` holds undelivered ``(target, new_prdc)``
    notifications as a set: at-most-once, unordered, arbitrarily delayed.
    Duplicates collapse. Entries survive the death of ``new_prdc`` (a
    stale notification is deliverable); entries targeting a member are
    discarded when that member fails.

    ``mask`` has bit ``i`` set exactly when ``i`` is a member. ``key`` is
    the packed snapshot (see the module docstring): two snapshots of one
    space and ``r`` are equal exactly when their keys are. A snapshot
    holds nothing else; what is derived from it is memoized by value (see
    the module docstring).
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
        if type(r) is not int:  # a bool is no length
            raise ValueError(f"successor list length r must be an integer, got {r!r}")
        if r < 1:
            raise ValueError(f"successor list length r must be >= 1, got {r}")
        members = tuple(sorted(members))
        size = space.size
        mask = 0
        for node in members:
            _check_node(node, r, size)
            if mask >> node.ident & 1:
                raise ValueError(f"duplicate member identifier {node.ident}")
            mask |= 1 << node.ident
        pending_stabilize = tuple(sorted(pending_stabilize))
        pending_notify = tuple(sorted(set(pending_notify)))  # duplicates collapse
        if not all(0 <= i < size for entry in pending_stabilize + pending_notify for i in entry):
            raise ValueError(f"a pending entry holds an identifier outside [0, {size})")
        candidates = dict(pending_stabilize)
        if len(candidates) != len(pending_stabilize):
            raise ValueError("a member owns more than one stabilize in flight")
        if not all(mask >> owner & 1 for owner in candidates):
            raise ValueError("a stabilize in flight is owned by a non-member")
        m = space.m
        lists = (r + 1) * m
        key = mask
        at = size
        for node in members:
            field = _pack_lists(node, m)
            if node.ident in candidates:
                field |= (1 | candidates[node.ident] << 1) << lists
            key |= field << at
            at += lists + 1 + m
        for target, new_prdc in pending_notify:
            key |= (target | new_prdc << m) << at
            at += 2 * m
        key |= 1 << at  # the sentinel
        values = (space, r, members, pending_stabilize, pending_notify, mask, key)
        for name, value in zip(_Fields.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def from_key(cls, space: IdSpace, r: int, key: int) -> GlobalState:
        """Decode the ``key`` of a snapshot of this ``space`` and ``r`` back
        into that snapshot. Each member field is decoded through a memo
        (:func:`_decode_field`), so snapshots decoded in any call share
        their equal members. Raises ValueError on a key that no snapshot
        has."""
        m = space.m
        size = space.size
        width = (r + 2) * m + 1
        field_mask = (1 << width) - 1
        mask = key & ((1 << size) - 1)
        rest = key >> size
        members = []
        pending_stabilize = []
        todo = mask
        while todo:
            low = todo & -todo
            todo ^= low
            ident = low.bit_length() - 1
            node, candidate = _decode_field(ident, rest & field_mask, m, r)
            rest >>= width
            members.append(node)
            if candidate is not None:
                pending_stabilize.append((ident, candidate))
        ids = (1 << m) - 1
        pending_notify = []
        while rest > 1:
            pending_notify.append((rest & ids, rest >> m & ids))
            rest >>= 2 * m
        if rest != 1 or pending_notify != sorted(pending_notify):
            raise ValueError("not the key of a snapshot: bad notification bits")
        return _frozen(space, r, tuple(members), tuple(pending_stabilize),
                       tuple(pending_notify), mask, key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GlobalState is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GlobalState is immutable; cannot delete {name!r}")

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalState):
            return NotImplemented
        return self.key == other.key and self.r == other.r and self.space == other.space

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

    def derive(
        self,
        ident: int,
        node: NodeState | None = None,
        candidate: int | None = None,
        sent: tuple[int, int] | None = None,
        delivered: tuple[int, int] | None = None,
    ) -> GlobalState:
        """The snapshot a step with this delta makes of this one, built once.

        ``node``, when given, is member ``ident``'s row after the step, put
        in place of its old row or added (a join), and ``candidate`` its
        continuation (None: none in flight). A None ``node`` means that
        ``ident`` leaves, with its continuation and the notifications that
        target it (for a non-member no row changes), and takes no
        ``candidate``. ``sent`` is a notification the step adds (duplicates
        collapse), ``delivered`` one it removes.

        Only what differs from this snapshot is spliced: ``ident``'s list
        bits when ``node`` differs from its row (an equal row keeps this
        snapshot's ``members``), its continuation bits and entry when
        ``candidate`` differs from the one its key field holds, and the
        ``2 * m`` bits of each notification added or removed, at its sorted
        position; a step that sends, delivers and drops no notification
        does not look at that section. A tuple that does not change is
        this snapshot's own. The new snapshot is filled in place, as
        :func:`_frozen` fills one, without validation or sort.
        """
        space = self.space
        members = self.members
        mask = self.mask
        key = self.key
        stabilize = self.pending_stabilize
        notify = self.pending_notify
        m = space.m
        lists = (self.r + 1) * m
        width = lists + 1 + m
        own = 1 << ident
        i = (mask & (own - 1)).bit_count()
        at = space.size + i * width
        held = 0  # the continuation bits of ident's key field: flag, then candidate
        if mask & own:
            field = key >> at & ((1 << width) - 1)
            held = field >> lists
            if node is None:
                members = members[:i] + members[i + 1:]
                mask ^= own
                # its field spliced out, and its bit cleared
                key = (key >> (at + width) << at | key & ((1 << at) - 1)) ^ own
                if notify:
                    # the notifications that target it sit together, from j to k
                    j = bisect_left(notify, (ident,))
                    k = bisect_left(notify, (ident + 1,), j)
                    if j < k:
                        notify = notify[:j] + notify[k:]
                        key = _spliced_out(key, space.size + len(members) * width + j * 2 * m,
                                           (k - j) * 2 * m)
            elif node is not members[i] and node != members[i]:
                members = members[:i] + (node,) + members[i + 1:]
                key ^= (field & ((1 << lists) - 1) ^ _pack_lists(node, m)) << at
        elif node is not None:
            members = members[:i] + (node,) + members[i:]
            mask |= own
            key = _spliced_in(key, at, width, _pack_lists(node, m)) | own
        cont = 0 if node is None or candidate is None else 1 | candidate << 1
        if cont != held:
            if node is not None:
                key ^= (held ^ cont) << at + lists
            # the member's entry, if it holds one, is stabilize[j]
            j = bisect_left(stabilize, (ident,))
            entry = ((ident, candidate),) if cont else ()
            stabilize = stabilize[:j] + entry + stabilize[j + (held != 0):]
        if delivered is not None or sent is not None:
            # the notification bits begin above the member fields, 2 * m bits per entry
            base = space.size + len(members) * width
            pair = 2 * m
            if delivered is not None:
                j = bisect_left(notify, delivered)
                if notify[j:j + 1] == (delivered,):
                    notify = notify[:j] + notify[j + 1:]
                    key = _spliced_out(key, base + j * pair, pair)
            if sent is not None:
                j = bisect_left(notify, sent)
                if notify[j:j + 1] != (sent,):
                    notify = notify[:j] + (sent,) + notify[j:]
                    key = _spliced_in(key, base + j * pair, pair, sent[0] | sent[1] << m)
        # filled in place, as _frozen does, without its call
        new = object.__new__(_Fields)
        new.space = space
        new.r = self.r
        new.members = members
        new.pending_stabilize = stabilize
        new.pending_notify = notify
        new.mask = mask
        new.key = key
        new.__class__ = GlobalState
        return new

    def with_node(self, node: NodeState) -> GlobalState:
        """Add ``node``, or replace the member with its identifier, keeping
        that member's continuation. No step calls it; acceptance criterion
        2 builds its random states with it, one checked row at a time."""
        _check_node(node, self.r, self.space.size)
        return self.derive(node.ident, node, self.pending_stabilize_for(node.ident))


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


def first_live(node: NodeState, mask: int) -> int | None:
    """The member's first successor-list entry that is live under ``mask``
    (bit ``i`` set iff ``i`` is live), or None if every entry is dead."""
    for entry in node.succ_list:
        if mask >> entry & 1:
            return entry
    return None


def best_successors(state: GlobalState) -> dict[int, int | None]:
    """Every member's best successor, keyed in ascending identifier order:
    the first live entry of its successor list, or None if every entry is
    dead (a state that violates OneLiveSuccessor but must remain
    representable for flaw reproduction)."""
    mask = state.mask
    return {node.ident: first_live(node, mask) for node in state.members}


# bounds the memo, which lives as long as the process: one run uses a few
# hundred entries (an m=4 depth-5 exploration, 106), but many runs in one
# process, or a sweep over random states, pass through many more
MEMBER_MASKS_CEILING = 1024


def member_masks(space: IdSpace, node: NodeState) -> tuple[int, int]:
    """The member's ``(skipped, entries)`` masks in ``space``.

    ``skipped`` holds the identifiers its extended successor list (ESL)
    skips: p is skipped when the ESL has a contiguous pair (x, y) with
    ``between(x, p, y)``, so the mask is the union of the arc masks of
    those pairs. Padding entries synthesized during stabilization count as
    ordinary entries. ``entries`` has bit e set for each successor-list
    entry e, so ``entries & live`` is empty exactly when the member has no
    live successor.

    The pair depends on the width of the space (an arc that wraps covers
    different identifiers in a wider space), the member's identifier and
    its successor list, but not its ``prdc``. It is memoized under those
    three, keeping the :data:`MEMBER_MASKS_CEILING` most recently used.
    """
    return _masks(space.m, node.ident, node.succ_list)


@lru_cache(maxsize=MEMBER_MASKS_CEILING)
def _masks(m: int, ident: int, succ_list: tuple[int, ...]) -> tuple[int, int]:
    arc = IdSpace(m).arc
    skipped = entries = 0
    x = ident
    for y in succ_list:
        skipped |= arc(x, y)
        entries |= 1 << y
        x = y
    return skipped, entries


def principals(state: GlobalState) -> frozenset[int]:
    """Members not skipped by any extended successor list: outside the
    union of the members' ``skipped`` masks (see :func:`member_masks`).
    The properties read the union from their own rows; this set stays for
    the flaw reproductions and because the benchmark's tracer
    (``perfbench/tracer.py``) names it as a layer."""
    space = state.space
    skipped = 0
    for node in state.members:
        skipped |= member_masks(space, node)[0]
    return frozenset(node.ident for node in state.members if not skipped >> node.ident & 1)


def chain_cycles(succ: dict[int, int | None]) -> dict[int, frozenset[int] | None]:
    """One walk of a best-successor table (see :func:`best_successors`):
    for every member, keyed in the table's order, the cycle its chain of
    best successors ends on, or None when the chain ends at a member with
    no live successor. A member is on a cycle exactly when it is in the
    cycle its own chain ends on."""
    ends: dict[int, frozenset[int] | None] = {}
    for start in succ:
        walk: dict[int, None] = {}  # this chain's new members, in order
        cur = start
        while cur is not None and cur not in ends and cur not in walk:
            walk[cur] = None
            cur = succ[cur]
        if cur in walk:
            # the chain closed on itself: the part from ``cur`` on is a cycle
            chain = list(walk)
            cycle = frozenset(chain[chain.index(cur):])
        else:
            # the chain joined one walked before, or ended (``cur`` is None)
            cycle = ends.get(cur)
        for member in walk:
            ends[member] = cycle
    return {member: ends[member] for member in succ}


def ring_members(state: GlobalState) -> frozenset[int]:
    """Members that reach themselves by following best successors.

    A chain that hits a member with no live successor classifies its start
    as an appendage; so does a chain that enters a cycle elsewhere. The
    ring properties walk the same chains in
    :func:`~chordcheck.properties.check_all`; this set stays because the
    benchmark's tracer (``perfbench/tracer.py``) names it as a layer.
    """
    ends = chain_cycles(best_successors(state))
    return frozenset(member for member, cycle in ends.items() if cycle and member in cycle)

