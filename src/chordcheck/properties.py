"""Named global properties, the inductive invariant, ideality, and the
pointer error metric.

Each flag is computed literally from its definition. ``Invariant`` is the
conjunction of just two of them: every member has a live successor, and
at least r + 1 members are principal. The other structural properties
(no duplicates, ordered lists, one ordered ring, connected appendages)
are consequences of the invariant, which the test suite and the explorer
verify rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .state import GlobalState, best_successor, esl, ideal_nodes, principals, ring_members

FLAG_NAMES = (
    "one_live_successor",
    "sufficient_principals",
    "invariant",
    "no_duplicates",
    "ordered_successor_lists",
    "at_least_one_ring",
    "at_most_one_ring",
    "ordered_ring",
    "connected_appendages",
    "ideal",
)


@dataclass(frozen=True)
class PropertyReport:
    """Flags for every named property plus, for each false flag, a minimal
    deterministic witness (lowest identifiers first)."""

    flags: dict[str, bool]
    witnesses: dict[str, object] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return all(self.flags.values())

    @property
    def invariant(self) -> bool:
        return self.flags["invariant"]

    @property
    def ideal(self) -> bool:
        return self.flags["ideal"]


def one_live_successor(state: GlobalState) -> tuple[bool, tuple[int, ...]]:
    mask = state.mask
    offenders = []
    for node in state.members:
        for e in node.succ_list:
            if mask >> e & 1:
                break
        else:
            offenders.append(node.ident)
    return (not offenders, tuple(offenders))


def sufficient_principals(state: GlobalState) -> tuple[bool, frozenset[int]]:
    prins = principals(state)
    return (len(prins) >= state.r + 1, prins)


def invariant_holds(state: GlobalState) -> bool:
    return one_live_successor(state)[0] and sufficient_principals(state)[0]


def no_duplicates(state: GlobalState) -> tuple[bool, tuple[int, ...]]:
    offenders = tuple(
        node.ident for node in state.members if len(set(esl(state, node.ident))) != state.r + 1
    )
    return (not offenders, offenders)


def ordered_successor_lists(state: GlobalState) -> tuple[bool, tuple | None]:
    """Every sublist [x, y, z] of every ESL, contiguous or not, satisfies
    between(x, y, z)."""
    between = state.space.between
    for node in state.members:
        entries = esl(state, node.ident)
        for x, y, z in combinations(entries, 3):
            if not between(x, y, z):
                return (False, (node.ident, (x, y, z)))
    return (True, None)


def _ring_flags(state: GlobalState):
    ring = ring_members(state)
    at_least = bool(ring)

    at_most = True
    at_most_witness = None
    if ring:
        # all ring members must lie on one best-successor cycle
        start = min(ring)
        cycle = {start}
        cur = best_successor(state, start)
        while cur is not None and cur != start:
            cycle.add(cur)
            cur = best_successor(state, cur)
        stray = sorted(ring - cycle)
        if stray:
            at_most = False
            at_most_witness = (start, stray[0])

    ordered = True
    ordered_witness = None
    ring_order = sorted(ring)
    for n1 in ring_order:
        n2 = best_successor(state, n1)
        for nb in ring_order:
            if state.space.between(n1, nb, n2):
                ordered = False
                if ordered_witness is None:
                    ordered_witness = (n1, nb, n2)
    connected = True
    connected_offenders = []
    for start in (i for i in state.idents() if i not in ring):
        seen = set()
        cur = start
        while cur not in seen and cur not in ring:
            seen.add(cur)
            nxt = best_successor(state, cur)
            if nxt is None:
                connected = False
                connected_offenders.append(start)
                break
            cur = nxt
        else:
            if cur not in ring:
                # chain looped without touching the ring: cannot happen,
                # since any best-successor cycle is made of ring members
                connected = False
                connected_offenders.append(start)
    return (
        (at_least, state.idents() if not at_least else None),
        (at_most, at_most_witness),
        (ordered, ordered_witness),
        (connected, tuple(connected_offenders)),
    )


def is_ideal(state: GlobalState) -> bool:
    """True iff every successor list holds the r nearest live members in
    identifier order and every predecessor is the nearest live member in
    reverse identifier order."""
    return bool(state.members) and _ideal_witness(state) is None


def _ideal_witness(state: GlobalState) -> tuple | None:
    """The lowest member with a pointer that is not globally correct, and
    which pointer; None when there is none (an empty network included)."""
    for node, ideal in zip(state.members, ideal_nodes(state.r, state.idents())):
        if node.succ_list != ideal.succ_list:
            return (node.ident, "succ_list")
        if node.prdc != ideal.prdc:
            return (node.ident, "prdc")
    return None


def check_all(state: GlobalState) -> PropertyReport:
    """Evaluate every named property and collect witnesses for failures."""
    flags: dict[str, bool] = {}
    witnesses: dict[str, object] = {}

    ok, offenders = one_live_successor(state)
    flags["one_live_successor"] = ok
    if not ok:
        witnesses["one_live_successor"] = offenders

    ok, prins = sufficient_principals(state)
    flags["sufficient_principals"] = ok
    if not ok:
        witnesses["sufficient_principals"] = {
            "principals": tuple(sorted(prins)),
            "required": state.r + 1,
        }

    flags["invariant"] = flags["one_live_successor"] and flags["sufficient_principals"]

    ok, offenders = no_duplicates(state)
    flags["no_duplicates"] = ok
    if not ok:
        witnesses["no_duplicates"] = offenders

    ok, witness = ordered_successor_lists(state)
    flags["ordered_successor_lists"] = ok
    if not ok:
        witnesses["ordered_successor_lists"] = witness

    (al, al_w), (am, am_w), (orr, orr_w), (ca, ca_w) = _ring_flags(state)
    flags["at_least_one_ring"] = al
    if not al:
        witnesses["at_least_one_ring"] = al_w
    flags["at_most_one_ring"] = am
    if not am:
        witnesses["at_most_one_ring"] = am_w
    flags["ordered_ring"] = orr
    if not orr:
        witnesses["ordered_ring"] = orr_w
    flags["connected_appendages"] = ca
    if not ca:
        witnesses["connected_appendages"] = ca_w

    witness = _ideal_witness(state)
    flags["ideal"] = bool(state.members) and witness is None
    if not flags["ideal"]:
        witnesses["ideal"] = witness

    return PropertyReport(flags=flags, witnesses=witnesses)


def valid_initial(state: GlobalState) -> bool:
    """A network may be initialized in any state satisfying the invariant,
    with no repair traffic already in flight."""
    return (
        not state.pending_stabilize
        and not state.pending_notify
        and invariant_holds(state)
    )


@dataclass(frozen=True)
class ErrorMetric:
    """Distance-from-ideal of every pointer.

    A first successor or predecessor scores 0 when globally correct, k
    when k live members would be better choices, and s (the live member
    count) when it targets a dead node. A successor list scores the length
    of its suffix starting at the first entry that is not globally
    correct. ``cumulative`` sums the successor and predecessor errors.
    """

    s: int
    successor_error: dict[int, int]
    predecessor_error: dict[int, int]
    list_error: dict[int, int]
    cumulative: int


def error_metric(state: GlobalState) -> ErrorMetric:
    live = state.idents()
    s = len(live)
    index = {ident: i for i, ident in enumerate(live)}
    succ_err: dict[int, int] = {}
    pred_err: dict[int, int] = {}
    list_err: dict[int, int] = {}
    for node, ideal in zip(state.members, ideal_nodes(state.r, live)):
        my = index[node.ident]
        head = node.succ_list[0]
        if head in index:
            succ_err[node.ident] = s - 1 if head == node.ident else (index[head] - my) % s - 1
        else:
            succ_err[node.ident] = s
        if node.prdc in index:
            pred_err[node.ident] = (
                s - 1 if node.prdc == node.ident else (my - index[node.prdc]) % s - 1
            )
        else:
            pred_err[node.ident] = s
        err = 0
        for i in range(state.r):
            if node.succ_list[i] != ideal.succ_list[i]:
                err = state.r - i
                break
        list_err[node.ident] = err
    return ErrorMetric(
        s=s,
        successor_error=succ_err,
        predecessor_error=pred_err,
        list_error=list_err,
        cumulative=sum(succ_err.values()) + sum(pred_err.values()),
    )
