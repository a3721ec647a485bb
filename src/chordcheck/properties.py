"""Named global properties, the inductive invariant, ideality, and the
pointer error metric.

Every property is read from one evaluation of the state. The ring
properties (at least one ring, at most one ring, an ordered ring,
connected appendages) all come from one table of best successors
(:func:`~chordcheck.state.best_successors`). Ideality is zero pointer
error: :func:`error_metric` is its one definition, and the ideal flag,
its witness and :func:`is_ideal` read the metric. :func:`check_all`
returns the metric with the flags, so a caller that needs both computes
it once.

``Invariant`` is the conjunction of just two properties: every member has
a live successor, and at least r + 1 members are principal. The other
structural properties (no duplicates, ordered lists, one ordered ring,
connected appendages) are consequences of the invariant, which the test
suite and the explorer verify rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .state import GlobalState, best_successors, cycle_members, principals

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
    deterministic witness (lowest identifiers first), and the error metric
    that the ideal flag and its witness are read from."""

    flags: dict[str, bool]
    metric: ErrorMetric
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
        node.ident for node in state.members if len({node.ident, *node.succ_list}) != state.r + 1
    )
    return (not offenders, offenders)


def ordered_successor_lists(state: GlobalState) -> tuple[bool, tuple | None]:
    """Every sublist [x, y, z] of every ESL, contiguous or not, satisfies
    between(x, y, z)."""
    between = state.space.between
    for node in state.members:
        for x, y, z in combinations((node.ident,) + node.succ_list, 3):
            if not between(x, y, z):
                return (False, (node.ident, (x, y, z)))
    return (True, None)


def _ring_flags(state: GlobalState) -> list[tuple[str, bool, object]]:
    """The four ring properties as (name, flag, witness), all read from one
    best-successor table. Every best-successor cycle is made of ring
    members, so a chain that starts off the ring ends on it or at a member
    with no live successor."""
    succ = best_successors(state)
    ring = cycle_members(succ)

    at_most_witness = None
    if ring:
        # all ring members must lie on one best-successor cycle
        start = min(ring)
        cycle = {start}
        cur = succ[start]
        while cur != start:
            cycle.add(cur)
            cur = succ[cur]
        stray = min(ring - cycle, default=None)
        if stray is not None:
            at_most_witness = (start, stray)

    ordered_witness = None
    arc = state.space.arc
    ring_mask = sum(1 << n for n in ring)
    for n1 in sorted(ring):
        n2 = succ[n1]
        inside = arc(n1, n2) & ring_mask
        if inside:
            # the lowest ring member strictly inside the arc n1 -> n2
            ordered_witness = (n1, (inside & -inside).bit_length() - 1, n2)
            break

    stranded = []
    for start in succ:
        cur = start
        while cur is not None and cur not in ring:
            cur = succ[cur]
        if cur is None:
            stranded.append(start)
    return [
        ("at_least_one_ring", bool(ring), None if ring else state.idents()),
        ("at_most_one_ring", at_most_witness is None, at_most_witness),
        ("ordered_ring", ordered_witness is None, ordered_witness),
        ("connected_appendages", not stranded, tuple(stranded)),
    ]


def is_ideal(state: GlobalState) -> bool:
    """True iff every successor list holds the r nearest live members in
    identifier order and every predecessor is the nearest live member in
    reverse identifier order: the network is non-empty and every pointer
    error is zero."""
    return error_metric(state).ideal


def check_all(state: GlobalState) -> PropertyReport:
    """Evaluate every named property and collect witnesses for failures."""
    metric = error_metric(state)
    live_ok, stranded = one_live_successor(state)
    enough, prins = sufficient_principals(state)
    checks = [
        ("one_live_successor", live_ok, stranded),
        ("sufficient_principals", enough,
         {"principals": tuple(sorted(prins)), "required": state.r + 1}),
        ("no_duplicates", *no_duplicates(state)),
        ("ordered_successor_lists", *ordered_successor_lists(state)),
        *_ring_flags(state),
        ("ideal", metric.ideal, metric.witness),
    ]
    flags = {name: ok for name, ok, _ in checks}
    flags["invariant"] = live_ok and enough
    return PropertyReport(
        flags={name: flags[name] for name in FLAG_NAMES},
        metric=metric,
        witnesses={name: witness for name, ok, witness in checks if not ok},
    )


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

    ``witness`` is the lowest member with a list or predecessor error, and
    which pointer (``"succ_list"`` before ``"prdc"``); None when there is
    none. The network is ``ideal`` when it has members and no witness.
    """

    s: int
    successor_error: dict[int, int]
    predecessor_error: dict[int, int]
    list_error: dict[int, int]
    cumulative: int
    witness: tuple[int, str] | None

    @property
    def ideal(self) -> bool:
        return self.s > 0 and self.witness is None


def error_metric(state: GlobalState) -> ErrorMetric:
    live = state.idents()
    s = len(live)
    r = state.r
    index = {ident: i for i, ident in enumerate(live)}
    succ_err: dict[int, int] = {}
    pred_err: dict[int, int] = {}
    list_err: dict[int, int] = {}
    witness = None
    for my, node in enumerate(state.members):
        ident = node.ident
        head = node.succ_list[0]
        if head in index:
            succ_err[ident] = s - 1 if head == ident else (index[head] - my) % s - 1
        else:
            succ_err[ident] = s
        if node.prdc in index:
            pred_err[ident] = s - 1 if node.prdc == ident else (my - index[node.prdc]) % s - 1
        else:
            pred_err[ident] = s
        # the globally correct list is the next r live members, cycling
        err = 0
        for i, entry in enumerate(node.succ_list):
            if entry != live[(my + 1 + i) % s]:
                err = r - i
                break
        list_err[ident] = err
        # a zero predecessor error is exactly a globally correct predecessor
        if witness is None and (err or pred_err[ident]):
            witness = (ident, "succ_list" if err else "prdc")
    return ErrorMetric(
        s=s,
        successor_error=succ_err,
        predecessor_error=pred_err,
        list_error=list_err,
        cumulative=sum(succ_err.values()) + sum(pred_err.values()),
        witness=witness,
    )
