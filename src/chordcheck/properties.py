"""Named global properties, the inductive invariant, ideality, and the
pointer error metric.

Every property is read from one evaluation of each member. A member's
facts (:class:`MemberFacts`: its best successor, the live identifiers its
extended successor list skips, whether that list repeats an identifier
or is out of order, and its pointer errors) depend only on the member's
own variables and the live set, so they are computed once per
``(m, mask, node)`` and memoized for the process, keeping the
:data:`MEMBER_FACTS_CEILING` most recently used. One step changes at
most one member, so along a run almost every member is looked up, not
recomputed.

A second memo keeps one :class:`PropertyReport` per distinct
``(r, members)``, at most :data:`REPORTS_CEILING` of them. No property
reads the pending entries, and most steps change only those (a rectify
that keeps the predecessor, a stabilize whose adopted list equals the
old one, every step once the network is ideal), so along a run most
reports are looked up, not rebuilt. ``r`` is in the key because the
empty network's ``sufficient_principals`` witness reads it; the width of
the space is not, since circular order among identifiers below ``2**m``
is the same in every wider space. A memoized report, and its metric, is
shared by every state with those members: callers must not mutate it.

Both memos hold only values computed from member tables, never a value
read from a trace, so a replay that finds the report its run computed
still compares every record with a report derived from the members.

The ring properties (at least one ring, at most one ring, an ordered
ring, connected appendages) all come from the table of best successors
that the facts give. Ideality is zero pointer error: :func:`error_metric`
is its one definition, and the ideal flag, its witness and
:func:`is_ideal` read the metric. :func:`check_all` returns the metric
with the flags, so a caller that needs both computes it once.

``Invariant`` is the conjunction of just two properties: every member has
a live successor, and at least r + 1 members are principal. Outside
:func:`check_all` it is read from a snapshot's mask rows
(:func:`mask_rows`), computed once per snapshot and kept on it:
:func:`invariant_holds` gives the snapshot's verdict, :func:`failable_mask`
the verdict on the survivors of every member's fail, and
:func:`invariant_with` the verdict after one member's row is replaced or
added, which is all a stabilize, a rectify or a join changes. The other
structural properties (no duplicates, ordered lists, one ordered ring,
connected appendages) are consequences of the invariant, which the test
suite and the explorer verify rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .idspace import IdSpace
from .state import GlobalState, NodeState, chain_cycles, first_live, member_masks

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


class MaskRows(NamedTuple):
    """What the invariant reads of one snapshot (see :func:`mask_rows`).

    ``others[i]`` is the union of the skip masks (see
    :func:`~chordcheck.state.member_masks`) of every member but the i-th,
    in member order, and ``skipped`` the union of all of them.
    ``stranded`` has a bit set for each member with no live entry.
    ``failable`` is :func:`failable_mask`'s answer.
    """

    others: list[int]
    skipped: int
    stranded: int
    failable: int


def mask_rows(state: GlobalState) -> MaskRows:
    """The mask rows of ``state``, computed on the first call and kept in
    its ``rows`` slot."""
    rows = state.rows
    if rows is None:
        rows = _mask_rows(state)
        object.__setattr__(state, "rows", rows)  # a memo, not part of the value
    return rows


def _mask_rows(state: GlobalState) -> MaskRows:
    """One pass over the members' masks, then the prefix and suffix ORs of
    their skip masks and every fail verdict (see :func:`failable_mask`)."""
    space = state.space
    live = state.mask
    skips = []
    stranded = 0
    candidates = live
    for node in state.members:
        skipped, entries = member_masks(space, node)
        skips.append(skipped)
        heads = entries & live
        own = 1 << node.ident
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
        required = state.r + 1
        for node, other in zip(state.members, others):
            own = 1 << node.ident
            if candidates & own and (live & ~own & ~other).bit_count() >= required:
                failable |= own
    return MaskRows(others, after[0], stranded, failable)


def invariant_holds(state: GlobalState) -> bool:
    """Whether ``state`` satisfies the invariant: every member has a live
    successor, and at least r + 1 live identifiers are principal (not
    skipped by any extended successor list).

    Read from the snapshot's rows when it has them; otherwise they are
    computed but not kept, so a one-off verdict does not pin them to a
    snapshot that its caller keeps (a converge seed, or every state of a
    collected exploration)."""
    rows = state.rows or _mask_rows(state)
    return not rows.stranded and (state.mask & ~rows.skipped).bit_count() > state.r


def failable_mask(state: GlobalState) -> int:
    """Every fail verdict of ``state`` at once: bit x is set iff x is a
    member and the invariant holds for the survivors of x failing: the
    one definition of the verdict that
    :func:`~chordcheck.protocol.safely_failable` gives for one member and
    :func:`~chordcheck.protocol.enabled_steps` reads for all, kept in the
    snapshot's mask rows.

    Failing x strands every other member whose only live entry is x, and
    a member with no live entry already is stranded unless it is the one
    that fails. The survivors' skip union is ``others`` of the rows."""
    return mask_rows(state).failable


def invariant_with(state: GlobalState, node: NodeState) -> bool:
    """The invariant of ``state`` with ``node`` in place of the member with
    its identifier, or added as a new member if there is none, whatever
    the pending entries: the verdict on the state a stabilize, a rectify
    or a join leaves, where only the actor's row changes. Read from the
    rows of ``state`` (see :func:`mask_rows`) and the new row's masks,
    without the post-state's rows."""
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


def _ring_flags(state: GlobalState, succ: dict[int, int | None]) -> list[tuple[str, bool, object]]:
    """The four ring properties as (name, flag, witness), all read from one
    walk of the best-successor table ``succ`` (see
    :func:`~chordcheck.state.best_successors` and
    :func:`~chordcheck.state.chain_cycles`): the ring is the members on
    a cycle, and a member is stranded when its chain ends at a member with
    no live successor."""
    ends = chain_cycles(succ)
    ring = [member for member, cycle in ends.items() if cycle and member in cycle]

    at_most_witness = None
    if ring:
        # all ring members must lie on one best-successor cycle
        start = ring[0]
        cycle = ends[start]
        stray = next((member for member in ring if member not in cycle), None)
        if stray is not None:
            at_most_witness = (start, stray)

    ordered_witness = None
    arc = state.space.arc
    ring_mask = sum(1 << n for n in ring)
    for n1 in ring:
        n2 = succ[n1]
        inside = arc(n1, n2) & ring_mask
        if inside:
            # the lowest ring member strictly inside the arc n1 -> n2
            ordered_witness = (n1, (inside & -inside).bit_length() - 1, n2)
            break

    stranded = tuple(member for member, cycle in ends.items() if cycle is None)
    return [
        ("at_least_one_ring", bool(ring), None if ring else state.idents()),
        ("at_most_one_ring", at_most_witness is None, at_most_witness),
        ("ordered_ring", ordered_witness is None, ordered_witness),
        ("connected_appendages", not stranded, stranded),
    ]


def is_ideal(state: GlobalState) -> bool:
    """True iff every successor list holds the r nearest live members in
    identifier order and every predecessor is the nearest live member in
    reverse identifier order: the network is non-empty and every pointer
    error is zero."""
    return error_metric(state).ideal


# bounds the report memo, which lives as long as the process: a converge
# run builds at most 17 reports, a 100-round m=6 simulate at most 33, so
# 128 keeps a run's reports for its replay. Peak RSS of the benchmark's
# simulate_m6, 25.5-25.8 MB without the memos: 26.5 MB at 128 reports and
# 1,024 facts, 28.6 MB at 512 and 4,096, which ran no faster
REPORTS_CEILING = 128

# (r, members) -> the report of every snapshot with those members, oldest
# first: a report is built from a snapshot but keyed without its width and
# pending entries, which an lru_cache could not leave out of its key
_reports: dict[tuple[int, tuple[NodeState, ...]], PropertyReport] = {}


def check_all(state: GlobalState) -> PropertyReport:
    """Evaluate every named property and collect witnesses for failures.

    The report is memoized under ``(state.r, state.members)`` (see the
    module docstring), so a later state with the same members, whatever
    its pending entries, gets the same object back: callers must not
    mutate the report or its metric. When the memo is full, its oldest
    report is dropped."""
    key = (state.r, state.members)
    report = _reports.get(key)
    if report is None:
        if len(_reports) >= REPORTS_CEILING:
            del _reports[next(iter(_reports))]
        report = _reports[key] = _report(state)
    return report


def _report(state: GlobalState) -> PropertyReport:
    """Every flag, witness and the metric of ``state``, from its member
    rows (see :func:`check_all`)."""
    rows = _rows(state)
    metric = _metric(state, rows)
    required = state.r + 1
    stranded = []
    duplicated = []
    disorder = None
    succ = {}
    skipped = 0
    for node, (head, skips, repeats, triple, _, _, _) in zip(state.members, rows):
        ident = node.ident
        succ[ident] = head
        if head is None:
            stranded.append(ident)
        skipped |= skips
        if repeats:
            duplicated.append(ident)
        if disorder is None and triple is not None:
            disorder = (ident, triple)
    principal = state.mask & ~skipped
    enough = principal.bit_count() >= required
    checks = [
        ("one_live_successor", not stranded, tuple(stranded)),
        ("sufficient_principals", enough, None if enough else {
            "principals": tuple(n.ident for n in state.members if principal >> n.ident & 1),
            "required": required,
        }),
        ("no_duplicates", not duplicated, tuple(duplicated)),
        ("ordered_successor_lists", disorder is None, disorder),
        *_ring_flags(state, succ),
        ("ideal", metric.ideal, metric.witness),
    ]
    flags = {name: ok for name, ok, _ in checks}
    flags["invariant"] = not stranded and enough
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
    """The error metric of ``state``: the metric of :func:`check_all`'s
    memoized report for these members if there is one, else read from
    the member facts alone."""
    report = _reports.get((state.r, state.members))
    if report is not None:
        return report.metric
    return _metric(state, _rows(state))


class MemberFacts(NamedTuple):
    """What the properties read of one member, for one live set.

    ``head`` is its first live successor-list entry (None if all are
    dead) and ``skipped`` the live identifiers its extended successor list
    (ESL) skips, as a bitmask. ``duplicated`` is whether its ESL repeats an
    identifier, and ``disorder`` the first ESL triple ``(x, y, z)``, in
    ``combinations`` order, with ``not between(x, y, z)``, or None. The
    errors are its terms of the :class:`ErrorMetric`.
    """

    head: int | None
    skipped: int
    duplicated: bool
    disorder: tuple[int, int, int] | None
    successor_error: int
    predecessor_error: int
    list_error: int


def _next_live(mask: int, ident: int) -> int:
    """The first live identifier clockwise after ``ident``, cycling; a lone
    live identifier is its own next."""
    above = mask >> ident + 1 << ident + 1
    low = above & -above or mask & -mask
    return low.bit_length() - 1


def _disorder(space: IdSpace, node: NodeState) -> tuple[int, int, int] | None:
    """The first triple of the member's ESL, in ``combinations`` order,
    that is out of clockwise order; None if there is none."""
    ident = node.ident
    size = space.size
    last = 0
    for entry in node.succ_list:
        offset = (entry - ident) % size
        if offset <= last:
            break
        last = offset
    else:
        # offsets from the owner strictly increase: the ESL runs clockwise
        # within one turn, so every triple of it is in order
        return None
    between = space.between
    for x, y, z in combinations((ident,) + node.succ_list, 3):
        if not between(x, y, z):
            return (x, y, z)
    return None


# bounds the facts memo, which lives as long as the process: a run reads
# at most 74 (mask, member) pairs; 1,024 also keeps those that runs from
# one scenario share, which ran simulate_m6 about 5% faster than 128 did
MEMBER_FACTS_CEILING = 1024


@lru_cache(maxsize=MEMBER_FACTS_CEILING)
def _member_facts(m: int, mask: int, node: NodeState) -> MemberFacts:
    """The facts of member ``node`` in the space of width ``m`` when
    exactly the identifiers in ``mask`` are live (the errors are defined
    at :class:`ErrorMetric`)."""
    space = IdSpace(m)
    ident, prdc, succ_list = node
    r = len(succ_list)
    s = mask.bit_count()
    arc = space.arc
    head = succ_list[0]
    # a live pointer scores the live members strictly inside its arc
    succ_err = (arc(ident, head) & mask).bit_count() if mask >> head & 1 else s
    pred_err = (arc(prdc, ident) & mask).bit_count() if mask >> prdc & 1 else s
    list_err = 0
    expected = ident
    for i, entry in enumerate(succ_list):
        expected = _next_live(mask, expected)
        if entry != expected:
            list_err = r - i
            break
    return MemberFacts(
        first_live(node, mask),
        member_masks(space, node)[0] & mask,
        len({ident, *succ_list}) != r + 1,
        _disorder(space, node),
        succ_err,
        pred_err,
        list_err,
    )


def _rows(state: GlobalState) -> list[MemberFacts]:
    """The facts of every member of ``state``, in member order."""
    m = state.space.m
    mask = state.mask
    return [_member_facts(m, mask, node) for node in state.members]


def _metric(state: GlobalState, rows: list[MemberFacts]) -> ErrorMetric:
    succ_err: dict[int, int] = {}
    pred_err: dict[int, int] = {}
    list_err: dict[int, int] = {}
    witness = None
    for node, (_, _, _, _, succ_error, pred_error, list_error) in zip(state.members, rows):
        ident = node.ident
        succ_err[ident] = succ_error
        pred_err[ident] = pred_error
        list_err[ident] = list_error
        # a zero predecessor error is exactly a globally correct predecessor
        if witness is None and (list_error or pred_error):
            witness = (ident, "succ_list" if list_error else "prdc")
    return ErrorMetric(
        s=len(rows),
        successor_error=succ_err,
        predecessor_error=pred_err,
        list_error=list_err,
        cumulative=sum(succ_err.values()) + sum(pred_err.values()),
        witness=witness,
    )
