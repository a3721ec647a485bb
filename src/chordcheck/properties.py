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

A second memo, an ``lru_cache`` on ``(m, r, members)``, keeps the
:data:`REPORTS_CEILING` most recently used reports
(:class:`PropertyReport`). No property reads the pending entries, and
most steps change only those (a rectify that keeps the predecessor, a
stabilize whose adopted list equals the old one, every step once the
network is ideal), so along a run most reports are looked up, not
rebuilt. ``r`` is in the key because the empty network's
``sufficient_principals`` witness reads it. Two widths get two equal
reports: circular order among identifiers below ``2**m`` is the same in
every wider space. A memoized report, and its metric, is shared by every
state with those members: callers must not mutate it.

Both memos hold only values computed from member tables, never a value
read from a trace, so a replay that finds the report its run computed
still compares every record with a report derived from the members.

Every property result has one path: :func:`check_all` builds the report
with its flags, witnesses and metric, and :func:`error_metric` and
:func:`is_ideal` read that report. The ring properties (at least one
ring, at most one ring, an ordered ring, connected appendages) all come
from the table of best successors that the facts give. Ideality is zero
pointer error: the ideal flag, its witness and :func:`is_ideal` read the
metric.

``Invariant`` is the conjunction of just two properties: every member has
a live successor, and at least r + 1 members are principal. A snapshot's
verdict is the ``invariant`` flag of its report, so :func:`invariant_holds`
and :func:`valid_initial` read :func:`check_all` as every trace record
does, and one member table is evaluated once for all of them.

The step layer reads the invariant from a member table's mask rows
(:func:`mask_rows`), memoized per ``(m, r, members)``, at most
:data:`MASK_ROWS_CEILING`, since no conjunct and no fail verdict reads
the pending entries. A one-entry slot in front of that memo answers a
repeat of the ``members`` tuple object asked last, by identity, so a
step's guard and the explorer's verdict, which ask for the table
:func:`~chordcheck.protocol.enabled_steps` has just fetched, do not
hash it again. The rows hold every fail verdict and the join table, the
one definition of the join rule (see :class:`MaskRows`), which
:mod:`~chordcheck.protocol` reads, and :func:`invariant_with` gives the
verdict after one member's row is replaced or added, which is all a
stabilize, a rectify or a join changes. Here the width changes the
value, not only the key: which non-members an arc that wraps past 0
skips, and which ones a member covers, depend on it (the verdicts do
not). The other structural properties (no duplicates, ordered lists, one
ordered ring, connected appendages) are consequences of the invariant,
which the test suite and the explorer verify rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
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
    """What the invariant reads of one member table (see :func:`mask_rows`).

    ``others[i]`` is the union of the skip masks (see
    :func:`~chordcheck.state.member_masks`) of every member but the i-th,
    in member order, and ``skipped`` the union of all of them.
    ``stranded`` has a bit set for each member with no live entry.
    ``failable`` holds every fail verdict at once: bit x is set iff x is a
    member and the invariant holds for the survivors of x failing, the one
    definition of the verdict that
    :func:`~chordcheck.protocol.safely_failable` gives for one member and
    :func:`~chordcheck.protocol.enabled_steps` reads for all. Failing x
    strands every other member whose only live entry is x, and a member
    with no live entry already is stranded unless it is the one that
    fails; the survivors' skip union is ``others``.

    ``joins`` is the join table: every non-member identifier that some
    member covers (strictly inside the arc from the member to the head of
    its successor list), in ascending order, each followed by its lowest
    covering member, flat: ``(joiner, predecessor, joiner, ...)``. It is
    what :func:`~chordcheck.protocol.enabled_steps` offers as joins and
    :func:`~chordcheck.protocol.lookup_predecessor` answers. It is flat
    because a 2-tuple per joiner would take about 48 bytes more each, and an m=6
    table of the benchmark's simulate holds about 59 joiners.
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
    for the table that :func:`~chordcheck.protocol.enabled_steps` has just
    fetched. The slot holds a reference to that tuple, so no other tuple
    can take its identity while it is there."""
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


def invariant_holds(state: GlobalState) -> bool:
    """Whether ``state`` satisfies the invariant: every member has a live
    successor, and at least r + 1 live identifiers are principal (not
    skipped by any extended successor list). The ``invariant`` flag of
    its :func:`check_all` report."""
    return check_all(state).flags["invariant"]


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


def _ring_flags(space: IdSpace, members: tuple[NodeState, ...],
                succ: dict[int, int | None]) -> list[tuple[str, bool, object]]:
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
    arc = space.arc
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
        ("at_least_one_ring", bool(ring), None if ring else tuple(n.ident for n in members)),
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


def check_all(state: GlobalState) -> PropertyReport:
    """Evaluate every named property and collect witnesses for failures.

    The report is memoized under ``(m, r, members)`` (see the module
    docstring), so a later state with the same members, whatever its
    pending entries, gets the same object back: callers must not mutate
    the report or its metric."""
    return _report(state.space.m, state.r, state.members)


@lru_cache(maxsize=REPORTS_CEILING)
def _report(m: int, r: int, members: tuple[NodeState, ...]) -> PropertyReport:
    """Every flag, witness and the metric of a network of ``members`` in
    the space of width ``m``, from their facts (see :func:`check_all`)."""
    live = sum(1 << node.ident for node in members)
    rows = [_member_facts(m, live, node) for node in members]
    metric = _metric(members, rows)
    required = r + 1
    stranded = []
    duplicated = []
    disorder = None
    succ = {}
    skipped = 0
    for node, (head, skips, repeats, triple, _, _, _) in zip(members, rows):
        ident = node.ident
        succ[ident] = head
        if head is None:
            stranded.append(ident)
        skipped |= skips
        if repeats:
            duplicated.append(ident)
        if disorder is None and triple is not None:
            disorder = (ident, triple)
    principal = live & ~skipped
    enough = principal.bit_count() >= required
    checks = [
        ("one_live_successor", not stranded, tuple(stranded)),
        ("sufficient_principals", enough, None if enough else {
            "principals": tuple(n.ident for n in members if principal >> n.ident & 1),
            "required": required,
        }),
        ("no_duplicates", not duplicated, tuple(duplicated)),
        ("ordered_successor_lists", disorder is None, disorder),
        *_ring_flags(IdSpace(m), members, succ),
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
    """A network may be initialized in any state satisfying the invariant
    (:func:`invariant_holds`, read from its report), with no repair
    traffic already in flight."""
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
    """The error metric of ``state``: the metric of its
    :func:`check_all` report, so that the metric has one code path."""
    return check_all(state).metric


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
    between = space.between
    for x, y, z in combinations((node.ident,) + node.succ_list, 3):
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


def _metric(members: tuple[NodeState, ...], rows: list[MemberFacts]) -> ErrorMetric:
    succ_err: dict[int, int] = {}
    pred_err: dict[int, int] = {}
    list_err: dict[int, int] = {}
    witness = None
    for node, (_, _, _, _, succ_error, pred_error, list_error) in zip(members, rows):
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
