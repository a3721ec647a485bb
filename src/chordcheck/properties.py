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
with its flags, witnesses and metric in one pass over the members'
facts, and :func:`error_metric` and :func:`is_ideal` read that report.
The ring properties (at least one ring, at most one ring, an ordered
ring, connected appendages) all come from the table of best successors
that the facts give. Ideality is zero pointer error: the ideal flag, its
witness and :func:`is_ideal` read the metric.

``Invariant`` is the conjunction of just two properties: every member has
a live successor, and at least r + 1 members are principal. A snapshot's
verdict is the ``invariant`` flag of its report, so :func:`invariant_holds`
and :func:`valid_initial` read :func:`check_all` as every trace record
does, and one member table is evaluated once for all of them. The other
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


def invariant_holds(state: GlobalState) -> bool:
    """Whether ``state`` satisfies the invariant: every member has a live
    successor, and at least r + 1 live identifiers are principal (not
    skipped by any extended successor list). The ``invariant`` flag of
    its :func:`check_all` report."""
    return check_all(state).flags["invariant"]


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
    """Every flag, witness and the metric of ``members`` in the space of
    width ``m``, from one pass over their facts (see :func:`check_all`)."""
    live = sum(1 << node.ident for node in members)
    stranded = []
    duplicated = []
    disorder = None
    succ = {}
    skipped = 0
    succ_err: dict[int, int] = {}
    pred_err: dict[int, int] = {}
    list_err: dict[int, int] = {}
    error_witness = None
    for node in members:
        ident = node.ident
        head, skips, repeats, triple, succ_e, pred_e, list_e = _member_facts(m, live, node)
        succ[ident] = head
        if head is None:
            stranded.append(ident)
        skipped |= skips
        if repeats:
            duplicated.append(ident)
        if disorder is None and triple is not None:
            disorder = (ident, triple)
        succ_err[ident], pred_err[ident], list_err[ident] = succ_e, pred_e, list_e
        # a zero predecessor error is exactly a globally correct predecessor
        if error_witness is None and (list_e or pred_e):
            error_witness = (ident, "succ_list" if list_e else "prdc")
    metric = ErrorMetric(len(members), succ_err, pred_err, list_err,
                         sum(succ_err.values()) + sum(pred_err.values()), error_witness)
    required = r + 1
    principal = live & ~skipped
    enough = principal.bit_count() >= required
    # in FLAG_NAMES order; the invariant's witnesses are its conjuncts'
    checks = [
        ("one_live_successor", not stranded, tuple(stranded)),
        ("sufficient_principals", enough, None if enough else {
            "principals": tuple(n.ident for n in members if principal >> n.ident & 1),
            "required": required,
        }),
        ("invariant", not stranded and enough, None),
        ("no_duplicates", not duplicated, tuple(duplicated)),
        ("ordered_successor_lists", disorder is None, disorder),
        *_ring_flags(IdSpace(m), members, succ),
        ("ideal", metric.ideal, metric.witness),
    ]
    return PropertyReport(
        flags={name: ok for name, ok, _ in checks},
        metric=metric,
        witnesses={name: witness for name, ok, witness in checks
                   if not ok and name != "invariant"},
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

