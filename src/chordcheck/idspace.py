"""The m-bit circular identifier space and its ternary order predicates.

Identifiers are plain integers in [0, 2**m). Because the space wraps
(2**m - 1 is adjacent to 0), asking whether one identifier precedes
another is meaningless: each precedes and succeeds the other. Every
useful order test therefore takes three arguments and asks whether an
identifier lies on the clockwise arc between two boundaries. ``arc``
gives the whole open arc at once, as a bitmask over identifiers, so a
set of identifiers (such as a snapshot's members) can be tested against
it in one operation.

Identifiers are not quantities; no distance metric is defined on the
circle. The only arithmetic exposed is ``next_ident``, which successor
lists use to synthesize a padding entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_BITS = 16  # desk-scale cap; spaces beyond this are not this tool's job


@dataclass(frozen=True)
class IdSpace:
    """An identifier space of ``2**m`` points with circular order."""

    m: int
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.m) is not int or not 1 <= self.m <= MAX_BITS:  # a bool is no width
            raise ValueError(f"bit width m must be an integer in 1..{MAX_BITS}, got {self.m!r}")
        object.__setattr__(self, "size", 1 << self.m)

    def contains(self, n: int) -> bool:
        return 0 <= n < self.size

    def idents(self) -> range:
        """Every identifier, in ascending numeric order."""
        return range(self.size)

    def between(self, n1: int, nb: int, n2: int) -> bool:
        """True iff ``nb`` lies strictly inside the clockwise arc from ``n1`` to ``n2``.

        False whenever ``nb`` equals either boundary. When ``n1 == n2`` the
        arc is the whole circle minus that point, so any distinct ``nb``
        qualifies.
        """
        if n1 < n2:
            return n1 < nb < n2
        return n1 < nb or nb < n2

    def arc(self, n1: int, n2: int) -> int:
        """The identifiers strictly inside the clockwise arc from ``n1`` to
        ``n2``, as a bitmask: bit ``nb`` is set iff ``between(n1, nb, n2)``."""
        if n1 < n2:
            return (1 << n2) - (2 << n1)
        return ((1 << self.size) - (2 << n1)) | ((1 << n2) - 1)

    def included_in(self, n1: int, nb: int, n2: int) -> bool:
        """Like :meth:`between`, but inclusive of both boundaries."""
        if n1 < n2:
            return n1 <= nb <= n2
        return n1 <= nb or nb <= n2

    def next_ident(self, n: int) -> int:
        """The identifier one step clockwise (wraps to 0 past ``2**m - 1``)."""
        return (n + 1) % self.size
