"""Identifier-space predicates, checked against their definitions
exhaustively at small bit widths."""

import itertools

import pytest
from hypothesis import given, strategies as st

from chordcheck import IdSpace


def arc_clockwise(space, n1, n2):
    """Identifiers strictly inside the clockwise arc from n1 to n2,
    walked step by step — the independent oracle for `between`."""
    out = []
    cur = space.next_ident(n1)
    while cur != n2:
        if cur == n1:
            break
        out.append(cur)
        cur = space.next_ident(cur)
    return out


class TestConstruction:
    def test_size(self):
        assert IdSpace(3).size == 8
        assert IdSpace(6).size == 64

    @pytest.mark.parametrize("m", [0, -1, 17, "3"])
    def test_rejects_bad_width(self, m):
        with pytest.raises(ValueError):
            IdSpace(m)

    def test_next_ident_wraps(self):
        assert IdSpace(6).next_ident(48) == 49
        assert IdSpace(6).next_ident(63) == 0
        assert IdSpace(3).next_ident(7) == 0


class TestBetween:
    def test_join_gap(self, space6):
        # a joiner at 10 fits between 7 and its successor 19
        assert space6.between(7, 10, 19)

    def test_boundary_excluded(self):
        assert not IdSpace(6).between(5, 5, 9)
        assert not IdSpace(6).between(5, 9, 9)

    def test_wraparound(self, space6):
        assert space6.between(60, 2, 5)
        assert not space6.between(2, 60, 5)

    def test_equal_boundaries_mean_whole_circle(self, space6):
        assert space6.between(7, 8, 7)
        assert not space6.between(7, 7, 7)

    def test_matches_arc_oracle_exhaustively_m4(self):
        space = IdSpace(4)
        for n1, nb, n2 in itertools.product(space.idents(), repeat=3):
            expected = nb in arc_clockwise(space, n1, n2)
            assert space.between(n1, nb, n2) == expected, (n1, nb, n2)


class TestArc:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_between_exhaustively(self, m):
        space = IdSpace(m)
        for n1, nb, n2 in itertools.product(space.idents(), repeat=3):
            assert (space.arc(n1, n2) >> nb & 1) == space.between(n1, nb, n2), (n1, nb, n2)

    def test_no_bits_outside_the_space(self):
        space = IdSpace(4)
        for n1, n2 in itertools.product(space.idents(), repeat=2):
            assert space.arc(n1, n2) >> space.size == 0


class TestIncludedIn:
    def test_boundaries_included(self, space6):
        assert space6.included_in(7, 7, 19)
        assert space6.included_in(7, 19, 19)

    def test_equal_boundaries_include_everything(self, space6):
        assert space6.included_in(3, 9, 3)
        assert space6.included_in(3, 3, 3)

    def test_outside_wrapped_arc(self, space6):
        # the inclusive arc from 7 to 10 is {7, 8, 9, 10}; 5 is not on it
        assert not space6.included_in(7, 5, 10)

    def test_matches_arc_oracle_exhaustively_m4(self):
        space = IdSpace(4)
        for n1, nb, n2 in itertools.product(space.idents(), repeat=3):
            expected = nb == n1 or nb == n2 or nb in arc_clockwise(space, n1, n2)
            assert space.included_in(n1, nb, n2) == expected, (n1, nb, n2)


class TestTheorems:
    """The three identifier-space theorems, exhaustive for m <= 6."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_any_between_any(self, m):
        space = IdSpace(m)
        for n1 in space.idents():
            for n2 in space.idents():
                if n1 != n2:
                    assert space.between(n1, n2, n1)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_any_included_in_any(self, m):
        space = IdSpace(m)
        for n1 in space.idents():
            for n2 in space.idents():
                assert space.included_in(n1, n2, n1)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_included_reverses_between(self, m):
        space = IdSpace(m)
        for n1 in space.idents():
            for n2 in space.idents():
                if n1 == n2:
                    continue
                for nb in space.idents():
                    assert (not space.between(n1, nb, n2)) == space.included_in(n2, nb, n1)

    @given(st.integers(1, 8), st.data())
    def test_between_antisymmetric_on_distinct_points(self, m, data):
        space = IdSpace(m)
        ident = st.integers(0, space.size - 1)
        n1, n2, nb = data.draw(st.tuples(ident, ident, ident))
        if len({n1, n2, nb}) == 3 and space.between(n1, nb, n2):
            assert not space.between(n2, nb, n1)
