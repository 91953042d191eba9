"""Tests for interval arithmetic and the sub-range decomposition."""

import pytest

from repro.core.errors import DomainError
from repro.core.intervals import Interval, decompose_intervals


class TestIntervalConstruction:
    def test_closed_interval_contains_endpoints(self):
        interval = Interval.closed(1, 5)
        assert 1 in interval
        assert 5 in interval
        assert 3 in interval

    def test_open_interval_excludes_endpoints(self):
        interval = Interval.open(1, 5)
        assert 1 not in interval
        assert 5 not in interval
        assert 3 in interval

    def test_closed_open_interval(self):
        interval = Interval.closed_open(30, 35)
        assert 30 in interval
        assert 34.999 in interval
        assert 35 not in interval

    def test_open_closed_interval(self):
        interval = Interval.open_closed(35, 50)
        assert 35 not in interval
        assert 50 in interval

    def test_point_interval(self):
        interval = Interval.point(7)
        assert interval.is_point
        assert 7 in interval
        assert 7.1 not in interval

    def test_invalid_bounds_rejected(self):
        with pytest.raises(DomainError):
            Interval(5, 1)

    def test_degenerate_open_interval_rejected(self):
        with pytest.raises(DomainError):
            Interval(3, 3, True, False)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Interval(float("nan"), 1)

    def test_nan_lies_in_no_interval(self):
        nan = float("nan")
        for interval in (Interval.closed(0, 1), Interval.open(0, 1), Interval.point(0)):
            assert nan not in interval
        assert nan not in Interval.closed(float("-inf"), float("inf"))

    def test_containment_compares_ints_exactly(self):
        top = float(2**53)
        assert 2**53 in Interval.closed(0, top)
        assert 2**53 + 1 not in Interval.closed(0, top)
        assert 10**400 in Interval.closed(0, float("inf"))
        assert 10**400 not in Interval.closed(0, 1e308)

    def test_str_rendering_matches_paper_notation(self):
        assert str(Interval.closed_open(30, 35)) == "[30, 35)"
        assert str(Interval.closed(-30, -20)) == "[-30, -20]"


class TestIntervalOperations:
    def test_intersection_of_overlapping_intervals(self):
        result = Interval.closed(0, 10).intersect(Interval.closed(5, 20))
        assert result == Interval.closed(5, 10)

    def test_intersection_respects_open_bounds(self):
        result = Interval.closed_open(0, 10).intersect(Interval.closed(10, 20))
        assert result is None

    def test_intersection_of_disjoint_intervals_is_none(self):
        assert Interval.closed(0, 1).intersect(Interval.closed(2, 3)) is None

    def test_point_intersection(self):
        result = Interval.closed(0, 10).intersect(Interval.closed(10, 20))
        assert result == Interval.point(10)

    def test_contains_interval(self):
        outer = Interval.closed(0, 10)
        assert outer.contains_interval(Interval.closed(2, 8))
        assert outer.contains_interval(Interval.closed(0, 10))
        assert not outer.contains_interval(Interval.closed(0, 11))

    def test_contains_interval_open_boundary(self):
        outer = Interval.closed_open(0, 10)
        assert not outer.contains_interval(Interval.closed(5, 10))
        assert outer.contains_interval(Interval.closed_open(5, 10))

    def test_overlaps(self):
        assert Interval.closed(0, 5).overlaps(Interval.closed(5, 10))
        assert not Interval.closed_open(0, 5).overlaps(Interval.closed(5, 10))

    def test_midpoint(self):
        assert Interval.closed(0, 10).midpoint() == 5
        assert Interval.point(3).midpoint() == 3

    def test_sort_key_orders_naturally(self):
        intervals = [Interval.closed(5, 6), Interval.closed(0, 10), Interval.open(0, 2)]
        ordered = sorted(intervals, key=Interval.sort_key)
        assert ordered[0] == Interval.closed(0, 10)
        assert ordered[1] == Interval.open(0, 2)
        assert ordered[2] == Interval.closed(5, 6)


class TestDecomposeIntervals:
    def test_empty_input(self):
        assert decompose_intervals([]) == []

    def test_single_interval_is_returned(self):
        assert decompose_intervals([Interval.closed(0, 10)]) == [Interval.closed(0, 10)]

    def test_paper_example_temperature_ranges(self):
        """P1: >= 35, P2/P3/P5: >= 30 gives the Fig. 1 sub-ranges [30,35) and [35,50]."""
        pieces = decompose_intervals(
            [Interval.closed(35, 50), Interval.closed(30, 50)]
        )
        assert pieces == [Interval.closed_open(30, 35), Interval.closed(35, 50)]

    def test_disjoint_intervals_stay_separate(self):
        pieces = decompose_intervals([Interval.closed(0, 1), Interval.closed(5, 6)])
        assert pieces == [Interval.closed(0, 1), Interval.closed(5, 6)]

    def test_overlapping_ranges_produce_at_most_2p_minus_1_pieces(self):
        inputs = [Interval.closed(0, 10), Interval.closed(5, 15), Interval.closed(8, 20)]
        pieces = decompose_intervals(inputs)
        assert len(pieces) <= 2 * len(inputs) - 1
        # Pieces are disjoint and ordered.
        for left, right in zip(pieces, pieces[1:]):
            assert left.high <= right.low

    def test_union_is_preserved(self):
        inputs = [Interval.closed(0, 10), Interval.closed(5, 15)]
        pieces = decompose_intervals(inputs)
        for probe in [0, 3, 5, 9.5, 10, 12, 15]:
            covered_by_input = any(probe in iv for iv in inputs)
            covered_by_pieces = any(probe in piece for piece in pieces)
            assert covered_by_input == covered_by_pieces

    def test_each_input_is_union_of_pieces(self):
        inputs = [Interval.closed(0, 10), Interval.closed(5, 15), Interval.closed(-5, 2)]
        pieces = decompose_intervals(inputs)
        for iv in inputs:
            for piece in pieces:
                probe = piece.midpoint()
                if iv.contains(probe):
                    assert iv.contains_interval(piece)

    def test_identical_point_intervals(self):
        pieces = decompose_intervals([Interval.point(5), Interval.point(5)])
        assert pieces == [Interval.point(5)]

    def test_point_inside_range(self):
        pieces = decompose_intervals([Interval.closed(0, 10), Interval.point(5)])
        assert Interval.point(5) in pieces
        assert any(p.contains(2) for p in pieces)
        assert any(p.contains(8) for p in pieces)
