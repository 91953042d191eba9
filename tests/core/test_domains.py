"""Tests for attribute domains."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import ContinuousDomain, DiscreteDomain, IntegerDomain
from repro.core.errors import DomainError
from repro.core.intervals import Interval


class TestContinuousDomain:
    def test_size_is_interval_length(self):
        # Example 3: temperature in [-30, 50] has domain size 80.
        assert ContinuousDomain(-30, 50).size == 80

    def test_membership(self):
        domain = ContinuousDomain(0, 100)
        assert 0 in domain
        assert 100 in domain
        assert 50.5 in domain
        assert 100.1 not in domain
        assert "high" not in domain
        assert True not in domain  # booleans are not numeric values
        assert float("nan") not in domain
        assert 10**400 not in domain  # compared exactly: float() overflows
        assert -(10**400) not in domain

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            ContinuousDomain(10, 10)
        with pytest.raises(DomainError):
            ContinuousDomain(float("inf"), 0)

    def test_measure_of_interval(self):
        domain = ContinuousDomain(0, 100)
        assert domain.measure(Interval.closed(10, 30)) == 20
        assert domain.measure(Interval.closed(90, 200)) == 10
        assert domain.measure(Interval.closed(200, 300)) == 0

    def test_validate_value(self):
        domain = ContinuousDomain(0, 10)
        domain.validate_value(5)
        with pytest.raises(DomainError):
            domain.validate_value(11)


class TestIntegerDomain:
    def test_size_counts_values(self):
        assert IntegerDomain(0, 99).size == 100
        assert IntegerDomain(5, 5).size == 1

    def test_membership_requires_integers(self):
        domain = IntegerDomain(0, 10)
        assert 5 in domain
        assert 0 in domain
        assert 10 in domain
        assert 5.5 not in domain
        assert 11 not in domain
        assert True not in domain

    def test_values_are_natural_order(self):
        assert list(IntegerDomain(3, 6).values()) == [3, 4, 5, 6]

    def test_measure_counts_integers_in_interval(self):
        domain = IntegerDomain(0, 99)
        assert domain.measure(Interval.closed(10, 12)) == 3
        assert domain.measure(Interval.open(10, 12)) == 1
        assert domain.measure(Interval.closed_open(10, 12)) == 2
        assert domain.measure(Interval.closed(150, 160)) == 0

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            IntegerDomain(5, 1)


class TestDiscreteDomain:
    def test_natural_order_is_preserved(self):
        # Example 5 of the paper uses the alphabetic domain {a..f}.
        domain = DiscreteDomain(["a", "b", "c", "d", "e", "f"])
        assert list(domain.values()) == ["a", "b", "c", "d", "e", "f"]
        assert domain.index_of("c") == 2

    def test_membership(self):
        domain = DiscreteDomain(["red", "green", "blue"])
        assert "red" in domain
        assert "yellow" not in domain

    def test_size(self):
        assert DiscreteDomain(["x", "y"]).size == 2

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            DiscreteDomain(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            DiscreteDomain([])

    def test_index_of_unknown_value(self):
        domain = DiscreteDomain(["a", "b"])
        with pytest.raises(DomainError):
            domain.index_of("z")

    def test_measure_over_index_interval(self):
        domain = DiscreteDomain(["a", "b", "c", "d"])
        assert domain.measure(Interval.closed(1, 2)) == 2
        assert domain.measure(Interval.open(0, 3)) == 2

    def test_measure_values(self):
        domain = DiscreteDomain(["a", "b", "c"])
        assert domain.measure_values(["a", "z", "c"]) == 2


SLAB_BOUNDS = st.one_of(
    st.integers(min_value=-3, max_value=23),
    st.integers(min_value=-3, max_value=23).map(lambda v: v + 0.5),
    st.sampled_from([-math.inf, math.inf, -(10**400), 10**400]),
)


def brute_measure(domain, interval: Interval) -> float:
    """The size of ``interval`` in ``domain``, without ``Domain.measure``."""
    clamped = domain.clamp(interval)
    if clamped is None:
        return 0.0
    if isinstance(domain, IntegerDomain):
        return float(sum(1 for value in domain.values() if clamped.contains(value)))
    return clamped.length


class TestSlabMeasures:
    @given(
        st.sampled_from(
            [
                IntegerDomain(0, 20),
                IntegerDomain(4, 4),
                ContinuousDomain(0, 20),
                ContinuousDomain(2.5, 17.5),
            ]
        ),
        st.sets(SLAB_BOUNDS, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_slab_measures_what_its_clamped_interval_measures(self, domain, bounds):
        boundaries = sorted(bounds)
        gaps, points = domain.slab_measures(boundaries)
        edges = [-math.inf, *boundaries, math.inf]
        assert len(gaps) == len(boundaries) + 1 and len(points) == len(boundaries)
        for (low, high), size in zip(zip(edges, edges[1:]), gaps):
            slab = Interval(low, high, False, False) if low < high else None
            assert size == (brute_measure(domain, slab) if slab else 0.0), (low, high)
        for value, size in zip(boundaries, points):
            assert size == brute_measure(domain, Interval.point(value)), value

    def test_bounds_past_the_float_range_are_compared_exactly(self):
        domain = IntegerDomain(0, 9)
        gaps, points = domain.slab_measures([-(10**400), 3, 10**400])
        assert gaps == [0.0, 3.0, 6.0, 0.0]
        assert points == [0.0, 1.0, 0.0]
        assert ContinuousDomain(0, 9).slab_measures([10**400]) == ([9.0, 0.0], [0.0])
