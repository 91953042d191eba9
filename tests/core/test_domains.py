"""Tests for attribute domains."""

import pytest

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
