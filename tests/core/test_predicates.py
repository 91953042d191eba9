"""Tests for the predicate algebra."""

import pytest

from repro.core.domains import ContinuousDomain, DiscreteDomain, IntegerDomain
from repro.core.errors import PredicateError
from repro.core.intervals import Interval
from repro.core.predicates import (
    DONT_CARE,
    DontCare,
    Equals,
    NotEquals,
    OneOf,
    RangePredicate,
)


class TestEquals:
    def test_matches(self):
        assert Equals(5).matches(5)
        assert not Equals(5).matches(6)
        assert Equals("AAPL").matches("AAPL")

    def test_accepted_values_on_finite_domain(self):
        assert Equals(5).accepted_values(IntegerDomain(0, 10)) == [5]
        assert Equals(50).accepted_values(IntegerDomain(0, 10)) == []

    def test_accepted_intervals_on_discrete_domain_use_indexes(self):
        domain = DiscreteDomain(["a", "b", "c"])
        assert Equals("b").accepted_intervals(domain) == [Interval.point(1)]

    def test_validate_rejects_out_of_domain_value(self):
        with pytest.raises(PredicateError):
            Equals(500).validate(IntegerDomain(0, 10))

    def test_describe(self):
        assert Equals(3).describe() == "= 3"


class TestRangePredicate:
    def test_between(self):
        predicate = RangePredicate.between(10, 20)
        assert predicate.matches(10)
        assert predicate.matches(20)
        assert not predicate.matches(21)

    def test_at_least_and_at_most(self):
        assert RangePredicate.at_least(35).matches(35)
        assert RangePredicate.at_least(35).matches(1000)
        assert not RangePredicate.at_least(35).matches(34)
        assert RangePredicate.at_most(5).matches(5)
        assert not RangePredicate.at_most(5).matches(6)

    def test_strict_comparisons(self):
        assert not RangePredicate.greater_than(10).matches(10)
        assert RangePredicate.greater_than(10).matches(10.5)
        assert not RangePredicate.less_than(10).matches(10)
        assert RangePredicate.less_than(10).matches(9.9)

    def test_non_numeric_value_does_not_match(self):
        assert not RangePredicate.between(0, 10).matches("five")

    def test_values_are_compared_exactly(self):
        # float() would round 2**53 + 1 down onto the bound, overflow on
        # 10**400, and NaN used to fall inside every interval.
        assert not RangePredicate.at_most(float(2**53)).matches(2**53 + 1)
        assert RangePredicate.at_least(0).matches(10**400)
        assert not RangePredicate.between(0, 10).matches(10**400)
        assert not RangePredicate.between(0, 10).matches(float("nan"))
        assert not RangePredicate.between(0, 10).matches(True)

    def test_accepted_intervals_clamped_to_domain(self):
        domain = ContinuousDomain(-30, 50)
        intervals = RangePredicate.at_least(35).accepted_intervals(domain)
        assert intervals == [Interval.closed(35, 50)]

    def test_accepted_values_on_integer_domain(self):
        domain = IntegerDomain(0, 10)
        assert RangePredicate.between(8, 20).accepted_values(domain) == [8, 9, 10]

    def test_validate_on_unordered_domain_fails(self):
        with pytest.raises(PredicateError):
            RangePredicate.between(0, 1).validate(DiscreteDomain(["a", "b"]))

    def test_validate_disjoint_range_fails(self):
        with pytest.raises(PredicateError):
            RangePredicate.between(200, 300).validate(ContinuousDomain(0, 100))


class TestOneOf:
    def test_matches(self):
        predicate = OneOf(["a", "b"])
        assert predicate.matches("a")
        assert not predicate.matches("c")

    def test_duplicates_are_removed(self):
        assert OneOf([1, 1, 2]).values == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(PredicateError):
            OneOf([])

    def test_accepted_values(self):
        domain = DiscreteDomain(["a", "b", "c"])
        assert OneOf(["c", "z"]).accepted_values(domain) == ["c"]

    def test_validate(self):
        with pytest.raises(PredicateError):
            OneOf(["a", "z"]).validate(DiscreteDomain(["a", "b"]))


class TestNotEquals:
    def test_matches(self):
        assert NotEquals(5).matches(6)
        assert not NotEquals(5).matches(5)

    def test_accepted_values_exclude_value(self):
        assert NotEquals(1).accepted_values(IntegerDomain(0, 3)) == [0, 2, 3]

    def test_accepted_intervals_on_continuous_domain_split(self):
        domain = ContinuousDomain(0, 10)
        intervals = NotEquals(4.0).accepted_intervals(domain)
        assert len(intervals) == 2
        assert intervals[0].contains(3.9)
        assert not intervals[0].contains(4.0)
        assert intervals[1].contains(4.1)


class TestDontCare:
    def test_matches_everything(self):
        assert DONT_CARE.matches(5)
        assert DONT_CARE.matches("anything")
        assert DONT_CARE.is_dont_care

    def test_accepted_values_is_whole_domain(self):
        assert DONT_CARE.accepted_values(IntegerDomain(0, 2)) == [0, 1, 2]

    def test_singleton_equality(self):
        assert DontCare() == DONT_CARE
        assert hash(DontCare()) == hash(DONT_CARE)

    def test_describe(self):
        assert DONT_CARE.describe() == "*"
