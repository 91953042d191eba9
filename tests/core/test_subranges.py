"""Tests for the per-attribute sub-range decomposition."""

import math

import pytest

from repro.core.domains import ContinuousDomain, DiscreteDomain, IntegerDomain
from repro.core.intervals import Interval
from repro.core.predicates import OneOf, RangePredicate
from repro.core.profiles import ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.core.subranges import Subrange, build_partition, build_partitions
from repro.workloads.toy import environmental_profiles


class TestToyExamplePartitions:
    """Partitions of the paper's Example 1 / Example 3."""

    def test_temperature_subranges_match_fig1(self):
        partition = build_partition(environmental_profiles(), "temperature")
        labels = [s.label() for s in partition.subranges]
        assert labels == ["[-30, -20]", "[30, 35)", "[35, 50]"]

    def test_temperature_zero_subdomain_size(self):
        # Example 3: d_1 = 80, d_0 = 50.
        partition = build_partition(environmental_profiles(), "temperature")
        assert partition.domain_size == pytest.approx(80)
        assert partition.zero_size == pytest.approx(50)
        assert partition.zero_fraction == pytest.approx(0.625)

    def test_humidity_zero_subdomain_size(self):
        # Example 3: d_2 = 100, d_0 = 75.
        partition = build_partition(environmental_profiles(), "humidity")
        assert partition.zero_size == pytest.approx(75)
        assert partition.zero_fraction == pytest.approx(0.75)

    def test_radiation_zero_subdomain_is_empty_due_to_dont_cares(self):
        # Example 3: d_0(a_3) = 0 because P1, P2 and P5 do not constrain it.
        partition = build_partition(environmental_profiles(), "radiation")
        assert partition.dont_care_profile_ids == {"P1", "P2", "P5"}
        assert partition.zero_size == 0
        assert partition.zero_fraction == 0

    def test_subrange_ownership(self):
        partition = build_partition(environmental_profiles(), "temperature")
        by_label = {s.label(): s.profile_ids for s in partition.subranges}
        assert by_label["[-30, -20]"] == {"P4"}
        assert by_label["[30, 35)"] == {"P2", "P3", "P5"}
        assert by_label["[35, 50]"] == {"P1", "P2", "P3", "P5"}

    def test_locate(self):
        partition = build_partition(environmental_profiles(), "temperature")
        assert partition.locate(32).label() == "[30, 35)"
        assert partition.locate(-25).label() == "[-30, -20]"
        assert partition.locate(0) is None  # zero-subdomain value

    def test_natural_rank(self):
        partition = build_partition(environmental_profiles(), "temperature")
        assert partition.natural_rank(-25) == 0  # inside the first sub-range
        assert partition.natural_rank(0) == 1  # in the gap after [-30, -20]
        assert partition.natural_rank(40) == 2
        assert partition.natural_rank(-29.5) == 0


def test_interval_subranges_compare_ints_exactly():
    """An ``int`` reaches ``Interval.contains`` as it is: ``10**400`` is no
    ``OverflowError`` and ``2**53 + 1`` is not rounded onto ``2**53``."""
    domain = ContinuousDomain(-1e20, 1e20)
    top = float(2**53)

    def subrange(interval):
        return Subrange(0, interval, None, frozenset({"P"}), 1.0)

    above = subrange(Interval(top, math.inf, False, True))
    up_to = subrange(Interval(0.0, top, True, True))
    assert above.contains(2**53 + 1, domain)
    assert not up_to.contains(2**53 + 1, domain)
    assert up_to.contains(2**53, domain) and not above.contains(2**53, domain)
    assert above.contains(10**400, domain) and not up_to.contains(10**400, domain)
    assert not above.contains(-(10**400), domain)


class TestDiscretePartitions:
    def make_profiles(self) -> ProfileSet:
        schema = Schema([Attribute("symbol", DiscreteDomain(["A", "B", "C", "D"]))])
        return ProfileSet(
            schema,
            [
                profile("P1", symbol="B"),
                profile("P2", symbol="B"),
                profile("P3", symbol=OneOf(["C", "D"])),
            ],
        )

    def test_values_become_subranges_in_natural_order(self):
        partition = build_partition(self.make_profiles(), "symbol")
        assert [s.value for s in partition.subranges] == ["B", "C", "D"]

    def test_zero_size_counts_unreferenced_values(self):
        partition = build_partition(self.make_profiles(), "symbol")
        assert partition.zero_size == 1  # only "A" is unreferenced
        assert partition.zero_fraction == pytest.approx(0.25)

    def test_ownership_of_value_subranges(self):
        partition = build_partition(self.make_profiles(), "symbol")
        by_value = {s.value: s.profile_ids for s in partition.subranges}
        assert by_value["B"] == {"P1", "P2"}
        assert by_value["C"] == {"P3"}

    def test_locate_and_rank_on_discrete_domain(self):
        partition = build_partition(self.make_profiles(), "symbol")
        assert partition.locate("C").value == "C"
        assert partition.locate("A") is None
        assert partition.natural_rank("A") == 0
        assert partition.natural_rank("D") == 2


class TestIntegerEqualityPartitions:
    def test_equality_profiles_give_point_subranges(self):
        schema = Schema([Attribute("price", IntegerDomain(0, 9))])
        profiles = ProfileSet(
            schema, [profile("P1", price=3), profile("P2", price=7), profile("P3", price=3)]
        )
        partition = build_partition(profiles, "price")
        assert [s.value for s in partition.subranges] == [3, 7]
        assert partition.zero_size == 8

    def test_mixed_equality_and_range_uses_interval_partition(self):
        schema = Schema([Attribute("price", IntegerDomain(0, 9))])
        profiles = ProfileSet(
            schema,
            [profile("P1", price=3), profile("P2", price=RangePredicate.between(2, 5))],
        )
        partition = build_partition(profiles, "price")
        assert all(s.interval is not None for s in partition.subranges)
        # 3 is contained in both profiles, so some sub-range owns both.
        located = partition.locate(3)
        assert located is not None and located.profile_ids == {"P1", "P2"}

    def test_build_partitions_covers_every_attribute(self):
        partitions = build_partitions(environmental_profiles())
        assert set(partitions) == {"temperature", "humidity", "radiation"}
