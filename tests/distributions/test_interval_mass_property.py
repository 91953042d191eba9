"""``DiscreteDistribution.probability_of_interval`` ≡ a support scan.

The implementation answers interval queries with two bisects over the
sorted support and a prefix-sum difference; the oracle
(:func:`scan_reference.scan_probability_of_interval`) tests every support
value with ``Interval.contains``.  They must agree for every pmf, every
interval and all four open/closed bound combinations — on an
``IntegerDomain`` (interval over values) and on a ``DiscreteDomain``
(interval over natural-order *indexes*).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_reference import scan_probability_of_interval

from repro.core.domains import DiscreteDomain, IntegerDomain
from repro.core.intervals import Interval
from repro.distributions.discrete import DiscreteDistribution, uniform_discrete

#: A prefix-sum difference and a direct sum round differently; both stay
#: within a few ulps of the true mass (<= 1).
TOLERANCE = 1e-12

CLOSURES = [(True, True), (True, False), (False, True), (False, False)]


@st.composite
def integer_distributions(draw):
    low = draw(st.integers(min_value=-40, max_value=40))
    domain = IntegerDomain(low, low + draw(st.integers(min_value=0, max_value=60)))
    # A sparse support: most queries then have bounds off the support.
    support = draw(
        st.lists(
            st.integers(min_value=domain.low, max_value=domain.high),
            min_size=1,
            max_size=25,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return DiscreteDistribution(domain, dict(zip(support, weights)))


@st.composite
def discrete_distributions(draw):
    # The natural order is the (shuffled) declaration order, not the
    # sorted order of the labels.
    labels = draw(st.permutations([f"v{i}" for i in range(draw(st.integers(1, 25)))]))
    domain = DiscreteDomain(labels)
    support = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return DiscreteDistribution(domain, dict(zip(support, weights)))


def bounds(low: float, high: float):
    """Bounds on, between and beyond the positions ``low..high``."""
    return st.one_of(
        st.integers(min_value=int(low) - 5, max_value=int(high) + 5).map(float),
        st.integers(min_value=int(low) - 5, max_value=int(high) + 5).map(lambda v: v + 0.5),
        st.sampled_from([-math.inf, math.inf]),
    )


@st.composite
def intervals_over(draw, low: float, high: float):
    first, second = sorted((draw(bounds(low, high)), draw(bounds(low, high))))
    if first == second:
        if math.isinf(first):
            first, second = -math.inf, math.inf
        else:
            return Interval.point(first)
    low_closed, high_closed = draw(st.sampled_from(CLOSURES))
    return Interval(first, second, low_closed, high_closed)


def assert_matches_scan(distribution: DiscreteDistribution, interval: Interval) -> None:
    expected = scan_probability_of_interval(distribution, interval)
    actual = distribution.probability_of_interval(interval)
    assert actual == pytest.approx(expected, abs=TOLERANCE)
    # Every support value carries real mass, so "empty" must be exact.
    assert (actual == 0.0) == (expected == 0.0)


class TestIntervalMassMatchesSupportScan:
    @given(st.data(), integer_distributions())
    @settings(max_examples=300, deadline=None)
    def test_integer_domain(self, data, distribution):
        domain = distribution.domain
        interval = data.draw(intervals_over(domain.low, domain.high))
        assert_matches_scan(distribution, interval)

    @given(st.data(), discrete_distributions())
    @settings(max_examples=300, deadline=None)
    def test_discrete_domain_uses_index_semantics(self, data, distribution):
        interval = data.draw(intervals_over(0, distribution.domain.size - 1))
        assert_matches_scan(distribution, interval)

    @pytest.mark.parametrize("low_closed,high_closed", CLOSURES)
    def test_bounds_on_support_values_honour_each_closure(self, low_closed, high_closed):
        distribution = uniform_discrete(IntegerDomain(0, 9))
        interval = Interval(2, 6, low_closed, high_closed)
        inside = 3 + int(low_closed) + int(high_closed)
        assert distribution.probability_of_interval(interval) == pytest.approx(inside / 10)
        assert_matches_scan(distribution, interval)

    def test_degenerate_queries(self):
        distribution = DiscreteDistribution(IntegerDomain(0, 99), {10: 1.0, 20: 3.0})
        everything = Interval(-math.inf, math.inf, True, True)
        assert distribution.probability_of_interval(everything) == pytest.approx(1.0)
        assert distribution.probability_of_interval(Interval.point(20)) == pytest.approx(0.75)
        assert distribution.probability_of_interval(Interval.point(15)) == 0.0
        assert distribution.probability_of_interval(Interval.open(10, 20)) == 0.0
        assert distribution.probability_of_interval(Interval.closed(200, 300)) == 0.0
        assert distribution.probability_of_interval(Interval.closed(-300, -200)) == 0.0
