"""The endpoint sweep ≡ the quadratic decomposition it replaced.

``decompose_intervals`` and the interval branch of ``build_partition``
walk the sorted endpoints once, carrying the set of open inputs; the
references in :mod:`scan_reference` probe every piece against every
input.  Same pieces, same closures, same owners, same ``zero_size``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from scan_reference import quadratic_decompose_intervals, quadratic_ordered_partition

from repro.core.domains import ContinuousDomain, IntegerDomain
from repro.core.intervals import Interval, decompose_intervals
from repro.core.predicates import DONT_CARE, Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.core.subranges import build_partition


@st.composite
def intervals(draw):
    """Intervals on a coarse grid, so overlaps, shared endpoints,
    touching open/closed ends, duplicates and points are all common."""
    low = draw(st.integers(min_value=0, max_value=24)) / 2
    width = draw(st.integers(min_value=0, max_value=16)) / 2
    if width == 0:
        return Interval.point(low)
    return Interval(low, low + width, draw(st.booleans()), draw(st.booleans()))


range_predicates = st.one_of(
    intervals().map(RangePredicate),
    st.integers(min_value=0, max_value=12).map(RangePredicate.at_least),
    st.integers(min_value=1, max_value=12).map(RangePredicate.less_than),
)

integer_predicates = st.one_of(
    range_predicates,
    st.integers(min_value=0, max_value=12).map(Equals),
    st.integers(min_value=0, max_value=12).map(NotEquals),
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=4).map(OneOf),
    st.just(DONT_CARE),
)


def profile_set(domain, predicates) -> ProfileSet:
    schema = Schema([Attribute("value", domain)])
    return ProfileSet(
        schema, [Profile(f"P{i}", {"value": predicate}) for i, predicate in enumerate(predicates)]
    )


def reference_partition(profiles: ProfileSet):
    constraining = [p for p in profiles if p.constrains("value")]
    dont_care = frozenset(p.profile_id for p in profiles if not p.constrains("value"))
    return quadratic_ordered_partition(profiles.schema.attribute("value"), constraining, dont_care)


class TestSweepMatchesQuadraticReference:
    @given(st.lists(intervals(), max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_decompose_intervals(self, items):
        assert decompose_intervals(items) == quadratic_decompose_intervals(items)

    @given(st.lists(integer_predicates, min_size=1, max_size=12), range_predicates)
    @settings(max_examples=300, deadline=None)
    def test_integer_partition(self, predicates, ranged):
        # At least one range predicate selects the interval decomposition;
        # NotEquals/OneOf profiles then own several intervals each.
        profiles = profile_set(IntegerDomain(0, 20), [*predicates, ranged])
        assert build_partition(profiles, "value") == reference_partition(profiles)

    @given(st.lists(st.one_of(range_predicates, st.just(DONT_CARE)), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_continuous_partition(self, predicates):
        profiles = profile_set(ContinuousDomain(0.0, 20.0), predicates)
        assert build_partition(profiles, "value") == reference_partition(profiles)
