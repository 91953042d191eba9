"""Tests for the covering relation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import ContinuousDomain, IntegerDomain
from repro.core.events import Event
from repro.core.predicates import DONT_CARE, Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import profile
from repro.core.schema import Attribute, Schema
from repro.service.routing.covering import minimal_cover, predicate_covers, profile_covers


class TestPredicateCovering:
    DOMAIN = ContinuousDomain(0, 100)

    def test_dont_care_covers_everything(self):
        assert predicate_covers(DONT_CARE, Equals(5), self.DOMAIN)
        assert predicate_covers(DONT_CARE, RangePredicate.between(1, 2), self.DOMAIN)
        assert not predicate_covers(Equals(5), DONT_CARE, self.DOMAIN)

    def test_range_covers_narrower_range(self):
        wide = RangePredicate.between(10, 50)
        narrow = RangePredicate.between(20, 30)
        assert predicate_covers(wide, narrow, self.DOMAIN)
        assert not predicate_covers(narrow, wide, self.DOMAIN)

    def test_range_covers_equality_inside_it(self):
        assert predicate_covers(RangePredicate.between(10, 50), Equals(30), self.DOMAIN)
        assert not predicate_covers(RangePredicate.between(10, 50), Equals(60), self.DOMAIN)

    def test_equality_covering(self):
        assert predicate_covers(Equals(5), Equals(5), self.DOMAIN)
        assert not predicate_covers(Equals(5), Equals(6), self.DOMAIN)

    def test_oneof_covering(self):
        domain = IntegerDomain(0, 9)
        assert predicate_covers(OneOf([1, 2, 3]), Equals(2), domain)
        assert predicate_covers(OneOf([1, 2, 3]), OneOf([2, 3]), domain)
        assert not predicate_covers(OneOf([1, 2]), OneOf([2, 3]), domain)

    def test_not_equals_covering(self):
        domain = IntegerDomain(0, 9)
        assert predicate_covers(NotEquals(5), Equals(4), domain)
        assert not predicate_covers(NotEquals(5), Equals(5), domain)
        assert predicate_covers(NotEquals(5), NotEquals(5), domain)
        assert not predicate_covers(NotEquals(5), NotEquals(6), domain)

    def test_not_equals_covering_one_of(self):
        domain = IntegerDomain(0, 9)
        # ≠5 accepts a one-of exactly when 5 is not among its values.
        assert predicate_covers(NotEquals(5), OneOf([1, 2, 3]), domain)
        assert not predicate_covers(NotEquals(5), OneOf([4, 5]), domain)
        # A point exclusion never covers an interval (conservative).
        assert not predicate_covers(NotEquals(5), RangePredicate.between(6, 8), domain)

    def test_range_covering_clamps_to_the_domain(self):
        # Intervals are compared after clamping against the attribute
        # domain — the parts outside the domain can never match an event.
        assert predicate_covers(
            RangePredicate.at_least(50), RangePredicate.between(60, 150), self.DOMAIN
        )
        assert predicate_covers(
            RangePredicate.between(0, 300), RangePredicate.at_least(40), self.DOMAIN
        )

    def test_range_empty_after_clamp_is_covered_by_anything(self):
        # A range entirely outside the domain accepts no event at all, so
        # every range covers it...
        vacuous = RangePredicate.between(150, 180)
        assert predicate_covers(RangePredicate.between(0, 1), vacuous, self.DOMAIN)
        # ...and it covers nothing that is satisfiable.
        assert not predicate_covers(vacuous, RangePredicate.between(0, 1), self.DOMAIN)
        # Two vacuous ranges cover each other.
        assert predicate_covers(
            vacuous, RangePredicate.between(200, 300), self.DOMAIN
        )


class TestProfileCovering:
    def schema(self):
        return Schema(
            [Attribute("price", ContinuousDomain(0, 200)), Attribute("volume", IntegerDomain(0, 9))]
        )

    def test_wider_profile_covers_narrower_one(self):
        schema = self.schema()
        wide = profile("wide", price=RangePredicate.at_least(100))
        narrow = profile("narrow", price=RangePredicate.between(150, 180), volume=3)
        assert profile_covers(wide, narrow, schema)
        assert not profile_covers(narrow, wide, schema)

    def test_minimal_cover_removes_covered_profiles(self):
        schema = self.schema()
        wide = profile("wide", price=RangePredicate.at_least(100))
        narrow = profile("narrow", price=RangePredicate.between(150, 180))
        other = profile("other", volume=5)
        cover = minimal_cover([narrow, wide, other], schema)
        ids = sorted(p.profile_id for p in cover)
        assert ids == ["other", "wide"]

    def test_minimal_cover_keeps_incomparable_profiles(self):
        schema = self.schema()
        first = profile("a", price=RangePredicate.between(0, 50))
        second = profile("b", price=RangePredicate.between(60, 90))
        assert len(minimal_cover([first, second], schema)) == 2

    def test_covering_profile_matches_superset_of_events(self):
        schema = self.schema()
        wide = profile("wide", price=RangePredicate.at_least(100))
        narrow = profile("narrow", price=RangePredicate.between(150, 180), volume=3)
        assert profile_covers(wide, narrow, schema)
        import random

        rng = random.Random(13)
        for _ in range(300):
            event = Event({"price": rng.uniform(0, 200), "volume": rng.randint(0, 9)})
            if narrow.matches(event):
                assert wide.matches(event)


# -- hypothesis: syntactic covering implies semantic covering -----------------
#
# ``profile_covers(a, b)`` is the routing overlay's licence to *not*
# forward b where a already went; it is sound only if b's match set is a
# subset of a's on every event.  The strategy below generates arbitrary
# predicate combinations (including don't-cares and empty-after-clamp
# ranges) over a small integer schema and checks the implication.

_COVER_DOMAIN = 10
_COVER_ATTRIBUTES = ("x", "y")


def _cover_schema() -> Schema:
    return Schema(
        [Attribute(n, IntegerDomain(0, _COVER_DOMAIN - 1)) for n in _COVER_ATTRIBUTES]
    )


@st.composite
def _cover_predicates(draw):
    kind = draw(st.sampled_from(["dont_care", "eq", "neq", "oneof", "range"]))
    if kind == "dont_care":
        return DONT_CARE
    if kind == "eq":
        return Equals(draw(st.integers(0, _COVER_DOMAIN - 1)))
    if kind == "neq":
        return NotEquals(draw(st.integers(0, _COVER_DOMAIN - 1)))
    if kind == "oneof":
        values = draw(
            st.lists(st.integers(0, _COVER_DOMAIN - 1), min_size=1, max_size=4)
        )
        return OneOf(values)
    # Deliberately allow bounds outside the domain: covering must clamp.
    low = draw(st.integers(-3, _COVER_DOMAIN + 2))
    high = draw(st.integers(low, _COVER_DOMAIN + 2))
    return RangePredicate.between(low, high)


@st.composite
def _cover_profiles(draw):
    predicates = {
        name: draw(_cover_predicates())
        for name in _COVER_ATTRIBUTES
        if draw(st.booleans())
    }
    if not predicates:
        predicates["x"] = draw(_cover_predicates())
    return predicates


@given(_cover_profiles(), _cover_profiles(), st.data())
@settings(max_examples=200, deadline=None)
def test_profile_covering_implies_match_set_inclusion(general, specific, data):
    schema = _cover_schema()
    a = profile("a", **general)
    b = profile("b", **specific)
    if not profile_covers(a, b, schema):
        return
    for _ in range(20):
        event = Event(
            {
                name: data.draw(st.integers(0, _COVER_DOMAIN - 1))
                for name in _COVER_ATTRIBUTES
            }
        )
        if b.matches(event):
            assert a.matches(event), (
                f"covering violated: {a} claimed to cover {b} but misses {event}"
            )
