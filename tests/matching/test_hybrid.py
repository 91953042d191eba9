"""The hybrid per-attribute plans: mixed-plan units + property equivalence.

The hybrid planner decides hash-vs-scan and interval-vs-scan
*independently* per attribute, so one attribute can keep its selective
hash probes while its broad overlapping ranges are demoted to scanning —
a plan the binary planner cannot express.  Whatever mix is chosen, the
matcher must stay bit-identical to the binary index family and the naive
oracle: same matched ids, same order, across arbitrary profiles, events
and subscription churn, on the per-event and the columnar batch path
alike (with identical per-event operation accounting between the two).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.matching.index import IndexPlanner, PredicateIndexMatcher, kernel
from repro.matching.naive import NaiveMatcher

DOMAIN_SIZE = 12
ATTRIBUTES = ("a", "b")


def make_schema(size: int = DOMAIN_SIZE) -> Schema:
    return Schema([Attribute(name, IntegerDomain(0, size - 1)) for name in ATTRIBUTES])


def hybrid_matcher(profiles: ProfileSet) -> PredicateIndexMatcher:
    return PredicateIndexMatcher(profiles, planner=IndexPlanner(hybrid=True))


# -- mixed-plan units ---------------------------------------------------------


def mixed_profiles() -> ProfileSet:
    """Selective equalities + broad overlapping ranges on one attribute."""
    schema = make_schema(100)
    profiles = ProfileSet(schema)
    for index in range(4):
        profiles.add(Profile(f"E{index}", {"a": Equals(index)}))
    for index in range(3):
        profiles.add(Profile(f"R{index}", {"a": RangePredicate.between(0, 99)}))
    return profiles


class TestMixedPlans:
    def test_hybrid_planner_demotes_broad_ranges_but_keeps_the_hash(self):
        matcher = hybrid_matcher(mixed_profiles())
        plan = matcher.plan.plan_for("a")
        assert plan.use_hash and not plan.use_interval
        assert plan.is_hybrid
        # The mixed plan is strictly cheaper than either pure strategy.
        pure_index = plan.hash_index_cost + plan.interval_index_cost
        pure_scan = plan.hash_scan_cost + plan.interval_scan_cost
        assert plan.chosen_cost < min(pure_index, pure_scan)

    def test_binary_planner_couples_both_structures(self):
        matcher = PredicateIndexMatcher(mixed_profiles())
        plan = matcher.plan.plan_for("a")
        assert plan.use_hash == plan.use_interval == plan.use_index
        assert not plan.is_hybrid

    def test_mixed_plan_matches_like_the_binary_matcher(self):
        profiles = mixed_profiles()
        hybrid = hybrid_matcher(profiles)
        binary = PredicateIndexMatcher(profiles)
        for value in range(100):
            event = Event({"a": value})
            assert (
                hybrid.match(event).matched_profile_ids
                == binary.match(event).matched_profile_ids
            )

    def test_estimated_cost_reflects_the_mixed_structure_choice(self):
        hybrid = hybrid_matcher(mixed_profiles())
        binary = PredicateIndexMatcher(mixed_profiles())
        assert hybrid.estimated_cost({}) < binary.estimated_cost({})

    def test_churn_maintains_the_mixed_plan_views_exactly(self):
        """Entry creation/removal on a demoted structure keeps the scan
        view exact — membership changes rebuild it, postings stay live."""
        profiles = mixed_profiles()
        hybrid = hybrid_matcher(profiles)
        binary = PredicateIndexMatcher(mixed_profiles())
        for matcher in (hybrid, binary):
            matcher.add_profile(Profile("R9", {"a": RangePredicate.between(10, 20)}))
            matcher.remove_profile("R0")
            matcher.add_profile(Profile("E9", {"a": OneOf((7, 8))}))
            matcher.remove_profile("E1")
        for value in range(100):
            event = Event({"a": value})
            assert (
                hybrid.match(event).matched_profile_ids
                == binary.match(event).matched_profile_ids
            )


# -- property equivalence -----------------------------------------------------


@st.composite
def workloads(draw):
    """Random profiles, churn script and events over two attributes."""
    profile_count = draw(st.integers(min_value=1, max_value=10))

    def draw_profile(tag, index):
        predicates = {}
        for name in ATTRIBUTES:
            kind = draw(st.sampled_from(["skip", "eq", "oneof", "range", "ne"]))
            if kind == "eq":
                predicates[name] = Equals(draw(st.integers(0, DOMAIN_SIZE - 1)))
            elif kind == "oneof":
                values = draw(
                    st.lists(st.integers(0, DOMAIN_SIZE - 1), min_size=1, max_size=3)
                )
                predicates[name] = OneOf(tuple(values))
            elif kind == "range":
                low = draw(st.integers(0, DOMAIN_SIZE - 1))
                high = draw(st.integers(low, DOMAIN_SIZE - 1))
                predicates[name] = RangePredicate.between(low, high)
            elif kind == "ne":
                predicates[name] = NotEquals(draw(st.integers(0, DOMAIN_SIZE - 1)))
        if not predicates:
            predicates["a"] = Equals(draw(st.integers(0, DOMAIN_SIZE - 1)))
        return Profile(f"{tag}{index}", predicates)

    initial = [draw_profile("P", index) for index in range(profile_count)]
    added = [
        draw_profile("Q", index)
        for index in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    removed = [
        profile.profile_id
        for profile in initial
        if draw(st.booleans()) and len(initial) > 1
    ][: len(initial) - 1]
    events = [
        Event({name: draw(st.integers(0, DOMAIN_SIZE - 1)) for name in ATTRIBUTES})
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    return initial, added, removed, events


def _assert_agree(hybrid, binary, naive, events):
    for event in events:
        expected = binary.match(event)
        actual = hybrid.match(event)
        # Bit-identical to the binary index family: ids AND order.
        assert actual.matched_profile_ids == expected.matched_profile_ids
        oracle = sorted(naive.match(event).matched_profile_ids)
        assert sorted(actual.matched_profile_ids) == oracle


@given(workloads())
@settings(max_examples=80, deadline=None)
def test_hybrid_binary_and_naive_agree_under_churn(data):
    initial, added, removed, events = data
    schema = make_schema()

    def fresh_profiles():
        profiles = ProfileSet(schema)
        for profile in initial:
            profiles.add(profile)
        return profiles

    hybrid = hybrid_matcher(fresh_profiles())
    binary = PredicateIndexMatcher(fresh_profiles())
    naive = NaiveMatcher(fresh_profiles())
    matchers = (hybrid, binary, naive)

    _assert_agree(hybrid, binary, naive, events)
    for profile in added:
        for matcher in matchers:
            matcher.add_profile(profile)
    _assert_agree(hybrid, binary, naive, events)
    for profile_id in removed:
        for matcher in matchers:
            matcher.remove_profile(profile_id)
    _assert_agree(hybrid, binary, naive, events)


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_hybrid_batch_path_equals_per_event_path(data):
    """The columnar kernel executes mixed plans through the same views:
    identical ids, order and per-event operation accounting."""
    initial, added, removed, events = data
    schema = make_schema()
    profiles = ProfileSet(schema)
    for profile in initial:
        profiles.add(profile)
    matcher = hybrid_matcher(profiles)
    sequential = [matcher.match(event) for event in events]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "MIN_COLUMNAR_BATCH", 1)
        batched = matcher.match_batch(events)
    assert [r.matched_profile_ids for r in batched] == [
        r.matched_profile_ids for r in sequential
    ]
    assert [r.operations for r in batched] == [r.operations for r in sequential]
