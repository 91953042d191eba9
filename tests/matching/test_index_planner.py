"""The index planner's per-structure verdicts.

The planner decides hash-vs-scan and interval-vs-scan *independently* per
attribute, so one attribute can keep its selective hash probes while its
broad overlapping ranges are demoted to scanning.  Each verdict is its
structure's own cost comparison, and the chosen mix costs no more than
either all-or-nothing plan.  Whatever mix is chosen, the matcher must
stay bit-identical to the naive oracle: same matched ids, same order,
across arbitrary profiles, events and subscription churn, on the
per-event and the columnar batch path alike (with identical per-event
operation accounting between the two), and on every corpus scenario
replanned on its own distributions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.matching.index import PredicateIndexMatcher, kernel
from repro.matching.naive import NaiveMatcher
from repro.workloads import build_workload
from repro.workloads.profiles import get_profile, list_profiles

DOMAIN_SIZE = 12
ATTRIBUTES = ("a", "b")


def make_schema(size: int = DOMAIN_SIZE) -> Schema:
    return Schema([Attribute(name, IntegerDomain(0, size - 1)) for name in ATTRIBUTES])


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


def assert_matches_the_oracle(matcher, profiles, values=range(100)):
    naive = NaiveMatcher(profiles)
    for value in values:
        event = Event({"a": value})
        assert matcher.match(event).matched_profile_ids == naive.match(event).matched_profile_ids


class TestMixedPlans:
    def test_planner_demotes_broad_ranges_but_keeps_the_hash(self):
        matcher = PredicateIndexMatcher(mixed_profiles())
        plan = matcher.plan.plan_for("a")
        assert plan.use_hash and not plan.use_interval
        # The mixed plan is strictly cheaper than either pure strategy.
        pure_index = plan.hash_index_cost + plan.interval_index_cost
        pure_scan = plan.hash_scan_cost + plan.interval_scan_cost
        assert plan.chosen_cost < min(pure_index, pure_scan)

    def test_mixed_plan_matches_the_oracle(self):
        profiles = mixed_profiles()
        assert_matches_the_oracle(PredicateIndexMatcher(profiles), profiles)

    def test_estimated_cost_is_the_mixed_structure_choice(self):
        matcher = PredicateIndexMatcher(mixed_profiles())
        plan = matcher.plan.plan_for("a")
        assert matcher.estimated_cost({}) == pytest.approx(plan.chosen_cost)
        assert matcher.estimated_cost({}) < plan.index_cost

    def test_churn_maintains_the_mixed_plan_views_exactly(self):
        """Entry creation/removal on a demoted structure keeps the scan
        view exact — membership changes rebuild it, postings stay live."""
        profiles = mixed_profiles()
        matcher = PredicateIndexMatcher(profiles)
        matcher.add_profile(Profile("R9", {"a": RangePredicate.between(10, 20)}))
        matcher.remove_profile("R0")
        matcher.add_profile(Profile("E9", {"a": OneOf((7, 8))}))
        matcher.remove_profile("E1")
        assert_matches_the_oracle(matcher, profiles)


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


def _assert_agree(matcher, naive, events):
    for event in events:
        # Bit-identical to the oracle: ids AND order.
        assert matcher.match(event).matched_profile_ids == naive.match(event).matched_profile_ids


def _assert_verdicts_are_per_structure(matcher):
    """Each structure is indexed exactly when it has entries and its probe
    undercuts scanning them, so the mix never costs more than either
    all-or-nothing plan."""
    for plan in matcher.plan.attributes.values():
        assert plan.use_hash == (
            plan.hash_scan_cost > 0 and plan.hash_index_cost < plan.hash_scan_cost
        )
        assert plan.use_interval == (
            plan.interval_scan_cost > 0 and plan.interval_index_cost < plan.interval_scan_cost
        )
        assert plan.chosen_cost <= plan.index_cost + 1e-12
        assert plan.chosen_cost <= plan.scan_cost


@given(workloads())
@settings(max_examples=80, deadline=None)
def test_planned_matcher_and_naive_agree_under_churn(data):
    initial, added, removed, events = data
    schema = make_schema()

    def fresh_profiles():
        profiles = ProfileSet(schema)
        for profile in initial:
            profiles.add(profile)
        return profiles

    matcher = PredicateIndexMatcher(fresh_profiles())
    naive = NaiveMatcher(fresh_profiles())

    _assert_verdicts_are_per_structure(matcher)
    _assert_agree(matcher, naive, events)
    for profile in added:
        for each in (matcher, naive):
            each.add_profile(profile)
    _assert_verdicts_are_per_structure(matcher)
    _assert_agree(matcher, naive, events)
    for profile_id in removed:
        for each in (matcher, naive):
            each.remove_profile(profile_id)
    _assert_verdicts_are_per_structure(matcher)
    _assert_agree(matcher, naive, events)


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_batch_path_equals_per_event_path(data):
    """The columnar kernel executes mixed plans through the same views:
    identical ids, order and per-event operation accounting."""
    initial, added, removed, events = data
    schema = make_schema()
    profiles = ProfileSet(schema)
    for profile in initial:
        profiles.add(profile)
    matcher = PredicateIndexMatcher(profiles)
    sequential = [matcher.match(event) for event in events]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "MIN_COLUMNAR_BATCH", 1)
        batched = matcher.match_batch(events)
    assert [r.matched_profile_ids for r in batched] == [
        r.matched_profile_ids for r in sequential
    ]
    assert [r.operations for r in batched] == [r.operations for r in sequential]


# -- the corpus ---------------------------------------------------------------

#: Small enough to run the whole corpus in a few seconds; at this size
#: ``aml-transactions`` and ``mixed-structure`` still plan a mixed
#: attribute (hash probed, ranges scanned).
CORPUS_PROFILE_CAP = 300
CORPUS_EVENTS = 300


@pytest.mark.parametrize("name", list_profiles())
def test_corpus_replans_keep_per_structure_verdicts_and_the_oracle(name):
    """Replanned on a scenario's own event distributions, every attribute
    installs the verdicts its plan reports, each one its structure's own
    cost comparison, and both paths still answer like the oracle."""
    spec = get_profile(name).spec
    workload = build_workload(
        spec.with_counts(
            profile_count=min(spec.profile_count, CORPUS_PROFILE_CAP), event_count=CORPUS_EVENTS
        )
    )
    profiles = ProfileSet(workload.spec.schema, workload.profiles)
    matcher = PredicateIndexMatcher(profiles)
    matcher.replan(workload.event_distributions)
    _assert_verdicts_are_per_structure(matcher)
    for attribute, plan in matcher.plan.attributes.items():
        state = matcher._states[attribute]
        assert (state.use_hash, state.use_interval) == (plan.use_hash, plan.use_interval)
    events = list(workload.events)
    _assert_agree(matcher, NaiveMatcher(profiles), events)
    sequential = [matcher.match(event) for event in events]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "MIN_COLUMNAR_BATCH", 1)
        batched = matcher.match_batch(events)
    assert [r.matched_profile_ids for r in batched] == [
        r.matched_profile_ids for r in sequential
    ]
    assert [r.operations for r in batched] == [r.operations for r in sequential]
