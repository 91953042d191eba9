"""Equivalence and behaviour tests for the PredicateIndexMatcher.

The matcher must return *identical* ``matched_profile_ids`` (same ids,
same order) as the NaiveMatcher oracle on every workload: hypothesis
drives small adversarial profile sets over every predicate kind, and the
``workloads.generators`` machinery drives realistic randomized scenarios.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import DiscreteDomain, IntegerDomain
from repro.core.events import Event
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.matching import Matcher, match_batch
from repro.matching.index import IndexPlanner, PredicateIndexMatcher
from repro.matching.naive import NaiveMatcher
from repro.service.adaptive import AdaptationPolicy, AdaptiveFilterEngine
from repro.service.broker import Broker
from repro.workloads import (
    build_workload,
    get_profile,
)

DOMAIN_SIZE = 12
ATTRIBUTES = ("a", "b")


def make_schema() -> Schema:
    return Schema([Attribute(name, IntegerDomain(0, DOMAIN_SIZE - 1)) for name in ATTRIBUTES])


@st.composite
def workloads(draw):
    """Random profiles + events covering every indexable predicate kind."""
    schema = make_schema()
    profile_count = draw(st.integers(min_value=1, max_value=12))
    profiles = ProfileSet(schema)
    values = st.integers(0, DOMAIN_SIZE - 1)
    for index in range(profile_count):
        predicates = {}
        for name in ATTRIBUTES:
            kind = draw(st.sampled_from(["skip", "eq", "range", "open", "oneof", "ne"]))
            if kind == "eq":
                predicates[name] = Equals(draw(values))
            elif kind == "range":
                low = draw(values)
                high = draw(st.integers(low, DOMAIN_SIZE - 1))
                predicates[name] = RangePredicate.between(low, high)
            elif kind == "open":
                low = draw(st.integers(0, DOMAIN_SIZE - 2))
                high = draw(st.integers(low + 1, DOMAIN_SIZE - 1))
                predicates[name] = RangePredicate.between(
                    low,
                    high,
                    low_closed=draw(st.booleans()),
                    high_closed=draw(st.booleans()),
                )
            elif kind == "oneof":
                chosen = draw(st.sets(values, min_size=1, max_size=4))
                predicates[name] = OneOf(sorted(chosen))
            elif kind == "ne":
                predicates[name] = NotEquals(draw(values))
        if not predicates:
            predicates["a"] = Equals(draw(values))
        profiles.add(Profile(f"P{index}", predicates))
    events = [
        Event({name: draw(values) for name in ATTRIBUTES})
        for _ in range(draw(st.integers(min_value=1, max_value=15)))
    ]
    return profiles, events


@given(workloads())
@settings(max_examples=150, deadline=None)
def test_index_matcher_identical_to_naive(data):
    profiles, events = data
    naive = NaiveMatcher(profiles)
    indexed = PredicateIndexMatcher(profiles)
    for event in events:
        expected = naive.match(event).matched_profile_ids
        assert indexed.match(event).matched_profile_ids == expected


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_scan_only_planner_is_still_identical(data):
    """Force the planner's scan path by making probes look expensive."""

    class ScanPlanner(IndexPlanner):
        def plan_attribute(self, attribute, domain, **kwargs):
            plan = super().plan_attribute(attribute, domain, **kwargs)
            return type(plan)(
                attribute=plan.attribute,
                use_index=False,
                index_cost=plan.index_cost,
                scan_cost=plan.scan_cost,
                entry_count=plan.entry_count,
            )

    profiles, events = data
    naive = NaiveMatcher(profiles)
    indexed = PredicateIndexMatcher(profiles, planner=ScanPlanner())
    for event in events:
        expected = naive.match(event).matched_profile_ids
        assert indexed.match(event).matched_profile_ids == expected


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_match_batch_equals_sequential_match(data):
    profiles, events = data
    indexed = PredicateIndexMatcher(profiles)
    sequential = [indexed.match(event) for event in events]
    batched = indexed.match_batch(events)
    assert [r.matched_profile_ids for r in batched] == [r.matched_profile_ids for r in sequential]
    assert [r.operations for r in batched] == [r.operations for r in sequential]


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
@pytest.mark.parametrize("scenario", ["stock-ticker", "environmental"])
def test_generated_workload_equivalence(scenario, seed):
    """Acceptance property: identical matches on generator workloads."""
    spec = get_profile(scenario).spec.with_counts(profile_count=60, event_count=120).with_seed(seed)
    workload = build_workload(spec)
    naive = NaiveMatcher(workload.profiles)
    indexed = PredicateIndexMatcher(workload.profiles)
    replanned = PredicateIndexMatcher(
        workload.profiles, planner=IndexPlanner(dict(workload.event_distributions))
    )
    for event in workload.events:
        expected = naive.match(event).matched_profile_ids
        assert indexed.match(event).matched_profile_ids == expected
        assert replanned.match(event).matched_profile_ids == expected


def test_partial_events_behave_like_naive():
    schema = make_schema()
    profiles = ProfileSet(
        schema,
        [
            Profile("needs-both", {"a": Equals(1), "b": Equals(2)}),
            Profile("needs-a", {"a": Equals(1)}),
            Profile("needs-b", {"b": Equals(2)}),
        ],
    )
    naive = NaiveMatcher(profiles)
    indexed = PredicateIndexMatcher(profiles)
    partial = Event({"a": 1})
    assert (
        indexed.match(partial).matched_profile_ids
        == naive.match(partial).matched_profile_ids
        == ("needs-a",)
    )


def test_unconstrained_profile_always_matches():
    schema = make_schema()
    profiles = ProfileSet(schema, [Profile("all", {}), Profile("a1", {"a": Equals(1)})])
    indexed = PredicateIndexMatcher(profiles)
    assert indexed.match(Event({"a": 0, "b": 0})).matched_profile_ids == ("all",)
    assert indexed.match(Event({"a": 1, "b": 0})).matched_profile_ids == ("all", "a1")


def test_add_and_remove_profile_rebuilds_index():
    schema = Schema(
        [
            Attribute("symbol", DiscreteDomain(["AAPL", "MSFT"])),
            Attribute("price", IntegerDomain(0, 200)),
        ]
    )
    profiles = ProfileSet(schema, [profile("base", symbol="AAPL")])
    matcher = PredicateIndexMatcher(profiles)
    matcher.add_profile(profile("cheap", price=RangePredicate.at_most(10)))
    assert "cheap" in matcher.match(Event({"symbol": "MSFT", "price": 5}))
    matcher.remove_profile("cheap")
    assert "cheap" not in matcher.match(Event({"symbol": "MSFT", "price": 5}))


def test_satisfies_matcher_protocol():
    schema = make_schema()
    profiles = ProfileSet(schema, [Profile("p", {"a": Equals(1)})])
    matcher = PredicateIndexMatcher(profiles)
    assert isinstance(matcher, Matcher)
    results = match_batch(matcher, [Event({"a": 1, "b": 0})])
    assert results[0].matched_profile_ids == ("p",)


def test_operations_are_counted_and_bounded():
    workload = build_workload(
        get_profile("stock-ticker").spec.with_counts(profile_count=50, event_count=50)
    )
    naive = NaiveMatcher(workload.profiles)
    indexed = PredicateIndexMatcher(workload.profiles)
    for event in workload.events:
        result = indexed.match(event)
        assert result.operations > 0
        assert result.operations <= max(1, naive.match(event).operations)


def test_replan_with_distributions_keeps_semantics():
    workload = build_workload(
        get_profile("stock-ticker").spec.with_counts(profile_count=50, event_count=100)
    )
    naive = NaiveMatcher(workload.profiles)
    indexed = PredicateIndexMatcher(workload.profiles)
    indexed.replan(dict(workload.event_distributions))
    assert indexed.plan.estimated_operations_per_event > 0
    for event in workload.events:
        expected = naive.match(event).matched_profile_ids
        assert indexed.match(event).matched_profile_ids == expected


class TestServiceIntegration:
    def test_adaptive_engine_index_roster(self):
        workload = build_workload(
            get_profile("stock-ticker").spec.with_counts(profile_count=40, event_count=300)
        )
        policy = AdaptationPolicy(reoptimize_interval=100, warmup_events=50, engine="index")
        engine = AdaptiveFilterEngine(workload.profiles, policy=policy)
        assert isinstance(engine.matcher, PredicateIndexMatcher)
        naive = NaiveMatcher(workload.profiles)
        for event in workload.events:
            expected = naive.match(event).matched_profile_ids
            assert engine.match(event).matched_profile_ids == expected
        assert engine.adaptations()  # replanning was considered

    def test_unknown_engine_rejected(self):
        from repro.core.errors import ServiceError

        with pytest.raises(ServiceError):
            AdaptationPolicy(engine="quantum")

    def test_broker_publish_batch_matches_sequential_publish(self):
        workload = build_workload(
            get_profile("stock-ticker").spec.with_counts(profile_count=30, event_count=60)
        )
        events = list(workload.events)
        sequential = Broker(workload.schema)
        batched = Broker(workload.schema, adaptation_policy=AdaptationPolicy(engine="index"))
        for broker in (sequential, batched):
            broker.subscribe_all(list(workload.profiles))
        outcomes_a = [sequential.publish(event) for event in events]
        outcomes_b = batched.publish_batch(events)
        assert len(outcomes_a) == len(outcomes_b)
        for a, b in zip(outcomes_a, outcomes_b):
            assert (a.match_result.matched_profile_ids == b.match_result.matched_profile_ids)
        assert (sequential.statistics.total_notifications == batched.statistics.total_notifications)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_event_fuzz_against_oracle(seed):
    """Seeded fuzz over a fixed mixed-predicate profile set."""
    rng = random.Random(seed)
    schema = make_schema()
    profiles = ProfileSet(
        schema,
        [
            Profile("eq", {"a": Equals(3)}),
            Profile("rng", {"a": RangePredicate.between(2, 8, high_closed=False)}),
            Profile("ne", {"b": NotEquals(5)}),
            Profile("mix", {"a": OneOf([1, 2, 3]), "b": RangePredicate.at_least(6)}),
        ],
    )
    naive = NaiveMatcher(profiles)
    indexed = PredicateIndexMatcher(profiles)
    for _ in range(20):
        event = Event({name: rng.randint(0, DOMAIN_SIZE - 1) for name in ATTRIBUTES})
        assert (indexed.match(event).matched_profile_ids == naive.match(event).matched_profile_ids)
