"""Equivalence and behaviour tests for the columnar batch kernel.

The contract (and the tentpole property): for ANY event batch,

    columnar kernel == per-event ``match`` loop == naive oracle

— same matched profile ids in the same order AND the same per-event
operation accounting — with numpy *and* on the pure-Python fallback path
(``HAS_NUMPY`` monkeypatched off), including duplicate events, empty
batches, partial events and churned matchers.
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
from repro.workloads import build_workload, get_profile

DOMAIN_SIZE = 12
ATTRIBUTES = ("a", "b")


def make_schema() -> Schema:
    return Schema([Attribute(name, IntegerDomain(0, DOMAIN_SIZE - 1)) for name in ATTRIBUTES])


@st.composite
def workloads(draw):
    """Random profiles + event batches over every indexable predicate kind.

    Batches deliberately include duplicate events (drawn with replacement
    from a small value space), partial events (a missing attribute) and
    the empty batch.
    """
    schema = make_schema()
    profiles = ProfileSet(schema)
    values = st.integers(0, DOMAIN_SIZE - 1)
    for index in range(draw(st.integers(min_value=0, max_value=10))):
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
        profiles.add(Profile(f"P{index}", predicates))
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        carried = draw(
            st.sampled_from([("a", "b"), ("a",), ("b",)])
            if draw(st.booleans())
            else st.just(("a", "b"))
        )
        events.append(Event({name: draw(values) for name in carried}))
    return profiles, events


def assert_results_equal(actual, expected):
    assert [r.matched_profile_ids for r in actual] == [
        r.matched_profile_ids for r in expected
    ]
    assert [r.operations for r in actual] == [r.operations for r in expected]
    assert [r.visited_levels for r in actual] == [r.visited_levels for r in expected]


@given(workloads())
@settings(max_examples=150, deadline=None)
def test_columnar_kernel_equals_match_and_naive_oracle(data):
    profiles, events = data
    matcher = PredicateIndexMatcher(profiles)
    naive = NaiveMatcher(profiles)
    sequential = [matcher.match(event) for event in events]
    for result, event in zip(sequential, events):
        assert result.matched_profile_ids == naive.match(event).matched_profile_ids
    columnar = kernel.match_batch_columnar(matcher, events)
    assert_results_equal(columnar, sequential)


@given(data=workloads())
@settings(max_examples=100, deadline=None)
def test_fallback_kernel_equals_match_without_numpy(data):
    profiles, events = data
    matcher = PredicateIndexMatcher(profiles)
    sequential = [matcher.match(event) for event in events]
    previous = kernel.HAS_NUMPY
    kernel.HAS_NUMPY = False
    try:
        fallback = kernel.match_batch_columnar(matcher, events)
    finally:
        kernel.HAS_NUMPY = previous
    assert_results_equal(fallback, sequential)


@given(data=workloads())
@settings(max_examples=60, deadline=None)
def test_match_batch_cutover_is_transparent(data):
    """The public ``match_batch`` agrees with sequential ``match`` on both
    sides of the size cutover (force the columnar path by lowering it)."""
    profiles, events = data
    matcher = PredicateIndexMatcher(profiles)
    sequential = [matcher.match(event) for event in events]
    assert_results_equal(matcher.match_batch(events), sequential)
    previous = kernel.MIN_COLUMNAR_BATCH
    kernel.MIN_COLUMNAR_BATCH = 0
    try:
        assert_results_equal(matcher.match_batch(events), sequential)
    finally:
        kernel.MIN_COLUMNAR_BATCH = previous


def test_empty_batch_returns_empty_list():
    profiles = ProfileSet(make_schema(), [Profile("p", {"a": Equals(1)})])
    matcher = PredicateIndexMatcher(profiles)
    assert kernel.match_batch_columnar(matcher, []) == []
    assert matcher.match_batch([]) == []


def test_empty_profile_set_batch():
    matcher = PredicateIndexMatcher(ProfileSet(make_schema()))
    events = [Event({"a": 1, "b": 2})] * 20
    results = kernel.match_batch_columnar(matcher, events)
    assert all(r.matched_profile_ids == () for r in results)
    assert all(r.operations == 0 for r in results)


def test_always_match_profiles_in_batches():
    profiles = ProfileSet(
        make_schema(), [Profile("all", {}), Profile("a1", {"a": Equals(1)})]
    )
    matcher = PredicateIndexMatcher(profiles)
    events = [Event({"a": 1, "b": 0}), Event({"a": 0, "b": 0})] * 10
    results = kernel.match_batch_columnar(matcher, events)
    assert results[0].matched_profile_ids == ("all", "a1")
    assert results[1].matched_profile_ids == ("all",)


def test_kernel_after_churn_matches_fresh_build():
    """Maintenance (including np-slab cache invalidation) keeps the kernel
    equivalent to a freshly built matcher."""
    workload = build_workload(
        get_profile("stock-ticker").spec.with_counts(profile_count=80, event_count=200)
    )
    matcher = PredicateIndexMatcher(workload.profiles)
    events = list(workload.events)
    kernel.match_batch_columnar(matcher, events)  # warm the np slab caches
    victims = [profile.profile_id for profile in list(workload.profiles)[:20]]
    removed = {}
    for profile_id in victims:
        removed[profile_id] = workload.profiles.get(profile_id)
        matcher.remove_profile(profile_id)
    for profile_id in victims[:10]:
        matcher.add_profile(removed[profile_id])
    fresh = PredicateIndexMatcher(
        ProfileSet(workload.schema, list(matcher.profiles))
    )
    expected = [fresh.match(event).matched_profile_ids for event in events]
    columnar = kernel.match_batch_columnar(matcher, events)
    assert [r.matched_profile_ids for r in columnar] == expected


@pytest.mark.parametrize("scenario", ["stock-ticker", "wide-range"])
def test_generated_scenarios_equivalence(scenario):
    """Acceptance property on generator workloads, both kernel paths."""
    workload = build_workload(
        get_profile(scenario).spec.with_counts(profile_count=120, event_count=300)
    )
    matcher = PredicateIndexMatcher(workload.profiles)
    events = list(workload.events)
    sequential = [matcher.match(event) for event in events]
    assert_results_equal(kernel.match_batch_columnar(matcher, events), sequential)
    previous = kernel.HAS_NUMPY
    kernel.HAS_NUMPY = False
    try:
        assert_results_equal(kernel.match_batch_columnar(matcher, events), sequential)
    finally:
        kernel.HAS_NUMPY = previous


def test_kernel_stats_account_dedup():
    """Charged operations equal the per-event loop's; executed operations
    count each distinct probe once, so redundancy shows up as dedup > 1."""
    workload = build_workload(
        get_profile("stock-ticker").spec.with_counts(profile_count=100, event_count=400)
    )
    matcher = PredicateIndexMatcher(workload.profiles)
    events = list(workload.events)
    stats = kernel.KernelStats()
    results = kernel.match_batch_columnar(matcher, events, stats=stats)
    assert stats.events == len(events)
    assert stats.charged_operations == sum(r.operations for r in results)
    assert 0 < stats.executed_operations < stats.charged_operations
    assert stats.dedup_factor > 1.0
    assert stats.matrix_tiles + stats.scratch_tiles >= 1


def test_schedule_restores_input_order():
    """Scheduling permutes processing, never the result order."""
    profiles = ProfileSet(
        make_schema(), [Profile(f"P{v}", {"a": Equals(v)}) for v in range(DOMAIN_SIZE)]
    )
    matcher = PredicateIndexMatcher(profiles)
    events = [Event({"a": v % DOMAIN_SIZE, "b": 0}) for v in (5, 3, 11, 3, 0, 5, 7)]
    results = kernel.match_batch_columnar(matcher, events)
    assert [r.matched_profile_ids for r in results] == [
        (f"P{event['a']}",) for event in events
    ]
