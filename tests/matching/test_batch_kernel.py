"""Equivalence and behaviour tests for the columnar batch kernel.

The contract (and the tentpole property): for ANY event batch,

    columnar kernel == per-event ``match`` loop == naive oracle

— same matched profile ids in the same order AND the same per-event
operation accounting — including duplicate events, empty batches, partial
events and churned matchers.  The kernel is pure Python: one test runs it
in an interpreter where numpy cannot be imported.
"""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.distributions.discrete import DiscreteDistribution
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


@given(data=workloads())
@settings(max_examples=150, deadline=None)
def test_columnar_kernel_equals_match_and_naive_oracle(data):
    """The planner probes or scans each structure on its own, so the one
    probe runs on homogeneous, all-scan and mixed views."""
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
def test_kernel_stats_charge_what_match_charges(data):
    """Charged operations are the per-event loop's; executed operations
    never exceed them, and each distinct probe resolves once."""
    profiles, events = data
    matcher = PredicateIndexMatcher(profiles)
    sequential = [matcher.match(event) for event in events]
    stats = kernel.KernelStats()
    kernel.match_batch_columnar(matcher, events, stats=stats)
    assert stats.events == len(events)
    assert stats.charged_operations == sum(r.operations for r in sequential)
    assert 0 <= stats.executed_operations <= stats.charged_operations
    distinct_values = {
        (name, event.values[name])
        for event in events
        for name in matcher.plan.probe_order
        if name in event.values
    }
    assert stats.distinct_probes <= len(distinct_values)


def observed_distributions(events):
    """The batch's own value frequencies, per attribute it carries."""
    schema = make_schema()
    counts = {}
    for event in events:
        for name, value in event.values.items():
            counts.setdefault(name, Counter())[value] += 1
    return {
        name: DiscreteDistribution(schema.domain(name), dict(counted))
        for name, counted in counts.items()
    }


@given(data=workloads())
@settings(max_examples=100, deadline=None)
def test_columnar_kernel_equals_match_after_a_replan(data):
    """Replanned on the batch's own distribution, hot values make probes
    dearer and cold ones cheaper than under the uniform assumption, so a
    verdict may flip either way; the kernel still charges and answers what
    ``match`` does."""
    profiles, events = data
    matcher = PredicateIndexMatcher(profiles)
    matcher.replan(observed_distributions(events))
    naive = NaiveMatcher(profiles)
    sequential = [matcher.match(event) for event in events]
    for result, event in zip(sequential, events):
        assert result.matched_profile_ids == naive.match(event).matched_profile_ids
    stats = kernel.KernelStats()
    columnar = kernel.match_batch_columnar(matcher, events, stats=stats)
    assert_results_equal(columnar, sequential)
    assert stats.charged_operations == sum(r.operations for r in sequential)
    assert 0 <= stats.executed_operations <= stats.charged_operations


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


def test_unhashable_value_returns_what_match_returns():
    """A list lies in no slab, so only ``p2`` (free on ``b``) matches; the
    kernel's value memo cannot hash it and probes it per event instead."""
    schema = Schema([Attribute(name, IntegerDomain(0, 8)) for name in ATTRIBUTES])
    matcher = PredicateIndexMatcher(
        ProfileSet(
            schema,
            [
                Profile("p1", {"a": Equals(1), "b": RangePredicate.between(0, 3)}),
                Profile("p2", {"a": Equals(2)}),
            ],
        )
    )
    events = [Event({"a": 2, "b": [1]})] * kernel.MIN_COLUMNAR_BATCH
    expected = matcher.match(events[0])
    assert expected.matched_profile_ids == ("p2",)
    assert matcher.match_batch(events) == [expected] * len(events)


def test_unhashable_value_raises_what_match_raises():
    """Against a hash bucket the probe itself cannot hash the value: the
    batch raises the per-event loop's error."""
    schema = Schema([Attribute(name, IntegerDomain(0, 8)) for name in ATTRIBUTES])
    profiles = [Profile(f"p{value}", {"b": Equals(value)}) for value in range(3)]
    matcher = PredicateIndexMatcher(ProfileSet(schema, profiles))
    assert matcher._states["b"].use_hash
    events = [Event({"a": 0, "b": [1]})] * kernel.MIN_COLUMNAR_BATCH
    with pytest.raises(TypeError) as single:
        matcher.match(events[0])
    with pytest.raises(TypeError) as batched:
        matcher.match_batch(events)
    assert str(batched.value) == str(single.value)


def test_kernel_after_churn_matches_fresh_build():
    """Maintenance (including cover-mask cache invalidation) keeps the
    kernel equivalent to a freshly built matcher."""
    workload = build_workload(
        get_profile("stock-ticker").spec.with_counts(profile_count=80, event_count=200)
    )
    matcher = PredicateIndexMatcher(workload.profiles)
    events = list(workload.events)
    kernel.match_batch_columnar(matcher, events)  # warm the cover-mask caches
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
    """Acceptance property on generator workloads."""
    workload = build_workload(
        get_profile(scenario).spec.with_counts(profile_count=120, event_count=300)
    )
    matcher = PredicateIndexMatcher(workload.profiles)
    events = list(workload.events)
    sequential = [matcher.match(event) for event in events]
    assert_results_equal(kernel.match_batch_columnar(matcher, events), sequential)


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


def test_kernel_stats_by_hand():
    """Charged, executed and distinct-probe counts on a batch small enough
    to count by hand.

    One attribute, domain 0..99: a hash bucket holding ``Equals(7)`` and
    ``OneOf([7, 9])``, and a slab bucket over the boundaries 10, 20, 30
    (bisect depth 2) holding [10, 20], [10, 30] and [20, 30].  The planner
    probes both buckets.  Per distinct value (hash lookup + hits, bisect +
    slab cover):

    ====== ======= ======= ======== =========================
    value  hash    slab    charged  executed
    ====== ======= ======= ======== =========================
    7      1 + 2   2 + 0   5        5
    9      1 + 1   2 + 0   4        4
    12     1 + 0   2 + 2   5        5 (slab (10, 20))
    15     1 + 0   2 + 2   5        3 (same slab cover as 12)
    25     1 + 0   2 + 2   5        5 (slab (20, 30))
    50     1 + 0   2 + 0   3        3 (rejected: no hit)
    ====== ======= ======= ======== =========================

    The batch 7, 7, 9, 12, 15, 12, 25, 50 charges 5+5+4+5+5+5+5+3 = 37,
    executes 25 and resolves 6 distinct probes.
    """
    schema = Schema([Attribute("a", IntegerDomain(0, 99))])
    profiles = ProfileSet(
        schema,
        [
            Profile("eq7", {"a": Equals(7)}),
            Profile("in79", {"a": OneOf([7, 9])}),
            Profile("r10_20", {"a": RangePredicate.between(10, 20)}),
            Profile("r10_30", {"a": RangePredicate.between(10, 30)}),
            Profile("r20_30", {"a": RangePredicate.between(20, 30)}),
        ],
    )
    matcher = PredicateIndexMatcher(profiles)
    plan = matcher.plan.attributes["a"]
    assert plan.use_hash and plan.use_interval
    events = [Event({"a": value}) for value in (7, 7, 9, 12, 15, 12, 25, 50)]
    stats = kernel.KernelStats()
    results = kernel.match_batch_columnar(matcher, events, stats=stats)
    assert [r.operations for r in results] == [5, 5, 4, 5, 5, 5, 5, 3]
    assert [r.matched_profile_ids for r in results] == [
        ("eq7", "in79"),
        ("eq7", "in79"),
        ("in79",),
        ("r10_20", "r10_30"),
        ("r10_20", "r10_30"),
        ("r10_20", "r10_30"),
        ("r10_30", "r20_30"),
        (),
    ]
    assert_results_equal(results, [matcher.match(event) for event in events])
    assert (stats.events, stats.charged_operations) == (8, 37)
    assert (stats.executed_operations, stats.distinct_probes) == (25, 6)


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


def test_columnar_batch_runs_without_numpy():
    """The kernel needs nothing beyond the standard library: a batch runs
    in an interpreter where ``import numpy`` fails."""
    script = textwrap.dedent(
        """
        import sys
        sys.modules["numpy"] = None  # any import of numpy now raises
        from repro.core.domains import IntegerDomain
        from repro.core.events import Event
        from repro.core.predicates import Equals, RangePredicate
        from repro.core.profiles import Profile, ProfileSet
        from repro.core.schema import Attribute, Schema
        from repro.matching.index import PredicateIndexMatcher, kernel

        schema = Schema([Attribute("a", IntegerDomain(0, 9))])
        profiles = ProfileSet(schema, [
            Profile("eq", {"a": Equals(3)}),
            Profile("low", {"a": RangePredicate.between(0, 4)}),
        ])
        matcher = PredicateIndexMatcher(profiles)
        events = [Event({"a": value % 10}) for value in range(kernel.MIN_COLUMNAR_BATCH)]
        stats = kernel.KernelStats()
        results = kernel.match_batch_columnar(matcher, events, stats=stats)
        assert [r.matched_profile_ids for r in results] == [
            matcher.match(event).matched_profile_ids for event in events
        ]
        assert results[3].matched_profile_ids == ("eq", "low")
        assert stats.events == len(events)
        print("ok")
        """
    )
    src = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
