"""Planner decisions are unchanged by the log-time control plane.

For every corpus profile the index plan, the recost verdicts, the probe
order and the rejection scores computed through the bisect /
endpoint-sweep / per-boundary code under ``src/`` must equal what the
brute-force references of :mod:`scan_reference` produce when patched in
its place — and a recost must neither probe ``Interval.contains`` per
support value nor build an ``Interval`` per slab.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_reference import (
    attribute_constraints,
    partition_probe_order,
    partition_rejection_scores,
    quadratic_ordered_subranges,
    scan_probability_of_interval,
    slab_sum_expected_interval_hits,
)

from repro.core.domains import DiscreteDomain, IntegerDomain
from repro.core.errors import PredicateError
from repro.core.intervals import Interval
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.distributions.discrete import DiscreteDistribution, uniform_discrete
from repro.distributions.estimation import EventHistory
from repro.matching.index import IndexPlanner, PredicateIndexMatcher
from repro.matching.index.buckets import IntervalBucket
from repro.matching.index.matcher import _AttributeState
from repro.matching.naive import NaiveMatcher
from repro.workloads import build_workload
from repro.workloads.profiles import get_profile, list_profiles

#: The references are quadratic: capping the two largest populations
#: (``wide-range`` 1 500, ``iot-telemetry`` 800) and the history length
#: keeps the whole corpus to a few seconds.
PROFILE_CAP = 500
HISTORY_EVENTS = 500

COST_FIELDS = (
    "index_cost",
    "scan_cost",
    "hash_index_cost",
    "hash_scan_cost",
    "interval_index_cost",
    "interval_scan_cost",
    "residual_scan_cost",
)
VERDICT_FIELDS = ("use_index", "use_hash", "use_interval", "entry_count")


def approx(value):
    """Costs may differ by summation order only."""
    return pytest.approx(value, rel=1e-9, abs=1e-12)


def history_distributions(schema, events):
    history = EventHistory(schema)
    history.observe_all(events)
    return {a.name: history.counter(a.name).to_distribution() for a in schema}


def control_plane(workload, hybrid, profiles):
    """Everything the planner decides for ``workload``, as plain data."""
    schema = workload.spec.schema
    first = history_distributions(schema, workload.events[:HISTORY_EVENTS])
    second = history_distributions(schema, workload.events[HISTORY_EVENTS:])
    planner = IndexPlanner(first, hybrid=hybrid)
    matcher = PredicateIndexMatcher(profiles, planner=planner)
    return {
        "plan": dict(matcher.plan.attributes),
        "recost": matcher.recost_plans(second),
        "probe_order": matcher.plan.probe_order,
        "rejection_scores": planner.rejection_scores(schema, attribute_constraints(profiles)),
    }


def assert_same_plans(actual, expected):
    assert actual.keys() == expected.keys()
    for attribute, plan in actual.items():
        reference = expected[attribute]
        for name in VERDICT_FIELDS:
            assert getattr(plan, name) == getattr(reference, name), (attribute, name)
        for name in COST_FIELDS:
            assert getattr(plan, name) == approx(getattr(reference, name)), (attribute, name)


@pytest.mark.parametrize("hybrid", [False, True], ids=["binary", "hybrid"])
@pytest.mark.parametrize("name", list_profiles())
def test_corpus_plans_match_the_brute_force_reference(name, hybrid, monkeypatch):
    spec = get_profile(name).spec
    workload = build_workload(
        spec.with_counts(
            profile_count=min(spec.profile_count, PROFILE_CAP), event_count=2 * HISTORY_EVENTS
        )
    )
    actual = control_plane(workload, hybrid, ProfileSet(workload.spec.schema, workload.profiles))

    profiles = ProfileSet(workload.spec.schema, workload.profiles)
    monkeypatch.setattr(
        DiscreteDistribution, "probability_of_interval", scan_probability_of_interval
    )
    monkeypatch.setattr(IndexPlanner, "expected_interval_hits", slab_sum_expected_interval_hits)
    monkeypatch.setattr("repro.core.subranges._ordered_subranges", quadratic_ordered_subranges)
    monkeypatch.setattr(
        IndexPlanner,
        "rejection_scores",
        lambda planner, schema, constraints: partition_rejection_scores(planner, profiles),
    )
    expected = control_plane(workload, hybrid, profiles)

    assert_same_plans(actual["plan"], expected["plan"])
    assert_same_plans(actual["recost"], expected["recost"])
    assert actual["probe_order"] == expected["probe_order"]
    assert actual["rejection_scores"] == approx(expected["rejection_scores"])


def wide_range_recost():
    """The full ``wide-range`` matcher and a 2 000-value history-shaped ``P_e``."""
    workload = build_workload(get_profile("wide-range").spec)
    schema = workload.spec.schema
    matcher = PredicateIndexMatcher(ProfileSet(schema, workload.profiles))
    metric = schema.domain("metric")
    rng = random.Random(13)
    support = rng.sample(range(metric.low, metric.high + 1), 2000)
    distributions = {
        "metric": DiscreteDistribution(metric, {v: rng.randint(1, 9) for v in support}),
        "region": uniform_discrete(schema.domain("region")),
    }
    return matcher, distributions


def test_recost_makes_no_per_value_containment_probes(monkeypatch):
    """Complexity guard: with the linear support scan one recost of the
    ``wide-range`` population under a 2 000-value history made ~3.9 M
    ``Interval.contains`` calls (every slab x every support value)."""
    matcher, distributions = wide_range_recost()

    calls = 0
    contains = Interval.contains

    def counting_contains(self, value):
        nonlocal calls
        calls += 1
        return contains(self, value)

    monkeypatch.setattr(Interval, "contains", counting_contains)
    recosted = matcher.recost_plans(distributions)

    assert set(recosted) == {"metric", "region"}
    assert calls <= 1_000


def test_scanned_ranges_are_compared_inline(monkeypatch):
    """Complexity guard: pinned ``hybrid`` on ``aml-transactions`` scans the
    129 ``amount`` ranges, and each scanned range was a ``matches`` call
    plus an ``Interval.contains`` call per probed value."""
    workload = build_workload(get_profile("aml-transactions").spec)
    profiles = ProfileSet(workload.schema, workload.profiles)
    matcher = PredicateIndexMatcher(profiles, planner=IndexPlanner(hybrid=True))
    matcher.replan(workload.event_distributions)
    assert len(matcher._states["amount"].scan_ranges) == 129
    events = list(workload.events[:500])
    expected = [result.matched_profile_ids for result in NaiveMatcher(profiles).match_batch(events)]

    calls = {"matches": 0, "contains": 0}
    matches, contains = RangePredicate.matches, Interval.contains

    def counting_matches(self, value):
        calls["matches"] += 1
        return matches(self, value)

    def counting_contains(self, value):
        calls["contains"] += 1
        return contains(self, value)

    monkeypatch.setattr(RangePredicate, "matches", counting_matches)
    monkeypatch.setattr(Interval, "contains", counting_contains)
    results = matcher.match_batch(events)

    assert [result.matched_profile_ids for result in results] == expected
    assert calls == {"matches": 0, "contains": 0}


def test_a_mask_only_subscribe_or_cancel_recompiles_no_view(monkeypatch):
    """A profile whose predicates all have entries already only edits
    masks, and the compiled view holds entries, not masks."""
    workload = build_workload(get_profile("aml-transactions").spec)
    matcher = PredicateIndexMatcher(ProfileSet(workload.schema, workload.profiles))
    refreshes = 0
    refresh_view = _AttributeState.refresh_view

    def counting_refresh_view(self):
        nonlocal refreshes
        refreshes += 1
        refresh_view(self)

    monkeypatch.setattr(_AttributeState, "refresh_view", counting_refresh_view)
    template = next(iter(workload.profiles))
    matcher.add_profile(Profile("twin", template.predicates))
    matcher.remove_profile("twin")
    assert refreshes == 0

    # The counter sees an entry created and dropped.
    matcher.add_profile(Profile("fresh", {"amount": RangePredicate.between(0.5, 1.5)}))
    matcher.remove_profile("fresh")
    assert refreshes == 2


def test_recost_builds_no_interval_per_slab(monkeypatch):
    """Complexity guard: pricing every slab as an ``Interval`` built, clamped
    and intersected three objects per slab (~12 000 on ``wide-range``); the
    per-boundary bisect builds none."""
    matcher, distributions = wide_range_recost()
    assert len(matcher._states["metric"].interval_bucket) > 1_000

    built = 0
    post_init = Interval.__post_init__

    def counting_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counting_post_init)
    recosted = matcher.recost_plans(distributions)

    assert recosted["metric"].interval_index_cost > 0
    assert built == 0


def churned_flash_crowd():
    """A ``flash-crowd`` index matcher after one cancel + subscribe per two
    events' worth of churn, with its deferred replan still pending."""
    spec = get_profile("flash-crowd").spec
    workload = build_workload(spec)
    replacements = build_workload(spec.with_seed(spec.seed + 1)).profiles
    schema = workload.spec.schema
    distributions = history_distributions(schema, workload.events)
    matcher = PredicateIndexMatcher(
        ProfileSet(schema, workload.profiles), planner=IndexPlanner(distributions)
    )
    for gone, fresh in zip(list(workload.profiles)[:60], replacements):
        matcher.remove_profile(gone.profile_id)
        matcher.add_profile(Profile(f"{fresh.profile_id}-new", dict(fresh.predicates)))
    assert matcher.replan_pending
    return matcher, distributions


def index_check(matcher, distributions) -> float:
    """What the index family's candidate does at a check: one recost of the
    running buckets and the running plan's cost under it."""
    return matcher.plan.cost_under(matcher.recost_plans(distributions))


def test_churned_check_asks_each_distinct_predicate_once(monkeypatch):
    """Complexity guard: the rejection scores once built every attribute's
    partition from the whole profile set — one ``accepted_values`` /
    ``accepted_intervals`` call per constraining profile and attribute."""
    matcher, distributions = churned_flash_crowd()
    calls = 0

    def counting(method):
        def count(self, domain):
            nonlocal calls
            calls += 1
            return method(self, domain)

        return count

    for kind in (Equals, OneOf, NotEquals, RangePredicate):
        monkeypatch.setattr(kind, "accepted_values", counting(kind.accepted_values))
        monkeypatch.setattr(kind, "accepted_intervals", counting(kind.accepted_intervals))
    index_check(matcher, distributions)

    distinct = sum(len(state.entries) for state in matcher._states.values())
    constraining = sum(len(profile.constrained_attributes()) for profile in matcher.profiles)
    assert 0 < calls <= distinct < constraining


def test_no_partition_outlives_a_check(monkeypatch):
    """Memory guard: a check builds its partitions, scores them and drops
    them.  Kept between checks, partitions with owner sets hold memory in
    proportion to sub-ranges x profiles for the life of the matcher."""
    import gc
    import weakref

    from repro.core import subranges

    created = []

    class Tracked(subranges.AttributePartition):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(weakref.ref(self))

    monkeypatch.setattr(subranges, "AttributePartition", Tracked)
    matcher, distributions = churned_flash_crowd()
    created.clear()
    index_check(matcher, distributions)
    gc.collect()

    assert created
    assert [ref for ref in created if ref() is not None] == []


# -- E[hits] of a churned bucket: per boundary ≡ per slab, exactly --------------------

BUCKET_BOUNDS = st.one_of(
    st.integers(min_value=-3, max_value=23),
    st.integers(min_value=-3, max_value=23).map(lambda v: v + 0.5),
    st.sampled_from([-math.inf, math.inf]),
)


@st.composite
def bucket_intervals(draw):
    low, high = sorted((draw(BUCKET_BOUNDS), draw(BUCKET_BOUNDS)))
    if low == high:
        return Interval(-math.inf, math.inf) if math.isinf(low) else Interval.point(low)
    return Interval(low, high, draw(st.booleans()), draw(st.booleans()))


@st.composite
def churned_buckets(draw):
    """A slab bucket built from a few intervals, then churned: removals
    leave stale boundaries (and past half of them, compact the bucket)."""
    live = dict(enumerate(draw(st.lists(bucket_intervals(), max_size=8))))
    bucket = IntervalBucket([(interval, entry) for entry, interval in live.items()])
    next_entry = len(live)
    for remove in draw(st.lists(st.booleans(), max_size=16)):
        if remove and live:
            entry = draw(st.sampled_from(sorted(live)))
            bucket.remove(live.pop(entry), entry)
        else:
            live[next_entry] = draw(bucket_intervals())
            bucket.add(live[next_entry], next_entry)
            next_entry += 1
    return bucket


@st.composite
def finite_distributions(draw):
    """A sparse ``P_e`` on an integer domain (over values) or on a discrete
    domain (over natural-order indexes); both span positions 0..20."""
    if draw(st.booleans()):
        domain = IntegerDomain(0, 20)
        values = list(domain.values())
    else:
        values = draw(st.permutations([f"v{i}" for i in range(21)]))
        domain = DiscreteDomain(values)
    support = draw(st.lists(st.sampled_from(values), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(1, 50), min_size=len(support), max_size=len(support)))
    return DiscreteDistribution(domain, dict(zip(support, weights)))


@given(churned_buckets(), finite_distributions())
@settings(max_examples=300, deadline=None)
def test_boundary_bisect_sum_is_the_slab_sum_exactly(bucket, distribution):
    planner = IndexPlanner({"x": distribution})
    domain = distribution.domain
    expected = slab_sum_expected_interval_hits(planner, "x", domain, bucket)
    assert planner.expected_interval_hits("x", domain, bucket) == expected


# -- rejection scores from the entries ≡ from build_partitions, under churn ------------


class Unmodelled(Equals):
    """An equality test whose accepted values the partition builder cannot
    list: every measure over its attribute falls back to schema order."""

    def accepted_values(self, domain):
        raise PredicateError("no accepted-value model")


SYMBOLS = ("a", "b", "c", "d", "e")
SCORE_SCHEMA = Schema(
    [
        Attribute("x", IntegerDomain(0, 8)),
        Attribute("s", DiscreteDomain(SYMBOLS)),
        Attribute("z", IntegerDomain(0, 3)),
    ]
)


@st.composite
def x_predicates(draw):
    value = st.integers(0, 8)
    kind = draw(st.sampled_from(["skip", "eq", "ne", "oneof", "range", "at_least", "less_than"]))
    if kind == "eq":
        return Equals(draw(value))
    if kind == "ne":
        return NotEquals(draw(value))
    if kind == "oneof":
        return OneOf(sorted(draw(st.sets(value, min_size=1, max_size=3))))
    if kind == "range":
        low = draw(value)
        high = draw(st.integers(low, 8))
        return RangePredicate(Interval(low, high, True, high == low or draw(st.booleans())))
    if kind == "at_least":
        return RangePredicate.at_least(draw(value))
    if kind == "less_than":
        return RangePredicate.less_than(draw(st.integers(1, 8)))
    return None


@st.composite
def s_predicates(draw):
    symbol = st.sampled_from(SYMBOLS)
    kind = draw(st.sampled_from(["skip", "eq", "eq", "ne", "oneof", "unmodelled"]))
    if kind == "eq":
        return Equals(draw(symbol))
    if kind == "ne":
        return NotEquals(draw(symbol))
    if kind == "oneof":
        return OneOf(sorted(draw(st.sets(symbol, min_size=1, max_size=3))))
    if kind == "unmodelled":
        return Unmodelled(draw(symbol))
    return None


@st.composite
def score_churn(draw):
    """A small predicate vocabulary (so profiles share predicates), a pool
    of profiles over it, a toggle script and the planner's ``P_e``."""
    pool = []
    for index in range(draw(st.integers(2, 8))):
        drawn = {
            "x": draw(x_predicates()),
            "s": draw(s_predicates()),
            "z": draw(st.one_of(st.none(), st.integers(0, 3).map(Equals))),
        }
        pool.append(Profile(f"P{index}", {k: v for k, v in drawn.items() if v is not None}))
    script = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
    distributions = None
    if draw(st.booleans()):
        distributions = {}
        for attribute in SCORE_SCHEMA:
            values = list(attribute.domain.values())
            support = draw(st.lists(st.sampled_from(values), min_size=1, unique=True))
            distributions[attribute.name] = DiscreteDistribution(
                attribute.domain, {value: draw(st.integers(1, 9)) for value in support}
            )
    return pool, script, distributions


def assert_scores_follow_the_profiles(matcher):
    planner = matcher.planner
    expected = partition_rejection_scores(planner, matcher.profiles)
    assert planner.rejection_scores(SCORE_SCHEMA, matcher._constraints()) == expected
    plan = matcher.plan
    reference = partition_probe_order(planner, matcher.profiles)
    assert plan.probe_order == tuple(name for name in reference if name in plan.attributes)
    return expected


def score_churn_steps(pool, script, distributions):
    """Toggle ``pool[i]`` for each ``i`` of ``script``; after every step check
    the scores and yield the matcher with the reference scores."""
    matcher = PredicateIndexMatcher(ProfileSet(SCORE_SCHEMA), planner=IndexPlanner(distributions))
    live: set[str] = set()
    for index in script:
        profile = pool[index]
        if profile.profile_id in live:
            matcher.remove_profile(profile.profile_id)
            live.discard(profile.profile_id)
        else:
            matcher.add_profile(profile)
            live.add(profile.profile_id)
        yield matcher, assert_scores_follow_the_profiles(matcher)


@given(score_churn())
@settings(max_examples=150, deadline=None)
def test_entry_scores_equal_partition_scores_after_every_churn_step(data):
    for _ in score_churn_steps(*data):
        pass


@pytest.mark.parametrize("distributions", [None, "history"], ids=["A1", "A2"])
def test_entry_scores_through_the_named_churn_cases(distributions):
    """One script through the four cases the entry-based scores must get
    right: a shared predicate losing one owner, an attribute's last
    constraining profile leaving, the free flag flipping, and a predicate
    the partition builder rejects (both sides then keep schema order)."""
    pool = [
        Profile("shared-1", {"x": Equals(3), "s": Equals("a")}),
        Profile("shared-2", {"x": Equals(3), "s": Equals("b")}),
        Profile("z-only", {"x": RangePredicate.at_least(5), "s": OneOf(["c"]), "z": Equals(2)}),
        Profile("s-free", {"x": NotEquals(0)}),
        Profile("unmodelled", {"x": Equals(1), "s": Unmodelled("e")}),
    ]
    if distributions == "history":
        distributions = {
            "x": DiscreteDistribution(IntegerDomain(0, 8), {v: v + 1 for v in range(9)}),
            "s": DiscreteDistribution(DiscreteDomain(SYMBOLS), {"a": 5, "c": 1, "e": 2}),
            "z": DiscreteDistribution(IntegerDomain(0, 3), {0: 1, 2: 3}),
        }
    script = [0, 1, 2, 1, 2, 3, 3, 4, 4]
    steps = []
    for matcher, scores in score_churn_steps(pool, script, distributions):
        x, s, z = (matcher._states.get(name) for name in ("x", "s", "z"))
        steps.append(
            {
                "x=3 owners": x.entries[Equals(3)].mask.bit_count(),
                "z constrained": z is not None and bool(z.entries),
                "s free": bool(s.free),
                "scores": scores,
            }
        )
    # Step 3 drops "shared-2": x = 3 loses one of its two owners.
    assert [step["x=3 owners"] for step in steps[1:4]] == [2, 2, 1]
    # Step 4 drops "z-only", the last profile constraining z.
    assert [step["z constrained"] for step in steps[2:5]] == [True, True, False]
    # Steps 5 and 6 add and drop "s-free": the only profile free on s.
    assert [step["s free"] for step in steps[4:7]] == [False, True, False]
    # Steps 7 and 8 add and drop the unmodelled predicate: no scores, so
    # both sides keep schema order, and scores return once it has left.
    assert [bool(step["scores"]) for step in steps[6:9]] == [True, False, True]
