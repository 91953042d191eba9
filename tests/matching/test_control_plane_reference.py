"""Planner decisions are unchanged by the log-time control plane.

For every corpus profile the index plan, the recost verdicts, the probe
order and the rejection scores computed through the bisect /
endpoint-sweep / per-boundary code under ``src/`` must equal what the
brute-force references of :mod:`scan_reference` produce when patched in
its place — and a recost must neither probe ``Interval.contains`` per
support value nor build an ``Interval`` per slab.  The work guards at the
end also hold the slab buckets to building no tuple per slab and the
probe to reading no entry's mask for an indexed hit.
"""

import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_reference import (
    attribute_indexes,
    partition_probe_order,
    partition_rejection_scores,
    quadratic_ordered_subranges,
    scan_probability_of_interval,
    slab_sum_expected_interval_hits,
)

from repro.core.domains import ContinuousDomain, DiscreteDomain, IntegerDomain
from repro.core.errors import PredicateError
from repro.core.intervals import Interval
from repro.core.predicates import Equals, NotEquals, OneOf, Predicate, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.distributions.continuous import PiecewiseConstantDistribution
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
VERDICT_FIELDS = ("use_hash", "use_interval", "entry_count")


def approx(value):
    """Costs may differ by summation order only."""
    return pytest.approx(value, rel=1e-9, abs=1e-12)


def history_distributions(schema, events):
    history = EventHistory(schema)
    history.observe_all(events)
    return {a.name: history.counter(a.name).to_distribution() for a in schema}


def control_plane(workload, profiles, uniform_prior=False):
    """Everything the planner decides for ``workload``, as plain data.

    The plan is costed under the first half's history, or under the
    uniform assumption (no estimate yet) with ``uniform_prior``; the
    recost always reads the second half's history.
    """
    schema = workload.spec.schema
    first = history_distributions(schema, workload.events[:HISTORY_EVENTS])
    second = history_distributions(schema, workload.events[HISTORY_EVENTS:])
    planner = IndexPlanner(None if uniform_prior else first)
    matcher = PredicateIndexMatcher(profiles, planner=planner)
    return {
        "plan": dict(matcher.plan.attributes),
        "recost": matcher.recost_plans(second),
        "probe_order": matcher.plan.probe_order,
        "rejection_scores": planner.rejection_scores(schema, attribute_indexes(matcher)),
    }


def assert_same_plans(actual, expected):
    assert actual.keys() == expected.keys()
    for attribute, plan in actual.items():
        reference = expected[attribute]
        for name in VERDICT_FIELDS:
            assert getattr(plan, name) == getattr(reference, name), (attribute, name)
        for name in COST_FIELDS:
            assert getattr(plan, name) == approx(getattr(reference, name)), (attribute, name)


def assert_corpus_plans_match_the_reference(name, monkeypatch, uniform_prior):
    spec = get_profile(name).spec
    workload = build_workload(
        spec.with_counts(
            profile_count=min(spec.profile_count, PROFILE_CAP), event_count=2 * HISTORY_EVENTS
        )
    )
    actual = control_plane(
        workload, ProfileSet(workload.spec.schema, workload.profiles), uniform_prior
    )

    profiles = ProfileSet(workload.spec.schema, workload.profiles)
    monkeypatch.setattr(
        DiscreteDistribution, "probability_of_interval", scan_probability_of_interval
    )
    monkeypatch.setattr(IndexPlanner, "expected_interval_hits", slab_sum_expected_interval_hits)
    monkeypatch.setattr("repro.core.subranges._ordered_subranges", quadratic_ordered_subranges)
    monkeypatch.setattr(
        IndexPlanner,
        "rejection_scores",
        lambda planner, schema, indexes: partition_rejection_scores(planner, profiles),
    )
    expected = control_plane(workload, profiles, uniform_prior)

    assert_same_plans(actual["plan"], expected["plan"])
    assert_same_plans(actual["recost"], expected["recost"])
    assert actual["probe_order"] == expected["probe_order"]
    assert actual["rejection_scores"] == approx(expected["rejection_scores"])


@pytest.mark.parametrize("name", list_profiles())
def test_corpus_plans_match_the_brute_force_reference(name, monkeypatch):
    assert_corpus_plans_match_the_reference(name, monkeypatch, uniform_prior=False)


@pytest.mark.parametrize("name", list_profiles())
def test_uniform_prior_plans_match_the_brute_force_reference(name, monkeypatch):
    """Before any history the planner prices each slab by its share of the
    domain and ranks attributes by zero fraction; the recost then moves
    every verdict onto history.  Both must equal the references."""
    assert_corpus_plans_match_the_reference(name, monkeypatch, uniform_prior=True)


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


def test_scanned_ranges_are_resolved_by_their_slab(monkeypatch):
    """Complexity guard: pinned ``index`` on ``aml-transactions`` scans the
    129 ``amount`` ranges.  Each probe is still charged 129 operations for
    them, but resolves them with one slab lookup: a per-range loop, a
    ``matches`` call or an ``Interval.contains`` call per range and probed
    value is gone, through ``match`` and the batch kernel alike."""
    workload = build_workload(get_profile("aml-transactions").spec)
    profiles = ProfileSet(workload.schema, workload.profiles)
    matcher = PredicateIndexMatcher(profiles)
    matcher.replan(workload.event_distributions)
    state = matcher._states["amount"]
    bucket = state.interval_bucket
    assert not state.use_interval
    assert (state.range_entry_count, state.scan_charge) == (129, 129)
    events = list(workload.events[:500])
    expected = [result.matched_profile_ids for result in NaiveMatcher(profiles).match_batch(events)]

    calls = {"matches": 0, "contains": 0, "lookup": 0}
    probed = []
    matches, contains = RangePredicate.matches, Interval.contains
    lookup, probe = IntervalBucket.lookup, _AttributeState.probe

    def counting_matches(self, value):
        calls["matches"] += 1
        return matches(self, value)

    def counting_contains(self, value):
        calls["contains"] += 1
        return contains(self, value)

    def counting_lookup(self, value):
        if self is bucket:
            calls["lookup"] += 1
        return lookup(self, value)

    def recording_probe(self, value):
        if self is state:
            probed.append(value)
        return probe(self, value)

    monkeypatch.setattr(RangePredicate, "matches", counting_matches)
    monkeypatch.setattr(Interval, "contains", counting_contains)
    monkeypatch.setattr(IntervalBucket, "lookup", counting_lookup)
    monkeypatch.setattr(_AttributeState, "probe", recording_probe)

    results = [matcher.match(event) for event in events]
    assert [result.matched_profile_ids for result in results] == expected
    # One lookup per event whose probe reaches the amount attribute.
    assert len(probed) > 0
    assert calls == {"matches": 0, "contains": 0, "lookup": len(probed)}
    # The charge: the hash lookup and its hits, plus every scanned range.
    assert state.use_hash
    hashed = state.hash_bucket.table
    for value in probed[:50]:
        assert probe(state, value)[0] == 1 + len(hashed.get(value, ())) + 129

    calls.update(matches=0, contains=0, lookup=0)
    probed.clear()
    batched = matcher.match_batch(events)
    assert [result.matched_profile_ids for result in batched] == expected
    assert [result.operations for result in batched] == [r.operations for r in results]
    # The kernel probes each distinct amount value of the batch once.
    distinct = {(value, value.__class__) for value in probed}
    assert len(probed) == len(distinct) > 0
    assert calls == {"matches": 0, "contains": 0, "lookup": len(distinct)}


def test_a_mask_only_subscribe_or_cancel_recompiles_no_view(monkeypatch):
    """A profile whose predicates all have entries already only edits
    masks, and the scan charge counts entries, not masks."""
    workload = build_workload(get_profile("aml-transactions").spec)
    matcher = PredicateIndexMatcher(ProfileSet(workload.schema, workload.profiles))
    refreshes = 0
    recharge = _AttributeState.recharge

    def counting_recharge(self):
        nonlocal refreshes
        refreshes += 1
        recharge(self)

    monkeypatch.setattr(_AttributeState, "recharge", counting_recharge)
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


def count_intervals(monkeypatch) -> dict[str, int]:
    """Count every ``Interval`` built from now on, in ``counter["built"]``."""
    counter = {"built": 0}
    post_init = Interval.__post_init__

    def counting_post_init(self):
        counter["built"] += 1
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counting_post_init)
    return counter


def test_the_uniform_prior_builds_no_interval_per_slab(monkeypatch):
    """Complexity guard: with no ``P_e`` every covered slab was built,
    clamped and measured as five ``Interval`` objects (19 915 on
    ``wide-range``); the domain's per-boundary sizes build none."""
    matcher, _ = wide_range_recost()
    domain = matcher.profiles.schema.domain("metric")
    bucket = matcher._states["metric"].interval_bucket
    counter = count_intervals(monkeypatch)

    expected = IndexPlanner().expected_interval_hits("metric", domain, bucket)

    assert expected > 0
    assert counter["built"] == 0


def test_an_index_build_builds_no_interval_subrange_or_sweep(monkeypatch):
    """Complexity guard: a ``wide-range`` build priced its 3 985 slabs as
    intervals and clamped every in-domain range through a fresh
    full-domain interval: 31 741 ``Interval`` objects.  With the slabs
    priced per boundary, the probe order still swept the predicates into a
    second partition: 2 078 ``Interval`` and 2 110 ``Subrange`` objects
    and one ``sweep_intervals`` call.  The zero-subdomain is now read off
    the slabs, and with no ``P_e`` a build makes none of them."""
    from repro.core import intervals, subranges

    workload = build_workload(get_profile("wide-range").spec)
    profiles = ProfileSet(workload.spec.schema, workload.profiles)
    counter = count_intervals(monkeypatch)
    counter.update(subranges=0, sweeps=0)
    subrange_init, sweep = subranges.Subrange.__init__, intervals.sweep_intervals

    def counting_subrange(self, *args, **kwargs):
        counter["subranges"] += 1
        subrange_init(self, *args, **kwargs)

    def counting_sweep(*args):
        counter["sweeps"] += 1
        return sweep(*args)

    monkeypatch.setattr(subranges.Subrange, "__init__", counting_subrange)
    monkeypatch.setattr(intervals, "sweep_intervals", counting_sweep)
    monkeypatch.setattr(subranges, "sweep_intervals", counting_sweep)

    matcher = PredicateIndexMatcher(profiles)
    counted = dict(counter)

    assert len(matcher._states["metric"].interval_bucket.counts) > 3_000
    assert counted == {"built": 0, "subranges": 0, "sweeps": 0}
    # The reference sweeps the partition, and the counters see it.
    assert matcher.plan.probe_order == partition_probe_order(matcher.planner, profiles)
    assert counter["subranges"] > 2_000 and counter["sweeps"] == 1


@pytest.mark.parametrize("domain", [IntegerDomain(0, 99), ContinuousDomain(-30.0, 50.0)])
def test_clamping_inside_the_domain_builds_nothing(domain, monkeypatch):
    """A domain builds its full interval once, and clamping an interval
    that lies inside it hands that interval back."""
    assert domain.full_interval() is domain.full_interval()
    inside = Interval(10, 20, False, True)
    everything = Interval(-math.inf, math.inf)
    counter = count_intervals(monkeypatch)

    assert domain.clamp(inside) is inside
    assert domain.clamp(domain.full_interval()) is domain.full_interval()
    assert domain.clamp(everything) is domain.full_interval()
    (accepted,) = RangePredicate(inside).accepted_intervals(domain)
    assert accepted is inside
    assert domain.measure(inside) > 0
    assert counter["built"] == 0


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


def test_churned_check_asks_each_residual_predicate_once(monkeypatch):
    """Complexity guard: the rejection scores once built every attribute's
    partition from the whole profile set — one ``accepted_values`` /
    ``accepted_intervals`` call per constraining profile and attribute —
    and then from the distinct predicates, one call each.  The buckets
    answer for the hash and range entries; only a residual entry (here
    one ``NotEquals``) is asked for its accepted subset."""
    matcher, distributions = churned_flash_crowd()
    symbol = matcher.profiles.schema.domain("symbol").values()[0]
    matcher.add_profile(Profile("not-one-symbol", {"symbol": NotEquals(symbol)}))
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

    residual = sum(len(state.residual) for state in matcher._states.values())
    distinct = sum(len(state.entries) for state in matcher._states.values())
    constraining = sum(len(profile.constrained_attributes()) for profile in matcher.profiles)
    assert 0 < calls <= residual < distinct < constraining


def test_a_check_builds_no_partition(monkeypatch):
    """Memory guard: a check once built every attribute's partition,
    scored it and dropped it (kept between checks, partitions with owner
    sets would hold memory in proportion to sub-ranges x profiles).  The
    scores are now read off the buckets: a check builds no partition."""
    from repro.core.subranges import AttributePartition

    created = 0
    partition_init = AttributePartition.__init__

    def counting(self, *args, **kwargs):
        nonlocal created
        created += 1
        partition_init(self, *args, **kwargs)

    matcher, distributions = churned_flash_crowd()
    monkeypatch.setattr(AttributePartition, "__init__", counting)
    index_check(matcher, distributions)

    assert matcher.plan.probe_order
    assert created == 0


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
    bucket = IntervalBucket([(interval, 1 << entry) for entry, interval in live.items()])
    next_entry = len(live)
    for remove in draw(st.lists(st.booleans(), max_size=16)):
        if remove and live:
            entry = draw(st.sampled_from(sorted(live)))
            bucket.remove(live.pop(entry), 1 << entry)
        else:
            live[next_entry] = draw(bucket_intervals())
            bucket.add(live[next_entry], 1 << next_entry)
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


#: Ordered domains over the span of ``BUCKET_BOUNDS``: bucket boundaries
#: fall inside, outside and on their ends, integral or not, or are infinite.
ORDERED_DOMAINS = st.sampled_from(
    [
        IntegerDomain(0, 20),
        IntegerDomain(5, 5),
        IntegerDomain(-2, 7),
        ContinuousDomain(0.0, 20.0),
        ContinuousDomain(0, 20),
        ContinuousDomain(2.5, 17.5),
    ]
)


@given(churned_buckets(), ORDERED_DOMAINS)
@settings(max_examples=300, deadline=None)
def test_uniform_boundary_sum_is_the_slab_sum_exactly(bucket, domain):
    planner = IndexPlanner()
    expected = slab_sum_expected_interval_hits(planner, "x", domain, bucket)
    assert planner.expected_interval_hits("x", domain, bucket) == expected


@given(
    churned_buckets(),
    st.lists(st.integers(0, 9), min_size=1, max_size=8).filter(any),
    st.sampled_from([ContinuousDomain(0.0, 20.0), ContinuousDomain(2.5, 17.5)]),
)
@settings(max_examples=200, deadline=None)
def test_histogram_slab_masses_are_the_slab_sum_exactly(bucket, weights, domain):
    """A continuous histogram has no per-boundary masses: the
    ``Distribution.slab_masses`` default prices each slab as an interval,
    which must still be the slab walk's sum."""
    planner = IndexPlanner({"x": PiecewiseConstantDistribution(domain, weights)})
    expected = slab_sum_expected_interval_hits(planner, "x", domain, bucket)
    assert planner.expected_interval_hits("x", domain, bucket) == expected


# -- rejection scores from the entries ≡ from build_partitions, under churn ------------


@dataclass(frozen=True)
class Unmodelled(Predicate):
    """A residual equality test whose accepted subset has no model: every
    measure over its attribute falls back to schema order."""

    value: object

    def matches(self, value):
        return value == self.value

    def accepted_values(self, domain):
        raise PredicateError("no accepted-value model")

    def accepted_intervals(self, domain):
        raise PredicateError("no accepted-interval model")

    def describe(self):
        return f"unmodelled = {self.value!r}"


class UnlistedEquals(Equals):
    """An equality test that cannot list its accepted subset either; the
    hash bucket holds it by its key all the same."""

    def accepted_values(self, domain):
        raise PredicateError("no accepted-value model")

    def accepted_intervals(self, domain):
        raise PredicateError("no accepted-interval model")


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
    assert planner.rejection_scores(SCORE_SCHEMA, attribute_indexes(matcher)) == expected
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


def score_history():
    return {
        "x": DiscreteDistribution(IntegerDomain(0, 8), {v: v + 1 for v in range(9)}),
        "s": DiscreteDistribution(DiscreteDomain(SYMBOLS), {"a": 5, "c": 1, "e": 2}),
        "z": DiscreteDistribution(IntegerDomain(0, 3), {0: 1, 2: 3}),
    }


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
        distributions = score_history()
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


@pytest.mark.parametrize("distributions", [None, "history"], ids=["A1", "A2"])
def test_an_equals_subclass_without_an_accepted_model_is_ranked_by_its_key(distributions):
    """The hash bucket holds an equality entry by its key, so the scores
    never ask it for its accepted subset: an ``Equals`` subclass that
    cannot list it ranks as the plain ``Equals`` of the same key."""
    planner = IndexPlanner(score_history() if distributions else None)

    def ranked(s_predicate):
        profiles = ProfileSet(
            SCORE_SCHEMA,
            [
                Profile("p", {"x": RangePredicate.at_least(6), "s": s_predicate}),
                Profile("q", {"x": Equals(2), "s": Equals("b"), "z": Equals(1)}),
            ],
        )
        matcher = PredicateIndexMatcher(profiles, planner=planner)
        return planner.rejection_scores(SCORE_SCHEMA, attribute_indexes(matcher)), matcher

    unlisted, matcher = ranked(UnlistedEquals("e"))
    plain, reference = ranked(Equals("e"))
    assert unlisted == plain == partition_rejection_scores(planner, reference.profiles)
    assert unlisted["s"] > 0
    assert matcher.plan.probe_order == reference.plan.probe_order


# -- slabs carry their count and mask: no per-slab tuple, no per-entry read ------


def wide_range_churn():
    """The ``wide-range`` population, and two subscriptions: a twin of a
    live profile (it joins existing entries, masks only) and a fresh range
    between boundaries (a new entry splitting slabs) with a live region."""
    workload = build_workload(get_profile("wide-range").spec)
    template = next(iter(workload.profiles))
    fresh = {**template.predicates, "metric": RangePredicate.between(1234.5, 7654.5)}
    churn = [Profile("twin", dict(template.predicates)), Profile("fresh", fresh)]
    return workload, churn


def test_slab_build_and_range_churn_build_no_per_slab_tuple(monkeypatch):
    """Complexity guard: a slab once held the sorted tuple of its covering
    entry ids — one ``sorted`` and one ``tuple`` call per slab at the build
    (3 985 slabs on ``wide-range``), and one per covered slab at every
    range subscribe and cancel.  A slab now holds two ints."""
    from repro.matching.index import buckets

    workload, churn = wide_range_churn()
    calls = 0

    def counting(builtin):
        def count(*args):
            nonlocal calls
            calls += 1
            return builtin(*args)

        return count

    monkeypatch.setattr(buckets, "tuple", counting(tuple), raising=False)
    monkeypatch.setattr(buckets, "sorted", counting(sorted), raising=False)
    matcher = PredicateIndexMatcher(ProfileSet(workload.spec.schema, workload.profiles))
    metric = matcher._states["metric"].interval_bucket
    region = matcher._states["region"].hash_bucket
    assert 2 * len(metric) + 1 > 3_000
    # One sort of the boundaries, and each hash value's entry-id tuple.
    assert calls == 1 + len(region)

    calls = 0
    for profile in churn:
        matcher.add_profile(profile)
    for profile in churn:
        matcher.remove_profile(profile.profile_id)
    assert calls == 0
    assert {type(count) for count in metric.counts} == {int}


def test_a_probe_after_churn_reads_no_entry_mask(monkeypatch):
    """Complexity guard: a subscribe or cancel once emptied the cover-mask
    memo, so the next probe of each slab or hash hit ORed the masks of all
    its entries (about 630 per slab on ``wide-range``).  The stored masks
    are the probe's answer; no scanned entry is read on this plan."""
    from repro.matching.index.matcher import _Entry

    workload, churn = wide_range_churn()
    schema = workload.spec.schema
    matcher = PredicateIndexMatcher(ProfileSet(schema, workload.profiles))
    naive = NaiveMatcher(ProfileSet(schema, workload.profiles))
    assert all(state.scan_charge == 0 for state in matcher._states.values())
    events = list(workload.events[:300])

    reads = 0
    slot = _Entry.__dict__["mask"]

    def read(entry):
        nonlocal reads
        reads += 1
        return slot.__get__(entry, _Entry)

    monkeypatch.setattr(_Entry, "mask", property(read, slot.__set__))
    steps = [("add_profile", profile) for profile in churn]
    steps += [("remove_profile", profile.profile_id) for profile in churn]
    for edit, argument in steps:
        getattr(matcher, edit)(argument)
        getattr(naive, edit)(argument)
        expected = [result.matched_profile_ids for result in naive.match_batch(events)]
        reads = 0
        per_event = [matcher.match(event).matched_profile_ids for event in events]
        batched = [result.matched_profile_ids for result in matcher.match_batch(events)]
        assert reads == 0
        assert per_event == batched == expected
