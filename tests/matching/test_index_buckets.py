"""Unit tests for the predicate-index buckets and the planner.

The interval-bucket cases nail down the slab decomposition's edge
behaviour: open vs closed bounds, duplicate boundaries shared by several
ranges, degenerate point intervals and unbounded (``>=`` / ``<=``) ranges.

Buckets store masks, not entry ids per slab, so every bucket here is
built with entry ``i`` carrying mask ``1 << i`` and a lookup's entries
are read back from its mask by :func:`hits`.
"""

import math
from bisect import bisect_left

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scan_reference import TupleIntervalBucket, attribute_indexes

from repro.core.domains import ContinuousDomain, DiscreteDomain, IntegerDomain
from repro.core.errors import SelectivityError
from repro.core.intervals import Interval
from repro.distributions.discrete import DiscreteDistribution
from repro.matching.index.buckets import HashBucket, IntervalBucket
from repro.matching.index.planner import IndexPlanner
from repro.selectivity import AttributeMeasure


def decode(mask: int) -> tuple[int, ...]:
    """The entry ids in ``mask``, where entry ``i`` carries mask ``1 << i``."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def hash_bucket(table) -> HashBucket:
    """A hash bucket over ``{value: [entry ids]}``, entry ``i`` with mask ``1 << i``."""
    return HashBucket({value: [(i, 1 << i) for i in ids] for value, ids in table.items()})


def slab_bucket(items) -> IntervalBucket:
    """An interval bucket over ``(interval, entry id)`` pairs, entry ``i``
    with mask ``1 << i``."""
    return IntervalBucket([(interval, 1 << entry) for interval, entry in items])


def hits(bucket, value) -> tuple[int, ...]:
    """The entry ids ``bucket`` resolves for ``value``, read from the mask;
    the lookup's id tuple (hash) or count (slab) must agree with it."""
    if isinstance(bucket, HashBucket):
        entry_ids, mask = bucket.lookup(value)
        assert tuple(sorted(entry_ids)) == decode(mask)
    else:
        _, count, mask = bucket.lookup(value)
        assert count == mask.bit_count()
    return decode(mask)


class TestHashBucket:
    def test_lookup_hits_and_misses(self):
        bucket = hash_bucket({"AAPL": [0, 2], "MSFT": [1]})
        assert hits(bucket, "AAPL") == (0, 2)
        assert hits(bucket, "MSFT") == (1,)
        assert hits(bucket, "GOOG") == ()
        assert len(bucket) == 2

    def test_probe_cost_is_one_comparison(self):
        assert HashBucket({}).probe_cost == 1


class TestIntervalBucket:
    def test_closed_bounds_include_endpoints(self):
        bucket = slab_bucket([(Interval.closed(10, 20), 0)])
        assert hits(bucket, 10) == (0,)
        assert hits(bucket, 15) == (0,)
        assert hits(bucket, 20) == (0,)
        assert hits(bucket, 9) == ()
        assert hits(bucket, 21) == ()

    def test_open_bounds_exclude_endpoints(self):
        bucket = slab_bucket([(Interval.open(10, 20), 0)])
        assert hits(bucket, 10) == ()
        assert hits(bucket, 20) == ()
        assert hits(bucket, 10.0001) == (0,)
        assert hits(bucket, 19.9999) == (0,)

    def test_half_open_bounds(self):
        bucket = slab_bucket([(Interval.closed_open(30, 35), 0), (Interval.closed(35, 50), 1)])
        assert hits(bucket, 30) == (0,)
        assert hits(bucket, 34.999) == (0,)
        assert hits(bucket, 35) == (1,)
        assert hits(bucket, 50) == (1,)

    def test_duplicate_boundaries_collapse_into_one_point_slab(self):
        # Three ranges share the endpoint 10 with different openness.
        bucket = slab_bucket(
            [
                (Interval.closed(0, 10), 0),
                (Interval.closed_open(5, 10), 1),
                (Interval.open(10, 20), 2),
                (Interval.closed(10, 15), 3),
            ]
        )
        assert hits(bucket, 10) == (0, 3)
        assert hits(bucket, 7) == (0, 1)
        assert hits(bucket, 12) == (2, 3)
        assert hits(bucket, 17) == (2,)

    def test_point_interval_entries(self):
        bucket = slab_bucket([(Interval.point(5), 0), (Interval.closed(0, 10), 1)])
        assert hits(bucket, 5) == (0, 1)
        assert hits(bucket, 4) == (1,)

    def test_overlapping_ranges_accumulate_cover(self):
        bucket = slab_bucket(
            [
                (Interval.closed(0, 100), 0),
                (Interval.closed(25, 75), 1),
                (Interval.closed(40, 60), 2),
            ]
        )
        assert hits(bucket, 50) == (0, 1, 2)
        assert hits(bucket, 30) == (0, 1)
        assert hits(bucket, 10) == (0,)

    def test_unbounded_ranges(self):
        # RangePredicate.at_least / at_most produce infinite endpoints.
        bucket = slab_bucket(
            [
                (Interval(35.0, float("inf"), True, True), 0),
                (Interval(float("-inf"), 40.0, True, True), 1),
            ]
        )
        assert hits(bucket, 1000.0) == (0,)
        assert hits(bucket, -1000.0) == (1,)
        assert hits(bucket, 37.0) == (0, 1)
        assert hits(bucket, 35.0) == (0, 1)
        assert hits(bucket, 40.0) == (0, 1)

    def test_non_numeric_values_never_match(self):
        bucket = slab_bucket([(Interval.closed(0, 1), 0)])
        assert hits(bucket, "zero") == ()
        assert hits(bucket, True) == ()
        assert hits(bucket, None) == ()

    def test_values_outside_all_boundaries(self):
        bucket = slab_bucket([(Interval.closed(10, 20), 0)])
        assert hits(bucket, float("-inf")) == ()
        assert hits(bucket, float("inf")) == ()

    def test_adjacent_float_boundaries_do_not_crash(self):
        import math

        low = 1.0
        high = math.nextafter(low, 2.0)
        bucket = slab_bucket([(Interval.closed(0.0, low), 0), (Interval.closed(high, 2.0), 1)])
        assert hits(bucket, low) == (0,)
        assert hits(bucket, high) == (1,)

    def test_probe_cost_grows_logarithmically(self):
        small = slab_bucket([(Interval.closed(0, 1), 0)])
        big = slab_bucket([(Interval.closed(i, i + 0.5), i) for i in range(64)])
        assert small.probe_cost <= 2
        assert big.probe_cost <= 9


class TestIntervalBucketCompaction:
    """Removal-driven in-place compaction of stale slab boundaries."""

    def test_heavy_churn_pins_slab_length(self):
        """The satellite claim: after add/remove churn the boundary list
        stays proportional to the *live* entries, not the churn history."""
        bucket = slab_bucket([(Interval.closed(0, 1), 0)])
        for entry_id in range(1, 500):
            interval = Interval.closed(entry_id * 10, entry_id * 10 + 5)
            bucket.add(interval, 1 << entry_id)
            bucket.remove(interval, 1 << entry_id)
            # One live interval keeps 2 boundaries; churned endpoints must
            # never accumulate past the stale-fraction threshold.
            assert len(bucket) <= 5, f"slab grew to {len(bucket)} boundaries"
        assert hits(bucket, 0.5) == (0,)
        assert hits(bucket, 15) == ()
        assert bucket.probe_cost <= 3

    def test_compaction_preserves_lookup_semantics(self):
        live = [(Interval.closed(0, 10), 0), (Interval.open(5, 15), 1)]
        bucket = slab_bucket(live)
        # Churn enough overlapping entries through the bucket to trigger
        # several compactions.
        for entry_id in range(2, 40):
            interval = Interval.closed_open(entry_id * 0.25, entry_id * 0.25 + 3)
            bucket.add(interval, 1 << entry_id)
        for entry_id in range(2, 40):
            interval = Interval.closed_open(entry_id * 0.25, entry_id * 0.25 + 3)
            bucket.remove(interval, 1 << entry_id)
        fresh = slab_bucket(live)
        for value in [x * 0.5 for x in range(-2, 35)]:
            assert hits(bucket, value) == hits(fresh, value), value
        assert len(bucket) == len(fresh)

    def test_entry_count_tracks_the_live_entries_through_churn(self):
        """The planner's scan cost reads this count instead of walking
        every slab cover for the distinct entry ids."""

        def distinct_in_covers(bucket):
            return len({entry for _, _, mask in bucket.slabs() for entry in decode(mask)})

        bucket = slab_bucket(
            [(Interval.closed(0, 10), 0), (Interval.point(5), 1), (Interval.open(5, 15), 2)]
        )
        assert bucket.entry_count == distinct_in_covers(bucket) == 3
        for entry_id in range(3, 40):  # enough churn to compact repeatedly
            interval = Interval.closed_open(entry_id * 0.25, entry_id * 0.25 + 3)
            bucket.add(interval, 1 << entry_id)
            assert bucket.entry_count == distinct_in_covers(bucket) == 4
            bucket.remove(interval, 1 << entry_id)
            assert bucket.entry_count == distinct_in_covers(bucket) == 3
        bucket.remove(Interval.point(5), 1 << 1)
        assert bucket.entry_count == distinct_in_covers(bucket) == 2
        assert IntervalBucket([]).entry_count == 0

    def test_shared_endpoints_stay_until_last_reference(self):
        shared = [(Interval.closed(0, 10), 0), (Interval.closed(10, 20), 1)]
        bucket = slab_bucket(shared)
        bucket.remove(Interval.closed(0, 10), 1 << 0)
        # Boundary 10 is still referenced by entry 1; lookups stay exact.
        assert hits(bucket, 10) == (1,)
        assert hits(bucket, 5) == ()
        assert hits(bucket, 15) == (1,)

    def test_readding_a_stale_endpoint_revives_it(self):
        bucket = slab_bucket([(Interval.closed(0, 10), 0), (Interval.closed(2, 3), 1)])
        bucket.remove(Interval.closed(2, 3), 1 << 1)
        bucket.add(Interval.closed(2, 3), 1 << 2)
        assert hits(bucket, 2.5) == (0, 2)
        bucket.remove(Interval.closed(0, 10), 1 << 0)
        assert hits(bucket, 2.5) == (2,)
        assert hits(bucket, 5) == ()


# -- count and mask ≡ the tuple-of-ids reference, under any edit sequence ----------

#: Few distinct endpoints, so intervals share them: integers, halves, ±inf.
SLAB_BOUNDS = st.one_of(
    st.integers(min_value=-3, max_value=8),
    st.integers(min_value=-3, max_value=8).map(lambda v: v + 0.5),
    st.sampled_from([-math.inf, math.inf]),
)


@st.composite
def slab_intervals(draw):
    """Open, closed and half-open ends, points and ±inf bounds."""
    low, high = sorted((draw(SLAB_BOUNDS), draw(SLAB_BOUNDS)))
    if low == high:
        return Interval(-math.inf, math.inf) if math.isinf(low) else Interval.point(low)
    return Interval(low, high, draw(st.booleans()), draw(st.booleans()))


#: One edit: an entry added, an entry removed, a subscriber joining an
#: entry or leaving it (the integer picks the live entry / subscriber).
EDITS = st.tuples(st.sampled_from(["add", "remove", "join", "leave"]), st.integers(0, 1_000))


def count_and_mask(cover, masks):
    """What a slab with reference ``cover`` must hold: the number of its
    entries and the XOR of their masks."""
    xor = 0
    for entry in cover:
        xor ^= masks[entry]
    return len(cover), xor


def assert_slabs_equal_the_reference(bucket, reference, masks):
    """Same boundaries, and every slab holds its reference cover's count
    and mask."""
    assert list(bucket.boundaries) == list(reference.boundaries)
    slabs = list(bucket.slabs())
    covers = reference.covers()
    assert len(slabs) == len(covers)
    for (_, count, mask), cover in zip(slabs, covers):
        assert (count, mask) == count_and_mask(cover, masks), cover
    assert bucket.entry_count == len(masks)


@given(
    initial=st.lists(slab_intervals(), max_size=6),
    edits=st.lists(st.tuples(EDITS, slab_intervals()), max_size=40),
    probes=st.lists(SLAB_BOUNDS, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_counts_and_masks_equal_the_tuple_reference_after_every_edit(initial, edits, probes):
    """Random add / remove / subscriber-join / subscriber-leave sequences:
    after every step each slab's ``(count, mask)`` is its reference cover's
    length and mask XOR, and a lookup returns that slab's."""
    serial = iter(range(1_000_000))
    # Each entry owns disjoint subscriber bits, as in the matcher.
    subscribers: dict[int, list[int]] = {}
    intervals: dict[int, Interval] = {}
    masks: dict[int, int] = {}

    def new_entry(interval):
        entry = next(serial)
        bit = 1 << next(serial)
        subscribers[entry], intervals[entry], masks[entry] = [bit], interval, bit
        return entry

    for interval in initial:
        new_entry(interval)
    bucket = IntervalBucket([(intervals[e], masks[e]) for e in intervals])
    reference = TupleIntervalBucket([(intervals[e], e) for e in intervals])
    assert_slabs_equal_the_reference(bucket, reference, masks)
    for (kind, pick), interval in edits:
        live = sorted(intervals)
        if kind == "add" or not live:
            entry = new_entry(interval)
            bucket.add(interval, masks[entry])
            reference.add(interval, entry)
            continue
        entry = live[pick % len(live)]
        if kind == "join":
            bit = 1 << next(serial)
            subscribers[entry].append(bit)
            masks[entry] ^= bit
            bucket.flip(intervals[entry], bit)
        elif kind == "leave" and len(subscribers[entry]) > 1:
            bit = subscribers[entry].pop(pick % len(subscribers[entry]))
            masks[entry] ^= bit
            bucket.flip(intervals[entry], bit)
        else:  # a removal, or the last subscriber leaving
            before = len(bucket)
            bucket.remove(intervals[entry], masks.pop(entry))
            reference.remove(intervals.pop(entry), entry)
            del subscribers[entry]
            if len(bucket) < before:
                event("compacted")
        assert_slabs_equal_the_reference(bucket, reference, masks)
        for value in probes:
            slab, count, mask = bucket.lookup(value)
            assert (count, mask) == count_and_mask(reference.lookup(value), masks)
            assert slab == 2 * bisect_left(bucket.boundaries, value) + (value in bucket.boundaries)


class TestIndexPlanner:
    def test_prefers_index_for_selective_hash_bucket(self):
        domain = DiscreteDomain([f"s{i}" for i in range(50)])
        bucket = hash_bucket({f"s{i}": [i] for i in range(50)})
        plan = IndexPlanner().plan_attribute(
            "symbol", domain, hash_bucket=bucket, interval_bucket=None
        )
        assert plan.use_hash
        assert plan.index_cost < plan.scan_cost
        assert plan.scan_cost == 50.0

    def test_prefers_scan_when_every_entry_always_hits(self):
        # One giant range covering the whole domain: the probe can never
        # reject anything, so probing costs strictly more than scanning.
        domain = ContinuousDomain(0.0, 100.0)
        bucket = slab_bucket([(Interval.closed(0.0, 100.0), 0)])
        plan = IndexPlanner().plan_attribute(
            "load", domain, hash_bucket=None, interval_bucket=bucket
        )
        assert not plan.use_interval
        assert plan.scan_cost == 1.0

    def test_distribution_shifts_the_decision(self):
        domain = IntegerDomain(0, 9)
        bucket = hash_bucket({0: [0], 1: [1]})
        # All event mass on value 0: E[hits] is 1, uniform would say 0.2.
        skewed = DiscreteDistribution(domain, {0: 1.0})
        planned = IndexPlanner({"a": skewed})
        uniform = IndexPlanner()
        skewed_plan = planned.plan_attribute("a", domain, hash_bucket=bucket, interval_bucket=None)
        uniform_plan = uniform.plan_attribute("a", domain, hash_bucket=bucket, interval_bucket=None)
        assert skewed_plan.index_cost > uniform_plan.index_cost
        assert skewed_plan.index_cost == pytest.approx(2.0)

    def test_plan_reports_entry_counts(self):
        domain = IntegerDomain(0, 9)
        plan = IndexPlanner().plan_attribute(
            "a",
            domain,
            hash_bucket=hash_bucket({1: [0]}),
            interval_bucket=slab_bucket([(Interval.closed(2, 4), 1)]),
            scan_entry_count=1,
        )
        assert plan.entry_count == 3

    def test_oneof_entries_are_costed_once_for_the_scan_side(self):
        # One OneOf entry registered under 10 values: a scan evaluates the
        # predicate once, so the probe cannot be worth it.
        domain = IntegerDomain(0, 9)
        bucket = hash_bucket({value: [0] for value in range(10)})
        plan = IndexPlanner().plan_attribute("a", domain, hash_bucket=bucket, interval_bucket=None)
        assert plan.scan_cost == 1.0
        assert not plan.use_hash

    def test_unsupported_measure_rejected(self):
        with pytest.raises(SelectivityError):
            IndexPlanner(attribute_measure=AttributeMeasure.A3_CONDITIONAL)

    def test_plan_profiles_matches_bucket_based_costing(self):
        """The bucket-free estimator must reproduce the built-bucket plan."""
        from repro.matching.index import PredicateIndexMatcher
        from repro.workloads import build_workload, get_profile

        workload = build_workload(
            get_profile("stock-ticker").spec.with_counts(profile_count=120, event_count=10)
        )
        planner = IndexPlanner(dict(workload.event_distributions))
        estimated = planner.plan_profiles(workload.profiles)
        built = PredicateIndexMatcher(
            workload.profiles,
            planner=IndexPlanner(dict(workload.event_distributions)),
        ).plan
        assert set(estimated) == set(built.attributes)
        for attribute, plan in estimated.items():
            exact = built.plan_for(attribute)
            assert (plan.use_hash, plan.use_interval) == (exact.use_hash, exact.use_interval)
            assert plan.entry_count == exact.entry_count
            assert plan.index_cost == pytest.approx(exact.index_cost)
            assert plan.scan_cost == pytest.approx(exact.scan_cost)

    def test_rejection_scores_drive_probe_order(self):
        """The scores are public and consistent with the probe order."""
        from repro.matching.index import PredicateIndexMatcher
        from repro.workloads import build_workload, get_profile

        workload = build_workload(
            get_profile("stock-ticker").spec.with_counts(profile_count=40, event_count=10)
        )
        planner = IndexPlanner(dict(workload.event_distributions))
        matcher = PredicateIndexMatcher(workload.profiles, planner=planner)
        indexes = attribute_indexes(matcher)
        scores = planner.rejection_scores(workload.schema, indexes)
        order = planner.probe_order(workload.schema, indexes)
        assert scores, "A2 scoring produced no rejection scores"
        assert set(order) == set(workload.schema.names)
        assert scores[order[0]] == max(scores.values())
        assert matcher.plan.probe_order[0] == order[0]

    def test_natural_measure_keeps_schema_order(self):
        from repro.core.predicates import Equals
        from repro.core.profiles import Profile, ProfileSet
        from repro.core.schema import Attribute, Schema
        from repro.matching.index import PredicateIndexMatcher

        schema = Schema([Attribute("a", IntegerDomain(0, 9)), Attribute("b", IntegerDomain(0, 9))])
        profiles = ProfileSet(schema, [Profile("p", {"b": Equals(1)})])
        planner = IndexPlanner(attribute_measure=AttributeMeasure.NATURAL)
        matcher = PredicateIndexMatcher(profiles, planner=planner)
        assert planner.probe_order(schema, attribute_indexes(matcher)) == ("a", "b")
