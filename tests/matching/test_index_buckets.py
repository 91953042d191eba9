"""Unit tests for the predicate-index buckets and the planner.

The interval-bucket cases nail down the slab decomposition's edge
behaviour: open vs closed bounds, duplicate boundaries shared by several
ranges, degenerate point intervals and unbounded (``>=`` / ``<=``) ranges.
"""

import pytest

from repro.core.domains import ContinuousDomain, DiscreteDomain, IntegerDomain
from repro.core.errors import SelectivityError
from repro.core.intervals import Interval
from repro.distributions.discrete import DiscreteDistribution
from repro.matching.index.buckets import HashBucket, IntervalBucket
from repro.matching.index.planner import IndexPlanner
from repro.selectivity import AttributeMeasure


class TestHashBucket:
    def test_lookup_hits_and_misses(self):
        bucket = HashBucket({"AAPL": [0, 2], "MSFT": [1]})
        assert bucket.lookup("AAPL") == (0, 2)
        assert bucket.lookup("MSFT") == (1,)
        assert bucket.lookup("GOOG") == ()
        assert len(bucket) == 2

    def test_probe_cost_is_one_comparison(self):
        assert HashBucket({}).probe_cost == 1


class TestIntervalBucket:
    def test_closed_bounds_include_endpoints(self):
        bucket = IntervalBucket([(Interval.closed(10, 20), 0)])
        assert bucket.lookup(10) == (0,)
        assert bucket.lookup(15) == (0,)
        assert bucket.lookup(20) == (0,)
        assert bucket.lookup(9) == ()
        assert bucket.lookup(21) == ()

    def test_open_bounds_exclude_endpoints(self):
        bucket = IntervalBucket([(Interval.open(10, 20), 0)])
        assert bucket.lookup(10) == ()
        assert bucket.lookup(20) == ()
        assert bucket.lookup(10.0001) == (0,)
        assert bucket.lookup(19.9999) == (0,)

    def test_half_open_bounds(self):
        bucket = IntervalBucket([(Interval.closed_open(30, 35), 0), (Interval.closed(35, 50), 1)])
        assert bucket.lookup(30) == (0,)
        assert bucket.lookup(34.999) == (0,)
        assert bucket.lookup(35) == (1,)
        assert bucket.lookup(50) == (1,)

    def test_duplicate_boundaries_collapse_into_one_point_slab(self):
        # Three ranges share the endpoint 10 with different openness.
        bucket = IntervalBucket(
            [
                (Interval.closed(0, 10), 0),
                (Interval.closed_open(5, 10), 1),
                (Interval.open(10, 20), 2),
                (Interval.closed(10, 15), 3),
            ]
        )
        assert bucket.lookup(10) == (0, 3)
        assert bucket.lookup(7) == (0, 1)
        assert bucket.lookup(12) == (2, 3)
        assert bucket.lookup(17) == (2,)

    def test_point_interval_entries(self):
        bucket = IntervalBucket([(Interval.point(5), 0), (Interval.closed(0, 10), 1)])
        assert bucket.lookup(5) == (0, 1)
        assert bucket.lookup(4) == (1,)

    def test_overlapping_ranges_accumulate_cover(self):
        bucket = IntervalBucket(
            [
                (Interval.closed(0, 100), 0),
                (Interval.closed(25, 75), 1),
                (Interval.closed(40, 60), 2),
            ]
        )
        assert bucket.lookup(50) == (0, 1, 2)
        assert bucket.lookup(30) == (0, 1)
        assert bucket.lookup(10) == (0,)

    def test_unbounded_ranges(self):
        # RangePredicate.at_least / at_most produce infinite endpoints.
        bucket = IntervalBucket(
            [
                (Interval(35.0, float("inf"), True, True), 0),
                (Interval(float("-inf"), 40.0, True, True), 1),
            ]
        )
        assert bucket.lookup(1000.0) == (0,)
        assert bucket.lookup(-1000.0) == (1,)
        assert bucket.lookup(37.0) == (0, 1)
        assert bucket.lookup(35.0) == (0, 1)
        assert bucket.lookup(40.0) == (0, 1)

    def test_non_numeric_values_never_match(self):
        bucket = IntervalBucket([(Interval.closed(0, 1), 0)])
        assert bucket.lookup("zero") == ()
        assert bucket.lookup(True) == ()
        assert bucket.lookup(None) == ()

    def test_values_outside_all_boundaries(self):
        bucket = IntervalBucket([(Interval.closed(10, 20), 0)])
        assert bucket.lookup(float("-inf")) == ()
        assert bucket.lookup(float("inf")) == ()

    def test_adjacent_float_boundaries_do_not_crash(self):
        import math

        low = 1.0
        high = math.nextafter(low, 2.0)
        bucket = IntervalBucket([(Interval.closed(0.0, low), 0), (Interval.closed(high, 2.0), 1)])
        assert bucket.lookup(low) == (0,)
        assert bucket.lookup(high) == (1,)

    def test_probe_cost_grows_logarithmically(self):
        small = IntervalBucket([(Interval.closed(0, 1), 0)])
        big = IntervalBucket([(Interval.closed(i, i + 0.5), i) for i in range(64)])
        assert small.probe_cost <= 2
        assert big.probe_cost <= 9


class TestIntervalBucketCompaction:
    """Removal-driven in-place compaction of stale slab boundaries."""

    def test_heavy_churn_pins_slab_length(self):
        """The satellite claim: after add/remove churn the boundary list
        stays proportional to the *live* entries, not the churn history."""
        bucket = IntervalBucket([(Interval.closed(0, 1), 0)])
        for entry_id in range(1, 500):
            interval = Interval.closed(entry_id * 10, entry_id * 10 + 5)
            bucket.add(interval, entry_id)
            bucket.remove(interval, entry_id)
            # One live interval keeps 2 boundaries; churned endpoints must
            # never accumulate past the stale-fraction threshold.
            assert len(bucket) <= 5, f"slab grew to {len(bucket)} boundaries"
        assert bucket.lookup(0.5) == (0,)
        assert bucket.lookup(15) == ()
        assert bucket.probe_cost <= 3

    def test_compaction_preserves_lookup_semantics(self):
        live = [(Interval.closed(0, 10), 0), (Interval.open(5, 15), 1)]
        bucket = IntervalBucket(live)
        # Churn enough overlapping entries through the bucket to trigger
        # several compactions.
        for entry_id in range(2, 40):
            interval = Interval.closed_open(entry_id * 0.25, entry_id * 0.25 + 3)
            bucket.add(interval, entry_id)
        for entry_id in range(2, 40):
            interval = Interval.closed_open(entry_id * 0.25, entry_id * 0.25 + 3)
            bucket.remove(interval, entry_id)
        fresh = IntervalBucket(live)
        for value in [x * 0.5 for x in range(-2, 35)]:
            assert bucket.lookup(value) == fresh.lookup(value), value
        assert len(bucket) == len(fresh)

    def test_entry_count_tracks_the_live_entries_through_churn(self):
        """The planner's scan cost reads this count instead of walking
        every slab cover for the distinct entry ids."""

        def distinct_in_covers(bucket):
            return len({entry for _, cover in bucket.slabs() for entry in cover})

        bucket = IntervalBucket(
            [(Interval.closed(0, 10), 0), (Interval.point(5), 1), (Interval.open(5, 15), 2)]
        )
        assert bucket.entry_count == distinct_in_covers(bucket) == 3
        for entry_id in range(3, 40):  # enough churn to compact repeatedly
            interval = Interval.closed_open(entry_id * 0.25, entry_id * 0.25 + 3)
            bucket.add(interval, entry_id)
            assert bucket.entry_count == distinct_in_covers(bucket) == 4
            bucket.remove(interval, entry_id)
            assert bucket.entry_count == distinct_in_covers(bucket) == 3
        bucket.remove(Interval.point(5), 1)
        assert bucket.entry_count == distinct_in_covers(bucket) == 2
        assert IntervalBucket([]).entry_count == 0

    def test_shared_endpoints_stay_until_last_reference(self):
        shared = [(Interval.closed(0, 10), 0), (Interval.closed(10, 20), 1)]
        bucket = IntervalBucket(shared)
        bucket.remove(Interval.closed(0, 10), 0)
        # Boundary 10 is still referenced by entry 1; lookups stay exact.
        assert bucket.lookup(10) == (1,)
        assert bucket.lookup(5) == ()
        assert bucket.lookup(15) == (1,)

    def test_readding_a_stale_endpoint_revives_it(self):
        bucket = IntervalBucket([(Interval.closed(0, 10), 0), (Interval.closed(2, 3), 1)])
        bucket.remove(Interval.closed(2, 3), 1)
        bucket.add(Interval.closed(2, 3), 2)
        assert bucket.lookup(2.5) == (0, 2)
        bucket.remove(Interval.closed(0, 10), 0)
        assert bucket.lookup(2.5) == (2,)
        assert bucket.lookup(5) == ()


class TestIndexPlanner:
    def test_prefers_index_for_selective_hash_bucket(self):
        domain = DiscreteDomain([f"s{i}" for i in range(50)])
        bucket = HashBucket({f"s{i}": [i] for i in range(50)})
        plan = IndexPlanner().plan_attribute(
            "symbol", domain, hash_bucket=bucket, interval_bucket=None
        )
        assert plan.use_index
        assert plan.index_cost < plan.scan_cost
        assert plan.scan_cost == 50.0

    def test_prefers_scan_when_every_entry_always_hits(self):
        # One giant range covering the whole domain: the probe can never
        # reject anything, so probing costs strictly more than scanning.
        domain = ContinuousDomain(0.0, 100.0)
        bucket = IntervalBucket([(Interval.closed(0.0, 100.0), 0)])
        plan = IndexPlanner().plan_attribute(
            "load", domain, hash_bucket=None, interval_bucket=bucket
        )
        assert not plan.use_index
        assert plan.scan_cost == 1.0

    def test_distribution_shifts_the_decision(self):
        domain = IntegerDomain(0, 9)
        bucket = HashBucket({0: [0], 1: [1]})
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
            hash_bucket=HashBucket({1: [0]}),
            interval_bucket=IntervalBucket([(Interval.closed(2, 4), 1)]),
            scan_entry_count=1,
        )
        assert plan.entry_count == 3

    def test_oneof_entries_are_costed_once_for_the_scan_side(self):
        # One OneOf entry registered under 10 values: a scan evaluates the
        # predicate once, so the probe cannot be worth it.
        domain = IntegerDomain(0, 9)
        bucket = HashBucket({value: [0] for value in range(10)})
        plan = IndexPlanner().plan_attribute("a", domain, hash_bucket=bucket, interval_bucket=None)
        assert plan.scan_cost == 1.0
        assert not plan.use_index

    def test_unsupported_measure_rejected(self):
        with pytest.raises(SelectivityError):
            IndexPlanner(attribute_measure=AttributeMeasure.A3_CONDITIONAL)

    def test_plan_profiles_matches_bucket_based_costing(self):
        """The bucket-free estimator must reproduce the built-bucket plan.

        ``engine="auto"`` relies on this equivalence to cost the index
        family without building it.
        """
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
            assert plan.use_index == exact.use_index
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
        scores = planner.rejection_scores(workload.profiles)
        order = planner.probe_order(workload.profiles)
        assert scores, "A2 scoring produced no rejection scores"
        assert set(order) == set(workload.schema.names)
        assert scores[order[0]] == max(scores.values())
        matcher = PredicateIndexMatcher(workload.profiles, planner=planner)
        assert matcher.plan.probe_order[0] == order[0]

    def test_natural_measure_keeps_schema_order(self):
        from repro.core.predicates import Equals
        from repro.core.profiles import Profile, ProfileSet
        from repro.core.schema import Attribute, Schema

        schema = Schema([Attribute("a", IntegerDomain(0, 9)), Attribute("b", IntegerDomain(0, 9))])
        profiles = ProfileSet(schema, [Profile("p", {"b": Equals(1)})])
        planner = IndexPlanner(attribute_measure=AttributeMeasure.NATURAL)
        assert planner.probe_order(profiles) == ("a", "b")
