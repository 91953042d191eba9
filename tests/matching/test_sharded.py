"""Equivalence and partitioning tests for the sharded matcher.

The contract under test (hypothesis-locked): for **any** shard count, a
:class:`ShardedMatcher` is bit-identical to the single-shard index
engine — same matched ids, same order — over arbitrary batches and any
``add_profile`` / ``remove_profile`` churn sequence, and agrees with the
naive oracle on the match *sets*.  Operation accounting equals the index
engine's exactly at one shard and stays deterministic at any count.
Partitioning mechanics (dense-id recycling across shards, stats folding,
executor backends) are covered deterministically.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import IntegerDomain
from repro.core.errors import MatchingError
from repro.core.events import Event
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.matching.index import PredicateIndexMatcher
from repro.matching.naive import NaiveMatcher
from repro.matching.sharded import (
    SerialShardExecutor,
    ShardedMatcher,
    ThreadShardExecutor,
    default_shard_count,
    resolve_shard_executor,
)

DOMAIN_SIZE = 9
ATTRIBUTES = ("a", "b")
SHARD_COUNTS = (1, 2, 3, 8)
#: Small cutover so even the tiny hypothesis batches reach the columnar
#: kernel inside each shard (the merge must be exact on both paths).
SMALL_CUTOVER = 4


def make_schema() -> Schema:
    return Schema([Attribute(name, IntegerDomain(0, DOMAIN_SIZE - 1)) for name in ATTRIBUTES])


def sharded_over(
    profiles: ProfileSet, shard_count: int, executor="serial"
) -> ShardedMatcher:
    return ShardedMatcher(
        ProfileSet(profiles.schema, list(profiles)),
        shard_count=shard_count,
        min_columnar_batch=SMALL_CUTOVER,
        executor=executor,
    )


@st.composite
def profile_pool(draw):
    """A pool of candidate profiles covering every predicate kind."""
    pool = []
    values = st.integers(0, DOMAIN_SIZE - 1)
    size = draw(st.integers(min_value=2, max_value=10))
    for index in range(size):
        predicates = {}
        for name in ATTRIBUTES:
            kind = draw(st.sampled_from(["skip", "eq", "range", "oneof", "ne"]))
            if kind == "eq":
                predicates[name] = Equals(draw(values))
            elif kind == "range":
                low = draw(values)
                high = draw(st.integers(low, DOMAIN_SIZE - 1))
                predicates[name] = RangePredicate.between(low, high)
            elif kind == "oneof":
                chosen = draw(st.sets(values, min_size=1, max_size=3))
                predicates[name] = OneOf(sorted(chosen))
            elif kind == "ne":
                predicates[name] = NotEquals(draw(values))
        # All-skip leaves an always-match profile — kept on purpose: the
        # shards track those outside the counters, the merge must too.
        pool.append(Profile(f"P{index}", predicates))
    return pool


@st.composite
def batch_workloads(draw):
    """A populated profile set plus one event batch."""
    schema = make_schema()
    pool = draw(profile_pool())
    profiles = ProfileSet(schema, pool)
    events = [
        Event({name: draw(st.integers(0, DOMAIN_SIZE - 1)) for name in ATTRIBUTES})
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    return profiles, events


@st.composite
def churn_runs(draw):
    """A profile pool, a membership-toggle script and probe events."""
    pool = draw(profile_pool())
    script = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
    events = [
        Event({name: draw(st.integers(0, DOMAIN_SIZE - 1)) for name in ATTRIBUTES})
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    return pool, script, events


# -- hypothesis: bit-identical batches ---------------------------------------------


@given(batch_workloads())
@settings(max_examples=100, deadline=None)
def test_sharded_is_bit_identical_to_index_and_oracle_on_batches(data):
    profiles, events = data
    index = PredicateIndexMatcher(
        ProfileSet(profiles.schema, list(profiles)),
        min_columnar_batch=SMALL_CUTOVER,
    )
    expected = index.match_batch(list(events))
    oracle = NaiveMatcher(profiles)
    for shard_count in SHARD_COUNTS:
        sharded = sharded_over(profiles, shard_count)
        results = sharded.match_batch(list(events))
        assert [r.matched_profile_ids for r in results] == [
            r.matched_profile_ids for r in expected
        ], f"shard_count={shard_count}"
        for event, result in zip(events, results):
            assert sorted(result.matched_profile_ids) == sorted(
                oracle.match(event).matched_profile_ids
            )
        # The per-event path must agree with the batch path exactly.
        assert [sharded.match(e).matched_profile_ids for e in events] == [
            r.matched_profile_ids for r in results
        ]


@given(batch_workloads())
@settings(max_examples=60, deadline=None)
def test_one_shard_operation_accounting_equals_the_index_engine(data):
    profiles, events = data
    index = PredicateIndexMatcher(
        ProfileSet(profiles.schema, list(profiles)),
        min_columnar_batch=SMALL_CUTOVER,
    )
    sharded = sharded_over(profiles, 1)
    expected = index.match_batch(list(events))
    results = sharded.match_batch(list(events))
    assert [(r.matched_profile_ids, r.operations, r.visited_levels) for r in results] == [
        (r.matched_profile_ids, r.operations, r.visited_levels) for r in expected
    ]


# -- hypothesis: churn sequences ---------------------------------------------------


@given(churn_runs(), st.sampled_from(SHARD_COUNTS))
@settings(max_examples=100, deadline=None)
def test_any_churn_sequence_stays_bit_identical_to_the_index_engine(data, shard_count):
    pool, script, probe_events = data
    schema = make_schema()
    sharded = ShardedMatcher(
        ProfileSet(schema),
        shard_count=shard_count,
        min_columnar_batch=SMALL_CUTOVER,
        executor="serial",
    )
    index = PredicateIndexMatcher(ProfileSet(schema), min_columnar_batch=SMALL_CUTOVER)
    live: dict[str, Profile] = {}
    for pool_index in script:
        profile = pool[pool_index]
        if profile.profile_id in live:
            sharded.remove_profile(profile.profile_id)
            index.remove_profile(profile.profile_id)
            del live[profile.profile_id]
        else:
            sharded.add_profile(profile)
            index.add_profile(profile)
            live[profile.profile_id] = profile
        # Probe between operations: intermediate states must be exact too.
        assert [r.matched_profile_ids for r in sharded.match_batch(list(probe_events))] == [
            r.matched_profile_ids for r in index.match_batch(list(probe_events))
        ]
    # Terminal state: identical to a freshly-built sharded matcher.
    fresh = ShardedMatcher(
        ProfileSet(schema, list(sharded.profiles)),
        shard_count=shard_count,
        min_columnar_batch=SMALL_CUTOVER,
        executor="serial",
    )
    grid = [
        Event(dict(zip(ATTRIBUTES, combo)))
        for combo in itertools.product(range(0, DOMAIN_SIZE, 2), repeat=len(ATTRIBUTES))
    ]
    for event in grid:
        assert (
            sharded.match(event).matched_profile_ids
            == fresh.match(event).matched_profile_ids
            == index.match(event).matched_profile_ids
        )


@given(churn_runs())
@settings(max_examples=60, deadline=None)
def test_bulk_add_profiles_equals_one_by_one(data):
    pool, _, probe_events = data
    schema = make_schema()
    bulk = ShardedMatcher(ProfileSet(schema), shard_count=3, executor="serial")
    bulk.add_profiles(pool)
    stepwise = ShardedMatcher(ProfileSet(schema), shard_count=3, executor="serial")
    for profile in pool:
        stepwise.add_profile(profile)
    for event in probe_events:
        assert (
            bulk.match(event).matched_profile_ids
            == stepwise.match(event).matched_profile_ids
        )


# -- id recycling across shards ----------------------------------------------------


class TestIdRecycling:
    def make(self, shard_count: int = 3) -> ShardedMatcher:
        return ShardedMatcher(
            ProfileSet(make_schema()), shard_count=shard_count, executor="serial"
        )

    def test_recycled_dense_id_lands_on_the_freed_shard(self):
        matcher = self.make()
        for index in range(6):
            matcher.add_profile(Profile(f"P{index}", {"a": Equals(index % DOMAIN_SIZE)}))
        freed_shard = matcher.shard_of("P4")
        matcher.remove_profile("P4")
        matcher.add_profile(Profile("Q0", {"a": Equals(1)}))
        assert matcher.shard_of("Q0") == freed_shard
        assert matcher.shard_stats().profiles_per_shard == (2, 2, 2)

    def test_recycled_id_keeps_insertion_order_semantics(self):
        """A re-added id sorts by its *new* position, like the index engine."""
        schema = make_schema()
        matcher = self.make()
        index = PredicateIndexMatcher(ProfileSet(schema))
        everything = {"a": RangePredicate.between(0, DOMAIN_SIZE - 1)}
        for pid in ("P0", "P1", "P2"):
            matcher.add_profile(Profile(pid, everything))
            index.add_profile(Profile(pid, everything))
        for engine in (matcher, index):
            engine.remove_profile("P0")
            engine.add_profile(Profile("P0", everything))
        event = Event({"a": 3, "b": 3})
        assert matcher.match(event).matched_profile_ids == ("P1", "P2", "P0")
        assert (
            matcher.match(event).matched_profile_ids
            == index.match(event).matched_profile_ids
        )

    def test_unknown_profile_id_raises_the_cross_matcher_error(self):
        matcher = self.make()
        with pytest.raises(MatchingError, match="unknown profile id"):
            matcher.remove_profile("nope")
        with pytest.raises(MatchingError, match="unknown profile id"):
            matcher.shard_of("nope")


# -- stats folding -----------------------------------------------------------------


class TestStatsFolding:
    def populated(self, shard_count: int) -> ShardedMatcher:
        schema = make_schema()
        profiles = ProfileSet(
            schema,
            [
                Profile(f"P{i}", {"a": RangePredicate.between(0, 4 + i % 4)})
                for i in range(12)
            ],
        )
        return ShardedMatcher(
            profiles,
            shard_count=shard_count,
            min_columnar_batch=SMALL_CUTOVER,
            executor="serial",
        )

    def test_kernel_stats_fold_is_exact(self):
        matcher = self.populated(3)
        events = [Event({"a": i % DOMAIN_SIZE, "b": i % DOMAIN_SIZE}) for i in range(32)]
        results = matcher.match_batch(events)
        folded = matcher.kernel_stats
        per_shard = [shard.kernel_stats for shard in matcher.shards]
        assert folded.events == sum(stats.events for stats in per_shard)
        assert folded.charged_operations == sum(
            stats.charged_operations for stats in per_shard
        )
        assert folded.executed_operations == sum(
            stats.executed_operations for stats in per_shard
        )
        # The fold's charged work is exactly what the merged results bill.
        assert folded.charged_operations == sum(r.operations for r in results)

    def test_shard_stats_snapshot(self):
        matcher = self.populated(3)
        snapshot = matcher.shard_stats()
        assert snapshot.shard_count == 3
        assert snapshot.executor == "serial"
        assert snapshot.profiles_per_shard == (4, 4, 4)
        assert snapshot.total_profiles == 12
        assert snapshot.imbalance == 1.0

    def test_estimated_cost_is_the_sum_over_shards(self):
        matcher = self.populated(3)
        assert matcher.estimated_cost() == pytest.approx(
            sum(shard.estimated_cost() for shard in matcher.shards)
        )


# -- executors ---------------------------------------------------------------------


class TestExecutors:
    def test_thread_executor_is_bit_identical_to_serial(self):
        schema = make_schema()
        profiles = ProfileSet(
            schema,
            [Profile(f"P{i}", {"a": RangePredicate.between(0, 3 + i % 5)}) for i in range(10)],
        )
        events = [Event({"a": i % DOMAIN_SIZE, "b": 0}) for i in range(24)]
        serial = sharded_over(profiles, 4, executor="serial")
        threaded = sharded_over(profiles, 4, executor="threads")
        try:
            expected = serial.match_batch(events)
            results = threaded.match_batch(events)
            assert [(r.matched_profile_ids, r.operations) for r in results] == [
                (r.matched_profile_ids, r.operations) for r in expected
            ]
        finally:
            threaded.close()
        # A closed matcher degrades to serial execution instead of failing.
        assert [r.matched_profile_ids for r in threaded.match_batch(events)] == [
            r.matched_profile_ids for r in expected
        ]

    def test_executor_resolution(self):
        assert isinstance(resolve_shard_executor(None, 1), SerialShardExecutor)
        assert isinstance(resolve_shard_executor(None, 4), ThreadShardExecutor)
        assert isinstance(resolve_shard_executor("serial", 4), SerialShardExecutor)
        custom = SerialShardExecutor()
        assert resolve_shard_executor(custom, 4) is custom
        with pytest.raises(MatchingError, match="unknown shard executor"):
            resolve_shard_executor("processes", 4)
        with pytest.raises(MatchingError, match="ShardExecutor"):
            resolve_shard_executor(42, 4)

    def test_default_shard_count_is_cores_based_and_clamped(self):
        assert 1 <= default_shard_count() <= 8

    def test_shard_count_must_be_positive(self):
        with pytest.raises(MatchingError, match="shard_count"):
            ShardedMatcher(ProfileSet(make_schema()), shard_count=0)


# -- registry integration ----------------------------------------------------------


class TestEngineFamily:
    def test_sharded_is_a_registered_family(self):
        from repro.matching.registry import default_registry

        spec = default_registry().spec("sharded")
        assert spec.capabilities.incremental_maintenance
        assert spec.capabilities.batch_kernel
        # Sharding is a deployment decision, never an auto-arbitration pick:
        # it costs its own replans but carries no auto rank.
        assert spec.candidate is not None and spec.auto_rank is None
        assert all(s.name != "sharded" for s in default_registry().arbitrating_specs())

    def test_factory_respects_the_context_shard_count(self):
        from repro.matching.registry import EngineContext, default_registry
        from repro.selectivity import AttributeMeasure, ValueMeasure
        from repro.matching.tree.config import SearchStrategy

        context = EngineContext(
            profiles=ProfileSet(make_schema()),
            attribute_measure=AttributeMeasure.A2_ZERO_PROBABILITY,
            value_measure=ValueMeasure.V1_EVENT,
            search=SearchStrategy.LINEAR,
            shard_count=5,
        )
        matcher = default_registry().spec("sharded").factory(context)
        assert isinstance(matcher, ShardedMatcher)
        assert matcher.shard_count == 5
        assert default_registry().owner_of(matcher).name == "sharded"
