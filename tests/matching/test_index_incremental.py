"""Equivalence tests for incremental index maintenance.

The contract under test: *any* sequence of ``add_profile`` /
``remove_profile`` operations leaves a :class:`PredicateIndexMatcher`
that matches exactly like a freshly-built matcher over the surviving
profiles — and like the naive oracle.  Hypothesis drives adversarial
churn scripts over every predicate kind (hash entries, slab splicing for
ranges, scan fallback, always-match profiles); a seeded generator
workload covers realistic range-heavy churn at scale.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.matching.index import PredicateIndexMatcher, kernel
from repro.matching.index.buckets import HashBucket, IntervalBucket
from repro.matching.index.matcher import _dense_ids, _hash_values
from repro.matching.naive import NaiveMatcher
from repro.workloads import build_workload, get_profile

DOMAIN_SIZE = 9
ATTRIBUTES = ("a", "b")


def make_schema() -> Schema:
    return Schema([Attribute(name, IntegerDomain(0, DOMAIN_SIZE - 1)) for name in ATTRIBUTES])


@st.composite
def profile_pool(draw):
    """A pool of candidate profiles covering every predicate kind."""
    pool = []
    values = st.integers(0, DOMAIN_SIZE - 1)
    size = draw(st.integers(min_value=2, max_value=10))
    for index in range(size):
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
                chosen = draw(st.sets(values, min_size=1, max_size=3))
                predicates[name] = OneOf(sorted(chosen))
            elif kind == "ne":
                predicates[name] = NotEquals(draw(values))
        # "skip" for every attribute leaves an always-match profile — kept
        # on purpose: it matches through every attribute's free mask.
        pool.append(Profile(f"P{index}", predicates))
    return pool


@st.composite
def churn_runs(draw):
    """A profile pool plus a toggle script over it.

    The script is a list of pool indices; each occurrence toggles the
    profile's membership (absent -> add, present -> remove), so every
    generated script is valid and shrinks well.
    """
    pool = draw(profile_pool())
    script = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=20)
    )
    events = [
        Event({name: draw(st.integers(0, DOMAIN_SIZE - 1)) for name in ATTRIBUTES})
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    return pool, script, events


def _full_event_grid() -> list[Event]:
    return [
        Event(dict(zip(ATTRIBUTES, combo)))
        for combo in itertools.product(range(DOMAIN_SIZE), repeat=len(ATTRIBUTES))
    ]


@given(churn_runs())
@settings(max_examples=120, deadline=None)
def test_any_churn_sequence_matches_fresh_build_and_oracle(data):
    pool, script, probe_events = data
    schema = make_schema()
    matcher = PredicateIndexMatcher(ProfileSet(schema))
    live: dict[str, Profile] = {}
    for index in script:
        profile = pool[index]
        if profile.profile_id in live:
            matcher.remove_profile(profile.profile_id)
            del live[profile.profile_id]
        else:
            matcher.add_profile(profile)
            live[profile.profile_id] = profile
        # Probe between operations: intermediate states must be exact too.
        oracle = NaiveMatcher(ProfileSet(schema, list(matcher.profiles)))
        for event in probe_events:
            assert (
                matcher.match(event).matched_profile_ids
                == oracle.match(event).matched_profile_ids
            )
    # Terminal state: identical to a freshly-built matcher on every event.
    fresh = PredicateIndexMatcher(ProfileSet(schema, list(matcher.profiles)))
    for event in _full_event_grid():
        assert (
            matcher.match(event).matched_profile_ids
            == fresh.match(event).matched_profile_ids
        )


def _batch_events(probe_events: list[Event]) -> list[Event]:
    """A batch long enough for the columnar kernel: the drawn events, a
    slice of the value grid, and partial events missing either attribute."""
    grid = _full_event_grid()
    batch = list(probe_events) + grid[:: len(grid) // 12]
    batch += [Event({"a": value}) for value in range(0, DOMAIN_SIZE, 3)]
    batch += [Event({"b": value}) for value in range(1, DOMAIN_SIZE, 3)]
    assert len(batch) >= kernel.MIN_COLUMNAR_BATCH
    return batch


@given(churn_runs())
@settings(max_examples=120, deadline=None)
def test_any_churn_sequence_batch_matches_oracle(data):
    """After every toggle the columnar kernel returns the oracle's exact id
    tuples — recycled dense ids put bits out of subscription order, so the
    read-out must reorder them."""
    pool, script, probe_events = data
    schema = make_schema()
    matcher = PredicateIndexMatcher(ProfileSet(schema))
    live: set[str] = set()
    batch = _batch_events(probe_events)
    for index in script:
        profile = pool[index]
        if profile.profile_id in live:
            matcher.remove_profile(profile.profile_id)
            live.discard(profile.profile_id)
        else:
            matcher.add_profile(profile)
            live.add(profile.profile_id)
        oracle = NaiveMatcher(ProfileSet(schema, list(matcher.profiles)))
        expected = [oracle.match(event).matched_profile_ids for event in batch]
        results = matcher.match_batch(batch)
        assert [r.matched_profile_ids for r in results] == expected
        sequential = [matcher.match(event) for event in batch]
        assert [r.operations for r in results] == [r.operations for r in sequential]


def _batch_ids(matcher, events):
    return [r.matched_profile_ids for r in kernel.match_batch_columnar(matcher, events)]


def test_recycled_dense_ids_report_in_subscription_order():
    schema = make_schema()
    matcher = PredicateIndexMatcher(ProfileSet(schema))
    for name in ("P0", "P1", "P2", "P3"):
        matcher.add_profile(Profile(name, {"a": RangePredicate.at_least(0)}))
    matcher.remove_profile("P1")
    matcher.add_profile(Profile("P4", {"a": RangePredicate.at_least(0)}))
    # P4 reuses P1's dense id: its bit sits below P2's and P3's.
    assert matcher._id_of["P4"] < matcher._id_of["P2"]
    events = [Event({"a": value % DOMAIN_SIZE, "b": 0}) for value in range(20)]
    expected = ("P0", "P2", "P3", "P4")
    assert _batch_ids(matcher, events) == [expected] * len(events)
    assert matcher.match(events[0]).matched_profile_ids == expected


def test_dense_mask_where_every_live_profile_matches():
    """A mask dense enough for the byte-scan read-out, through churn, in
    insertion order."""
    schema = make_schema()
    profiles = [Profile(f"P{i}", {"a": RangePredicate.at_least(0)}) for i in range(300)]
    matcher = PredicateIndexMatcher(ProfileSet(schema, profiles))
    for profile in profiles[::5]:
        matcher.remove_profile(profile.profile_id)
    for profile in profiles[::10]:
        matcher.add_profile(profile)
    expected = tuple(profile.profile_id for profile in matcher.profiles)
    assert len(expected) > 200
    events = [Event({"a": value % DOMAIN_SIZE, "b": 1}) for value in range(20)]
    assert _batch_ids(matcher, events) == [expected] * len(events)
    assert matcher.match(events[0]).matched_profile_ids == expected


def test_always_match_profiles_survive_churn_in_batches():
    schema = make_schema()
    matcher = PredicateIndexMatcher(
        ProfileSet(schema, [Profile("all-1", {}), Profile("a1", {"a": Equals(1)})])
    )
    matcher.add_profile(Profile("b2", {"b": Equals(2)}))
    matcher.remove_profile("all-1")
    matcher.add_profile(Profile("all-2", {}))
    events = [Event({"a": 1, "b": 2}), Event({"a": 0, "b": 0}), Event({"b": 0})] * 8
    assert _batch_ids(matcher, events) == [("a1", "b2", "all-2"), ("all-2",), ("all-2",)] * 8


def test_event_missing_the_first_probed_attribute():
    schema = make_schema()
    matcher = PredicateIndexMatcher(
        ProfileSet(
            schema,
            [
                Profile("a-only", {"a": Equals(1)}),
                Profile("b-only", {"b": Equals(2)}),
                Profile("both", {"a": Equals(1), "b": Equals(2)}),
            ],
        )
    )
    first = matcher.plan.probe_order[0]
    other = "b" if first == "a" else "a"
    value = {"a": 1, "b": 2}[other]
    events = [Event({other: value})] * kernel.MIN_COLUMNAR_BATCH
    expected = (f"{other}-only",)
    results = kernel.match_batch_columnar(matcher, events)
    assert [r.matched_profile_ids for r in results] == [expected] * len(events)
    assert results[0] == matcher.match(events[0])


def test_rejected_events_in_a_batch():
    """A zero-hit probe on an attribute every live profile constrains
    rejects the event, with the per-event loop's operations."""
    schema = make_schema()
    matcher = PredicateIndexMatcher(
        ProfileSet(schema, [Profile(f"A{v}", {"a": Equals(v), "b": Equals(v)}) for v in (1, 2)])
    )
    events = [Event({"a": 5, "b": 1}), Event({"a": 1, "b": 1})] * 8
    results = kernel.match_batch_columnar(matcher, events)
    assert [r.matched_profile_ids for r in results] == [(), ("A1",)] * 8
    assert results == [matcher.match(event) for event in events]
    assert results[0].operations < results[1].operations


def test_dense_id_read_out_is_exact_on_sparse_and_dense_masks():
    """Both read-out strategies (top-bit clearing, byte scan) are exact."""
    rng = random.Random(5)
    for width in (1, 63, 64, 65, 1_500, 20_000):
        for count in (0, 1, 2, 17, 120, 600, width // 2, width):
            ids = rng.sample(range(width), min(count, width))
            mask = 0
            for dense in ids:
                mask |= 1 << dense
            assert _dense_ids(mask) == sorted(ids)


@given(churn_runs())
@settings(max_examples=60, deadline=None)
def test_churned_plan_recost_stays_consistent(data):
    """The deferred replan must leave plan/match consistent after churn."""
    pool, script, probe_events = data
    schema = make_schema()
    matcher = PredicateIndexMatcher(ProfileSet(schema))
    live: set[str] = set()
    for index in script:
        profile = pool[index]
        if profile.profile_id in live:
            matcher.remove_profile(profile.profile_id)
            live.discard(profile.profile_id)
        else:
            matcher.add_profile(profile)
            live.add(profile.profile_id)
    assert matcher.replan_pending
    plan = matcher.plan  # forces the lazy recost
    assert not matcher.replan_pending
    assert set(plan.probe_order) == set(plan.attributes)
    oracle = NaiveMatcher(ProfileSet(schema, list(matcher.profiles)))
    for event in probe_events:
        assert (
            matcher.match(event).matched_profile_ids
            == oracle.match(event).matched_profile_ids
        )


def assert_buckets_hold_only_live_entries(matcher):
    """Each bucket equals one built afresh from its live entries' keys and
    masks: the same counts and masks per key, entry count and (for slabs)
    boundaries and probe cost."""
    for state in matcher._states.values():
        hashed = [
            (_hash_values(predicate), entry.mask)
            for predicate, entry in state.entries.items()
            if isinstance(predicate, (Equals, OneOf))
        ]
        ranges = [
            (predicate.interval, entry.mask)
            for predicate, entry in state.entries.items()
            if isinstance(predicate, RangePredicate)
        ]
        if hashed:
            bucket, fresh = state.hash_bucket, HashBucket(hashed)
            assert (bucket.counts, bucket.masks, bucket.entry_count) == (
                fresh.counts,
                fresh.masks,
                fresh.entry_count,
            )
        else:
            assert state.hash_bucket is None
        if ranges:
            bucket, fresh = state.interval_bucket, IntervalBucket(ranges)
            assert list(bucket.boundaries) == list(fresh.boundaries)
            assert list(bucket.counts) == list(fresh.counts)
            assert list(bucket.masks) == list(fresh.masks)
            assert (bucket.entry_count, bucket.probe_cost) == (fresh.entry_count, fresh.probe_cost)
        else:
            assert state.interval_bucket is None


@given(churn_runs())
@settings(max_examples=120, deadline=None)
def test_every_bucket_equals_a_fresh_build_of_its_live_entries(data):
    """Random subscribe / cancel scripts over ``Equals``, ``OneOf``, range
    and ``NotEquals`` profiles add, remove and flip bucket entries (pool
    profiles share predicates, so a toggle may only move a subscriber bit);
    after every step no bucket keeps anything of a removed entry."""
    pool, script, _ = data
    matcher = PredicateIndexMatcher(ProfileSet(make_schema()))
    for index in script:
        profile = pool[index]
        if profile.profile_id in matcher.profiles:
            matcher.remove_profile(profile.profile_id)
        else:
            matcher.add_profile(profile)
        assert_buckets_hold_only_live_entries(matcher)


def test_a_churned_matcher_plans_and_charges_as_a_fresh_build():
    """Cancelling every other of 20 disjoint ranges leaves the index a
    fresh build over the 10 live profiles would make: 20 boundaries, the
    same plan and the same 723 operations over 143 events.  A bucket that
    kept the cancelled endpoints held 40 boundaries, probed one level
    deeper and charged 866."""
    schema = Schema([Attribute("x", IntegerDomain(0, 1000))])
    profiles = [
        Profile(f"p{i}", {"x": RangePredicate.between(10 * i, 10 * i + 5)}) for i in range(20)
    ]
    churned = PredicateIndexMatcher(ProfileSet(schema, profiles))
    for profile in profiles[::2]:
        churned.remove_profile(profile.profile_id)
    fresh = PredicateIndexMatcher(ProfileSet(schema, profiles[1::2]))
    assert churned.plan.attributes == fresh.plan.attributes
    boundaries = [len(m._states["x"].interval_bucket) for m in (churned, fresh)]
    assert boundaries == [20, 20]
    events = [Event({"x": x}) for x in range(0, 1000, 7)]
    charges = [sum(m.match(event).operations for event in events) for m in (churned, fresh)]
    assert charges == [723, 723]


def test_generator_workload_churn_equivalence():
    """Seeded, range-heavy churn at realistic scale (slab splicing)."""
    workload = build_workload(
        get_profile("stock-ticker").spec.with_counts(profile_count=150, event_count=200)
    )
    events = list(workload.events)
    matcher = PredicateIndexMatcher(workload.profiles)
    profiles = list(workload.profiles)
    rng = random.Random(11)
    removed: list = []
    for step in range(300):
        if removed and (not profiles or rng.random() < 0.5):
            profile = removed.pop(rng.randrange(len(removed)))
            matcher.add_profile(profile)
            profiles.append(profile)
        else:
            profile = profiles.pop(rng.randrange(len(profiles)))
            matcher.remove_profile(profile.profile_id)
            removed.append(profile)
        if step % 50 == 0:
            oracle = NaiveMatcher(ProfileSet(workload.schema, list(matcher.profiles)))
            for event in events[:40]:
                assert (
                    matcher.match(event).matched_profile_ids
                    == oracle.match(event).matched_profile_ids
                )
    fresh = PredicateIndexMatcher(ProfileSet(workload.schema, list(matcher.profiles)))
    for event in events:
        assert (
            matcher.match(event).matched_profile_ids
            == fresh.match(event).matched_profile_ids
        )


class _RaisingOnEq:
    """A value whose equality comparison explodes (mid-match abort)."""

    def __eq__(self, other):
        raise TypeError("incomparable value")

    __hash__ = object.__hash__


def test_match_heals_after_mid_match_exception():
    """An aborted match must not leave state behind for the next event."""
    schema = make_schema()
    matcher = PredicateIndexMatcher(
        ProfileSet(
            schema,
            [
                Profile("both", {"a": Equals(5), "b": NotEquals(3)}),
                Profile("just-a", {"a": Equals(5)}),
            ],
        )
    )
    poisoned = Event({"a": 5, "b": _RaisingOnEq()})
    try:
        matcher.match(poisoned)
    except TypeError:
        pass  # attribute "a" was already probed
    result = matcher.match(Event({"a": 5, "b": 0}))
    assert result.matched_profile_ids == ("both", "just-a")


def test_bulk_add_profiles_takes_the_batch_build_path():
    """A batch comparable to the live population rebuilds once (the batch
    slab sweep) instead of splicing per profile; small batches stay on the
    delta path.  Both must match the oracle."""
    workload = build_workload(
        get_profile("stock-ticker").spec.with_counts(profile_count=80, event_count=60)
    )
    profiles = list(workload.profiles)
    bulk = PredicateIndexMatcher(ProfileSet(workload.schema))
    bulk.add_profiles(profiles)
    # The rebuild path recomputes the plan eagerly; a delta batch defers.
    assert not bulk.replan_pending
    small = PredicateIndexMatcher(ProfileSet(workload.schema, profiles[:70]))
    small.plan  # settle the initial plan
    small.add_profiles(profiles[70:])
    assert small.replan_pending
    oracle = NaiveMatcher(ProfileSet(workload.schema, profiles))
    for event in list(workload.events)[:60]:
        expected = oracle.match(event).matched_profile_ids
        assert bulk.match(event).matched_profile_ids == expected
        assert small.match(event).matched_profile_ids == expected


def test_failed_delta_batch_still_refreshes_reject_flags():
    """A mid-batch duplicate must not leave stale early-reject flags that
    shadow the successfully inserted prefix."""
    import pytest

    from repro.core.errors import ProfileError

    schema = make_schema()
    matcher = PredicateIndexMatcher(
        ProfileSet(schema, [Profile(f"A{i}", {"a": Equals(i)}) for i in range(5)])
    )
    with pytest.raises(ProfileError):
        matcher.add_profiles(
            [Profile("new", {"b": Equals(2)}), Profile("A0", {"b": Equals(3)})]
        )
    # "new" was inserted before the failure; a zero-hit probe on "a" must
    # no longer early-reject the whole event.
    result = matcher.match(Event({"a": 7, "b": 2}))
    assert result.matched_profile_ids == ("new",)


def test_dense_ids_are_recycled_through_churn():
    """The free list bounds the id space at the peak live population."""
    schema = make_schema()
    matcher = PredicateIndexMatcher(ProfileSet(schema))
    for round_index in range(20):
        pid = f"cycle-{round_index}"
        matcher.add_profile(Profile(pid, {"a": Equals(round_index % DOMAIN_SIZE)}))
        matcher.remove_profile(pid)
    matcher.add_profile(Profile("last", {"a": Equals(1)}))
    # 20 churn rounds + 1 survivor never grow the id space beyond 1 slot.
    assert len(matcher._pid_of) == 1
    assert matcher.match(Event({"a": 1, "b": 0})).matched_profile_ids == ("last",)
