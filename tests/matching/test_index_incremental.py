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
from repro.matching.index import PredicateIndexMatcher
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
        # on purpose: the dense-id core tracks those outside the counters.
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
    """An aborted match must not corrupt the shared counter scratch."""
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
        pass  # counters for attribute "a" were already incremented
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
