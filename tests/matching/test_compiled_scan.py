"""The index family's scanned structures and its one containment rule.

A range entry sits in its attribute's slab bucket, and an equality in its
hash bucket, whatever the plan decides: a scanned entry is charged one
operation per probe but resolved by its bucket's lookup, as an indexed
one is.  Whatever the plan
indexes or scans, a value must satisfy the same ranges: an ``int`` or
``float`` (never a ``bool``) inside the interval, compared exactly, so NaN
satisfies none.  These tests force each strategy mix through
``_AttributeState.adopt`` and hold every mix to the slab-indexed matcher
and the naive oracle, and the kernel's work accounting to a reference
that scans.  The odd values are built without numpy (CI does not install
it): ``Real`` is a ``float`` subclass like ``numpy.float64``, and
``IntLike`` an integer that is no ``int`` like ``numpy.int64``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import ContinuousDomain
from repro.core.events import Event
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.matching.index import PredicateIndexMatcher, kernel
from repro.matching.naive import NaiveMatcher

INF = float("inf")
TOP = float(2**53)


class Real(float):
    """A ``float`` subclass, as ``numpy.float64`` is."""


@functools.total_ordering
class IntLike:
    """An integer that is no ``int``, as ``numpy.int64`` is: it equals,
    hashes and orders like its value."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def _plain(self, other):
        return other.value if isinstance(other, IntLike) else other

    def __eq__(self, other):
        return self.value == self._plain(other)

    def __lt__(self, other):
        return self.value < self._plain(other)

    def __hash__(self):
        return hash(self.value)

    def __index__(self):
        return self.value

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"IntLike({self.value})"


#: Values no schema check has vetted: the bare matcher sees them as they are.
ODD_VALUES = (
    float("nan"),
    INF,
    -INF,
    -0.0,
    True,
    2**53 + 1,
    10**400,
    -(10**400),
    Real(1.0),
    IntLike(1),
    "a",
)

#: The strategy mixes, as ``(use_hash, use_interval)``.
SLAB = (True, True)
SCAN = (False, False)
DEMOTED = (True, False)  # hash indexed, ranges scanned
MIXES = {"slab": SLAB, "scan": SCAN, "demoted": DEMOTED}


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("x", ContinuousDomain(-1e20, 1e20)),
            Attribute("y", ContinuousDomain(-1e20, 1e20)),
        ]
    )


def force(matcher: PredicateIndexMatcher, mix: tuple[bool, bool]) -> PredicateIndexMatcher:
    """Install ``mix`` on every attribute of ``matcher`` through ``adopt``."""
    use_hash, use_interval = mix
    for attribute, plan in matcher.plan.attributes.items():
        matcher._states[attribute].adopt(
            replace(plan, use_hash=use_hash, use_interval=use_interval)
        )
    return matcher


def ids(result) -> tuple[str, ...]:
    return result.matched_profile_ids


# -- the one containment rule --------------------------------------------------
def odd_population() -> list[Profile]:
    """Ranges of every endpoint kind, including ±inf bounds, a point, the
    float next to ``2**53``, and hash and residual entries beside them."""
    ranges = [
        RangePredicate.between(0, 10),
        RangePredicate.between(0, 10, low_closed=False, high_closed=False),
        RangePredicate.between(0, 10, low_closed=False),
        RangePredicate.between(0, 10, high_closed=False),
        RangePredicate.between(-1, 0),
        RangePredicate.between(1, 1),
        RangePredicate.at_least(0),
        RangePredicate.greater_than(0),
        RangePredicate.at_most(0),
        RangePredicate.less_than(0),
        RangePredicate.at_most(TOP),
        RangePredicate.greater_than(TOP),
        RangePredicate.between(-INF, INF),
    ]
    others = [Equals(1), Equals(0.0), OneOf([1, 2]), NotEquals(1)]
    return [
        Profile(f"P{index}", {"x": predicate, "y": RangePredicate.at_least(0)})
        for index, predicate in enumerate(ranges + others)
    ]


def odd_matchers():
    schema = make_schema()
    profiles = odd_population()

    def fresh():
        return ProfileSet(schema, profiles)

    return {
        "naive": NaiveMatcher(fresh()),
        "slab": force(PredicateIndexMatcher(fresh()), SLAB),
        "scan": force(PredicateIndexMatcher(fresh()), SCAN),
        "demoted": force(PredicateIndexMatcher(fresh()), DEMOTED),
        "planned": PredicateIndexMatcher(fresh()),
    }


def test_slab_scan_planned_and_naive_agree_on_odd_values():
    # Before one rule held, a scanned attribute matched NaN against every
    # range (the slab none) and raised OverflowError on 10**400, and
    # 2**53 + 1 was rounded onto the bound 2**53 by float().
    matchers = odd_matchers()
    naive = matchers.pop("naive")
    for value in ODD_VALUES + (1, 0, 2**53, TOP):
        event = Event({"x": value, "y": 1})
        expected = ids(naive.match(event))
        for name, matcher in matchers.items():
            assert ids(matcher.match(event)) == expected, (name, value)


def test_the_odd_values_keep_their_answers():
    """The rule, spelled out on the forced scan."""
    matcher = odd_matchers()["scan"]

    def matched(value):
        return set(ids(matcher.match(Event({"x": value, "y": 1}))))

    ranges_only = {f"P{index}" for index in range(13)}
    residual = {"P16"}  # NotEquals(1) accepts anything unequal to 1
    assert matched(float("nan")) == residual
    assert matched("a") == residual
    assert matched(True) == {"P13", "P15"}  # equal to 1, but no number
    assert matched(IntLike(1)) == {"P13", "P15"}
    one = {"P0", "P1", "P2", "P3", "P5", "P6", "P7", "P10", "P12", "P13", "P15"}
    assert matched(Real(1.0)) == matched(1) == one
    assert matched(10**400) & ranges_only == {"P6", "P7", "P11", "P12"}
    assert matched(2**53 + 1) & ranges_only == {"P6", "P7", "P11", "P12"}
    assert matched(2**53) & ranges_only == {"P6", "P7", "P10", "P12"}
    assert matched(-0.0) & ranges_only == {"P0", "P3", "P4", "P6", "P8", "P10", "P12"}
    assert matched(INF) & ranges_only == {"P6", "P7", "P11", "P12"}
    assert matched(-INF) & ranges_only == {"P8", "P9", "P10", "P12"}


def test_an_unhashable_value_raises_whatever_the_hash_verdict():
    """The probe reads the hash bucket on every verdict, so a value it
    cannot hash raises the same ``TypeError`` through ``match`` and the
    batch kernel whether the plan indexes or scans the hash side; it once
    answered through ``matches`` when the hash side was scanned."""
    schema = make_schema()
    profiles = [
        Profile("P0", {"x": Equals(1)}),
        Profile("P1", {"x": RangePredicate.at_least(0)}),
        Profile("P2", {"x": NotEquals(1)}),
    ]
    event = Event({"x": [1], "y": 1})
    errors = set()
    for mix in itertools.product((True, False), repeat=2):
        matcher = force(PredicateIndexMatcher(ProfileSet(schema, profiles)), mix)
        assert matcher._states["x"].use_hash is mix[0]
        calls = (
            lambda: matcher.match(event),
            lambda: matcher.match_batch([event] * kernel.MIN_COLUMNAR_BATCH),
        )
        for call in calls:
            with pytest.raises(TypeError) as raised:
                call()
            errors.add(str(raised.value))
    assert errors == {"unhashable type: 'list'"}


# -- the scanned mixes under churn --------------------------------------------
#: Finite bounds (``2**53`` among them, next to the values ``2**53 ± 1``);
#: ``-inf`` is drawn only as a low bound and ``inf`` only as a high one.
BOUNDS = (-2.5, -1, 0, 1, 2.5, TOP)
EVENT_VALUES = (-3, -2.5, -1, -0.5, 0, 0.5, 1, 2, 2.5, 3, 2**53 - 1, 2**53, TOP) + ODD_VALUES


@st.composite
def ranges(draw):
    low = draw(st.sampled_from((-INF,) + BOUNDS))
    high = draw(st.sampled_from(tuple(b for b in BOUNDS if b >= low) + (INF,)))
    if low == high:
        return RangePredicate.between(low, high)  # a point: closed on both sides
    return RangePredicate.between(
        low, high, low_closed=draw(st.booleans()), high_closed=draw(st.booleans())
    )


@st.composite
def predicate_maps(draw):
    predicates = {}
    for name in ("x", "y"):
        kind = draw(st.sampled_from(["skip", "range", "range", "eq", "ne"]))
        if kind == "range":
            predicates[name] = draw(ranges())
        elif kind == "eq":
            predicates[name] = Equals(draw(st.sampled_from(BOUNDS)))
        elif kind == "ne":
            predicates[name] = NotEquals(draw(st.sampled_from(BOUNDS)))
    return predicates or {"x": draw(ranges())}


@st.composite
def event_batches(draw):
    events = []
    for _ in range(draw(st.integers(kernel.MIN_COLUMNAR_BATCH, kernel.MIN_COLUMNAR_BATCH + 8))):
        carried = draw(st.sampled_from([("x", "y"), ("x", "y"), ("x",), ("y",)]))
        events.append(Event({name: draw(st.sampled_from(EVENT_VALUES)) for name in carried}))
    return events


def reference_operations(matcher: PredicateIndexMatcher, event: Event) -> int:
    """Charge ``event`` from the plan's verdicts and the buckets, deciding
    satisfied entries by ``predicate.matches`` and scanning nothing compiled:
    one per hash lookup and hit, the bisect depth plus the slab's count, one
    per entry of a structure the plan does not index, and one per residual
    entry, attribute by attribute until one rejects."""
    operations = 0
    for attribute, state in matcher._probe_states:
        if attribute not in event.values:
            continue
        value = event.values[attribute]
        satisfied = 0
        for entry in state.entries.values():
            hashed = isinstance(entry.predicate, (Equals, OneOf))
            ranged = isinstance(entry.predicate, RangePredicate)
            if not ((hashed and state.use_hash) or (ranged and state.use_interval)):
                operations += 1
            if entry.predicate.matches(value):
                satisfied |= entry.mask
        if state.use_hash and state.hash_bucket is not None:
            count, _ = state.hash_bucket.lookup(value)
            operations += 1 + count
        if state.use_interval and state.interval_bucket is not None:
            bucket = state.interval_bucket
            _, count, _ = bucket.lookup(value)
            operations += bucket.probe_cost + count
        if not satisfied | state.free:
            break
    return operations


@given(
    population=st.lists(predicate_maps(), min_size=1, max_size=8),
    churn=st.lists(st.one_of(predicate_maps(), st.integers(0, 20)), max_size=4),
    batch=event_batches(),
    fresh_closed=st.tuples(st.booleans(), st.booleans()),
)
@settings(max_examples=60, deadline=None)
def test_every_mix_equals_the_slab_and_the_oracle_under_churn(
    population, churn, batch, fresh_closed
):
    """After every churn step, ``match`` and ``match_batch`` of each forced
    mix give the naive oracle's ids in its order, and charge what
    :func:`reference_operations` charges."""
    schema = make_schema()
    # The anchor constrains both attributes and never leaves, so no churn
    # step creates an attribute (which the planner, not the test, would
    # plan) and every forced mix holds throughout.
    anchor = Profile("anchor", {"x": RangePredicate.at_least(0), "y": Equals(0)})
    initial = [anchor] + [Profile(f"P{i}", p) for i, p in enumerate(population)]
    naive = NaiveMatcher(ProfileSet(schema, initial))
    matchers = {
        name: force(PredicateIndexMatcher(ProfileSet(schema, initial)), mix)
        for name, mix in MIXES.items()
    }
    slab = matchers["slab"]
    live = [profile.profile_id for profile in initial[1:]]
    serial = itertools.count()

    def add(predicates):
        profile = Profile(f"C{next(serial)}", predicates)
        for matcher in (naive, *matchers.values()):
            matcher.add_profile(profile)
        live.append(profile.profile_id)
        return profile.profile_id

    def remove(profile_id):
        for matcher in (naive, *matchers.values()):
            matcher.remove_profile(profile_id)
        live.remove(profile_id)

    def entry_count():
        return sum(len(state.entries) for state in slab._states.values())

    def check():
        expected = [naive.match(event) for event in batch]
        slabbed = [slab.match(event) for event in batch]
        assert [ids(r) for r in slabbed] == [ids(r) for r in expected]
        for name, matcher in matchers.items():
            sequential = [matcher.match(event) for event in batch]
            batched = matcher.match_batch(batch)
            for event, one, columnar, reference in zip(batch, sequential, batched, expected):
                assert ids(one) == ids(columnar) == ids(reference), (name, event)
                operations = reference_operations(matcher, event)
                assert one.operations == columnar.operations == operations, (name, event)

    check()
    # An entry created, then dropped.
    low_closed, high_closed = fresh_closed
    new_range = RangePredicate.between(0.25, 0.75, low_closed=low_closed, high_closed=high_closed)
    before = entry_count()
    created = add({"x": new_range, "y": anchor.predicates["y"]})
    assert entry_count() == before + 1
    check()
    remove(created)
    assert entry_count() == before
    check()
    # A shared predicate gains an owner and loses it again: masks only.
    twin = add(dict(anchor.predicates))
    assert entry_count() == before
    check()
    remove(twin)
    check()
    # Random churn: a drawn profile joins, or a live one leaves.
    for step in churn:
        if isinstance(step, dict):
            add(step)
        elif live:
            remove(live[step % len(live)])
        check()


def reference_kernel_stats(matcher: PredicateIndexMatcher, batch: list[Event]) -> tuple:
    """``(charged, executed, distinct probes)`` of one kernel run of
    ``batch`` on a plan that scans every range, from
    :func:`reference_operations`: each event charged as it alone would be,
    and each distinct probe of the batch executed once.  A probe is
    distinct per attribute by value and class (``True`` after ``1`` probes
    again), and nothing is deducted for a shared slab: a scanned range
    reports none."""
    charged = sum(reference_operations(matcher, event) for event in batch)
    executed = distinct = 0
    memos = {attribute: {} for attribute, _ in matcher._probe_states}
    for event in batch:
        for attribute, state in matcher._probe_states:
            if attribute not in event.values:
                continue
            value = event.values[attribute]
            memo = memos[attribute]
            if memo.get(value) is not value.__class__:
                memo[value] = value.__class__
                distinct += 1
                executed += reference_operations(matcher, Event({attribute: value}))
            satisfied = 0
            for entry in state.entries.values():
                if entry.predicate.matches(value):
                    satisfied |= entry.mask
            if not satisfied | state.free:
                break
    return charged, executed, distinct


@given(
    mix=st.sampled_from([SCAN, DEMOTED]),
    population=st.lists(predicate_maps(), min_size=1, max_size=8),
    churn=st.lists(st.one_of(predicate_maps(), st.integers(0, 20)), max_size=4),
    batch=event_batches(),
)
@settings(max_examples=40, deadline=None)
def test_a_scanned_range_moves_no_kernel_counter(mix, population, churn, batch):
    """On the mixes that scan ranges, after every churn step, the batch
    kernel's three work counters equal :func:`reference_kernel_stats`:
    resolving a scanned range by its slab changes what runs, not what is
    charged or counted as executed."""
    schema = make_schema()
    anchor = Profile("anchor", {"x": RangePredicate.at_least(0), "y": Equals(0)})
    initial = [anchor] + [Profile(f"P{i}", p) for i, p in enumerate(population)]
    matcher = force(PredicateIndexMatcher(ProfileSet(schema, initial)), mix)
    live = [profile.profile_id for profile in initial[1:]]
    serial = itertools.count()

    def check():
        assert not matcher._states["x"].use_interval
        before = replace(matcher.kernel_stats)
        matcher.match_batch(batch)
        after = matcher.kernel_stats
        assert after.events - before.events == len(batch)
        assert (
            after.charged_operations - before.charged_operations,
            after.executed_operations - before.executed_operations,
            after.distinct_probes - before.distinct_probes,
        ) == reference_kernel_stats(matcher, batch)

    check()
    for step in churn:
        if isinstance(step, dict):
            profile = Profile(f"C{next(serial)}", step)
            matcher.add_profile(profile)
            live.append(profile.profile_id)
        elif live:
            matcher.remove_profile(live.pop(step % len(live)))
        check()


# -- the pinned index under range churn with mask-only edits ------------------
@st.composite
def range_profiles(draw):
    """A range on ``x`` and, mostly, an equality on ``y``: profiles drawn
    from a few bounds share entries, so joins and leaves edit masks only."""
    predicates = {"x": draw(ranges())}
    if draw(st.integers(0, 3)):
        predicates["y"] = Equals(draw(st.sampled_from(BOUNDS[:3])))
    return predicates


#: A churn step: a drawn profile joins, a twin of a live profile joins
#: (masks only), a live profile leaves, or the deferred replan runs.
CHURN_STEPS = st.tuples(st.sampled_from(["join", "twin", "leave", "plan"]), st.integers(0, 50))


@given(
    population=st.lists(range_profiles(), min_size=1, max_size=8),
    churn=st.lists(st.tuples(CHURN_STEPS, range_profiles()), max_size=12),
    batch=event_batches(),
)
@settings(max_examples=40, deadline=None)
def test_pinned_index_equals_the_oracle_under_range_churn(population, churn, batch):
    """After every step of range churn — entries created and dropped,
    subscribers joining and leaving shared entries, which only XOR a bit
    into the stored slab and hash masks — ``match`` and ``match_batch``
    give the naive oracle's ids in its order and charge what
    :func:`reference_operations` charges from the slab counts."""
    schema = make_schema()
    initial = [Profile(f"P{i}", predicates) for i, predicates in enumerate(population)]
    naive = NaiveMatcher(ProfileSet(schema, initial))
    matcher = PredicateIndexMatcher(ProfileSet(schema, initial))
    live = [profile.profile_id for profile in initial]
    predicates_of = {profile.profile_id: profile.predicates for profile in initial}
    serial = itertools.count()

    def check():
        expected = [ids(naive.match(event)) for event in batch]
        sequential = [matcher.match(event) for event in batch]
        batched = matcher.match_batch(batch)
        assert [ids(r) for r in sequential] == [ids(r) for r in batched] == expected
        for event, one, columnar in zip(batch, sequential, batched):
            operations = reference_operations(matcher, event)
            assert one.operations == columnar.operations == operations, event

    check()
    for (kind, pick), drawn in churn:
        if kind == "plan":
            matcher.plan  # the deferred recost adopts fresh verdicts
        elif kind == "leave" and live:
            profile_id = live.pop(pick % len(live))
            naive.remove_profile(profile_id)
            matcher.remove_profile(profile_id)
        else:
            if kind == "twin" and live:
                drawn = predicates_of[live[pick % len(live)]]
            profile = Profile(f"C{next(serial)}", dict(drawn))
            naive.add_profile(profile)
            matcher.add_profile(profile)
            live.append(profile.profile_id)
            predicates_of[profile.profile_id] = profile.predicates
        check()
