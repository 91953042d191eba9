"""Tests for filter statistics and the 95 %-precision stopping rule."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import MatchingError
from repro.matching.interfaces import MatchResult
from repro.matching.statistics import FilterStatistics

#: One filtered event: the operations it cost and the profiles it notified.
results = st.builds(
    MatchResult,
    st.lists(st.sampled_from(["P1", "P2", "P3"]), unique=True).map(tuple),
    st.one_of(st.integers(0, 20), st.integers(0, 10**18)),
)
targets = st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0, 2.5])
few = st.lists(results, max_size=6)
many = st.lists(results, min_size=30, max_size=120)
#: A low spread around a large mean: the rule's two sides come close.
near_the_boundary = st.lists(
    st.integers(0, 3).map(lambda noise: MatchResult((), 100 + noise)), min_size=2, max_size=80
)


def recorded(stream) -> FilterStatistics:
    stats = FilterStatistics()
    stats.record_all(stream)
    return stats


def reference_precision_reached(stream, target: float, minimum_events: int) -> bool:
    """The stopping rule in exact rationals, from the textbook definitions:
    the 1.96-sigma half-width of the mean, at most ``target`` times it."""
    n = len(stream)
    if n < minimum_events or n < 2:
        return False
    values = [result.operations for result in stream]
    mean = Fraction(sum(values), n)
    variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    if mean == 0:
        return variance == 0 and target >= 0
    # (z·s/√n)² ≤ (target·mean)²
    return Fraction(1.96) ** 2 * variance / n <= Fraction(target) ** 2 * mean**2


class TestExactStatistics:
    """The aggregates against a :class:`fractions.Fraction` reference."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(results, min_size=1, max_size=60))
    def test_means_are_the_correctly_rounded_ratios(self, stream):
        stats = recorded(stream)
        events = len(stream)
        operations = sum(result.operations for result in stream)
        notifications = sum(len(result.matched_profile_ids) for result in stream)
        assert stats.average_operations_per_event() == float(Fraction(operations, events))
        assert stats.average_matches_per_event() == float(Fraction(notifications, events))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(few, many, near_the_boundary), targets, st.integers(0, 40))
    def test_precision_rule_is_the_exact_rule(self, stream, target, minimum_events):
        reached = recorded(stream).precision_reached(target, minimum_events=minimum_events)
        assert reached == reference_precision_reached(stream, target, minimum_events)

    @pytest.mark.parametrize("operations", [0, 7])
    def test_fewer_than_two_observations_never_reach_precision(self, operations):
        stats = FilterStatistics()
        assert not stats.precision_reached(1.0, minimum_events=0)
        stats.record(MatchResult(("P1",), operations))
        assert not stats.precision_reached(1.0, minimum_events=0)
        stats.record(MatchResult(("P1",), operations))
        assert stats.precision_reached(0.0, minimum_events=0)

    def test_zero_variance_reaches_any_precision_and_a_zero_mean_needs_it(self):
        constant = recorded([MatchResult((), 10**17 + 3)] * 3)
        assert constant.precision_reached(0.0, minimum_events=0)
        zeros = recorded([MatchResult((), 0)] * 3)
        assert zeros.precision_reached(0.0, minimum_events=0)
        assert not zeros.precision_reached(-0.5, minimum_events=0)

    def test_spread_shrinks_with_more_observations(self):
        few = recorded([MatchResult((), value) for value in (1, 2, 3)])
        many = recorded([MatchResult((), value) for value in (1, 2, 3)] * 600)
        assert not few.precision_reached(0.05, minimum_events=0)
        assert many.precision_reached(0.05, minimum_events=0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(results, max_size=40), st.integers(0, 40), targets)
    def test_record_loop_equals_record_all(self, stream, cut, target):
        looped, batched = FilterStatistics(), FilterStatistics()
        for result in stream:
            looped.record(result)
        notifications = batched.record_all(stream[:cut]) + batched.record_all(stream[cut:])
        assert notifications == sum(len(result.matched_profile_ids) for result in stream)
        expected = reference_precision_reached(stream, target, 0)
        for stats in (looped, batched):
            assert stats.precision_reached(target, minimum_events=0) == expected
        assert public_state(looped) == public_state(batched)


def public_state(stats: FilterStatistics) -> list:
    """Every aggregate a reader can see, per-profile insertion order included."""
    per_profile = list(stats.per_profile_notification_counts().items())
    state = [stats.events, stats.matched_events, stats.total_operations]
    state += [stats.total_notifications, per_profile]
    if stats.events:
        state += [stats.average_operations_per_event(), stats.average_matches_per_event()]
    if stats.total_notifications:
        state += [stats.average_operations_over_profiles()]
        state += [stats.average_operations_per_profile(pid) for pid, _ in per_profile]
    return state


class TestFilterStatistics:
    def make_results(self):
        return [
            MatchResult(("P1", "P2"), 5, 2),
            MatchResult(("P1",), 3, 2),
            MatchResult((), 2, 1),
            MatchResult(("P2",), 6, 2),
        ]

    def populated(self):
        stats = FilterStatistics()
        for result in self.make_results():
            stats.record(result)
        return stats

    def test_counts(self):
        stats = self.populated()
        assert stats.events == 4
        assert stats.matched_events == 3
        assert stats.total_operations == 16
        assert stats.total_notifications == 4

    def test_average_operations_per_event(self):
        assert self.populated().average_operations_per_event() == pytest.approx(4.0)

    def test_average_matches_and_match_rate(self):
        stats = self.populated()
        assert stats.average_matches_per_event() == pytest.approx(1.0)
        assert stats.match_rate() == pytest.approx(0.75)

    def test_per_profile_metrics(self):
        stats = self.populated()
        # P1 was notified by events costing 5 and 3 operations.
        assert stats.average_operations_per_profile("P1") == pytest.approx(4.0)
        # P2 by events costing 5 and 6.
        assert stats.average_operations_per_profile("P2") == pytest.approx(5.5)
        assert stats.average_operations_over_profiles() == pytest.approx((4.0 + 5.5) / 2)
        assert stats.notifications_of("P1") == 2
        assert stats.per_profile_notification_counts() == {"P1": 2, "P2": 2}

    def test_per_event_and_profile_metric(self):
        stats = self.populated()
        assert stats.average_operations_per_event_and_profile() == pytest.approx(16 / 4)

    def test_unknown_profile_raises(self):
        with pytest.raises(MatchingError):
            self.populated().average_operations_per_profile("P99")

    def test_empty_statistics_raise(self):
        stats = FilterStatistics()
        with pytest.raises(MatchingError):
            stats.average_operations_per_event()
        with pytest.raises(MatchingError):
            stats.average_operations_over_profiles()

    def test_precision_rule_requires_minimum_events(self):
        stats = FilterStatistics()
        for _ in range(10):
            stats.record(MatchResult(("P1",), 4, 1))
        assert not stats.precision_reached(0.05, minimum_events=30)
        for _ in range(30):
            stats.record(MatchResult(("P1",), 4, 1))
        assert stats.precision_reached(0.05, minimum_events=30)

    def test_precision_rule_with_noisy_observations(self):
        stats = FilterStatistics()
        for i in range(31):
            stats.record(MatchResult(("P1",), 1 if i % 2 else 100, 1))
        assert not stats.precision_reached(0.05)

    def test_summary_contains_headline_metrics(self):
        summary = self.populated().summary()
        assert summary["events"] == 4
        assert summary["avg_operations_per_event"] == pytest.approx(4.0)
        assert summary["match_rate"] == pytest.approx(0.75)


# -- the per-distinct-match fold --------------------------------------------------

#: A small profile universe, so the counters stay small and the fold
#: bound (their size) is crossed often.
UNIVERSE = [f"P{index}" for index in range(8)]


class EagerReference:
    """The per-event fold the statistics replaced: every notified
    profile's counters are updated as its event is recorded."""

    def __init__(self) -> None:
        self.events = self.operations = self.notifications = self.matched = 0
        self.counts: Counter = Counter()
        self.charged: Counter = Counter()

    def record(self, result: MatchResult) -> None:
        self.events += 1
        self.operations += result.operations
        if result.matched_profile_ids:
            self.matched += 1
            self.notifications += len(result.matched_profile_ids)
            for profile_id in result.matched_profile_ids:
                self.counts[profile_id] += 1
                self.charged[profile_id] += result.operations

    def forget(self, profile_id: str) -> None:
        self.counts.pop(profile_id, None)
        self.charged.pop(profile_id, None)

    def summary(self) -> dict:
        """``FilterStatistics.summary`` as the eager fold computed it.

        The per-profile average is over the live counters, so it reads NaN
        once every notified profile is forgotten."""
        per_profile = per_pair = float("nan")
        if self.counts:
            values = [self.charged[pid] / count for pid, count in self.counts.items()]
            per_profile = sum(values) / len(values)
        if self.notifications:
            per_pair = self.operations / self.notifications
        return {
            "events": float(self.events),
            "avg_operations_per_event": self.operations / self.events,
            "avg_matches_per_event": self.notifications / self.events,
            "match_rate": self.matched / self.events,
            "avg_operations_per_profile": per_profile,
            "avg_operations_per_event_and_profile": per_pair,
        }


def _match_pool(size: int, seed: int) -> list[tuple[str, ...]]:
    """``size`` matched-id tuples: prefixes of shuffles of the universe."""
    rng = random.Random(seed)
    return [tuple(rng.sample(UNIVERSE, rng.randint(1, len(UNIVERSE)))) for _ in range(size)]


#: Three times as many match tuples as the universe has profiles, so the
#: fold bound (at most the universe's size) is crossed.
MATCH_POOL = _match_pool(24, seed=7)
#: A recorded result: an index into the pool (-1: no match) and its operations.
pooled_results = st.tuples(
    st.integers(-1, len(MATCH_POOL) - 1), st.integers(0, 50) | st.integers(0, 10**18)
)
READS = ("counts", "notifications_of", "per_profile", "over_profiles", "summary")
#: Interleavings of recording and reading; pool entries recur.
interleavings = st.lists(
    st.one_of(
        st.tuples(st.just("record_all"), st.lists(pooled_results, max_size=8)),
        st.tuples(st.just("record"), pooled_results),
        st.tuples(st.just("read"), st.sampled_from(READS)),
        st.tuples(st.just("forget"), st.sampled_from(UNIVERSE)),
    ),
    min_size=1,
    max_size=25,
)


def _same_floats(left: dict, right: dict) -> bool:
    """Bit-identical floats, NaN equal to NaN."""
    return {k: repr(v) for k, v in left.items()} == {k: repr(v) for k, v in right.items()}


@settings(max_examples=300, deadline=None)
@given(interleavings, st.sampled_from(UNIVERSE))
# Pool entry 3 is ("P1",): once it is forgotten, no live profile has a
# notification to average over.
@example([("record_all", [(3, 0)]), ("forget", "P1"), ("read", "summary")], "P0")
@example([("record_all", [(3, 0)]), ("forget", "P1"), ("read", "over_profiles")], "P0")
def test_the_tuple_keyed_fold_equals_the_eager_fold(steps, probe):
    """Per-profile counts, operations, insertion order and every summary
    float equal an eager per-event fold after any interleaving of
    recording, reading and forgetting a profile; pending entries stay
    under the computed bound."""

    def result(drawn) -> MatchResult:
        index, operations = drawn
        # Equal tuples are distinct objects, as a matcher returns them.
        return MatchResult(tuple(list(MATCH_POOL[index])) if index >= 0 else (), operations)

    stats, reference = FilterStatistics(), EagerReference()
    for kind, argument in steps:
        if kind == "record_all":
            batch = [result(drawn) for drawn in argument]
            assert stats.record_all(batch) == sum(len(r) for r in batch)
            for item in batch:
                reference.record(item)
        elif kind == "record":
            stats.record(result(argument))
            reference.record(result(argument))
        elif kind == "forget":
            stats.forget_profile(argument)
            reference.forget(argument)
        elif argument == "counts":
            counts = stats.per_profile_notification_counts()
            assert list(counts.items()) == list(reference.counts.items())
        elif argument == "notifications_of":
            assert stats.notifications_of(probe) == reference.counts.get(probe, 0)
        elif argument == "per_profile":
            if reference.counts.get(probe):
                expected = reference.charged[probe] / reference.counts[probe]
                assert repr(stats.average_operations_per_profile(probe)) == repr(expected)
            else:
                with pytest.raises(MatchingError):
                    stats.average_operations_per_profile(probe)
        elif argument == "over_profiles":
            if reference.counts:
                expected = reference.summary()["avg_operations_per_profile"]
                assert repr(stats.average_operations_over_profiles()) == repr(expected)
            else:
                with pytest.raises(MatchingError):
                    stats.average_operations_over_profiles()
        elif reference.events:
            assert _same_floats(stats.summary(), reference.summary())
        # The bound is the number of counters ever folded, forgotten ones
        # included (at least one), and the pending entries always fold
        # before they reach it.
        folded = stats._per_profile_notifications
        assert stats._fold_bound == max(1, len(folded) + stats._forgotten)
        assert len(stats._pending) < stats._fold_bound
    assert (stats.events, stats.total_notifications) == (reference.events, reference.notifications)
    assert stats.matched_events == reference.matched
    stats.per_profile_notification_counts()  # a read folds everything
    assert stats._pending == {}
    assert list(stats._per_profile_notifications.items()) == list(reference.counts.items())
    assert list(stats._per_profile_operations.items()) == list(reference.charged.items())


def test_repeated_matches_fold_once_per_distinct_tuple():
    """A stream of one recurring match keeps one pending entry."""
    stats = FilterStatistics()
    stats.record(MatchResult(("P1", "P2", "P3"), 1))  # folds: counters empty
    assert stats._fold_bound == 3
    stats.record_all([MatchResult(("P1", "P2", "P3"), ops) for ops in range(100)])
    stats.record(MatchResult(("P2",), 7))
    assert stats._pending == {("P1", "P2", "P3"): [100, 4950], ("P2",): [1, 7]}
    assert stats.per_profile_notification_counts() == {"P1": 101, "P2": 102, "P3": 101}
    assert stats.average_operations_per_profile("P2") == (1 + 4950 + 7) / 102


def test_distinct_matches_fold_when_they_reach_the_bound():
    stats = FilterStatistics()
    stats.record(MatchResult(("P1", "P2"), 1))  # folds at once: the counters are empty
    assert (stats._pending, stats._fold_bound) == ({}, 2)
    stats.record(MatchResult(("P1",), 2))
    assert stats._pending == {("P1",): [1, 2]}
    stats.record(MatchResult(("P3",), 4))  # the second distinct tuple reaches the bound
    assert (stats._pending, stats._fold_bound) == ({}, 3)
    assert list(stats._per_profile_notifications.items()) == [("P1", 2), ("P2", 1), ("P3", 1)]
