"""Tests for the naive and counting baseline matchers."""

import pytest

from repro.core.domains import DiscreteDomain, IntegerDomain
from repro.core.events import Event
from repro.core.predicates import OneOf, RangePredicate
from repro.core.profiles import ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.matching.counting import CountingMatcher
from repro.matching.index import PredicateIndexMatcher
from repro.matching.interfaces import Matcher, match_all, match_batch
from repro.matching.naive import NaiveMatcher
from repro.matching.tree import TreeMatcher
from repro.workloads.toy import environmental_profiles, example_event


def stock_schema() -> Schema:
    return Schema(
        [
            Attribute("symbol", DiscreteDomain(["AAPL", "MSFT", "GOOG"])),
            Attribute("price", IntegerDomain(0, 200)),
        ]
    )


def stock_profiles() -> ProfileSet:
    return ProfileSet(
        stock_schema(),
        [
            profile("buy-aapl", symbol="AAPL", price=RangePredicate.at_most(100)),
            profile("any-aapl", symbol="AAPL"),
            profile("expensive", price=RangePredicate.at_least(150)),
            profile("tech", symbol=OneOf(["AAPL", "MSFT"])),
        ],
    )


class TestNaiveMatcher:
    def test_matches_toy_example(self):
        matcher = NaiveMatcher(environmental_profiles())
        result = matcher.match(example_event())
        assert sorted(result.matched_profile_ids) == ["P2", "P5"]
        assert result.operations > 0

    def test_matches_stock_profiles(self):
        matcher = NaiveMatcher(stock_profiles())
        result = matcher.match(Event({"symbol": "AAPL", "price": 90}))
        assert sorted(result.matched_profile_ids) == ["any-aapl", "buy-aapl", "tech"]

    def test_no_match(self):
        matcher = NaiveMatcher(stock_profiles())
        result = matcher.match(Event({"symbol": "GOOG", "price": 120}))
        assert result.matched_profile_ids == ()
        assert not result.is_match

    def test_operation_count_is_bounded_by_total_predicates(self):
        profiles = stock_profiles()
        total_predicates = sum(len(p.constrained_attributes()) for p in profiles)
        matcher = NaiveMatcher(profiles)
        result = matcher.match(Event({"symbol": "AAPL", "price": 90}))
        assert 0 < result.operations <= total_predicates

    def test_short_circuit_reduces_operations(self):
        profiles = stock_profiles()
        matcher = NaiveMatcher(profiles)
        # GOOG fails the symbol predicates immediately, so fewer operations
        # are needed than for a fully matching event.
        miss = matcher.match(Event({"symbol": "GOOG", "price": 0}))
        hit = matcher.match(Event({"symbol": "AAPL", "price": 90}))
        assert miss.operations <= hit.operations

    def test_add_and_remove_profile(self):
        matcher = NaiveMatcher(stock_profiles())
        matcher.add_profile(profile("cheap", price=RangePredicate.at_most(10)))
        assert "cheap" in matcher.match(Event({"symbol": "GOOG", "price": 5}))
        matcher.remove_profile("cheap")
        assert "cheap" not in matcher.match(Event({"symbol": "GOOG", "price": 5}))

    def test_empty_profile_set(self):
        matcher = NaiveMatcher(ProfileSet(stock_schema()))
        result = matcher.match(Event({"symbol": "AAPL", "price": 1}))
        assert result.operations == 0
        assert result.matched_profile_ids == ()


class TestCountingMatcher:
    def test_agrees_with_naive_on_toy_example(self):
        counting = CountingMatcher(environmental_profiles())
        naive = NaiveMatcher(environmental_profiles())
        event = example_event()
        assert sorted(counting.match(event).matched_profile_ids) == sorted(
            naive.match(event).matched_profile_ids
        )

    def test_agrees_with_naive_on_stock_events(self):
        counting = CountingMatcher(stock_profiles())
        naive = NaiveMatcher(stock_profiles())
        events = [
            Event({"symbol": s, "price": p})
            for s in ["AAPL", "MSFT", "GOOG"]
            for p in [0, 50, 100, 150, 200]
        ]
        for event in events:
            assert sorted(counting.match(event).matched_profile_ids) == sorted(
                naive.match(event).matched_profile_ids
            )

    def test_shared_equality_predicates_are_evaluated_once(self):
        schema = Schema([Attribute("price", IntegerDomain(0, 100))])
        profiles = ProfileSet(
            schema, [profile(f"P{i}", price=42) for i in range(50)]
        )
        counting = CountingMatcher(profiles)
        naive = NaiveMatcher(profiles)
        event = Event({"price": 42})
        assert counting.match(event).operations < naive.match(event).operations
        assert len(counting.match(event)) == 50

    def test_add_and_remove_profile_rebuilds_index(self):
        matcher = CountingMatcher(stock_profiles())
        matcher.add_profile(profile("cheap", price=RangePredicate.at_most(10)))
        assert "cheap" in matcher.match(Event({"symbol": "GOOG", "price": 5}))
        matcher.remove_profile("cheap")
        assert "cheap" not in matcher.match(Event({"symbol": "GOOG", "price": 5}))

    def test_satisfies_matcher_protocol(self):
        assert isinstance(CountingMatcher(stock_profiles()), Matcher)
        assert isinstance(NaiveMatcher(stock_profiles()), Matcher)

    def test_match_all_helper(self):
        matcher = CountingMatcher(stock_profiles())
        events = [Event({"symbol": "AAPL", "price": 90}), Event({"symbol": "GOOG", "price": 1})]
        results = match_all(matcher, events)
        assert len(results) == 2
        assert results[0].is_match


@pytest.mark.parametrize("make_matcher", [TreeMatcher, PredicateIndexMatcher], ids=["tree", "index"])
def test_free_match_all_is_the_only_per_event_helper(make_matcher):
    """Engines expose ``match_batch`` only; the free ``match_all`` still
    filters through any of them and agrees with the batch path."""
    matcher = make_matcher(stock_profiles())
    events = [
        Event({"symbol": "AAPL", "price": 90}),
        Event({"symbol": "GOOG", "price": 160}),
        Event({"symbol": "MSFT", "price": 20}),
    ]
    assert not hasattr(matcher, "match_all")
    per_event = [result.matched_profile_ids for result in match_all(matcher, events)]
    batched = [result.matched_profile_ids for result in match_batch(matcher, events)]
    assert per_event == batched
    assert [sorted(ids) for ids in per_event] == [
        ["any-aapl", "buy-aapl", "tech"], ["expensive"], ["tech"]
    ]
