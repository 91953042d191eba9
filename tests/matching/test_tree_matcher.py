"""Tests for the end-to-end tree matcher."""

import random

import pytest

from repro.core.domains import DiscreteDomain, IntegerDomain
from repro.core.errors import MatchingError
from repro.core.events import Event
from repro.core.predicates import RangePredicate
from repro.core.profiles import ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.matching.naive import NaiveMatcher
from repro.matching.tree.config import SearchStrategy, TreeConfiguration
from repro.matching.tree.matcher import TreeMatcher
from repro.selectivity.optimizer import TreeOptimizer
from repro.selectivity.value_measures import ValueMeasure
from repro.distributions.discrete import peaked_discrete, uniform_discrete
from repro.workloads.toy import environmental_profiles, example_event


class TestToyMatching:
    def test_event_of_eq1_matches_p2_and_p5(self):
        matcher = TreeMatcher(environmental_profiles())
        result = matcher.match(example_event())
        assert sorted(result.matched_profile_ids) == ["P2", "P5"]
        assert result.operations > 0
        assert result.visited_levels == 3

    def test_zero_subdomain_event_is_rejected_early(self):
        matcher = TreeMatcher(environmental_profiles())
        # Temperature 0 lies in D_0 of the first attribute: rejected at level 1.
        result = matcher.match(Event({"temperature": 0, "humidity": 90, "radiation": 2}))
        assert result.matched_profile_ids == ()
        assert result.visited_levels == 1

    def test_catastrophe_event_matches_p4_only(self):
        matcher = TreeMatcher(environmental_profiles())
        result = matcher.match(Event({"temperature": -25, "humidity": 2, "radiation": 70}))
        assert result.matched_profile_ids == ("P4",)

    def test_missing_event_attribute_raises(self):
        matcher = TreeMatcher(environmental_profiles())
        with pytest.raises(MatchingError):
            matcher.match(Event({"temperature": 30}))

    def test_binary_and_linear_agree_on_matches(self):
        profiles = environmental_profiles()
        linear = TreeMatcher(profiles)
        binary = TreeMatcher(
            profiles,
            TreeConfiguration(
                tuple(profiles.schema.names), {}, SearchStrategy.BINARY, "binary"
            ),
        )
        rng = random.Random(11)
        for _ in range(200):
            event = Event(
                {
                    "temperature": rng.uniform(-30, 50),
                    "humidity": rng.uniform(0, 100),
                    "radiation": rng.uniform(1, 100),
                }
            )
            assert sorted(linear.match(event).matched_profile_ids) == sorted(
                binary.match(event).matched_profile_ids
            )


class TestAgainstNaiveOracle:
    def random_profiles(self, seed: int) -> ProfileSet:
        rng = random.Random(seed)
        schema = Schema(
            [
                Attribute("symbol", DiscreteDomain(["A", "B", "C", "D", "E"])),
                Attribute("price", IntegerDomain(0, 49)),
                Attribute("volume", IntegerDomain(0, 9)),
            ]
        )
        profiles = ProfileSet(schema)
        for i in range(40):
            predicates = {}
            if rng.random() < 0.7:
                predicates["symbol"] = rng.choice(["A", "B", "C", "D", "E"])
            if rng.random() < 0.7:
                low = rng.randint(0, 40)
                predicates["price"] = RangePredicate.between(low, low + rng.randint(0, 9))
            if rng.random() < 0.5:
                predicates["volume"] = rng.randint(0, 9)
            if not predicates:
                predicates["symbol"] = "A"
            profiles.add(profile(f"P{i}", **predicates))
        return profiles

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("search", [SearchStrategy.LINEAR, SearchStrategy.BINARY])
    def test_tree_matches_naive_on_random_workloads(self, seed, search):
        profiles = self.random_profiles(seed)
        naive = NaiveMatcher(profiles)
        tree = TreeMatcher(
            profiles,
            TreeConfiguration(tuple(profiles.schema.names), {}, search, "test"),
        )
        rng = random.Random(seed + 100)
        for _ in range(300):
            event = Event(
                {
                    "symbol": rng.choice(["A", "B", "C", "D", "E"]),
                    "price": rng.randint(0, 49),
                    "volume": rng.randint(0, 9),
                }
            )
            assert sorted(tree.match(event).matched_profile_ids) == sorted(
                naive.match(event).matched_profile_ids
            )


def test_pinned_tree_agrees_with_the_oracle_on_huge_and_unrounded_ints():
    """The tree's sub-ranges compare an event's ``int`` exactly, as the
    oracle's predicates do: ``2**53 + 1`` lies above ``2**53``, and a value
    beyond float range lies outside the domain (the tree's zero
    sub-domain), not in an ``OverflowError``."""
    from repro.core.domains import ContinuousDomain

    top = float(2**53)
    schema = Schema([Attribute("x", ContinuousDomain(-1e20, 1e20))])
    profiles = ProfileSet(schema)
    profiles.add(profile("up-to", x=RangePredicate.between(0.0, top)))
    profiles.add(profile("above", x=RangePredicate.greater_than(top)))
    profiles.add(profile("below", x=RangePredicate.less_than(0.0)))
    naive = NaiveMatcher(profiles)
    for search in (SearchStrategy.LINEAR, SearchStrategy.BINARY):
        tree = TreeMatcher(profiles, TreeConfiguration(("x",), {}, search, "test"))
        for value in (2**53 + 1, 2**53, 2**53 - 1, 10**19 + 1, -(10**19) - 1):
            event = Event({"x": value})
            expected = naive.match(event).matched_profile_ids
            assert sorted(tree.match(event).matched_profile_ids) == sorted(expected), value
        for value in (10**400, -(10**400)):
            assert tree.match(Event({"x": value})).matched_profile_ids == ()
    assert naive.match(Event({"x": 2**53 + 1})).matched_profile_ids == ("above",)


class TestReconfiguration:
    def single_attribute_profiles(self):
        schema = Schema([Attribute("v", IntegerDomain(0, 99))])
        values = [90] * 10 + [10, 20, 30, 40, 50]
        return ProfileSet(
            schema, [profile(f"P{i}", v=v) for i, v in enumerate(values)]
        )

    def test_value_reordering_reduces_operations_for_peaked_events(self):
        profiles = self.single_attribute_profiles()
        events = [Event({"v": 90}) for _ in range(100)]
        natural = TreeMatcher(profiles)
        natural_ops = sum(natural.match(e).operations for e in events)

        optimizer = TreeOptimizer(
            profiles,
            {"v": peaked_discrete(IntegerDomain(0, 99), peak_fraction=0.15, peak_mass=0.95)},
        )
        configuration = optimizer.configuration(value_measure=ValueMeasure.V1_EVENT)
        natural.reconfigure(configuration)
        reordered_ops = sum(natural.match(e).operations for e in events)
        assert reordered_ops < natural_ops
        # Matches are unchanged by the reordering.
        assert all(natural.match(e).is_match for e in events)

    def test_reconfigure_preserves_match_semantics(self):
        profiles = self.single_attribute_profiles()
        matcher = TreeMatcher(profiles)
        before = {v: sorted(matcher.match(Event({"v": v})).matched_profile_ids) for v in range(100)}
        optimizer = TreeOptimizer(profiles, {"v": uniform_discrete(IntegerDomain(0, 99))})
        matcher.reconfigure(
            optimizer.configuration(value_measure=ValueMeasure.V2_PROFILE)
        )
        after = {v: sorted(matcher.match(Event({"v": v})).matched_profile_ids) for v in range(100)}
        assert before == after

    def test_add_and_remove_profile_rebuild_tree(self):
        profiles = self.single_attribute_profiles()
        matcher = TreeMatcher(profiles)
        matcher.add_profile(profile("extra", v=77))
        assert "extra" in matcher.match(Event({"v": 77}))
        matcher.remove_profile("extra")
        assert not matcher.match(Event({"v": 77})).is_match

    def test_stale_value_order_falls_back_to_natural_after_a_profile_change(self):
        profiles = self.single_attribute_profiles()
        matcher = TreeMatcher(profiles)
        optimizer = TreeOptimizer(profiles, {"v": uniform_discrete(IntegerDomain(0, 99))})
        matcher.reconfigure(optimizer.configuration(value_measure=ValueMeasure.V1_EVENT))
        assert matcher.configuration.value_orders
        # A seventh sub-range: the configured order no longer fits.
        matcher.add_profile(profile("extra", v=77))
        assert matcher.configuration.value_orders == {}
        assert "extra" in matcher.match(Event({"v": 77}))

    def test_a_builder_bug_surfaces_instead_of_resetting_the_value_orders(self, monkeypatch):
        matcher = TreeMatcher(self.single_attribute_profiles())

        def broken(*args, **kwargs):
            raise RuntimeError("builder bug")

        monkeypatch.setattr("repro.matching.tree.matcher.build_tree", broken)
        with pytest.raises(RuntimeError, match="builder bug"):
            matcher.add_profile(profile("extra", v=77))
