"""Cross-family maintenance contract tests.

Every matcher family — naive, counting, tree, predicate index (probing
its buckets, and scanning them when the planner finds no probe worth it)
— plus the adaptive engine wrapper over each registered family must
behave identically at the maintenance surface: removing an unknown profile
id raises :class:`~repro.core.errors.MatchingError`, adding a duplicate id
raises :class:`~repro.core.errors.ProfileError`, and a successful remove
makes the profile id removable exactly once.  The index families report
matches in insertion order, and a re-added id sorts by its new position.
"""

import pytest

from repro.core.domains import IntegerDomain
from repro.core.errors import MatchingError, ProfileError
from repro.core.events import Event
from repro.core.profiles import ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.distributions.discrete import DiscreteDistribution
from repro.matching import (
    CountingMatcher,
    IndexPlanner,
    NaiveMatcher,
    PredicateIndexMatcher,
    TreeMatcher,
)
from repro.service.adaptive import AdaptationPolicy, AdaptiveFilterEngine


def make_profiles() -> ProfileSet:
    schema = Schema([Attribute("v", IntegerDomain(0, 99))])
    return ProfileSet(schema, [profile("P1", v=10), profile("P2", v=20)])


def scanned_index(profiles: ProfileSet) -> PredicateIndexMatcher:
    """The index family planned under events that always hit a subscribed
    value: a probe then costs no less than scanning the entries, so the
    planner scans ``v``."""
    domain = profiles.schema.domain("v")
    hot = DiscreteDistribution(domain, {10: 1, 20: 1})
    matcher = PredicateIndexMatcher(profiles, planner=IndexPlanner({"v": hot}))
    assert not matcher.plan.plan_for("v").use_hash
    return matcher


def adaptive(engine: str):
    return lambda profiles: AdaptiveFilterEngine(profiles, policy=AdaptationPolicy(engine=engine))


ADAPTIVE_ENGINES = ("tree", "index", "naive", "auto")
FAMILIES = [
    NaiveMatcher,
    CountingMatcher,
    TreeMatcher,
    PredicateIndexMatcher,
    scanned_index,
    *(adaptive(engine) for engine in ADAPTIVE_ENGINES),
]
FAMILY_IDS = [
    "naive",
    "counting",
    "tree",
    "index",
    "index-scanned",
    *(f"adaptive-{engine}" for engine in ADAPTIVE_ENGINES),
]


@pytest.mark.parametrize("factory", FAMILIES, ids=FAMILY_IDS)
def test_remove_unknown_profile_raises_matching_error(factory):
    matcher = factory(make_profiles())
    with pytest.raises(MatchingError):
        matcher.remove_profile("no-such-profile")


@pytest.mark.parametrize("factory", FAMILIES, ids=FAMILY_IDS)
def test_remove_is_exactly_once(factory):
    matcher = factory(make_profiles())
    matcher.remove_profile("P1")
    assert not matcher.match(Event({"v": 10})).is_match
    with pytest.raises(MatchingError):
        matcher.remove_profile("P1")


@pytest.mark.parametrize("factory", FAMILIES, ids=FAMILY_IDS)
def test_add_duplicate_profile_raises_profile_error(factory):
    matcher = factory(make_profiles())
    with pytest.raises(ProfileError):
        matcher.add_profile(profile("P1", v=55))
    # The failed add must not have disturbed the original subscription.
    assert matcher.match(Event({"v": 10})).matched_profile_ids == ("P1",)


@pytest.mark.parametrize("factory", FAMILIES, ids=FAMILY_IDS)
def test_add_then_remove_round_trips(factory):
    matcher = factory(make_profiles())
    matcher.add_profile(profile("P3", v=30))
    assert matcher.match(Event({"v": 30})).matched_profile_ids == ("P3",)
    matcher.remove_profile("P3")
    assert not matcher.match(Event({"v": 30})).is_match


@pytest.mark.parametrize("factory", FAMILIES, ids=FAMILY_IDS)
def test_add_profiles_batch_equals_sequential(factory):
    batched = factory(make_profiles())
    batched.add_profiles([profile("P3", v=30), profile("P4", v=40)])
    sequential = factory(make_profiles())
    sequential.add_profile(profile("P3", v=30))
    sequential.add_profile(profile("P4", v=40))
    for value in (10, 20, 30, 40, 50):
        event = Event({"v": value})
        assert (
            batched.match(event).matched_profile_ids
            == sequential.match(event).matched_profile_ids
        )


@pytest.mark.parametrize(
    "factory",
    [PredicateIndexMatcher, scanned_index, adaptive("index"), adaptive("auto")],
    ids=["index", "index-scanned", "adaptive-index", "adaptive-auto"],
)
def test_readded_profile_sorts_by_its_new_position(factory):
    schema = Schema([Attribute("v", IntegerDomain(0, 99))])
    matcher = factory(ProfileSet(schema, [profile(pid, v=10) for pid in ("P0", "P1", "P2")]))
    matcher.remove_profile("P0")
    matcher.add_profile(profile("P0", v=10))
    assert matcher.match(Event({"v": 10})).matched_profile_ids == ("P1", "P2", "P0")


def test_tree_add_profiles_rebuilds_once(monkeypatch):
    import repro.matching.tree.matcher as tree_matcher_module

    matcher = TreeMatcher(make_profiles())
    calls = {"n": 0}
    real_build = tree_matcher_module.build_tree

    def counting_build(*args, **kwargs):
        calls["n"] += 1
        return real_build(*args, **kwargs)

    monkeypatch.setattr(tree_matcher_module, "build_tree", counting_build)
    matcher.add_profiles([profile(f"B{i}", v=60 + i) for i in range(5)])
    assert calls["n"] == 1
    assert matcher.match(Event({"v": 62})).matched_profile_ids == ("B2",)
