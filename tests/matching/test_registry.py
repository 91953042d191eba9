"""The closed engine roster (matching families)."""

import random

import pytest

from repro.api import FilterService
from repro.core.domains import IntegerDomain
from repro.core.errors import MatchingError, ServiceError
from repro.core.events import Event
from repro.core.profiles import ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.matching import (
    CountingMatcher,
    NaiveMatcher,
    PredicateIndexMatcher,
    TreeMatcher,
)
from repro.matching.registry import (
    AUTO_ENGINE,
    BUILDERS,
    ENGINES,
    REOPTIMISERS,
    Candidate,
    engine_family,
)
from repro.service.adaptive import AdaptationPolicy, AdaptiveFilterEngine
from repro.service.broker import Broker
from repro.workloads.toy import environmental_profiles


def small_profiles() -> ProfileSet:
    schema = Schema([Attribute("v", IntegerDomain(0, 99))])
    return ProfileSet(schema, [profile(f"P{v}", v=v) for v in range(0, 100, 10)])


class TestDefaultRegistry:
    def test_builtin_roster(self):
        assert ENGINES == ("tree", "index", "naive", "auto")
        assert tuple(BUILDERS) == ("tree", "index", "naive")
        assert tuple(REOPTIMISERS) == ("tree", "index")
        for retired in ("counting", "sharded", "hybrid"):
            assert retired not in ENGINES

    def test_auto_names_the_index_family(self):
        """``auto`` is no family of its own: the engine runs, prices and
        records the index family under it."""
        assert engine_family("auto") == "index"
        engine = AdaptiveFilterEngine(
            small_profiles(),
            policy=AdaptationPolicy(engine="auto", reoptimize_interval=20, warmup_events=20),
        )
        assert type(engine.matcher) is PredicateIndexMatcher
        assert engine.engine_family == "index"
        rng = random.Random(2)
        for _ in range(60):
            engine.match(Event({"v": rng.randint(0, 99)}))
        records = engine.adaptations()
        assert len(records) == 3
        assert all(record.engine == "index" for record in records)
        assert all(
            record.configuration_label == "auto:index[P_e estimated]" for record in records
        )

    def test_auto_is_not_a_family(self):
        """``auto`` is selectable but has no build or re-optimisation
        function of its own."""
        assert AUTO_ENGINE == "auto" and AUTO_ENGINE in ENGINES
        assert AUTO_ENGINE not in BUILDERS
        assert AUTO_ENGINE not in REOPTIMISERS

    @pytest.mark.parametrize(
        ("name", "family", "matcher_type"),
        [
            ("tree", "tree", TreeMatcher),
            ("index", "index", PredicateIndexMatcher),
            ("auto", "index", PredicateIndexMatcher),
            ("naive", "naive", NaiveMatcher),
        ],
    )
    def test_engine_family_is_the_resolved_spec(self, name, family, matcher_type):
        """An engine reports the spec it resolved at construction; it
        re-optimises within that family and never switches."""
        engine = AdaptiveFilterEngine(small_profiles(), policy=AdaptationPolicy(engine=name))
        assert type(engine.matcher) is matcher_type
        assert engine.engine_family == family

    @pytest.mark.parametrize("name", ["quantum", "hybrid"])
    def test_unknown_engine_error_lists_registered_names(self, name):
        with pytest.raises(
            MatchingError,
            match=f"unknown engine '{name}'; registered engines: tree, index, naive, auto",
        ):
            engine_family(name)

    @pytest.mark.parametrize("name", ["quantum", "hybrid"])
    def test_policy_rejects_unknown_engine_with_roster_listing(self, name):
        with pytest.raises(
            ServiceError,
            match=f"unknown engine '{name}'; registered engines: tree, index, naive, auto",
        ):
            AdaptationPolicy(engine=name)

    def test_factories_build_the_right_families(self):
        profiles = small_profiles()
        policy = AdaptationPolicy()
        assert isinstance(BUILDERS["tree"](profiles, policy), TreeMatcher)
        assert isinstance(BUILDERS["index"](profiles, policy), PredicateIndexMatcher)
        assert isinstance(BUILDERS["naive"](profiles, policy), NaiveMatcher)


class TestBaselineFamilies:
    """The naive baseline as a first-class family."""

    def test_selectable_through_the_policy(self):
        policy = AdaptationPolicy(engine="naive")
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        assert type(engine.matcher) is NaiveMatcher
        assert engine.engine_family == "naive"
        assert engine.match(Event({"v": 40})).matched_profile_ids == ("P40",)

    def test_the_baseline_carries_no_cost_estimator(self):
        """No re-optimisation function: the baseline never re-optimises,
        and ``auto`` names the index family, never the baseline or the
        tree."""
        assert "naive" not in REOPTIMISERS
        assert "tree" in REOPTIMISERS
        assert engine_family("auto") == "index"

    def test_no_periodic_restructuring(self):
        policy = AdaptationPolicy(
            engine="naive", reoptimize_interval=10, warmup_events=10
        )
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        rng = random.Random(7)
        for _ in range(60):
            engine.match(Event({"v": rng.randint(0, 99)}))
        assert engine.adaptations() == []
        assert type(engine.matcher) is NaiveMatcher

    def test_baseline_reaches_the_broker_by_name(self):
        profiles = small_profiles()
        broker = Broker(
            profiles.schema, adaptation_policy=AdaptationPolicy(engine="naive")
        )
        for item in profiles:
            broker.subscribe(item, "user")
        outcome = broker.publish(Event({"v": 30}))
        assert [n.profile_id for n in outcome.notifications] == ["P30"]
        broker.unsubscribe(broker.subscriptions.by_profile_id("P30").subscription_id)
        assert broker.publish(Event({"v": 30})).notifications == ()

    def test_every_family_agrees_on_a_churned_workload(self):
        """One engine switch drives all three families to identical
        notifications — the experiment-harness contract."""
        events = [Event({"v": v}) for v in (0, 15, 30, 30, 80, 99)]
        reference = None
        for name in ("tree", "index", "naive"):
            engine = AdaptiveFilterEngine(
                small_profiles(), policy=AdaptationPolicy(engine=name)
            )
            engine.remove_profile("P50")
            engine.add_profile(profile("P50", v=50))
            matched = [engine.match(event).matched_profile_ids for event in events]
            if reference is None:
                reference = matched
            assert matched == reference, name

    @pytest.mark.parametrize("name", ["counting", "sharded", "hybrid"])
    def test_retired_family_is_not_selectable_by_name(self, name):
        with pytest.raises(
            ServiceError,
            match=f"unknown engine '{name}'; registered engines: tree, index, naive, auto",
        ):
            FilterService(small_profiles().schema, engine=name)

    @pytest.mark.parametrize("name", ENGINES)
    def test_counting_oracle_agrees_with_each_family(self, name):
        """``CountingMatcher`` left the roster but stays the oracle every
        selectable engine (each family, and ``auto``) must
        agree with."""
        events = [Event({"v": v}) for v in (0, 15, 30, 30, 80, 99)]
        oracle = CountingMatcher(small_profiles())
        engine = AdaptiveFilterEngine(small_profiles(), policy=AdaptationPolicy(engine=name))
        for event in events:
            assert (
                engine.match(event).matched_profile_ids
                == oracle.match(event).matched_profile_ids
            ), name


    @pytest.mark.parametrize("name", ENGINES)
    def test_every_engine_reaches_the_broker_by_name(self, name):
        profiles = small_profiles()
        broker = Broker(profiles.schema, adaptation_policy=AdaptationPolicy(engine=name))
        for item in profiles:
            broker.subscribe(item, "user")
        assert broker.engine.engine_family == engine_family(name)
        outcome = broker.publish(Event({"v": 30}))
        assert [n.profile_id for n in outcome.notifications] == ["P30"]
        broker.unsubscribe(broker.subscriptions.by_profile_id("P30").subscription_id)
        assert broker.publish(Event({"v": 30})).notifications == ()


def _drive(engine: AdaptiveFilterEngine, count: int) -> None:
    rng = random.Random(5)
    for _ in range(count):
        engine.match(Event({"v": rng.randint(0, 99)}))


class TestReoptimisers:
    """How an engine uses its family's re-optimisation function.

    The engine looks the function up at construction, so each test
    patches :data:`REOPTIMISERS` before building the engine.
    """

    @pytest.mark.parametrize("family", ["tree", "index"])
    def test_a_pinned_family_consults_its_function_at_every_check(self, monkeypatch, family):
        calls = []
        reoptimise = REOPTIMISERS[family]

        def spy(matcher, policy, distributions):
            calls.append(matcher)
            return reoptimise(matcher, policy, distributions)

        monkeypatch.setitem(REOPTIMISERS, family, spy)
        policy = AdaptationPolicy(engine=family, reoptimize_interval=20, warmup_events=20)
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        _drive(engine, 60)
        assert len(calls) == 3
        assert all(matcher is engine.matcher for matcher in calls)
        records = engine.adaptations()
        assert [record.event_count for record in records] == [20, 40, 60]
        assert all(record.engine == family for record in records)
        assert all(
            record.configuration_label.startswith(f"{family}[") for record in records
        )

    def test_an_abstaining_function_records_nothing(self, monkeypatch):
        """A check whose function returns ``None`` is skipped: no record,
        no change to the matcher, and the history still grows."""
        monkeypatch.setitem(REOPTIMISERS, "tree", lambda matcher, policy, distributions: None)
        policy = AdaptationPolicy(engine="tree", reoptimize_interval=20, warmup_events=20)
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        tree = engine.matcher.tree
        _drive(engine, 60)
        assert engine.adaptations() == []
        assert engine.matcher.tree is tree
        assert len(engine.history) == 60

    @pytest.mark.parametrize(
        ("cost", "applied"), [(5.0, True), (9.5, False)], ids=["cheaper", "within-threshold"]
    )
    def test_a_candidate_is_applied_only_past_the_threshold(self, monkeypatch, cost, applied):
        applies = []
        monkeypatch.setitem(
            REOPTIMISERS,
            "index",
            lambda matcher, policy, distributions: Candidate(
                10.0, cost, "index[fake]", lambda: applies.append(matcher)
            ),
        )
        policy = AdaptationPolicy(
            engine="index",
            reoptimize_interval=20,
            warmup_events=20,
            improvement_threshold=0.1,
        )
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        _drive(engine, 20)
        (record,) = engine.adaptations()
        assert record.applied is applied
        assert record.predicted_current == 10.0 and record.predicted_candidate == cost
        assert record.configuration_label == "index[fake]"
        assert applies == ([engine.matcher] if applied else [])


def test_min_columnar_batch_controls_the_kernel_cutover(monkeypatch):
    """Batches at or above ``kernel.MIN_COLUMNAR_BATCH`` (read at call
    time) run the columnar kernel (visible through the matcher's
    accumulated KernelStats)."""
    from repro.matching.index import kernel

    profiles = small_profiles()
    events = [Event({"v": v}) for v in (0, 10, 20, 30, 40, 50)]
    default = PredicateIndexMatcher(profiles)
    default.match_batch(events)
    assert default.kernel_stats.events == 0  # below MIN_COLUMNAR_BATCH=16
    lowered = PredicateIndexMatcher(profiles)
    monkeypatch.setattr(kernel, "MIN_COLUMNAR_BATCH", 4)
    results = lowered.match_batch(events)
    assert lowered.kernel_stats.events == len(events)
    assert [r.matched_profile_ids for r in results] == [
        (f"P{event['v']}",) for event in events
    ]


@pytest.mark.parametrize(
    "family, running", [("tree", TreeMatcher), ("index", PredicateIndexMatcher)]
)
def test_a_reoptimisation_edits_the_running_matcher(family, running):
    """Pricing leaves the running matcher alone; ``apply()`` edits that
    same matcher (an index replan keeps its kernel stats object)."""
    from repro.workloads import example3_event_distributions

    profiles = environmental_profiles()
    policy = AdaptationPolicy()
    distributions = example3_event_distributions()
    matcher = running(profiles)
    structure = matcher.tree if family == "tree" else matcher.plan
    stats = getattr(matcher, "kernel_stats", None)
    candidate = REOPTIMISERS[family](matcher, policy, distributions)
    assert candidate.predicted_current > 0 and candidate.cost > 0
    assert candidate.label.startswith(f"{family}[")
    assert (matcher.tree if family == "tree" else matcher.plan) is structure
    assert candidate.apply() is None
    assert getattr(matcher, "kernel_stats", None) is stats
    if family == "tree":
        assert candidate.label == f"tree[{matcher.configuration.label}]"


def test_a_converged_pinned_tree_check_builds_nothing(monkeypatch):
    """Once the optimiser's answer is the running configuration the check
    reuses the running tree: no candidate build, and the one cost is both
    the current and the candidate prediction."""
    import repro.matching.tree.builder as builder

    builds = []
    build_tree = builder.build_tree

    def counting_build_tree(*args, **kwargs):
        builds.append(args)
        return build_tree(*args, **kwargs)

    # ``_reoptimise_tree`` looks the builder up by name at every check.
    monkeypatch.setattr(builder, "build_tree", counting_build_tree)
    policy = AdaptationPolicy(engine="tree", reoptimize_interval=100, warmup_events=50)
    engine = AdaptiveFilterEngine(environmental_profiles(), policy=policy)
    rng = random.Random(3)
    for _ in range(500):
        engine.match(
            Event(
                {
                    "temperature": rng.choice([30, 31, 32, 40]),
                    "humidity": rng.choice([90, 95]),
                    "radiation": rng.choice([1, 2, 50]),
                }
            )
        )
    records = engine.adaptations()
    assert [record.applied for record in records] == [True, False, False, False, False]
    assert len(builds) == 1, "only the applied restructuring builds a tree"
    tree = engine.matcher.tree
    for record in records[1:]:
        assert record.predicted_candidate == record.predicted_current
    # The converged checks still install nothing new.
    assert engine.matcher.tree is tree

