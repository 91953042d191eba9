"""The pluggable engine registry (matching families roster)."""

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
    EngineContext,
    EngineRegistry,
    EngineSpec,
    builtin_specs,
    default_registry,
)
from repro.service.adaptive import AdaptationPolicy, AdaptiveFilterEngine
from repro.service.broker import Broker
from repro.workloads.toy import environmental_profiles


def small_profiles() -> ProfileSet:
    schema = Schema([Attribute("v", IntegerDomain(0, 99))])
    return ProfileSet(schema, [profile(f"P{v}", v=v) for v in range(0, 100, 10)])


class TestDefaultRegistry:
    def test_builtin_roster(self):
        registry = default_registry()
        assert registry.names() == ("tree", "index", "naive")
        assert registry.engine_names() == ("tree", "index", "naive", "auto")
        assert "tree" in registry and "index" in registry and "naive" in registry
        assert "counting" not in registry and "sharded" not in registry
        assert "hybrid" not in registry
        assert len(registry) == 3

    def test_auto_names_the_index_family(self):
        """``auto`` is no family of its own: the engine runs, prices and
        records the index family under it."""
        registry = default_registry()
        assert registry.spec("auto") is registry.spec("index")
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
            default_registry().spec(name)

    def test_auto_is_reserved(self):
        registry = EngineRegistry()
        with pytest.raises(MatchingError, match="reserved"):
            registry.register(EngineSpec(name="auto", factory=lambda ctx: None))

    def test_duplicate_registration_needs_replace(self):
        registry = EngineRegistry(builtin_specs())
        with pytest.raises(MatchingError, match="already registered"):
            registry.register(EngineSpec(name="tree", factory=lambda ctx: None))
        registry.register(
            EngineSpec(name="tree", factory=lambda ctx: None), replace=True
        )
        assert registry.spec("tree").candidate is None

    def test_factories_build_the_right_families(self):
        registry = default_registry()
        profiles = small_profiles()
        policy = AdaptationPolicy()
        context = EngineContext(
            profiles=profiles,
            attribute_measure=policy.attribute_measure,
            value_measure=policy.value_measure,
            search=policy.search,
        )
        assert isinstance(registry.spec("tree").factory(context), TreeMatcher)
        assert isinstance(registry.spec("index").factory(context), PredicateIndexMatcher)
        assert isinstance(registry.spec("naive").factory(context), NaiveMatcher)


class TestBaselineFamilies:
    """The naive baseline as a first-class registry family."""

    def test_selectable_through_the_policy(self):
        policy = AdaptationPolicy(engine="naive")
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        assert type(engine.matcher) is NaiveMatcher
        assert engine.engine_family == "naive"
        assert engine.match(Event({"v": 40})).matched_profile_ids == ("P40",)

    def test_the_baseline_carries_no_cost_estimator(self):
        """No cost estimator: the baseline never re-optimises, and ``auto``
        names the index family, never the baseline or the tree."""
        registry = default_registry()
        assert registry.spec("naive").candidate is None
        assert registry.spec("tree").candidate is not None
        assert registry.spec("auto").name == "index"

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

    @pytest.mark.parametrize("name", default_registry().engine_names())
    def test_counting_oracle_agrees_with_each_family(self, name):
        """``CountingMatcher`` left the roster but stays the oracle every
        selectable engine (each registered family, and ``auto``) must
        agree with."""
        events = [Event({"v": v}) for v in (0, 15, 30, 30, 80, 99)]
        oracle = CountingMatcher(small_profiles())
        engine = AdaptiveFilterEngine(small_profiles(), policy=AdaptationPolicy(engine=name))
        for event in events:
            assert (
                engine.match(event).matched_profile_ids
                == oracle.match(event).matched_profile_ids
            ), name

    def test_a_subclass_family_reports_its_own_name(self, engine_roster):
        """A third-party family deriving from a baseline's matcher is
        reported under its own spec's name, not the baseline's."""
        engine_roster(
            [*builtin_specs(), EngineSpec(name="scan", factory=lambda c: _ScanSpy(c.profiles))]
        )
        engine = AdaptiveFilterEngine(small_profiles(), policy=AdaptationPolicy(engine="scan"))
        assert isinstance(engine.matcher, NaiveMatcher)
        assert engine.engine_family == "scan"


class _ScanSpy(NaiveMatcher):
    """A third-party family: the naive scan, registered under a new name."""


class TestThirdPartyEngines:
    @pytest.fixture
    def roster(self, engine_roster) -> EngineRegistry:
        return engine_roster(
            [
                *builtin_specs(),
                EngineSpec(
                    name="scan",
                    factory=lambda ctx: _ScanSpy(ctx.profiles),
                    description="sequential scan baseline",
                ),
            ]
        )

    def test_registered_engine_is_selectable_through_the_policy(self, roster):
        policy = AdaptationPolicy(engine="scan")
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        assert isinstance(engine.matcher, _ScanSpy)
        assert engine.engine_family == "scan"
        assert engine.match(Event({"v": 40})).matched_profile_ids == ("P40",)

    def test_reoptimisation_is_skipped_without_a_hook(self, roster):
        """A family without a candidate hook filters indefinitely."""
        policy = AdaptationPolicy(engine="scan", reoptimize_interval=10, warmup_events=10)
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        rng = random.Random(4)
        for _ in range(100):
            engine.match(Event({"v": rng.randint(0, 99)}))
        assert engine.adaptations() == []
        assert isinstance(engine.matcher, _ScanSpy)

    def test_third_party_engine_reaches_the_broker(self, roster):
        """The broker consults the registry via the policy — no service
        changes needed for a new family."""
        profiles = small_profiles()
        broker = Broker(
            profiles.schema,
            adaptation_policy=AdaptationPolicy(engine="scan"),
        )
        for item in profiles:
            broker.subscribe(item, "user")
        outcome = broker.publish(Event({"v": 30}))
        assert [n.profile_id for n in outcome.notifications] == ["P30"]
        assert isinstance(broker.engine.matcher, _ScanSpy)

    @pytest.mark.parametrize("name", ["quantum", "hybrid"])
    def test_policy_rejects_unknown_engine_with_roster_listing(self, name):
        with pytest.raises(
            ServiceError,
            match=f"unknown engine '{name}'; registered engines: tree, index, naive, auto",
        ):
            AdaptationPolicy(engine=name)

    def test_the_swapped_roster_is_restored(self, roster, monkeypatch):
        """The fixture swaps the process roster through ``monkeypatch``,
        so undoing it brings the built-in roster back."""
        assert default_registry() is roster
        monkeypatch.undo()
        assert default_registry() is not roster
        assert "scan" not in default_registry()
        assert default_registry().names() == ("tree", "index", "naive")


class TestCandidateHooks:
    def test_a_pinned_family_with_a_candidate_is_consulted_and_installed(self, engine_roster):
        """A third-party family's candidate is asked at every check of an
        engine pinned to it; an improving candidate is installed, and a
        new matcher object replaces the running one."""
        from repro.matching.registry import EngineCandidate

        calls = []

        def cheap_candidate(ctx, matcher, distributions):
            calls.append(type(matcher).__name__)
            return EngineCandidate(
                "scan",
                0.0,
                "scan[flat]",
                lambda: _ScanSpy(ctx.profiles),
                predicted_current=1.0,
            )

        engine_roster(
            [
                *builtin_specs(),
                EngineSpec(
                    name="scan",
                    factory=lambda ctx: _ScanSpy(ctx.profiles),
                    candidate=cheap_candidate,
                ),
            ]
        )
        policy = AdaptationPolicy(engine="scan", reoptimize_interval=50, warmup_events=50)
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        first = engine.matcher
        rng = random.Random(5)
        for _ in range(120):
            engine.match(Event({"v": rng.randint(0, 99)}))
        assert calls == ["_ScanSpy", "_ScanSpy"]
        records = engine.adaptations()
        assert [record.applied for record in records] == [True, True]
        assert all(record.engine == "scan" for record in records)
        assert all(record.configuration_label == "scan[flat]" for record in records)
        assert isinstance(engine.matcher, _ScanSpy) and engine.matcher is not first

    def test_decisions_are_recorded_under_the_spec_name(self, engine_roster):
        """A candidate's free-form ``family`` string is informational: a
        mistyped one must not send the record to a family that never runs."""
        from repro.matching.registry import EngineCandidate

        def mislabelled(ctx, matcher, distributions):
            return EngineCandidate(
                "scna",
                1.0,
                "scan[flat]",
                lambda: _ScanSpy(ctx.profiles),
                predicted_current=1.0,
            )

        engine_roster(
            [
                EngineSpec(
                    name="scan",
                    factory=lambda ctx: _ScanSpy(ctx.profiles),
                    candidate=mislabelled,
                )
            ]
        )
        policy = AdaptationPolicy(engine="scan", reoptimize_interval=20, warmup_events=20)
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        rng = random.Random(6)
        for _ in range(80):
            engine.match(Event({"v": rng.randint(0, 99)}))
        records = engine.adaptations()
        assert len(records) == 4
        assert all(record.engine == "scan" and not record.applied for record in records)

    def test_an_abstaining_family_is_skipped(self, engine_roster):
        """A candidate hook returning ``None`` sits that check out: it is
        asked at every check, and no decision is recorded."""
        asked = []

        def abstaining(ctx, matcher, distributions):
            asked.append(type(matcher).__name__)
            return None

        engine_roster(
            [
                *builtin_specs(),
                EngineSpec(
                    name="scan",
                    factory=lambda ctx: _ScanSpy(ctx.profiles),
                    candidate=abstaining,
                ),
            ]
        )
        policy = AdaptationPolicy(engine="scan", reoptimize_interval=50, warmup_events=50)
        engine = AdaptiveFilterEngine(small_profiles(), policy=policy)
        rng = random.Random(9)
        for _ in range(150):
            engine.match(Event({"v": rng.randint(0, 99)}))
        assert len(asked) == 3
        assert engine.adaptations() == []
        assert isinstance(engine.matcher, _ScanSpy)



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
def test_a_candidate_prices_only_its_own_running_matcher(family, running):
    """No family prices a switch to itself: each candidate abstains
    unless a matcher of its own family is running, and installs into the
    running matcher."""
    from repro.workloads import example3_event_distributions

    profiles = environmental_profiles()
    policy = AdaptationPolicy()
    context = EngineContext(
        profiles=profiles,
        attribute_measure=policy.attribute_measure,
        value_measure=policy.value_measure,
        search=policy.search,
    )
    distributions = example3_event_distributions()
    candidate = default_registry().spec(family).candidate
    assert candidate(context, None, distributions) is None
    for other in (TreeMatcher, PredicateIndexMatcher, NaiveMatcher):
        if other is not running:
            assert candidate(context, other(profiles), distributions) is None
    matcher = running(profiles)
    priced = candidate(context, matcher, distributions)
    assert priced.family == family and priced.predicted_current is not None
    assert priced.install() is matcher


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

    # ``_tree_candidate`` looks the builder up by name at every check.
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

