"""Tests for the adaptive filter component."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.matching.tree.builder as tree_builder
from repro.api import FilterService
from repro.core.domains import IntegerDomain
from repro.core.errors import EventError, ServiceError
from repro.core.events import Event
from repro.core.predicates import Equals, RangePredicate
from repro.core.profiles import Profile, ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.matching import NaiveMatcher, PredicateIndexMatcher, TreeMatcher
from repro.matching.index import kernel
from repro.matching.tree.config import SearchStrategy
from repro.service.adaptive import AdaptationPolicy, AdaptiveFilterEngine
from repro.selectivity.value_measures import ValueMeasure
from repro.workloads import build_workload
from repro.workloads.profiles import get_profile


def single_attribute_profiles() -> ProfileSet:
    schema = Schema([Attribute("v", IntegerDomain(0, 99))])
    values = list(range(0, 100, 5))  # 20 referenced values spread over the domain
    return ProfileSet(schema, [profile(f"P{v}", v=v) for v in values])


def count_tree_builds(monkeypatch) -> list:
    """Record every ``build_tree`` call the tree family's candidate makes
    from now on (it looks the builder up by name at every check)."""
    calls = []
    build_tree = tree_builder.build_tree

    def counting_build_tree(*args, **kwargs):
        calls.append(args)
        return build_tree(*args, **kwargs)

    monkeypatch.setattr(tree_builder, "build_tree", counting_build_tree)
    return calls


def peaked_events(count: int, seed: int = 1) -> list[Event]:
    """Events concentrated on the high referenced values (95 is popular)."""
    rng = random.Random(seed)
    events = []
    for _ in range(count):
        if rng.random() < 0.9:
            value = 95
        else:
            value = rng.randint(0, 99)
        events.append(Event({"v": value}))
    return events


class TestAdaptationPolicy:
    def test_validation(self):
        AdaptationPolicy()
        with pytest.raises(ServiceError):
            AdaptationPolicy(reoptimize_interval=0)
        with pytest.raises(ServiceError):
            AdaptationPolicy(improvement_threshold=1.5)
        with pytest.raises(ServiceError):
            AdaptationPolicy(history_length=0)
        with pytest.raises(ServiceError):
            AdaptationPolicy(warmup_events=-1)


class TestAdaptiveFilterEngine:
    def make_engine(self, **policy_kwargs) -> AdaptiveFilterEngine:
        policy = AdaptationPolicy(
            value_measure=ValueMeasure.V1_EVENT,
            reoptimize_interval=policy_kwargs.pop("reoptimize_interval", 200),
            warmup_events=policy_kwargs.pop("warmup_events", 100),
            improvement_threshold=policy_kwargs.pop("improvement_threshold", 0.05),
            **policy_kwargs,
        )
        return AdaptiveFilterEngine(single_attribute_profiles(), policy=policy)

    def test_matching_results_are_unchanged_by_adaptation(self):
        engine = self.make_engine()
        events = peaked_events(600)
        for event in events:
            result = engine.match(event)
            if event["v"] % 5 == 0:
                assert result.is_match
            else:
                assert not result.is_match

    def test_engine_restructures_for_a_peaked_distribution(self):
        engine = self.make_engine()
        assert engine.configuration.label == "natural"
        for event in peaked_events(600):
            engine.match(event)
        records = engine.adaptations()
        assert records, "the engine never considered a re-optimisation"
        assert any(record.applied for record in records)
        assert engine.configuration.label != "natural"

    def test_adaptation_reduces_filtering_cost(self):
        events = peaked_events(2000)
        static = AdaptiveFilterEngine(
            single_attribute_profiles(),
            policy=AdaptationPolicy(reoptimize_interval=10**9, warmup_events=10**9),
        )
        adaptive = self.make_engine()
        static_ops = sum(static.match(e).operations for e in events)
        adaptive_ops = sum(adaptive.match(e).operations for e in events)
        assert adaptive_ops < static_ops

    @pytest.mark.parametrize("engine_kind", ["tree", "index", "auto"])
    def test_records_time_the_check_itself(self, engine_kind):
        """``check_seconds`` is the stall of the triggering publish: it
        lies inside the wall-clock of the interval that follows it."""
        engine = self.make_engine(engine=engine_kind, reoptimize_interval=100)
        for event in peaked_events(400):
            engine.match(event)
        records = engine.adaptations()
        assert len(records) >= 3
        for record, following in zip(records, records[1:]):
            assert 0.0 < record.check_seconds <= following.measured_wall_seconds
            assert record.to_dict()["check_seconds"] == record.check_seconds

    def test_no_adaptation_before_warmup(self):
        engine = self.make_engine(warmup_events=10_000, reoptimize_interval=100)
        for event in peaked_events(500):
            engine.match(event)
        assert engine.adaptations() == []

    def test_small_improvements_are_not_applied(self):
        # Uniform events offer no improvement over the natural order, so the
        # candidate configuration must be evaluated but not applied.
        engine = self.make_engine(improvement_threshold=0.2)
        rng = random.Random(3)
        for _ in range(600):
            engine.match(Event({"v": rng.randint(0, 99)}))
        records = engine.adaptations()
        assert records
        assert all(
            record.applied or record.predicted_improvement < 0.2 for record in records
        )

    def test_history_window_is_bounded(self):
        engine = AdaptiveFilterEngine(
            single_attribute_profiles(),
            policy=AdaptationPolicy(
                history_length=50, reoptimize_interval=10**9, warmup_events=10**9
            ),
        )
        for event in peaked_events(200):
            engine.match(event)
        assert len(engine.history) == 50

    def test_estimated_distributions_require_observations(self):
        engine = self.make_engine()
        with pytest.raises(ServiceError):
            engine.estimated_event_distributions()

    def test_profile_maintenance_delegates_to_matcher(self):
        engine = self.make_engine()
        engine.add_profile(profile("extra", v=33))
        assert engine.match(Event({"v": 33})).is_match
        engine.remove_profile("extra")
        assert not engine.match(Event({"v": 33})).is_match

    @pytest.mark.parametrize("engine_kind", ["index", "naive"])
    def test_configuration_error_names_the_running_family(self, engine_kind):
        engine = self.make_engine(engine=engine_kind)
        with pytest.raises(
            ServiceError, match=f"the {engine_kind} engine has no tree configuration"
        ):
            engine.configuration

    def test_auto_configuration_error_names_the_index_family(self):
        """``auto`` is a name for the index family, not a family of its
        own: the error names the family that runs."""
        engine = self.make_engine(engine="auto")
        with pytest.raises(ServiceError, match="the index engine has no tree configuration"):
            engine.configuration

    @pytest.mark.parametrize("engine_kind", ["tree", "index", "auto"])
    def test_records_carry_the_measured_interval(self, engine_kind):
        """Every check records the ops/event charged and the seconds spent
        over the interval that ended at it — the interval the previous
        check's prediction covered."""
        engine = self.make_engine(engine=engine_kind, reoptimize_interval=100)
        events = peaked_events(500)
        charged = [engine.match(event).operations for event in events]
        records = engine.adaptations()
        assert [record.event_count for record in records] == [100, 200, 300, 400, 500]
        start = 0
        for record in records:
            interval = charged[start : record.event_count]
            assert record.measured_ops_per_event == pytest.approx(sum(interval) / len(interval))
            assert record.measured_wall_seconds > 0.0
            start = record.event_count


class TestAutoEngine:
    """``engine="auto"``: the index family, replanning itself."""

    @staticmethod
    def sparse_equality_profiles() -> ProfileSet:
        """Distinct rare equalities: one hash probe beats any tree walk."""
        schema = Schema([Attribute("v", IntegerDomain(0, 999))])
        return ProfileSet(
            schema, [Profile(f"P{i}", {"v": Equals(i * 37 % 1000)}) for i in range(60)]
        )

    @staticmethod
    def broad_range_profiles() -> ProfileSet:
        """Nested broad ranges: nearly every entry hits on every event, so
        the index pays E[hits] ~ p while the (binary-searched) tree walks
        one short root-to-leaf path."""
        schema = Schema([Attribute("v", IntegerDomain(0, 999))])
        return ProfileSet(
            schema,
            [
                Profile(f"R{i}", {"v": RangePredicate.between(i * 5, 999 - i * 5)})
                for i in range(60)
            ],
        )

    @staticmethod
    def run(engine: AdaptiveFilterEngine, events) -> None:
        oracle = NaiveMatcher(ProfileSet(engine.profiles.schema, list(engine.profiles)))
        for event in events:
            assert (
                engine.match(event).matched_profile_ids
                == oracle.match(event).matched_profile_ids
            )

    @staticmethod
    def run_corpus(name: str, engine_name: str, *, subscriptions: int | None = None):
        """Publish a corpus profile's events through the facade in its
        batches; return the matched ids, the events, the profiles and the
        adaptive engine."""
        scenario = get_profile(name)
        if subscriptions is not None:
            scenario = replace(
                scenario, spec=scenario.spec.with_counts(profile_count=subscriptions)
            )
        workload = build_workload(scenario.spec)
        events = list(workload.events)
        size = scenario.run.batch_size
        matched = []
        with FilterService.from_profile(scenario, engine=engine_name, delivery="inline") as service:
            service.subscribe_all(workload.profiles)
            for start in range(0, len(events), size):
                outcomes = service.publish_batch(events[start : start + size])
                matched.extend(outcome.match_result.matched_profile_ids for outcome in outcomes)
            engine = service.broker.engine
        return matched, events, ProfileSet(workload.spec.schema, workload.profiles), engine

    def auto_policy(self, **kwargs) -> AdaptationPolicy:
        return AdaptationPolicy(
            engine="auto", reoptimize_interval=150, warmup_events=100, **kwargs
        )

    def test_auto_selects_index_for_sparse_equalities(self):
        rng = random.Random(1)
        events = [Event({"v": rng.randint(0, 999)}) for _ in range(600)]
        engine = AdaptiveFilterEngine(
            self.sparse_equality_profiles(), policy=self.auto_policy()
        )
        self.run(engine, events)
        records = engine.adaptations()
        assert records, "auto never checked"
        assert all(record.engine == "index" for record in records)
        assert isinstance(engine.matcher, PredicateIndexMatcher)

    def test_auto_costs_the_running_index_once_per_check(self, monkeypatch):
        """Both sides of the check — the index candidate and the
        incumbent's current cost — come from one recosting pass."""
        recosts = []
        recost_plans = PredicateIndexMatcher.recost_plans

        def counting_recost(matcher, distributions):
            recosts.append(distributions)
            return recost_plans(matcher, distributions)

        monkeypatch.setattr(PredicateIndexMatcher, "recost_plans", counting_recost)
        rng = random.Random(1)
        engine = AdaptiveFilterEngine(self.sparse_equality_profiles(), policy=self.auto_policy())
        self.run(engine, [Event({"v": rng.randint(0, 999)}) for _ in range(600)])
        records = engine.adaptations()
        assert len(records) == 4 and not any(record.applied for record in records)
        assert len(recosts) == len(records)
        # The shared pass prices the incumbent exactly as estimated_cost does.
        assert records[-1].predicted_current == pytest.approx(
            engine.matcher.estimated_cost(recosts[-1])
        )

    def test_a_candidate_that_gains_nothing_is_not_applied(self, monkeypatch):
        """With ``improvement_threshold=0.0`` every check on a stable
        ``stock-ticker`` population prices its candidate at exactly the
        running plan's cost, and none may apply: each would replan for a
        predicted gain of nothing."""
        replans = []
        replan = PredicateIndexMatcher.replan

        def counting_replan(matcher, distributions):
            replans.append(distributions)
            replan(matcher, distributions)

        monkeypatch.setattr(PredicateIndexMatcher, "replan", counting_replan)
        scenario = get_profile("stock-ticker")
        workload = build_workload(scenario.spec.with_counts(profile_count=60, event_count=600))
        policy = AdaptationPolicy(
            engine="auto", reoptimize_interval=100, warmup_events=100, improvement_threshold=0.0
        )
        events = list(workload.events)
        with FilterService(workload.spec.schema, policy=policy, delivery="inline") as service:
            service.subscribe_all(workload.profiles)
            for start in range(0, len(events), 100):
                service.publish_batch(events[start : start + 100])
            records = service.broker.engine.adaptations()
        assert len(records) == 6
        assert all(r.predicted_candidate == r.predicted_current for r in records)
        assert all(r.predicted_improvement == 0.0 for r in records)
        assert not any(r.applied for r in records)
        assert replans == []

    def test_auto_builds_no_tree_for_broad_ranges(self, monkeypatch):
        """Nested broad ranges are where the tree wins the paper's metric;
        ``auto`` still neither builds nor installs one: it is the index
        family."""
        builds = count_tree_builds(monkeypatch)
        rng = random.Random(2)
        events = [Event({"v": rng.randint(300, 700)}) for _ in range(600)]
        engine = AdaptiveFilterEngine(
            self.broad_range_profiles(),
            policy=self.auto_policy(search=SearchStrategy.BINARY),
        )
        self.run(engine, events)
        records = engine.adaptations()
        assert records and {record.engine for record in records} == {"index"}
        assert not isinstance(engine.matcher, TreeMatcher)
        assert builds == []

    @pytest.mark.parametrize("name", ["smart-building", "stock-ticker", "wide-range"])
    def test_auto_builds_no_tree_on_the_corpus(self, name, monkeypatch):
        """The three corpus profiles on which ``auto`` used to install the
        tree (at 100 subscriptions, in the profile's batches): no
        ``build_tree`` call, and the naive oracle's matches."""
        builds = count_tree_builds(monkeypatch)
        matched, events, profiles, engine = self.run_corpus(name, "auto", subscriptions=100)
        oracle = NaiveMatcher(profiles)
        assert matched == [oracle.match(event).matched_profile_ids for event in events]
        assert engine.adaptations()
        assert builds == []

    def test_pinned_tree_still_restructures(self):
        """Pinned by name the tree is the paper's adaptive filter: on
        ``stock-ticker`` its first check applies a restructure."""
        matched, events, profiles, engine = self.run_corpus("stock-ticker", "tree")
        oracle = NaiveMatcher(profiles)
        assert matched == [oracle.match(event).matched_profile_ids for event in events]
        records = engine.adaptations()
        assert [(record.engine, record.applied) for record in records] == [
            ("tree", True),
            ("tree", False),
        ]
        assert isinstance(engine.matcher, TreeMatcher)

    def test_auto_policy_validates_measures_like_index(self):
        from repro.selectivity import AttributeMeasure

        with pytest.raises(ServiceError):
            AdaptationPolicy(engine="auto", attribute_measure=AttributeMeasure.A3_CONDITIONAL)


class TestBatchFiltering:
    """match_batch: chunked forwarding with an exact re-optimisation cadence."""

    @staticmethod
    def make_engine(**kwargs) -> AdaptiveFilterEngine:
        policy = AdaptationPolicy(
            value_measure=ValueMeasure.V1_EVENT,
            reoptimize_interval=kwargs.pop("reoptimize_interval", 150),
            warmup_events=kwargs.pop("warmup_events", 100),
            **kwargs,
        )
        return AdaptiveFilterEngine(single_attribute_profiles(), policy=policy)

    @pytest.mark.parametrize("engine_kind", ["tree", "index", "auto"])
    def test_match_batch_equals_sequential_match(self, engine_kind):
        events = peaked_events(700)
        sequential_engine = self.make_engine(engine=engine_kind)
        batched_engine = self.make_engine(engine=engine_kind)
        sequential = [sequential_engine.match(event) for event in events]
        batched = batched_engine.match_batch(events)
        assert [r.matched_profile_ids for r in batched] == [
            r.matched_profile_ids for r in sequential
        ]
        # The re-optimisation cadence is identical: same checks, fired at
        # the same filtered-event counts, with the same decisions.
        assert [
            (r.event_count, r.engine, r.applied) for r in batched_engine.adaptations()
        ] == [
            (r.event_count, r.engine, r.applied) for r in sequential_engine.adaptations()
        ]
        assert batched_engine.adaptations(), "the cadence never fired"

    @pytest.mark.parametrize("engine_kind", ["tree", "index"])
    def test_match_batch_keeps_the_history_a_match_loop_keeps(self, engine_kind):
        # The batch path feeds the history a chunk at a time
        # (``EventHistory.observe_all``); with a window shorter than the
        # stream, both paths must end on the same window, the same
        # counters, and therefore the same decisions at every check.
        events = peaked_events(700)
        sequential_engine = self.make_engine(engine=engine_kind, history_length=120)
        batched_engine = self.make_engine(engine=engine_kind, history_length=120)
        for event in events:
            sequential_engine.match(event)
        batched_engine.match_batch(events)
        sequential, batched = sequential_engine.history, batched_engine.history
        assert batched.events() == sequential.events() == events[-120:]
        assert batched.counter("v").counts() == sequential.counter("v").counts()
        assert batched.counter("v").total == sequential.counter("v").total == 120
        records = [
            replace(record, measured_wall_seconds=None, check_seconds=None)
            for record in batched_engine.adaptations()
        ]
        assert records and records == [
            replace(record, measured_wall_seconds=None, check_seconds=None)
            for record in sequential_engine.adaptations()
        ]

    def test_match_batch_counts_the_valid_prefix_of_an_invalid_chunk(self):
        # Without a broker in front nothing has validated the batch: the
        # history rejects it at the offending event, as the loop would.
        engine = self.make_engine(engine="index")
        events = [Event({"v": 1}), Event({"v": 2}), Event({"v": 1000}), Event({"v": 3})]
        with pytest.raises(EventError, match="1000"):
            engine.match_batch(events)
        assert engine.history.events() == events[:2]
        assert engine.history.counter("v").counts() == {1: 1, 2: 1}

    def test_match_batch_in_odd_slices_keeps_cadence(self):
        events = peaked_events(700)
        reference = self.make_engine()
        expected = [reference.match(event).matched_profile_ids for event in events]
        sliced = self.make_engine()
        results = []
        position = 0
        for size in (37, 1, 260, 150, 252):
            results.extend(sliced.match_batch(events[position : position + size]))
            position += size
        assert [r.matched_profile_ids for r in results] == expected
        assert [r.event_count for r in sliced.adaptations()] == [
            r.event_count for r in reference.adaptations()
        ]


class TestNoReoptimisationFamily:
    """A family without a re-optimisation function schedules no checks."""

    @pytest.mark.parametrize(("engine_kind", "checks"), [("naive", 0), ("index", 20)])
    def test_checks_and_match_batch_calls_per_publish_batch(self, monkeypatch, engine_kind, checks):
        from repro.distributions.estimation import FrequencyCounter

        schema = Schema([Attribute("a", IntegerDomain(0, 9)), Attribute("b", IntegerDomain(0, 9))])
        service = FilterService(
            schema,
            policy=AdaptationPolicy(engine=engine_kind, reoptimize_interval=50, warmup_events=50),
        )
        service.subscribe_all([profile(f"P{v}", a=v) for v in range(10)])
        estimates, batches = [], []
        to_distribution = FrequencyCounter.to_distribution
        matcher_type = type(service.broker.engine.matcher)
        match_batch = matcher_type.match_batch

        def counting_to_distribution(counter, *args, **kwargs):
            estimates.append(counter)
            return to_distribution(counter, *args, **kwargs)

        def counting_match_batch(matcher, events):
            batches.append(len(events))
            return match_batch(matcher, events)

        monkeypatch.setattr(FrequencyCounter, "to_distribution", counting_to_distribution)
        monkeypatch.setattr(matcher_type, "match_batch", counting_match_batch)
        rng = random.Random(11)
        events = [Event({"a": rng.randint(0, 9), "b": rng.randint(0, 9)}) for _ in range(1000)]
        service.publish_batch(events)
        engine = service.broker.engine
        assert len(estimates) == 2 * checks
        assert len(engine.adaptations()) == checks
        assert batches == ([1000] if checks == 0 else [50] * checks)
        assert engine.history.events() == events


# -- the design invariant: auto is the pinned index family ----------------------

ROSTER_DOMAIN = 12


@st.composite
def churned_runs(draw):
    """A profile pool plus a script of event bursts and membership toggles."""
    values = st.integers(0, ROSTER_DOMAIN - 1)
    pool = []
    for index in range(draw(st.integers(min_value=3, max_value=8))):
        predicates = {}
        for name in ("a", "b"):
            kind = draw(st.sampled_from(["skip", "eq", "range"]))
            if kind == "eq":
                predicates[name] = Equals(draw(values))
            elif kind == "range":
                low = draw(values)
                predicates[name] = RangePredicate.between(
                    low, draw(st.integers(low, ROSTER_DOMAIN - 1))
                )
        if not predicates:
            predicates["a"] = Equals(draw(values))
        pool.append(Profile(f"P{index}", predicates))
    event = st.fixed_dictionaries({"a": values, "b": values}).map(Event)
    step = st.one_of(
        st.lists(event, min_size=1, max_size=12),
        st.integers(0, len(pool) - 1),
    )
    return pool, draw(st.lists(step, min_size=2, max_size=14))


def drive_script(engine: AdaptiveFilterEngine, pool, script):
    """Run ``script``: lists are event batches, integers toggle a profile."""
    matched = []
    for step in script:
        if isinstance(step, list):
            matched.extend(r.matched_profile_ids for r in engine.match_batch(step))
        elif pool[step].profile_id in engine.profiles:
            engine.remove_profile(pool[step].profile_id)
        else:
            engine.add_profile(pool[step])
    return matched


def decision(record):
    """One adaptation record minus its label and its wall-clock readings."""
    return replace(
        record, configuration_label="", measured_wall_seconds=None, check_seconds=None
    )


@given(run=churned_runs(), threshold=st.sampled_from([0.0, 0.05]))
@settings(max_examples=25, deadline=None)
def test_auto_is_the_pinned_index_family(run, threshold):
    pool, script = run
    schema = Schema(
        [Attribute(name, IntegerDomain(0, ROSTER_DOMAIN - 1)) for name in ("a", "b")]
    )
    knobs = dict(reoptimize_interval=8, warmup_events=8, improvement_threshold=threshold)
    # Short bursts reach the columnar kernel too.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "MIN_COLUMNAR_BATCH", 4)
        pinned = AdaptiveFilterEngine(
            ProfileSet(schema, pool[::2]), policy=AdaptationPolicy(engine="index", **knobs)
        )
        auto = AdaptiveFilterEngine(
            ProfileSet(schema, pool[::2]), policy=AdaptationPolicy(engine="auto", **knobs)
        )
        assert drive_script(pinned, pool, script) == drive_script(auto, pool, script)
    assert auto.engine_family == "index"
    assert [decision(r) for r in auto.adaptations()] == [
        decision(r) for r in pinned.adaptations()
    ]
    assert [r.configuration_label for r in auto.adaptations()] == [
        f"auto:{r.configuration_label}" for r in pinned.adaptations()
    ]
