"""The FilterService facade: construction, publishing, merged stats."""

import math

import pytest

from repro.core.domains import ContinuousDomain, IntegerDomain
from repro.core.errors import (
    DomainError,
    EventError,
    ProfileError,
    ServiceError,
    SubscriptionError,
)
from repro.core.events import Event
from repro.core.profiles import Profile, ProfileSet
from repro.core.predicates import Equals, RangePredicate
from repro.core.schema import Attribute, Schema
from repro.api import (
    AdaptationPolicy,
    FilterService,
    ServiceStats,
    where,
)
from repro.matching.index import PredicateIndexMatcher
from repro.matching.naive import NaiveMatcher
from repro.workloads import (
    build_workload,
    environmental_profiles,
    environmental_schema,
    example_event,
    get_profile,
)


def make_service(**kwargs) -> FilterService:
    return FilterService(environmental_schema(), **kwargs)


class TestConstruction:
    def test_defaults_to_the_auto_engine(self):
        service = make_service()
        assert service.policy.engine == "auto"
        assert service.engines() == ("tree", "index", "naive", "auto")

    @pytest.mark.parametrize("name", ["quantum", "hybrid"])
    def test_engine_name_is_resolved_through_the_registry(self, name):
        service = make_service(engine="index")
        assert service.policy.engine == "index"
        with pytest.raises(
            ServiceError,
            match=f"unknown engine '{name}'; registered engines: tree, index, naive, auto",
        ):
            make_service(engine=name)

    def test_policy_and_engine_must_agree(self):
        with pytest.raises(ServiceError, match="conflicting engine"):
            make_service(engine="tree", policy=AdaptationPolicy(engine="index"))
        service = make_service(engine="tree", policy=AdaptationPolicy(engine="tree"))
        assert service.policy.engine == "tree"

    def test_policy_carries_all_knobs(self):
        policy = AdaptationPolicy(engine="index", history_length=500)
        service = make_service(policy=policy, adaptive=False)
        assert service.policy.history_length == 500


def _retired_knob_owners():
    from repro.matching.index import IndexPlanner, PredicateIndexMatcher
    from repro.service.adaptive import AdaptiveFilterEngine
    from repro.service.broker import Broker
    from repro.service.delivery import (
        DeliveryDispatcher,
        ThreadPoolDeliveryExecutor,
        WebhookDeliveryExecutor,
    )

    return {
        "AdaptationPolicy": AdaptationPolicy,
        "FilterService": make_service,
        "IndexPlanner": IndexPlanner,
        "PredicateIndexMatcher": lambda **kwargs: PredicateIndexMatcher(
            environmental_profiles(environmental_schema()), **kwargs
        ),
        "Broker": lambda **kwargs: Broker(environmental_schema(), **kwargs),
        "AdaptiveFilterEngine": lambda **kwargs: AdaptiveFilterEngine(
            environmental_profiles(environmental_schema()), **kwargs
        ),
        "DeliveryDispatcher": DeliveryDispatcher,
        "ThreadPoolDeliveryExecutor": ThreadPoolDeliveryExecutor,
        "WebhookDeliveryExecutor": WebhookDeliveryExecutor,
    }


@pytest.mark.parametrize(
    ("owner", "knob", "value"),
    [
        ("AdaptationPolicy", "switch_cooldown_intervals", 0),
        ("AdaptationPolicy", "calibration_smoothing", 0.5),
        ("AdaptationPolicy", "calibration_window", 4),
        ("AdaptationPolicy", "min_columnar_batch", 4),
        ("AdaptationPolicy", "registry", None),
        ("FilterService", "service_id", "svc"),
        ("FilterService", "retry_attempts", 3),
        ("FilterService", "retry_backoff", 0.01),
        ("IndexPlanner", "hybrid", True),
        ("PredicateIndexMatcher", "min_columnar_batch", 4),
        ("FilterService", "quenching", True),
        ("FilterService", "overflow", "raise"),
        ("Broker", "enable_quenching", True),
        ("Broker", "overflow", "drop_oldest"),
        ("Broker", "configuration", None),
        ("AdaptiveFilterEngine", "initial_configuration", None),
        ("DeliveryDispatcher", "overflow", "raise"),
        ("ThreadPoolDeliveryExecutor", "overflow", "raise"),
        ("WebhookDeliveryExecutor", "overflow", "raise"),
    ],
)
def test_retired_knobs_are_rejected(owner, knob, value):
    """Settable values no committed caller set were deleted, not hidden:
    passing one is a ``TypeError``."""
    with pytest.raises(TypeError, match=knob):
        _retired_knob_owners()[owner](**{knob: value})


class TestPublishing:
    def test_quickstart_flow(self):
        service = make_service()
        service.subscribe_all(list(environmental_profiles(service.schema)))
        outcome = service.publish(example_event())
        assert sorted(outcome.match_result.matched_profile_ids) == ["P2", "P5"]
        assert outcome.delivered == 2

    def test_plain_mappings_become_events(self):
        service = make_service()
        service.subscribe(where("temperature").at_least(40), subscriber="a")
        event = example_event()
        outcome = service.publish({name: event[name] for name in event.attributes()})
        assert outcome.match_result is not None

    def test_publish_batch_equals_sequential_publish(self):
        workload = build_workload(
            get_profile("stock-ticker").spec.with_counts(profile_count=30, event_count=80)
        )
        events = list(workload.events)
        sequential = FilterService(workload.schema, engine="index", adaptive=False)
        batched = FilterService(workload.schema, engine="index", adaptive=False)
        for service in (sequential, batched):
            service.subscribe_all(list(workload.profiles))
        outcomes_a = [sequential.publish(event) for event in events]
        outcomes_b = batched.publish_batch(events)
        assert [o.match_result.matched_profile_ids for o in outcomes_a] == [
            o.match_result.matched_profile_ids for o in outcomes_b
        ]

    @pytest.mark.parametrize("batched", [False, True], ids=["publish", "publish_batch"])
    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), float("nan")], ids=["huge", "-huge", "nan"]
    )
    def test_a_value_outside_a_continuous_domain_raises_event_error(self, value, batched):
        # 10**400 is beyond the float range: the domain check used to
        # convert it with float() and raise OverflowError instead.
        service = make_service()
        service.subscribe(where("temperature").at_least(40), subscriber="a")
        event = example_event()
        values = {name: event[name] for name in event.attributes()}
        values["temperature"] = value
        with pytest.raises(EventError, match="outside the domain of attribute 'temperature'"):
            if batched:
                service.publish_batch([example_event(), values])
            else:
                service.publish(values)
        assert service.stats().events == 0

    def test_sink_receives_notifications(self):
        received = []
        service = make_service()
        service.subscribe(
            where("temperature").at_least(20), subscriber="a", sink=received.append
        )
        service.publish(example_event())
        assert len(received) == 1
        assert received[0].subscriber == "a"


class TestRangeBoundsPastTheFloatRange:
    """A range bound past the float range is a plain bound: it used to
    raise a bare ``OverflowError`` wherever something converted it to
    ``float`` (the NaN check, the slab walk, the interval display)."""

    HUGE = 10**400

    def huge_profiles(self) -> list[Profile]:
        return [
            Profile("at-most", {"x": RangePredicate.at_most(self.HUGE)}),
            Profile("at-least", {"x": RangePredicate.at_least(-self.HUGE)}),
            Profile("both", {"x": RangePredicate.between(-self.HUGE, self.HUGE)}),
            Profile("low-half", {"x": RangePredicate.between(-self.HUGE, 50)}),
            Profile("middle", {"x": RangePredicate.between(10, 20, high_closed=False)}),
        ]

    @pytest.mark.parametrize("domain", [IntegerDomain(0, 99), ContinuousDomain(0.0, 99.0)])
    @pytest.mark.parametrize("engine", ["index", "tree", "naive", "auto"])
    def test_every_engine_matches_what_the_oracle_matches(self, engine, domain):
        schema = Schema([Attribute("x", domain)])
        profiles = self.huge_profiles()
        oracle = NaiveMatcher(ProfileSet(schema, profiles))
        # Enough events for the columnar batch kernel; the continuous
        # domain gets ints and floats.
        if isinstance(domain, IntegerDomain):
            values = list(range(100))
        else:
            values = [v if v % 3 else float(v) for v in range(100)]
        events = [Event({"x": value}) for value in values]
        expected = [oracle.match(event).matched_profile_ids for event in events]
        assert all(expected) and any(len(ids) < len(profiles) for ids in expected)
        for batched in (False, True):
            with FilterService(schema, engine=engine) as service:
                for subscription in profiles:
                    service.subscribe(subscription)
                if batched:
                    outcomes = service.publish_batch(events)
                else:
                    outcomes = [service.publish(event) for event in events]
                matched = [outcome.match_result.matched_profile_ids for outcome in outcomes]
            assert matched == expected, (engine, batched)

    def test_describe_prints_the_bound(self):
        assert RangePredicate.at_most(self.HUGE).describe() == f"in [-inf, {self.HUGE}]"
        assert RangePredicate.at_least(-self.HUGE).describe() == f"in [{-self.HUGE}, inf]"

    def test_a_nan_bound_still_raises_domain_error(self):
        with pytest.raises(DomainError, match="NaN"):
            RangePredicate.at_most(float("nan"))
        with pytest.raises(DomainError, match="NaN"):
            RangePredicate.at_least(float("nan"))


class TestSubscribing:
    def test_builder_profiles_get_generated_ids(self):
        service = make_service()
        first = service.subscribe(where("temperature").at_least(10))
        second = service.subscribe(where("humidity").at_most(50))
        assert first.profile.profile_id == "profile-1"
        assert second.profile.profile_id == "profile-2"

    def test_generated_ids_skip_user_taken_names(self):
        service = make_service()
        service.subscribe(
            Profile("profile-1", {"temperature": Equals(20)}), subscriber="a"
        )
        handle = service.subscribe(where("humidity").at_most(50))
        assert handle.profile.profile_id == "profile-2"

    def test_explicit_profile_id_wins(self):
        service = make_service()
        handle = service.subscribe(where("temperature").eq(20), profile_id="alarm")
        assert handle.profile.profile_id == "alarm"

    def test_profile_objects_pass_through_unchanged(self):
        service = make_service()
        item = Profile("mine", {"temperature": Equals(20)})
        handle = service.subscribe(item, subscriber="a")
        assert handle.profile is item
        with pytest.raises(ProfileError, match="conflicts"):
            service.subscribe(Profile("x", {}), profile_id="y")

    def test_rejects_other_types(self):
        service = make_service()
        with pytest.raises(ProfileError, match="Profile or ProfileBuilder"):
            service.subscribe({"temperature": Equals(20)})

    @pytest.mark.parametrize("engine", ["auto", "index", "tree", "naive"])
    def test_subscribe_validates_each_profile_once(self, engine, monkeypatch):
        """The registry's schema check is the only one: the filter side
        registers the already-validated profile unchecked."""
        validated = []
        validate = Profile.validate

        def counting(profile, schema):
            validated.append(profile.profile_id)
            validate(profile, schema)

        monkeypatch.setattr(Profile, "validate", counting)
        service = make_service(engine=engine)
        for index in range(10):
            service.subscribe(Profile(f"P{index}", {"temperature": Equals(20 + index)}))
            assert validated == [f"P{i}" for i in range(index + 1)]
        handle = service.subscribe(where("humidity").at_most(50), profile_id="humid")
        assert validated[-1] == "humid" and len(validated) == 11
        handle.cancel()
        service.subscribe(Profile("P3-again", {"temperature": Equals(3)}))
        assert len(validated) == 12

    def test_unchecked_path_leaves_public_adds_validating(self):
        schema = environmental_schema()
        bad = Profile("bad", {"no-such-attribute": Equals(1)})
        with pytest.raises(ProfileError, match="unknown attribute"):
            ProfileSet(schema).add(bad)
        with pytest.raises(ProfileError, match="unknown attribute"):
            PredicateIndexMatcher(ProfileSet(schema)).add_profile(bad)
        with pytest.raises(ProfileError, match="unknown attribute"):
            make_service(engine="index").subscribe(bad)

    def test_handle_lookup(self):
        service = make_service()
        handle = service.subscribe(where("temperature").eq(20))
        assert service.handle(handle.subscription_id) is handle
        assert service.handles() == [handle]
        with pytest.raises(SubscriptionError):
            service.handle("nope")


class TestStats:
    def test_empty_service_snapshot(self):
        snapshot = make_service().stats()
        assert isinstance(snapshot, ServiceStats)
        assert snapshot.events == 0
        assert snapshot.engine == "auto"
        assert snapshot.engine_family is None
        assert snapshot.adaptations == ()
        assert snapshot.batch_dedup_factor == 1.0

    def test_snapshot_merges_filter_statistics(self):
        service = make_service()
        service.subscribe_all(list(environmental_profiles(service.schema)))
        for _ in range(3):
            service.publish(example_event())
        snapshot = service.stats()
        assert snapshot.events == 3
        assert snapshot.matched_events == 3
        assert snapshot.notifications == 6
        assert snapshot.engine_family == "index"  # auto is the index family
        assert snapshot.average_matches_per_event == pytest.approx(2.0)
        assert snapshot.operations > 0
        assert snapshot.subscriptions == 5
        assert snapshot.match_rate == pytest.approx(1.0)

    @pytest.mark.parametrize(
        ("engine", "family"),
        [("tree", "tree"), ("index", "index"), ("naive", "naive"), ("auto", "index")],
    )
    def test_every_engine_reports_the_family_it_runs(self, engine, family):
        """Each name on the closed roster is selectable, matches, and
        reports its family; ``engines()`` lists the same roster."""
        service = make_service(engine=engine)
        service.subscribe_all(list(environmental_profiles(service.schema)))
        outcome = service.publish(example_event())
        assert sorted(outcome.match_result.matched_profile_ids) == ["P2", "P5"]
        snapshot = service.stats()
        assert snapshot.engine == engine
        assert snapshot.engine_family == family
        assert service.engines() == ("tree", "index", "naive", "auto")

    def test_summary_after_every_notified_profile_is_cancelled(self):
        """The per-profile average has nothing left to average over once
        the only notified profile is gone, and reads NaN."""
        schema = Schema([Attribute("x", IntegerDomain(0, 9))])
        service = FilterService(schema, delivery="inline")
        handle = service.subscribe(Profile("P1", {"x": Equals(3)}))
        service.publish(Event({"x": 3}))
        handle.cancel()
        summary = service.broker.statistics.summary()
        assert math.isnan(summary["avg_operations_per_profile"])
        assert summary["events"] == 1.0 and summary["match_rate"] == 1.0
        assert summary["avg_operations_per_event_and_profile"] > 0

    def test_snapshot_merges_kernel_stats_from_batches(self):
        workload = build_workload(
            get_profile("stock-ticker").spec.with_counts(profile_count=40, event_count=200)
        )
        service = FilterService(
            workload.schema,
            adaptive=False,
            policy=AdaptationPolicy(engine="index"),
        )
        service.subscribe_all(list(workload.profiles))
        service.publish_batch(list(workload.events))
        snapshot = service.stats()
        assert snapshot.kernel.events == 200
        assert snapshot.kernel.charged_operations == snapshot.operations
        assert snapshot.batch_dedup_factor > 1.0

    def test_kernel_stats_count_every_event_across_an_applied_replan(self):
        """An index replan keeps the matcher and its kernel stats, so the
        batch kernel's event count stays whole across applied decisions,
        and a snapshot is a copy that later publishes leave alone."""
        workload = build_workload(
            get_profile("aml-transactions").spec.with_counts(profile_count=200, event_count=400)
        )
        service = FilterService(
            workload.schema,
            policy=AdaptationPolicy(engine="auto", reoptimize_interval=100, warmup_events=100),
        )
        service.subscribe_all(list(workload.profiles))
        events = list(workload.events)
        service.publish_batch(events[:100])
        first = service.stats().kernel
        for start in range(100, 400, 100):
            service.publish_batch(events[start : start + 100])
        snapshot = service.stats()
        assert snapshot.applied_adaptations >= 1
        assert snapshot.kernel.events == snapshot.events == 400
        assert first.events == 100
        engine = service.broker.engine
        assert engine.kernel_stats() is not engine.matcher.kernel_stats

    def test_snapshot_merges_adaptation_history(self):
        workload = build_workload(
            get_profile("stock-ticker").spec.with_counts(profile_count=30, event_count=500)
        )
        service = FilterService(
            workload.schema,
            policy=AdaptationPolicy(
                engine="auto", reoptimize_interval=100, warmup_events=100
            ),
        )
        service.subscribe_all(list(workload.profiles))
        for event in workload.events:
            service.publish(event)
        snapshot = service.stats()
        assert snapshot.adaptations
        assert snapshot.applied_adaptations == sum(
            1 for r in snapshot.adaptations if r.applied
        )
        assert [r.engine for r in snapshot.adaptations] == ["index"] * 5
        assert snapshot.engine_family == "index"

    def test_events_no_subscription_matches_are_still_counted(self):
        service = make_service()
        # The only subscriber pins temperature to one point the event misses.
        service.subscribe(where("temperature").eq(0))
        outcome = service.publish(example_event())
        assert outcome.delivered == 0
        snapshot = service.stats()
        assert (snapshot.events, snapshot.matched_events, snapshot.notifications) == (1, 0, 0)
        assert snapshot.match_rate == 0.0
