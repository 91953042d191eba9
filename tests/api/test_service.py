"""The FilterService facade: construction, publishing, merged stats."""

import pytest

from repro.core.errors import EventError, ProfileError, ServiceError, SubscriptionError
from repro.core.profiles import Profile, ProfileSet
from repro.core.predicates import Equals
from repro.api import (
    AdaptationPolicy,
    FilterService,
    ServiceStats,
    where,
)
from repro.matching.index import PredicateIndexMatcher
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
        assert service.engines() == (
            "tree",
            "index",
            "hybrid",
            "naive",
            "auto",
        )

    def test_engine_name_is_resolved_through_the_registry(self):
        service = make_service(engine="index")
        assert service.policy.engine == "index"
        with pytest.raises(ServiceError, match="unknown engine"):
            make_service(engine="quantum")

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
    from repro.analysis.calibration import CostCalibrator
    from repro.matching.index import PredicateIndexMatcher
    from repro.matching.registry import EngineContext, EngineSpec
    from repro.matching.tree.config import SearchStrategy
    from repro.selectivity import AttributeMeasure, ValueMeasure
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
        "EngineSpec": lambda **kwargs: EngineSpec(
            name="x", factory=lambda ctx: None, **kwargs
        ),
        "CostCalibrator": CostCalibrator,
        "PredicateIndexMatcher": lambda **kwargs: PredicateIndexMatcher(
            environmental_profiles(environmental_schema()), **kwargs
        ),
        "Broker": lambda **kwargs: Broker(environmental_schema(), **kwargs),
        "AdaptiveFilterEngine": lambda **kwargs: AdaptiveFilterEngine(
            environmental_profiles(environmental_schema()), **kwargs
        ),
        "EngineContext": lambda **kwargs: EngineContext(
            environmental_profiles(environmental_schema()),
            AttributeMeasure.A2_ZERO_PROBABILITY,
            ValueMeasure.V1_EVENT,
            SearchStrategy.LINEAR,
            **kwargs,
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
        ("EngineSpec", "capabilities", None),
        ("EngineSpec", "min_columnar_batch", 4),
        ("CostCalibrator", "smoothing", 0.5),
        ("CostCalibrator", "window", 4),
        ("PredicateIndexMatcher", "min_columnar_batch", 4),
        ("FilterService", "quenching", True),
        ("FilterService", "overflow", "raise"),
        ("Broker", "enable_quenching", True),
        ("Broker", "overflow", "drop_oldest"),
        ("Broker", "configuration", None),
        ("AdaptiveFilterEngine", "initial_configuration", None),
        ("EngineContext", "initial_configuration", None),
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

    @pytest.mark.parametrize("engine", ["auto", "index", "hybrid", "tree", "naive"])
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
        assert snapshot.engine_family == "index"  # auto starts on index
        assert snapshot.average_matches_per_event == pytest.approx(2.0)
        assert snapshot.operations > 0
        assert snapshot.subscriptions == 5
        assert snapshot.match_rate == pytest.approx(1.0)

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
        assert all(r.engine in ("tree", "index") for r in snapshot.adaptations)

    def test_events_no_subscription_matches_are_still_counted(self):
        service = make_service()
        # The only subscriber pins temperature to one point the event misses.
        service.subscribe(where("temperature").eq(0))
        outcome = service.publish(example_event())
        assert outcome.delivered == 0
        snapshot = service.stats()
        assert (snapshot.events, snapshot.matched_events, snapshot.notifications) == (1, 0, 0)
        assert snapshot.match_rate == 0.0
