"""Tests for subscriptions, notifications and the single broker."""

import pytest
from history_reference import validate_each

from repro.core.domains import IntegerDomain
from repro.core.errors import EventError, ServiceError, SubscriptionError
from repro.core.events import Event
from repro.core.predicates import RangePredicate
from repro.core.profiles import profile
from repro.core.schema import Attribute, Schema
from repro.service.adaptive import AdaptationPolicy
from repro.service.broker import Broker
from repro.service.notifications import Notification, NotificationLog
from repro.service.subscriptions import SubscriptionRegistry
from repro.workloads.toy import environmental_profiles, environmental_schema, example_event


def price_schema() -> Schema:
    return Schema([Attribute("price", IntegerDomain(0, 199))])


class TestSubscriptionRegistry:
    def test_subscribe_and_lookup(self):
        registry = SubscriptionRegistry(price_schema())
        subscription = registry.subscribe(profile("P1", price=50), "alice")
        assert subscription.subscription_id in registry
        assert registry.by_profile_id("P1").subscriber == "alice"
        assert registry.subscribers() == ["alice"]
        assert len(registry) == 1

    def test_duplicate_profile_rejected(self):
        registry = SubscriptionRegistry(price_schema())
        registry.subscribe(profile("P1", price=50), "alice")
        with pytest.raises(SubscriptionError):
            registry.subscribe(profile("P1", price=60), "bob")

    def test_unsubscribe(self):
        registry = SubscriptionRegistry(price_schema())
        subscription = registry.subscribe(profile("P1", price=50), "alice")
        registry.unsubscribe(subscription.subscription_id)
        assert len(registry) == 0
        with pytest.raises(SubscriptionError):
            registry.unsubscribe(subscription.subscription_id)

    def test_invalid_profile_rejected(self):
        registry = SubscriptionRegistry(price_schema())
        with pytest.raises(Exception):
            registry.subscribe(profile("P1", price=1000), "alice")

    def test_profile_set_reflects_registered_profiles(self):
        registry = SubscriptionRegistry(price_schema())
        registry.subscribe(profile("P1", price=50), "alice")
        registry.subscribe(profile("P2", price=60), "bob")
        assert sorted(registry.profile_set().ids()) == ["P1", "P2"]


class TestNotificationLog:
    def test_collects_and_groups(self):
        log = NotificationLog()
        event = Event({"price": 10})
        log.deliver(Notification(event, "P1", subscriber="alice"))
        log.deliver(Notification(event, "P1", subscriber="alice"))
        log.deliver(Notification(event, "P2", subscriber="bob"))
        assert len(log) == 3
        assert log.count_per_profile() == {"P1": 2, "P2": 1}
        assert log.count_per_subscriber() == {"alice": 2, "bob": 1}
        assert len(log.for_profile("P1")) == 2
        assert len(log.for_subscriber("bob")) == 1
        log.clear()
        assert len(log) == 0

    def test_counts_stay_exact_across_bulk_records_reads_and_clear(self):
        """The counts are folded in when read; interleaving must not skew them."""
        log = NotificationLog()
        event = Event({"price": 10})
        log.deliver_all([Notification(event, "P1", subscriber="alice")] * 2)
        assert log.count_per_profile() == {"P1": 2}
        log.deliver_all([Notification(event, "P2"), Notification(event, "P1", subscriber="bob")])
        log.deliver(Notification(event, "P2", subscriber="bob"))
        assert log.count_per_subscriber() == {"alice": 2, "bob": 2}  # anonymous not counted
        assert log.count_per_profile() == {"P1": 3, "P2": 2}
        log.clear()
        log.deliver(Notification(event, "P3", subscriber="carol"))
        assert log.count_per_profile() == {"P3": 1}
        assert log.count_per_subscriber() == {"carol": 1}


class TestBroker:
    def toy_broker(self, **kwargs) -> Broker:
        broker = Broker(environmental_schema(), **kwargs)
        for item in environmental_profiles():
            broker.subscribe(item, subscriber=f"user-{item.profile_id}")
        return broker

    def test_publish_delivers_notifications(self):
        broker = self.toy_broker()
        outcome = broker.publish(example_event())
        assert outcome.delivered == 2
        assert sorted(n.profile_id for n in outcome.notifications) == ["P2", "P5"]
        assert broker.notification_log.count_per_profile() == {"P2": 1, "P5": 1}
        assert broker.statistics.events == 1

    def test_publish_without_subscriptions_delivers_nothing(self):
        broker = Broker(environmental_schema())
        outcome = broker.publish(example_event())
        assert outcome.delivered == 0
        assert outcome.match_result is None
        with pytest.raises(ServiceError):
            broker.engine

    def test_subscriber_sink_is_invoked(self):
        broker = Broker(environmental_schema())
        received = []
        broker.subscribe(
            profile("hot", temperature=RangePredicate.at_least(30)),
            "alice",
            sink=received.append,
        )
        broker.publish(example_event())
        assert len(received) == 1
        assert received[0].subscriber == "alice"

    def test_unsubscribe_stops_notifications(self):
        broker = Broker(environmental_schema())
        subscription = broker.subscribe(
            profile("hot", temperature=RangePredicate.at_least(30)), "alice"
        )
        assert broker.publish(example_event()).delivered == 1
        broker.unsubscribe(subscription.subscription_id)
        assert broker.publish(example_event()).delivered == 0

    def test_quenching_drops_unmatchable_events(self):
        broker = Broker(environmental_schema(), enable_quenching=True)
        broker.subscribe(
            profile(
                "alarm",
                temperature=RangePredicate.at_least(45),
                humidity=RangePredicate.at_least(90),
                radiation=RangePredicate.at_least(90),
            ),
            "ops",
        )
        cold = Event({"temperature": 0, "humidity": 95, "radiation": 95})
        outcome = broker.publish(cold)
        assert outcome.quenched
        assert broker.quenched_events == 1
        # Quenched events never reach the filter statistics.
        assert broker.statistics.events == 0

    def test_statistics_accumulate_over_events(self):
        broker = self.toy_broker()
        events = [
            example_event(),
            Event({"temperature": 40, "humidity": 95, "radiation": 40}),
            Event({"temperature": 0, "humidity": 50, "radiation": 10}),
        ]
        broker.publish_all(events)
        assert broker.statistics.events == 3
        assert broker.statistics.matched_events == 2
        assert broker.statistics.average_operations_per_event() > 0

    def test_publish_accepts_partial_events(self):
        # Partial events (a subset of the schema) are accepted; a profile
        # constraining a missing attribute simply does not match.  This is
        # the semantics the broker overlay relies on for its equivalence
        # to the central service.
        broker = self.toy_broker()
        event = Event({"temperature": 10})
        outcome = broker.publish(event)
        expected = sorted(
            p.profile_id for p in environmental_profiles() if p.matches(event)
        )
        assert sorted(outcome.match_result.matched_profile_ids) == expected

    def test_publish_validates_events(self):
        broker = self.toy_broker()
        # Unknown attributes and out-of-domain values still reject.
        with pytest.raises(Exception):
            broker.publish(Event({"temperature": 10_000}))
        with pytest.raises(Exception):
            broker.publish(Event({"no_such_attribute": 1}))

    def test_engine_is_chosen_only_through_the_adaptation_policy(self):
        with pytest.raises(TypeError, match="engine"):
            Broker(environmental_schema(), engine="index")
        broker = self.toy_broker(adaptation_policy=AdaptationPolicy(engine="index"))
        assert broker.engine.engine_family == "index"
        assert broker.publish(example_event()).delivered == 2


class TestBatchAdmission:
    """``publish_batch`` validates column by column; the per-event loop
    (``history_reference.validate_each``) still defines every rejection."""

    @staticmethod
    def price_broker(schema: Schema | None = None) -> Broker:
        broker = Broker(
            schema or price_schema(), adaptation_policy=AdaptationPolicy(engine="index")
        )
        broker.subscribe(profile("cheap", price=RangePredicate.between(0, 50)), subscriber="ann")
        broker.subscribe(profile("exact", price=7), subscriber="bob")
        return broker

    @staticmethod
    def observable_state(broker: Broker):
        history = broker.engine.history
        return (
            broker.statistics.events,
            broker.statistics.total_notifications,
            broker.notification_log.all(),
            history.events(),
            history.counter("price").counts(),
            broker.quenched_events,
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"price": 500},  # outside the domain
            {"price": 7, "volume": 1},  # unknown attribute
            {"volume": 1},  # unknown attribute in place of the column
            {"price": True},  # True == 1, but no integer
            {"price": 7.0},  # 7.0 == 7, but no integer
            {"price": [7]},  # unhashable
        ],
    )
    def test_invalid_batch_is_rejected_atomically_with_the_per_event_error(self, bad):
        good = [Event({"price": price}) for price in (7, 1, 60, 7, 1)]
        batch = good[:3] + [Event(bad)] + good[3:]
        with pytest.raises(EventError) as expected:
            validate_each(batch, price_schema())

        touched, untouched = self.price_broker(), self.price_broker()
        for broker in (touched, untouched):
            broker.publish_batch(good)
        before = self.observable_state(touched)
        with pytest.raises(EventError) as raised:
            touched.publish_batch(batch)
        assert str(raised.value) == str(expected.value)
        assert self.observable_state(touched) == before
        # The clock did not advance either: the next batch is stamped as
        # on a broker that never saw the rejected one.
        stamps = [
            [n.delivered_at for outcome in broker.publish_batch(good) for n in outcome.notifications]
            for broker in (touched, untouched)
        ]
        assert stamps[0] == stamps[1] and stamps[0]

    def test_partial_and_mixed_type_batches_are_still_accepted(self):
        schema = Schema(
            [Attribute("price", IntegerDomain(0, 199)), Attribute("volume", IntegerDomain(0, 9))]
        )
        batched, sequential = self.price_broker(schema), self.price_broker(schema)
        events = [Event({"price": 7, "volume": 1}), Event({"price": 7}), Event({"volume": 3})]
        outcomes = batched.publish_batch(events)
        expected = [sequential.publish(event) for event in events]
        assert [o.match_result.matched_profile_ids for o in outcomes] == [
            o.match_result.matched_profile_ids for o in expected
        ]
        assert self.observable_state(batched)[3:] == self.observable_state(sequential)[3:]

    def test_membership_checks_scale_with_distinct_values_not_events(self):
        # Deterministic work guard: a batch of 250 events over 10 distinct
        # values per attribute may check each *distinct* value a fixed
        # number of times (once to admit the batch, once more to feed the
        # history) — never once per occurrence, as the per-event loop did
        # (3 checks x 250 events per attribute).
        checks: dict[str, int] = {"price": 0, "volume": 0}

        def counting_domain(name: str) -> IntegerDomain:
            class Counting(IntegerDomain):
                def __contains__(self, value: object) -> bool:
                    checks[name] += 1
                    return super().__contains__(value)

            return Counting(0, 199)

        schema = Schema(
            [Attribute("price", counting_domain("price")), Attribute("volume", counting_domain("volume"))]
        )
        broker = self.price_broker(schema)
        distinct = 10
        events = [
            Event({"price": i % distinct, "volume": (7 * i) % distinct}) for i in range(250)
        ]
        for name in checks:
            checks[name] = 0  # subscribing may consult the domains
        outcomes = broker.publish_batch(events)
        assert len(outcomes) == 250 and broker.engine.history.counter("price").total == 250
        assert checks == {"price": 2 * distinct, "volume": 2 * distinct}


class TestIncrementalSubscriptionChurn:
    """Subscribe/unsubscribe go through the matcher's incremental
    maintenance — the filter engine object (and its history) survives."""

    def test_engine_survives_subscription_churn(self):
        broker = Broker(
            environmental_schema(), adaptation_policy=AdaptationPolicy(engine="index")
        )
        first = broker.subscribe(
            profile("hot", temperature=RangePredicate.at_least(30)), "alice"
        )
        engine_before = broker.engine
        broker.publish(example_event())
        second = broker.subscribe(
            profile("humid", humidity=RangePredicate.at_least(80)), "bob"
        )
        broker.unsubscribe(first.subscription_id)
        assert broker.engine is engine_before
        # History kept: the engine saw the pre-churn event.
        assert len(broker.engine.history) == 1
        outcome = broker.publish(example_event())
        assert [n.profile_id for n in outcome.notifications] == ["humid"]
        broker.unsubscribe(second.subscription_id)
        # Contract: with no subscriptions left there is no engine.
        with pytest.raises(ServiceError):
            broker.engine

    @pytest.mark.parametrize("engine", ["tree", "index", "auto"])
    def test_churned_broker_matches_fresh_broker(self, engine):
        churned = Broker(
            environmental_schema(), adaptation_policy=AdaptationPolicy(engine=engine)
        )
        doomed = [
            churned.subscribe(profile(f"tmp-{i}", temperature=i * 4), "t")
            for i in range(5)
        ]
        for item in environmental_profiles():
            churned.subscribe(item, subscriber=f"user-{item.profile_id}")
        for subscription in doomed:
            churned.unsubscribe(subscription.subscription_id)

        fresh = Broker(
            environmental_schema(), adaptation_policy=AdaptationPolicy(engine=engine)
        )
        for item in environmental_profiles():
            fresh.subscribe(item, subscriber=f"user-{item.profile_id}")

        events = [
            example_event(),
            Event({"temperature": 40, "humidity": 95, "radiation": 40}),
            Event({"temperature": 0, "humidity": 50, "radiation": 10}),
            Event({"temperature": 16, "humidity": 80, "radiation": 1}),
        ]
        for event in events:
            a = churned.publish(event)
            b = fresh.publish(event)
            assert (
                a.match_result.matched_profile_ids == b.match_result.matched_profile_ids
            )

    def test_failed_subscribe_all_rolls_back_registry(self):
        broker = Broker(environmental_schema())
        keeper = broker.subscribe(
            profile("keep", temperature=RangePredicate.at_least(30)), "alice"
        )
        batch = [
            profile("new-1", humidity=RangePredicate.at_least(80)),
            profile("keep", temperature=RangePredicate.at_least(10)),  # duplicate id
        ]
        with pytest.raises(SubscriptionError):
            broker.subscribe_all(batch)
        # The partial batch was rolled back: registry and engine agree.
        assert len(broker.subscriptions) == 1
        assert broker.publish(example_event()).delivered == 1
        broker.unsubscribe(keeper.subscription_id)
        assert broker.publish(example_event()).delivered == 0

    def test_quenching_tracks_churn(self):
        broker = Broker(environmental_schema(), enable_quenching=True)
        subscription = broker.subscribe(
            profile(
                "alarm",
                temperature=RangePredicate.at_least(45),
                humidity=RangePredicate.at_least(90),
                radiation=RangePredicate.at_least(90),
            ),
            "ops",
        )
        cold = Event({"temperature": 0, "humidity": 95, "radiation": 95})
        assert broker.publish(cold).quenched
        broker.subscribe(profile("cold", temperature=RangePredicate.at_most(5)), "ops")
        # The quencher's coverage must have been refreshed incrementally.
        assert not broker.publish(cold).quenched
        broker.unsubscribe(subscription.subscription_id)
        hot_only = Event({"temperature": 50, "humidity": 0, "radiation": 1})
        assert broker.publish(hot_only).quenched
