"""Durable subscription handles: pause/resume/modify/cancel.

The life-cycle must ride the engine's incremental maintenance: the engine
object (and with it the event history and the adaptation record list)
survives any sequence of handle operations, and matching stays correct
throughout — also while adaptive replanning keeps restructuring the
matcher underneath.
"""

import gc
import random
import weakref

import pytest

from repro.core.errors import SubscriptionError
from repro.core.events import Event
from repro.api import AdaptationPolicy, FilterService, where
from repro.workloads import environmental_schema, example_event


def alarm_service(**policy_kwargs) -> FilterService:
    policy = AdaptationPolicy(engine=policy_kwargs.pop("engine", "index"), **policy_kwargs)
    return FilterService(environmental_schema(), policy=policy, adaptive=True)


class TestLifecycle:
    def test_pause_stops_and_resume_restores_delivery(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20), subscriber="a")
        other = service.subscribe(where("humidity").at_least(50), subscriber="b")
        assert service.publish(example_event()).delivered == 2

        handle.pause()
        assert handle.is_paused and not handle.is_active
        outcome = service.publish(example_event())
        assert [n.profile_id for n in outcome.notifications] == [other.profile.profile_id]
        assert service.stats().paused_subscriptions == 1

        handle.resume()
        assert handle.is_active
        assert service.publish(example_event()).delivered == 2
        assert service.stats().paused_subscriptions == 0

    def test_pause_and_resume_are_idempotent(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        assert handle.resume() is handle  # resuming an active handle: no-op
        handle.pause()
        assert handle.pause() is handle  # pausing a paused handle: no-op
        assert handle.is_paused
        handle.resume()
        assert handle.is_active

    def test_modify_swaps_the_predicates_in_place(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20), subscriber="a")
        profile_id = handle.profile.profile_id
        subscription_id = handle.subscription_id
        assert service.publish(example_event()).delivered == 1

        handle.modify(where("temperature").at_least(49))
        assert handle.profile.profile_id == profile_id  # identity survives
        assert handle.subscription_id == subscription_id
        assert service.publish(example_event()).delivered == 0

        handle.modify(where("temperature").at_least(10))
        assert service.publish(example_event()).delivered == 1

    def test_modify_while_paused_applies_on_resume(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(49))
        assert service.publish(example_event()).delivered == 0
        handle.pause()
        handle.modify(where("temperature").at_least(10))
        assert service.publish(example_event()).delivered == 0  # still paused
        handle.resume()
        assert service.publish(example_event()).delivered == 1

    def test_cancel_is_terminal(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        handle.cancel()
        assert handle.is_cancelled
        assert service.handles() == []
        for operation in (handle.pause, handle.resume, handle.cancel):
            with pytest.raises(SubscriptionError, match="cancelled"):
                operation()
        with pytest.raises(SubscriptionError, match="cancelled"):
            handle.modify(where("temperature").at_least(10))

    def test_cancel_while_paused(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        keep = service.subscribe(where("humidity").at_least(50))
        handle.pause()
        handle.cancel()
        assert service.stats().paused_subscriptions == 0
        assert service.stats().subscriptions == 1
        assert service.publish(example_event()).delivered == 1
        assert keep.is_active

    def test_notifications_received_counts_per_handle(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        for _ in range(3):
            service.publish(example_event())
        assert handle.notifications_received() == 3

    def test_a_new_handle_on_a_cancelled_profile_id_counts_from_zero(self):
        service = alarm_service()
        first = service.subscribe(where("temperature").at_least(20), profile_id="P1")
        service.publish(example_event())
        service.publish(example_event())
        assert first.notifications_received() == 2
        first.cancel()
        second = service.subscribe(where("temperature").at_least(20), profile_id="P1")
        assert second.notifications_received() == 0
        service.publish(example_event())
        assert second.notifications_received() == 1


class TestLifecycleUnderReplanning:
    """Handle churn while the adaptive engine keeps restructuring."""

    def drive(self, service: FilterService, count: int, seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(count):
            service.publish(
                Event(
                    {
                        "temperature": rng.uniform(-30, 50),
                        "humidity": rng.uniform(0, 100),
                        "radiation": rng.uniform(1, 100),
                    }
                )
            )

    @pytest.mark.parametrize("engine", ["tree", "index", "auto"])
    def test_engine_and_history_survive_handle_churn(self, engine):
        service = alarm_service(
            engine=engine, reoptimize_interval=50, warmup_events=50
        )
        handles = [
            service.subscribe(
                where("temperature").between(low, low + 15), subscriber=f"user-{low}"
            )
            for low in range(-30, 30, 5)
        ]
        self.drive(service, 120, seed=1)
        engine_object = service.broker.engine
        adaptations_before = len(service.stats().adaptations)
        assert adaptations_before > 0

        # Pause/modify/resume/cancel churn: the engine object must never
        # be rebuilt, and the history/adaptation state must survive.
        handles[0].pause()
        handles[1].modify(where("humidity").at_least(90))
        handles[2].cancel()
        handles[0].resume()
        assert service.broker.engine is engine_object

        self.drive(service, 120, seed=2)
        assert service.broker.engine is engine_object
        assert len(service.stats().adaptations) >= adaptations_before

    def test_replanning_respects_paused_and_modified_profiles(self):
        """After heavy replanning, delivery still reflects the latest
        handle state: paused handles get nothing, modified handles match
        their new predicates only."""
        service = alarm_service(
            engine="auto", reoptimize_interval=40, warmup_events=40
        )
        hot = service.subscribe(where("temperature").at_least(40), subscriber="hot")
        cold = service.subscribe(where("temperature").at_most(-20), subscriber="cold")
        mid = service.subscribe(
            where("temperature").between(-5, 5), subscriber="mid"
        )
        self.drive(service, 150, seed=3)
        cold.pause()
        mid.modify(where("humidity").at_least(95))
        self.drive(service, 150, seed=4)

        outcome = service.publish(
            Event({"temperature": -25, "humidity": 99, "radiation": 10})
        )
        subscribers = sorted(n.subscriber for n in outcome.notifications)
        assert subscribers == ["mid"]  # cold is paused; mid matches via humidity
        cold.resume()
        outcome = service.publish(
            Event({"temperature": -25, "humidity": 99, "radiation": 10})
        )
        assert sorted(n.subscriber for n in outcome.notifications) == ["cold", "mid"]

    def test_pausing_the_sole_subscription_keeps_the_engine(self):
        """Pause/modify of the last live profile must not tear the engine
        down: history, adaptation records and kernel stats survive."""
        service = alarm_service(reoptimize_interval=10, warmup_events=10)
        handle = service.subscribe(where("temperature").at_least(20))
        self.drive(service, 30, seed=7)
        engine_object = service.broker.engine
        history_before = len(engine_object.history)
        assert history_before > 0

        handle.pause()
        assert service.broker.engine is engine_object
        self.drive(service, 5, seed=8)  # filtering continues, history grows
        handle.resume()
        assert service.broker.engine is engine_object
        assert len(engine_object.history) == history_before + 5

        handle.modify(where("temperature").at_least(10))
        assert service.broker.engine is engine_object
        assert service.publish(example_event()).delivered == 1

    def test_unsubscribing_the_last_live_handle_keeps_paused_state(self):
        """The engine survives while any (paused) subscription remains."""
        service = alarm_service()
        paused = service.subscribe(where("temperature").at_least(20))
        live = service.subscribe(where("humidity").at_least(50))
        paused.pause()
        engine_object = service.broker.engine
        live.cancel()
        assert service.broker.engine is engine_object
        paused.resume()
        assert service.publish(example_event()).delivered == 1
        # ... and tearing down the very last one drops the engine.
        paused.cancel()
        assert not service.broker.has_engine

    def test_last_cancel_tears_down_the_engine(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        assert service.broker.has_engine
        handle.cancel()
        assert not service.broker.has_engine
        assert service.publish(example_event()).match_result is None


class TestBrokerLifecycleStrictness:
    """The broker layer stays strict (the handle layer is the lenient one)."""

    def test_double_pause_raises_at_the_broker(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        service.broker.pause_subscription(handle.subscription_id)
        with pytest.raises(SubscriptionError, match="already paused"):
            service.broker.pause_subscription(handle.subscription_id)

    def test_resume_of_active_subscription_raises_at_the_broker(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        with pytest.raises(SubscriptionError, match="not paused"):
            service.broker.resume_subscription(handle.subscription_id)

    def test_modify_rejects_profile_id_collisions(self):
        service = alarm_service()
        first = service.subscribe(where("temperature").at_least(20), profile_id="a")
        service.subscribe(where("humidity").at_least(50), profile_id="b")
        with pytest.raises(SubscriptionError, match="already has a subscription"):
            service.broker.modify_subscription(
                first.subscription_id,
                where("temperature").at_least(30).build("b"),
            )
        # The failed modify left everything consistent.
        assert first.profile.profile_id == "a"
        assert service.publish(example_event()).delivered == 2


class TestServiceIsFreed:
    """A service keeps no table of its handles — a handle refers to the
    service, never the other way round — so a service (its broker, engine
    and notification log with it) is freed by reference counting alone,
    without the cycle collector, closed or not."""

    @pytest.mark.parametrize("delivery", ["inline", "threadpool"])
    def test_a_closed_and_deleted_service_dies_without_gc(self, delivery):
        gc.collect()
        gc.disable()
        try:
            service = FilterService(environmental_schema(), delivery=delivery)
            service.subscribe_all([where("temperature").at_least(t) for t in (10, 20, 30)])
            received = []
            service.subscribe(where("temperature").at_least(0), sink=received.append)
            service.publish_batch([example_event()] * 20)
            service.close()
            assert len(received) == 20
            alive = weakref.ref(service), weakref.ref(service.broker)
            del service
            assert [ref() is None for ref in alive] == [True, True]
        finally:
            gc.enable()

    def test_handles_keep_working_while_the_closed_service_lives(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        service.close()
        handle.pause()
        handle.modify(where("temperature").at_least(50))
        handle.resume()
        late = service.subscribe(where("temperature").at_least(30))
        assert [h.state for h in service.handles()] == ["active", "active"]
        late.cancel()
        handle.cancel()
        assert service.handles() == []
        assert service.stats().subscriptions == 0

    def test_an_unclosed_service_and_its_handles_die_without_gc(self):
        gc.collect()
        gc.disable()
        try:
            service = FilterService(environmental_schema())
            handles = service.subscribe_all(
                [where("temperature").at_least(t) for t in (10, 20, 30)]
            )
            handles[0].pause()
            handles[1].cancel()
            service.publish_batch([example_event()] * 20)
            alive = weakref.ref(service), weakref.ref(service.broker)
            del service, handles
            assert [ref() is None for ref in alive] == [True, True]
        finally:
            gc.enable()


class TestHandlesAreViews:
    """A handle reads its state from the broker, so a change made through
    ``service.broker`` shows on every handle and in ``handles()``."""

    def test_a_broker_side_pause_shows_on_the_handle(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        service.broker.pause_subscription(handle.subscription_id)
        assert handle.state == "paused" and handle.is_paused
        assert [h.state for h in service.handles()] == ["paused"]
        handle.pause()  # idempotent: already paused at the broker
        handle.resume()
        assert handle.state == "active"
        assert service.publish(example_event()).delivered == 1

    def test_a_broker_side_unsubscribe_shows_on_the_handle(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        kept = service.subscribe(where("humidity").at_least(50))
        service.broker.unsubscribe(handle.subscription_id)
        assert handle.state == "cancelled" and handle.is_cancelled
        assert service.handles() == [kept]
        with pytest.raises(SubscriptionError, match="the handle was cancelled"):
            handle.resume()
        with pytest.raises(SubscriptionError):
            service.handle(handle.subscription_id)

    def test_two_views_of_one_subscription_agree(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20), subscriber="a")
        view = service.handle(handle.subscription_id)
        assert view == handle and hash(view) == hash(handle)
        view.modify(where("temperature").at_least(30))
        assert handle.profile == view.profile
        view.pause()
        assert handle.is_paused
        cancelled = handle.cancel()
        assert view.is_cancelled
        # The cancelling handle keeps the record its cancel returned.
        assert handle.profile == cancelled.profile and handle.subscriber == "a"

    def test_the_facade_keeps_no_handle_table(self):
        service = alarm_service()
        handle = service.subscribe(where("temperature").at_least(20))
        assert not any(
            isinstance(value, dict) and handle.subscription_id in value
            for value in vars(service).values()
        )

