"""The delivery subsystem: executors, backpressure, life-cycle.

The concurrency-sensitive guarantees of :mod:`repro.service.delivery`
are pinned here deterministically: sinks gate on events (never sleeps)
so queue states are exact, and every test asserts the at-most-once
invariant ``dispatched == delivered + failed + dropped`` after a drain.

The ``DELIVERY_STRESS=1`` environment flag (set by the
``tests-concurrency`` CI job) additionally enables a 10k-event ×
64-subscriber stress run with a high worker count.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.api import FilterService
from repro.core.domains import IntegerDomain
from repro.core.errors import DeliveryError
from repro.core.events import Event
from repro.core.predicates import RangePredicate
from repro.core.profiles import profile
from repro.core.schema import Attribute, Schema
from repro.service.broker import Broker
from repro.service.delivery import (
    DELIVERY_MODES,
    DeliveryStats,
    ThreadPoolDeliveryExecutor,
)

PRICES = IntegerDomain(0, 9_999)


def price_schema() -> Schema:
    return Schema([Attribute("price", PRICES)])


def match_all_profile(profile_id: str) -> object:
    return profile(profile_id, price=RangePredicate.at_least(0))


def make_service(**kwargs) -> FilterService:
    return FilterService(price_schema(), engine="index", adaptive=False, **kwargs)


def pinned_delivery(service, handle):
    """Return the delivery pin the broker's registry holds for a handle."""
    return service.broker.subscriptions.get(handle.subscription_id).delivery


class Recorder:
    """A sink recording the observed event prices (list.append is
    atomic, and per-subscription calls are serial by contract)."""

    def __init__(self) -> None:
        self.prices: list[int] = []

    def __call__(self, notification) -> None:
        self.prices.append(notification.event["price"])


class GatedSink(Recorder):
    """A sink that parks on a gate so tests control queue occupancy."""

    def __init__(self) -> None:
        super().__init__()
        self.started = threading.Event()
        self.gate = threading.Event()

    def __call__(self, notification) -> None:
        self.started.set()
        assert self.gate.wait(10), "test gate never released"
        super().__call__(notification)


def assert_at_most_once(stats: DeliveryStats) -> None:
    assert stats.pending == 0
    assert stats.dispatched == (
        stats.delivered + stats.failed + stats.dropped + stats.dead_lettered
    )


class TestValidation:
    @pytest.mark.parametrize("mode", ["carrier-pigeon", "asyncio"], ids=["typo", "retired"])
    def test_unknown_delivery_mode(self, mode):
        with pytest.raises(DeliveryError, match="available modes: inline, threadpool, webhook$"):
            make_service(delivery=mode)

    def test_bounds_validated(self):
        with pytest.raises(DeliveryError, match="max_workers"):
            make_service(delivery="threadpool", max_workers=0)
        with pytest.raises(DeliveryError, match="queue_capacity"):
            make_service(delivery="threadpool", queue_capacity=0)

    def test_subscription_pin_validated(self):
        service = make_service()
        with pytest.raises(DeliveryError, match="unknown delivery mode"):
            service.subscribe(
                match_all_profile("P1"), sink=lambda n: None, delivery="quantum"
            )

    def test_retired_mode_refused_as_a_pin(self):
        """The retired ``asyncio`` executor is refused per subscription
        too, on subscribe and on re-pin; a refused re-pin keeps the old
        pin and sink."""
        with make_service() as service:
            with pytest.raises(DeliveryError, match="available modes: inline, threadpool, webhook$"):
                service.subscribe(
                    match_all_profile("P1"), sink=lambda n: None, delivery="asyncio"
                )
            assert service.stats().subscriptions == 0
            sink = Recorder()
            handle = service.subscribe(
                match_all_profile("P2"), sink=sink, delivery="threadpool"
            )
            with pytest.raises(DeliveryError, match="'asyncio'"):
                handle.deliver_to(Recorder(), delivery="asyncio")
            assert pinned_delivery(service, handle) == "threadpool"
            service.publish(Event({"price": 4}))
            service.drain()
            assert sink.prices == [4]

    def test_mode_roster_is_stable(self):
        assert DELIVERY_MODES == ("inline", "threadpool", "webhook")


class TestInlineExecutor:
    def test_sink_runs_before_publish_returns(self):
        service = make_service()  # delivery="inline" is the default
        sink = Recorder()
        service.subscribe(match_all_profile("P1"), sink=sink)
        service.publish(Event({"price": 7}))
        assert sink.prices == [7]  # no drain needed: synchronous
        stats = service.stats().delivery
        assert stats.mode == "inline"
        assert stats.delivered == 1
        assert_at_most_once(stats)

    def test_sink_errors_propagate_to_the_publisher(self):
        """Historical semantics: inline delivery surfaces sink bugs."""
        service = make_service()

        def broken(notification):
            raise RuntimeError("subscriber bug")

        service.subscribe(match_all_profile("P1"), sink=broken)
        with pytest.raises(RuntimeError, match="subscriber bug"):
            service.publish(Event({"price": 1}))
        assert service.stats().delivery.failed == 1

    def test_matching_is_settled_before_dispatch(self):
        """Statistics and the notification log do not depend on sinks."""
        service = make_service()

        def broken(notification):
            raise RuntimeError("boom")

        handle = service.subscribe(match_all_profile("P1"), sink=broken)
        with pytest.raises(RuntimeError):
            service.publish(Event({"price": 1}))
        assert handle.notifications_received() == 1
        assert service.stats().notifications == 1


class TestThreadPoolExecutor:
    def test_all_notifications_delivered_in_per_subscription_order(self):
        with make_service(delivery="threadpool", max_workers=3) as service:
            sinks = [Recorder() for _ in range(8)]
            for index, sink in enumerate(sinks):
                service.subscribe(match_all_profile(f"P{index}"), sink=sink)
            prices = list(range(120))
            service.publish_batch([Event({"price": price}) for price in prices])
            service.drain()
            for sink in sinks:
                assert sink.prices == prices
            stats = service.stats().delivery
            assert stats.delivered == len(sinks) * len(prices)
            assert_at_most_once(stats)

    def test_sink_error_counted_and_worker_survives(self):
        with make_service(delivery="threadpool", max_workers=1) as service:
            good = Recorder()
            calls = []

            def flaky(notification):
                calls.append(notification.event["price"])
                if len(calls) == 1:
                    raise RuntimeError("first call explodes")

            service.subscribe(match_all_profile("P-flaky"), sink=flaky)
            service.subscribe(match_all_profile("P-good"), sink=good)
            for price in (1, 2, 3):
                service.publish(Event({"price": price}))
            service.drain()
            assert calls == [1, 2, 3]  # the worker kept going
            assert good.prices == [1, 2, 3]
            stats = service.stats().delivery
            assert stats.failed == 1
            assert stats.delivered == 5
            assert_at_most_once(stats)

    def _fill_one_lane(self, service, sink):
        """Publish one in-flight task and fill the 2-slot queue behind it."""
        service.subscribe(match_all_profile("P1"), sink=sink)
        service.publish(Event({"price": 0}))
        assert sink.started.wait(10)  # price-0 is in flight, lane empty
        service.publish(Event({"price": 1}))
        service.publish(Event({"price": 2}))  # lane now holds [1, 2]

    def test_overflow_block_applies_backpressure(self):
        sink = GatedSink()
        with make_service(delivery="threadpool", max_workers=1, queue_capacity=2) as service:
            self._fill_one_lane(service, sink)
            unblocked = threading.Event()

            def publish_fourth():
                service.publish(Event({"price": 3}))
                unblocked.set()

            publisher = threading.Thread(target=publish_fourth, daemon=True)
            publisher.start()
            assert not unblocked.wait(0.2), "publish returned despite a full lane"
            sink.gate.set()  # worker frees slots; the publisher proceeds
            assert unblocked.wait(10)
            publisher.join(10)
            service.drain()
            assert sink.prices == [0, 1, 2, 3]
            assert service.stats().delivery.dropped == 0

    def test_close_fails_a_publisher_blocked_on_a_full_lane(self):
        sink = GatedSink()
        service = make_service(delivery="threadpool", max_workers=1, queue_capacity=2)
        self._fill_one_lane(service, sink)
        failures: list[DeliveryError] = []

        def publish_fourth():
            try:
                service.publish(Event({"price": 3}))
            except DeliveryError as error:
                failures.append(error)

        publisher = threading.Thread(target=publish_fourth)
        publisher.start()
        publisher.join(0.2)
        assert publisher.is_alive(), "publish returned despite a full lane"
        closer = threading.Thread(target=service.close)  # drains: waits on the gate
        closer.start()
        try:
            publisher.join(10)
            assert not publisher.is_alive()
        finally:
            sink.gate.set()
        closer.join(10)
        assert not closer.is_alive()
        assert len(failures) == 1
        assert "closed while waiting for queue space" in str(failures[0])
        # The blocked task was never accepted; the three before it were delivered.
        assert sink.prices == [0, 1, 2]
        stats = service.stats().delivery
        assert (stats.dispatched, stats.delivered) == (3, 3)
        assert_at_most_once(stats)

    def test_close_drains_by_default(self):
        service = make_service(delivery="threadpool", max_workers=2)
        sink = GatedSink()
        service.subscribe(match_all_profile("P1"), sink=sink)
        for price in range(5):
            service.publish(Event({"price": price}))
        sink.gate.set()
        service.close()  # must wait for the 5 queued deliveries
        assert sink.prices == list(range(5))
        assert_at_most_once(service.stats().delivery)

    def test_close_without_drain_drops_queued_tasks(self):
        service = make_service(
            delivery="threadpool", max_workers=1, queue_capacity=16
        )
        sink = GatedSink()
        service.subscribe(match_all_profile("P1"), sink=sink)
        for price in range(6):
            service.publish(Event({"price": price}))
        assert sink.started.wait(10)
        sink.gate.set()
        service.close(drain=False)
        stats = service.stats().delivery
        # The in-flight task finishes; the queued remainder is dropped
        # (the exact split depends on how far the worker got, but nothing
        # is lost silently and nothing is delivered twice).
        assert stats.delivered + stats.dropped == 6
        assert stats.dropped >= 1
        assert_at_most_once(stats)

    def test_close_is_idempotent_and_publishing_after_close_raises(self):
        service = make_service(delivery="threadpool")
        service.subscribe(match_all_profile("P1"), sink=Recorder())
        service.close()
        service.close()
        with pytest.raises(DeliveryError, match="closed"):
            service.publish(Event({"price": 1}))
        with pytest.raises(DeliveryError, match="closed"):
            service.publish_batch([Event({"price": 1})])


class TestThreadPoolSubscriptionIsolation:
    """Capacity is per subscription: a hot subscription sharing a worker
    never drops, blocks or fails a quiet one (and vice versa)."""

    @staticmethod
    def _executor(**kwargs):
        from repro.service.delivery import ThreadPoolDeliveryExecutor

        return ThreadPoolDeliveryExecutor(max_workers=1, **kwargs)

    @staticmethod
    def _task(subscription_id, sink):
        """One task as the two one-entry columns ``submit_all`` takes."""
        from repro.service.subscriptions import Subscription

        subscription = Subscription(subscription_id, profile(f"P-{subscription_id}"), "user", sink)
        return [subscription], [None]

    class _GatedCounter:
        """Counts calls; the first call parks on a gate."""

        def __init__(self) -> None:
            self.calls = 0
            self.started = threading.Event()
            self.gate = threading.Event()

        def __call__(self, notification) -> None:
            self.started.set()
            assert self.gate.wait(10)
            self.calls += 1

    def test_hot_subscription_does_not_overflow_a_quiet_one(self):
        hot = self._GatedCounter()
        quiet_calls = []
        executor = self._executor(queue_capacity=2)
        try:
            executor.submit_all(*self._task("hot", hot))
            assert hot.started.wait(10)  # in flight; the worker is busy
            executor.submit_all(*self._task("hot", hot))
            executor.submit_all(*self._task("hot", hot))  # hot's lane is now full
            blocked = threading.Thread(target=executor.submit_all, args=self._task("hot", hot))
            blocked.start()
            blocked.join(0.2)
            assert blocked.is_alive(), "hot's submission returned despite a full lane"
            # The quiet subscription shares the single worker but has its
            # own capacity: its submissions return while hot's blocks.
            executor.submit_all(*self._task("quiet", quiet_calls.append))
            executor.submit_all(*self._task("quiet", quiet_calls.append))
            assert blocked.is_alive()
            hot.gate.set()
            blocked.join(10)
            assert not blocked.is_alive()
            executor.drain()
        finally:
            hot.gate.set()
            executor.close()
        assert hot.calls == 4  # every hot task ran, none was evicted
        assert len(quiet_calls) == 2
        assert executor.stats().dropped == 0


class TestAsyncSinks:
    """An ``async def`` sink takes one path on every in-process executor:
    each notification is awaited to completion on the delivering thread."""

    @staticmethod
    def _awaiting_sink(received: list):
        import asyncio

        async def sink(notification):
            await asyncio.sleep(0)
            received.append(notification.event["price"])

        return sink

    @pytest.mark.parametrize("mode", ["inline", "threadpool"])
    def test_async_sinks_are_awaited_in_order(self, mode):
        logs: dict[str, list[int]] = {"a": [], "b": [], "c": []}
        with make_service(delivery=mode, max_workers=2) as service:
            for name, log in logs.items():
                service.subscribe(match_all_profile(f"P{name}"), sink=self._awaiting_sink(log))
            prices = list(range(40))
            service.publish_batch([Event({"price": price}) for price in prices])
            service.drain()
            assert all(log == prices for log in logs.values())
            stats = service.stats().delivery
            assert stats.delivered == len(logs) * len(prices)
            assert_at_most_once(stats)

    def test_async_sink_errors_are_counted_on_the_pool(self):
        async def broken(notification):
            raise RuntimeError("async subscriber bug")

        with make_service(delivery="threadpool") as service:
            service.subscribe(match_all_profile("P1"), sink=broken)
            service.publish(Event({"price": 1}))
            service.drain()
            stats = service.stats().delivery
            assert stats.failed == 1
            assert_at_most_once(stats)

    def test_async_sink_errors_propagate_inline(self):
        async def broken(notification):
            raise RuntimeError("async subscriber bug")

        service = make_service()
        service.subscribe(match_all_profile("P1"), sink=broken)
        with pytest.raises(RuntimeError, match="async subscriber bug"):
            service.publish(Event({"price": 1}))
        assert service.stats().delivery.failed == 1

    def test_publishing_inside_a_running_loop_works_on_the_pool(self):
        """The remedy the nested-loop error names: the pool's workers run
        no loop of their own, so they drive the async sink."""
        import asyncio

        received: list[int] = []

        async def scenario():
            with make_service(delivery="threadpool") as service:
                service.subscribe(match_all_profile("P1"), sink=self._awaiting_sink(received))
                service.publish(Event({"price": 3}))
                service.drain()

        asyncio.run(scenario())
        assert received == [3]


class TestPerSubscriptionPinning:
    def test_pinned_mode_overrides_the_service_default(self):
        with make_service(delivery="inline") as service:
            inline_sink = Recorder()
            pooled_sink = Recorder()
            service.subscribe(match_all_profile("P-inline"), sink=inline_sink)
            service.subscribe(
                match_all_profile("P-pooled"),
                sink=pooled_sink,
                delivery="threadpool",
            )
            prices = list(range(30))
            for price in prices:
                service.publish(Event({"price": price}))
            service.drain()
            assert inline_sink.prices == prices
            assert pooled_sink.prices == prices
            stats = service.stats().delivery
            assert stats.mode == "inline"
            assert set(stats.executors) == {"inline", "threadpool"}
            assert stats.delivered == 2 * len(prices)
            assert_at_most_once(stats)

    def test_deliver_to_repins_sink_and_mode(self):
        with make_service() as service:
            first = Recorder()
            second = Recorder()
            handle = service.subscribe(match_all_profile("P1"), sink=first)
            service.publish(Event({"price": 1}))
            handle.deliver_to(second, delivery="threadpool")
            assert pinned_delivery(service, handle) == "threadpool"
            service.publish(Event({"price": 2}))
            service.drain()
            assert first.prices == [1]
            assert second.prices == [2]

    def test_deliver_to_keeps_an_existing_pin_when_delivery_is_omitted(self):
        with make_service(delivery="inline") as service:
            first = Recorder()
            second = Recorder()
            handle = service.subscribe(
                match_all_profile("P1"), sink=first, delivery="threadpool"
            )
            handle.deliver_to(second)  # swap the sink only
            assert pinned_delivery(service, handle) == "threadpool"  # pin survives
            handle.deliver_to(second, delivery=None)  # explicit reset
            assert pinned_delivery(service, handle) is None

    def test_deliver_to_none_detaches_the_sink(self):
        with make_service() as service:
            sink = Recorder()
            handle = service.subscribe(match_all_profile("P1"), sink=sink)
            handle.deliver_to(None)
            service.publish(Event({"price": 9}))
            assert sink.prices == []
            assert handle.notifications_received() == 1  # the statistics still count

    def test_broker_level_pinning(self):
        broker = Broker(price_schema(), delivery="inline")
        sink = Recorder()
        broker.subscribe(match_all_profile("P1"), "user", sink=sink, delivery="threadpool")
        broker.publish(Event({"price": 5}))
        broker.drain_deliveries()
        assert sink.prices == [5]
        assert broker.delivery_stats().executors == ("threadpool",)
        broker.close()

    def test_drain_survives_a_publisher_building_an_executor(self, monkeypatch):
        """While ``drain()`` waits on the threadpool, a publish on another
        thread builds the ``inline`` executor; the drain must not trip
        over the grown roster."""
        draining = threading.Event()
        pool_drain = ThreadPoolDeliveryExecutor.drain

        def signalling_drain(executor):
            draining.set()
            pool_drain(executor)

        monkeypatch.setattr(ThreadPoolDeliveryExecutor, "drain", signalling_drain)
        errors: list[Exception] = []

        def drain():
            try:
                service.drain()
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        with make_service(delivery="threadpool", max_workers=1) as service:
            gated, pinned = GatedSink(), Recorder()
            service.subscribe(profile("P-gated", price=RangePredicate.between(0, 0)), sink=gated)
            service.subscribe(
                profile("P-pinned", price=RangePredicate.between(1, 1)),
                sink=pinned,
                delivery="inline",
            )
            service.publish(Event({"price": 0}))  # builds the pool; parks its worker
            assert gated.started.wait(10)
            drainer = threading.Thread(target=drain)
            drainer.start()
            try:
                assert draining.wait(10)
                service.publish(Event({"price": 1}))  # builds the inline executor
            finally:
                gated.gate.set()
            drainer.join(10)
            assert not drainer.is_alive()
            assert errors == []
            assert (gated.prices, pinned.prices) == ([0], [1])
            assert service.stats().delivery.executors == ("threadpool", "inline")


class TestSinkMisbehaviour:
    """Hostile sinks can never wedge the delivery accounting."""

    def test_base_exception_sink_cannot_hang_drain(self):
        """A sink raising SystemExit is counted as failed; drain returns."""

        def hostile(notification):
            raise SystemExit(1)

        with make_service(delivery="threadpool") as service:
            survivor = Recorder()
            service.subscribe(match_all_profile("P-hostile"), sink=hostile)
            service.subscribe(match_all_profile("P-survivor"), sink=survivor)
            for price in (1, 2, 3):
                service.publish(Event({"price": price}))
            service.drain()  # must not hang on a leaked pending count
            stats = service.stats().delivery
            assert stats.failed == 3
            assert survivor.prices == [1, 2, 3]
            assert_at_most_once(stats)

    def test_async_sink_on_a_sync_executor_inside_a_running_loop_raises(self):
        """invoke_sink refuses to nest event loops, with a clear error."""
        import asyncio

        from repro.service.delivery.base import invoke_sink

        async def sink(notification):
            pass  # pragma: no cover - never driven

        async def scenario():
            with pytest.raises(DeliveryError, match="delivery='threadpool'"):
                invoke_sink(sink, None)

        asyncio.run(scenario())


class TestWorkloadScenarioEquivalence:
    """Acceptance: on the real workload scenarios, every executor
    delivers the same per-subscription sequences as inline."""

    @pytest.mark.parametrize("scenario", ["stock-ticker", "wide-range"])
    def test_all_executors_agree(self, scenario):
        from repro.workloads import build_workload, get_profile

        spec = (
            get_profile("stock-ticker").spec.with_counts(profile_count=60, event_count=150)
            if scenario == "stock-ticker"
            else get_profile("wide-range").spec.with_counts(profile_count=40, event_count=80)
        )
        workload = build_workload(spec)
        events = list(workload.events)
        profiles = list(workload.profiles)

        def run(mode: str) -> dict[str, list]:
            received: dict[str, list] = {}
            with FilterService(
                workload.schema, engine="index", adaptive=False, delivery=mode
            ) as service:
                for item in profiles:
                    log: list = []
                    received[item.profile_id] = log
                    service.subscribe(
                        item,
                        subscriber=item.subscriber or "w",
                        sink=lambda n, log=log: log.append(n.event.values),
                    )
                service.publish_batch(events)
                service.drain()
            return received

        assert run("threadpool") == run("inline")


@pytest.mark.skipif(
    os.environ.get("DELIVERY_STRESS") != "1",
    reason="set DELIVERY_STRESS=1 to run the 10k-event x 64-subscriber stress test",
)
class TestDeliveryStress:
    """High-concurrency soak: ordering and at-most-once never crack."""

    SUBSCRIBERS = 64
    EVENTS = 10_000

    def _run(self, mode: str, **kwargs) -> None:
        with make_service(delivery=mode, **kwargs) as service:
            sinks = {}
            for index in range(self.SUBSCRIBERS):
                sink = Recorder()
                sinks[index] = sink
                service.subscribe(
                    profile(f"P{index}", price=index), sink=sink
                )
            for start in range(0, self.EVENTS, 500):
                service.publish_batch(
                    [
                        Event({"price": price % self.SUBSCRIBERS})
                        for price in range(start, start + 500)
                    ]
                )
            service.drain()
            for index, sink in sinks.items():
                expected = [
                    index
                    for price in range(self.EVENTS)
                    if price % self.SUBSCRIBERS == index
                ]
                assert sink.prices == expected, f"subscriber {index} order broke"
            stats = service.stats().delivery
            assert stats.delivered == self.EVENTS
            assert_at_most_once(stats)

    def test_threadpool_high_worker_count(self):
        self._run("threadpool", max_workers=32, queue_capacity=512)
