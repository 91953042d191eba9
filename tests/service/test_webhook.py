"""The webhook executor: lanes, retries, circuit breaker, dead letters.

Deterministic by injection: the transport, the backoff sleep, the
breaker clock and the jitter seed all come from :class:`WebhookConfig`,
so every schedule asserted here is exact — no wall-clock waits except
the one end-to-end test against a real stdlib HTTP server.

The isolation property (a slow or dead endpoint delays only its own
lane) and the close-raises-consistently satellite are pinned here too.
"""

from __future__ import annotations

import dataclasses
import http.server
import json
import threading
import time

import pytest

from repro.api import FilterService, WebhookConfig, WebhookSink
from repro.core.domains import IntegerDomain
from repro.core.errors import DeliveryError
from repro.core.events import Event
from repro.core.predicates import RangePredicate
from repro.core.profiles import Profile, profile
from repro.core.schema import Attribute, Schema
from repro.service.delivery import WebhookDeliveryExecutor
from repro.service.notifications import Notification
from repro.service.subscriptions import Subscription
from repro.testing import FlakySink, InjectedFault, dead_transport

PRICES = IntegerDomain(0, 9_999)


def price_schema() -> Schema:
    return Schema([Attribute("price", PRICES)])


def match_all(profile_id: str) -> Profile:
    return profile(profile_id, price=RangePredicate.at_least(0))


def make_service(**kwargs) -> FilterService:
    return FilterService(price_schema(), engine="index", adaptive=False, **kwargs)


def make_task(subscription_id: str, endpoint: str, price: int = 1):
    """One task: a webhook subscription and a notification for it."""
    notification = Notification(
        profile_id=f"P-{subscription_id}",
        subscriber="alice",
        event=Event({"price": price}),
        broker_id="broker-test",
        delivered_at=0.0,
    )
    subscription = Subscription(
        subscription_id, match_all(f"P-{subscription_id}"), "alice", WebhookSink(endpoint)
    )
    return subscription, notification


def columns(tasks):
    """The two parallel columns ``submit_all`` takes."""
    return [subscription for subscription, _ in tasks], [note for _, note in tasks]


class ManualClock:
    """A settable monotonic clock for breaker cooldowns."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def recording_transport(posts: list, fail: set[str] | None = None):
    lock = threading.Lock()
    fail = fail or set()

    def transport(endpoint: str, payload: bytes, timeout: float) -> None:
        with lock:
            posts.append((endpoint, json.loads(payload.decode("utf-8"))))
        if endpoint in fail:
            raise InjectedFault(f"{endpoint} down")

    return transport


def drain_close(executor: WebhookDeliveryExecutor) -> None:
    executor.drain()
    executor.close()


class TestLanes:
    def test_per_endpoint_fifo_order(self):
        posts: list = []
        executor = WebhookDeliveryExecutor(
            config=WebhookConfig(transport=recording_transport(posts))
        )
        for price in range(8):
            executor.submit_all(*columns([make_task("sub-1", "https://a.test/hook", price)]))
            executor.submit_all(*columns([make_task("sub-2", "https://b.test/hook", price)]))
        drain_close(executor)
        for endpoint in ("https://a.test/hook", "https://b.test/hook"):
            lane = [body["event"]["values"]["price"]
                    for posted, body in posts if posted == endpoint]
            assert lane == list(range(8))  # FIFO within the lane

    def test_non_webhook_sink_is_rejected(self):
        executor = WebhookDeliveryExecutor(
            config=WebhookConfig(transport=lambda e, p, t: None)
        )
        subscription, notification = make_task("sub-1", "https://a.test/hook")
        task = (dataclasses.replace(subscription, sink=lambda n: None), notification)
        with pytest.raises(DeliveryError, match="WebhookSink"):
            executor.submit_all(*columns([task]))
        executor.close()

    @staticmethod
    def _gated_transport(posted: list):
        """A transport parking every post on a gate; returns it with the
        gate and an event set once the first post is in flight."""
        started, gate = threading.Event(), threading.Event()

        def transport(endpoint, payload, timeout):
            started.set()
            assert gate.wait(10), "test gate never released"
            posted.append(json.loads(payload.decode("utf-8"))["event"]["values"]["price"])

        return transport, started, gate

    def test_full_lane_blocks_the_publisher_until_the_worker_frees_space(self):
        posted: list = []
        transport, started, gate = self._gated_transport(posted)
        executor = WebhookDeliveryExecutor(
            config=WebhookConfig(transport=transport), queue_capacity=1
        )
        try:
            executor.submit_all(*columns([make_task("sub-1", "https://a.test/hook", 0)]))
            assert started.wait(10)  # price 0 in flight, lane empty
            # Price 1 fills the lane.
            executor.submit_all(*columns([make_task("sub-1", "https://a.test/hook", 1)]))
            publisher = threading.Thread(
                target=executor.submit_all,
                args=columns([make_task("sub-1", "https://a.test/hook", 2)]),
            )
            publisher.start()
            publisher.join(0.2)
            assert publisher.is_alive(), "submission returned despite a full lane"
            gate.set()  # the worker frees the slot; the publisher proceeds
            publisher.join(10)
            assert not publisher.is_alive()
            executor.drain()
        finally:
            gate.set()
            executor.close()
        assert posted == [0, 1, 2]
        stats = executor.stats()
        assert (stats.dispatched, stats.delivered, stats.dropped) == (3, 3, 0)

    def test_close_without_drain_drops_exactly_the_queued_posts(self):
        posted: list = []
        transport, started, gate = self._gated_transport(posted)
        executor = WebhookDeliveryExecutor(config=WebhookConfig(transport=transport))
        for price in range(5):
            executor.submit_all(*columns([make_task("sub-1", "https://a.test/hook", price)]))
        assert started.wait(10)  # price 0 in flight, 1-4 queued
        closer = threading.Thread(target=executor.close, kwargs={"drain": False})
        closer.start()
        try:
            # The queue is discarded before close waits for the worker.
            deadline = time.monotonic() + 10
            while executor.stats().dropped < 4:
                assert time.monotonic() < deadline, "queued posts never dropped"
                time.sleep(0.001)
        finally:
            gate.set()
        closer.join(10)
        assert not closer.is_alive()
        assert posted == [0]
        stats = executor.stats()
        assert (stats.dispatched, stats.delivered, stats.dropped, stats.pending) == (5, 1, 4, 0)

    def test_dead_endpoint_never_stalls_the_healthy_lane(self):
        """The isolation gate: a dark endpoint's lane piles up and dead-
        letters; the healthy endpoint drains untouched."""
        posts: list = []
        dead = dead_transport(dead_endpoints={"https://dark.test/hook"},
                              record=posts)
        executor = WebhookDeliveryExecutor(
            config=WebhookConfig(transport=dead, max_attempts=2,
                                 backoff_base=0.0, jitter=0.0,
                                 breaker_threshold=3, breaker_cooldown=9e9)
        )
        for price in range(20):
            executor.submit_all(*columns([make_task("dark", "https://dark.test/hook", price)]))
            executor.submit_all(*columns([make_task("ok", "https://ok.test/hook", price)]))
        drain_close(executor)
        assert len(posts) == 20  # every healthy post landed
        stats = executor.stats()
        assert stats.delivered == 20
        assert stats.dead_lettered == 20
        assert executor.breaker_state("https://dark.test/hook") == "open"
        assert executor.breaker_state("https://ok.test/hook") == "closed"

    def test_slow_endpoint_delays_only_its_own_lane(self):
        finished: dict[str, float] = {}
        lock = threading.Lock()
        started = threading.Event()

        def gated(endpoint, payload, timeout):
            if endpoint == "https://slow.test/hook":
                started.set()
                assert started.wait(10)
                import time
                time.sleep(0.05)
            with lock:
                finished.setdefault(endpoint, len(finished))

        executor = WebhookDeliveryExecutor(config=WebhookConfig(transport=gated))
        executor.submit_all(*columns([make_task("slow", "https://slow.test/hook")]))
        executor.submit_all(*columns([make_task("fast", "https://fast.test/hook")]))
        drain_close(executor)
        assert finished["https://fast.test/hook"] < finished["https://slow.test/hook"]


class TestRetries:
    def test_budget_retries_then_delivers(self):
        attempts: list[int] = []
        delays: list[float] = []

        def transport(endpoint, payload, timeout):
            attempts.append(1)
            if len(attempts) < 3:
                raise InjectedFault("transient")

        executor = WebhookDeliveryExecutor(
            config=WebhookConfig(transport=transport, max_attempts=3,
                                 backoff_base=0.1, jitter=0.0,
                                 sleep=delays.append)
        )
        executor.submit_all(*columns([make_task("sub-1", "https://a.test/hook")]))
        drain_close(executor)
        stats = executor.stats()
        assert stats.delivered == 1
        assert stats.retried == 2
        assert stats.dead_lettered == 0
        assert delays == [0.1, 0.2]  # exponential, jitter=0

    def test_jitter_is_seeded_and_capped(self):
        delays_a: list[float] = []
        delays_b: list[float] = []
        for delays in (delays_a, delays_b):
            executor = WebhookDeliveryExecutor(
                config=WebhookConfig(
                    transport=lambda e, p, t: (_ for _ in ()).throw(
                        InjectedFault("down")
                    ),
                    max_attempts=6, backoff_base=0.1, backoff_max=0.4,
                    jitter=0.5, seed=42, sleep=delays.append,
                )
            )
            executor.submit_all(*columns([make_task("sub-1", "https://a.test/hook")]))
            drain_close(executor)
        assert delays_a == delays_b  # same seed, same schedule
        assert len(delays_a) == 5
        base = [0.1, 0.2, 0.4, 0.4, 0.4]  # capped at backoff_max
        for delay, floor in zip(delays_a, base):
            assert floor <= delay <= floor * 1.5  # within the jitter band

    def test_exhausted_budget_dead_letters(self):
        executor = WebhookDeliveryExecutor(
            config=WebhookConfig(
                transport=dead_transport(dead_endpoints={"https://a.test/hook"}),
                max_attempts=2, backoff_base=0.0, jitter=0.0,
            )
        )
        executor.submit_all(*columns([make_task("sub-1", "https://a.test/hook", price=7)]))
        drain_close(executor)
        (letter,) = executor.dead_letters()
        assert letter.reason == "retries-exhausted"
        assert letter.attempts == 2
        assert letter.subscription_id == "sub-1"
        assert letter.endpoint == "https://a.test/hook"
        assert letter.notification.event["price"] == 7

    def test_dlq_capacity_evicts_oldest(self):
        executor = WebhookDeliveryExecutor(
            config=WebhookConfig(
                transport=dead_transport(dead_endpoints={"https://a.test/hook"}),
                max_attempts=1, dlq_capacity=3, breaker_threshold=10**6,
            )
        )
        for price in range(5):
            executor.submit_all(*columns([make_task("sub-1", "https://a.test/hook", price)]))
        drain_close(executor)
        letters = executor.dead_letters()
        assert [l.notification.event["price"] for l in letters] == [2, 3, 4]
        assert executor.stats().dead_lettered == 5  # the counter keeps all


class TestCircuitBreaker:
    def executor_with_switch(self, clock: ManualClock, healthy: threading.Event):
        def transport(endpoint, payload, timeout):
            if not healthy.is_set():
                raise InjectedFault("down")

        return WebhookDeliveryExecutor(
            config=WebhookConfig(transport=transport, max_attempts=1,
                                 breaker_threshold=2, breaker_cooldown=5.0,
                                 clock=clock)
        )

    def test_open_fails_fast_and_half_open_probe_closes(self):
        clock = ManualClock()
        healthy = threading.Event()
        executor = self.executor_with_switch(clock, healthy)
        endpoint = "https://a.test/hook"

        for _ in range(2):  # threshold=2: second task failure opens it
            executor.submit_all(*columns([make_task("sub-1", endpoint)]))
        executor.drain()
        assert executor.breaker_state(endpoint) == "open"
        assert [l.reason for l in executor.dead_letters()] == [
            "retries-exhausted", "retries-exhausted"
        ]

        executor.submit_all(*columns([make_task("sub-1", endpoint)]))  # inside the cooldown
        executor.drain()
        assert executor.dead_letters()[-1].reason == "circuit-open"
        assert executor.dead_letters()[-1].attempts == 0

        clock.now = 6.0      # past the cooldown: next task is the probe
        healthy.set()        # and the endpoint has healed
        executor.submit_all(*columns([make_task("sub-1", endpoint)]))
        executor.drain()
        assert executor.breaker_state(endpoint) == "closed"
        stats = executor.stats()
        assert stats.delivered == 1
        assert stats.dead_lettered == 3
        executor.close()

    def test_failed_probe_reopens_and_restarts_the_cooldown(self):
        clock = ManualClock()
        healthy = threading.Event()
        executor = self.executor_with_switch(clock, healthy)
        endpoint = "https://a.test/hook"
        for _ in range(2):
            executor.submit_all(*columns([make_task("sub-1", endpoint)]))
        executor.drain()

        clock.now = 6.0  # cooldown over: the probe runs — and fails
        executor.submit_all(*columns([make_task("sub-1", endpoint)]))
        executor.drain()
        assert executor.breaker_state(endpoint) == "open"
        assert executor.dead_letters()[-1].reason == "retries-exhausted"

        clock.now = 10.0  # the *restarted* cooldown (6.0 + 5.0) not yet over
        executor.submit_all(*columns([make_task("sub-1", endpoint)]))
        executor.drain()
        assert executor.dead_letters()[-1].reason == "circuit-open"
        executor.close()

    def test_breakers_are_per_endpoint(self):
        executor = WebhookDeliveryExecutor(
            config=WebhookConfig(
                transport=dead_transport(dead_endpoints={"https://bad.test/1"}),
                max_attempts=1, breaker_threshold=1, breaker_cooldown=9e9,
            )
        )
        executor.submit_all(*columns([make_task("bad", "https://bad.test/1")]))
        executor.submit_all(*columns([make_task("good", "https://good.test/2")]))
        drain_close(executor)
        assert executor.breaker_state("https://bad.test/1") == "open"
        assert executor.breaker_state("https://good.test/2") == "closed"
        assert executor.breaker_state("https://never.test/3") is None


class TestServiceIntegration:
    def test_publish_routes_through_the_webhook_lane(self):
        posts: list = []
        service = make_service(
            delivery="webhook",
            webhook=WebhookConfig(transport=recording_transport(posts)),
        )
        service.subscribe(match_all("P1"), subscriber="alice",
                          sink=WebhookSink("https://a.test/hook"))
        service.publish(Event({"price": 41}))
        service.drain()
        ((endpoint, body),) = posts
        assert endpoint == "https://a.test/hook"
        assert body["profile_id"] == "P1"
        assert body["subscriber"] == "alice"
        assert body["event"]["values"] == {"price": 41}
        assert service.stats().delivery.mode == "webhook"
        service.close()

    def test_webhook_pin_on_a_mixed_service(self):
        """delivery='webhook' per subscription rides next to inline."""
        posts: list = []
        received: list = []
        service = make_service(
            webhook=WebhookConfig(transport=recording_transport(posts))
        )
        service.subscribe(match_all("P1"), sink=received.append)
        service.subscribe(match_all("P2"), sink=WebhookSink("https://a.test/h"),
                          delivery="webhook")
        service.publish(Event({"price": 1}))
        service.drain()
        assert len(received) == 1 and len(posts) == 1
        stats = service.stats().delivery
        assert stats.delivered == 2
        assert "webhook" in stats.executors
        service.close()

    def test_dead_letters_surface_on_the_service(self):
        service = make_service(
            delivery="webhook",
            webhook=WebhookConfig(
                transport=dead_transport(dead_endpoints={"https://d.test/h"}),
                max_attempts=1, breaker_threshold=10**6,
            ),
        )
        service.subscribe(match_all("P1"), sink=WebhookSink("https://d.test/h"))
        service.publish(Event({"price": 3}))
        service.drain()
        (letter,) = service.dead_letters()
        assert letter.reason == "retries-exhausted"
        assert service.stats().delivery.dead_lettered == 1
        service.close()


class TestCloseConsistency:
    """Satellite fix: publishing after close raises DeliveryError on
    every executor, webhook included."""

    @pytest.mark.parametrize("mode", ["inline", "threadpool", "webhook"])
    def test_publish_after_close_raises(self, mode):
        kwargs = {"delivery": mode}
        if mode == "webhook":
            kwargs["webhook"] = WebhookConfig(transport=lambda e, p, t: None)
        service = make_service(**kwargs)
        sink = (WebhookSink("https://a.test/hook") if mode == "webhook"
                else (lambda n: None))
        service.subscribe(match_all("P1"), sink=sink)
        service.publish(Event({"price": 1}))
        service.close()
        with pytest.raises(DeliveryError):
            service.publish(Event({"price": 2}))


class TestThreadpoolSingleAttempt:
    """Retrying is the webhook executor's alone: a threadpool sink is
    attempted once."""

    def test_transient_failure_settles_as_failed(self):
        service = make_service(delivery="threadpool")
        sink = FlakySink(failures=2)
        service.subscribe(match_all("P1"), sink=sink)
        service.publish(Event({"price": 9}))
        service.drain()
        stats = service.stats().delivery
        assert stats.failed == 1
        assert stats.retried == 0
        assert stats.dispatched == stats.delivered + stats.failed
        assert sink.calls == 1 and sink.delivered == []
        service.close()

    def test_default_is_single_attempt(self):
        service = make_service(delivery="threadpool")
        sink = FlakySink(failures=1)
        service.subscribe(match_all("P1"), sink=sink)
        service.publish(Event({"price": 9}))
        service.drain()
        stats = service.stats().delivery
        assert stats.failed == 1
        assert stats.retried == 0
        assert sink.calls == 1
        service.close()


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """A webhook endpoint that fails twice per path, then accepts."""

    received: list = []
    failures: dict = {}
    lock = threading.Lock()

    def do_POST(self):  # noqa: N802 (stdlib handler naming)
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        with self.lock:
            seen = self.failures.get(self.path, 0)
            if self.path == "/flaky" and seen < 2:
                self.failures[self.path] = seen + 1
                self.send_response(500)
                self.end_headers()
                return
            self.received.append((self.path, body))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):  # keep pytest output clean
        pass


class TestEndToEnd:
    def test_against_a_real_http_server(self):
        _StubHandler.received = []
        _StubHandler.failures = {}
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            service = make_service(
                delivery="webhook",
                webhook=WebhookConfig(max_attempts=3, backoff_base=0.01,
                                      timeout=5.0),
            )
            service.subscribe(
                match_all("P1"),
                sink=WebhookSink(f"http://127.0.0.1:{port}/flaky"),
            )
            service.subscribe(
                match_all("P2"),
                sink=WebhookSink(f"http://127.0.0.1:{port}/steady"),
            )
            service.publish(Event({"price": 5}))
            service.drain()
            stats = service.stats().delivery
            assert stats.delivered == 2
            assert stats.retried == 2  # the two 500s from /flaky
            assert stats.dead_lettered == 0
            service.close()
        finally:
            server.shutdown()
            server.server_close()
        by_path = {path: body for path, body in _StubHandler.received}
        assert sorted(by_path) == ["/flaky", "/steady"]
        assert by_path["/flaky"]["event"]["values"] == {"price": 5}
