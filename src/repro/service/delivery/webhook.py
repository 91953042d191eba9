"""Remote webhook delivery: per-endpoint lanes, retries, circuit breaker.

The first transport that leaves the process.  A subscription whose sink
is a :class:`WebhookSink` (just an endpoint URL — which is why it is the
one sink the durable store can persist and reconstruct on replay) can be
pinned to ``delivery="webhook"``; the executor then:

* serialises each notification to JSON and POSTs it to the endpoint
  through a pluggable ``transport`` (default: :mod:`urllib.request`);
* runs **one FIFO lane per endpoint** on its own worker thread, so a
  slow or dead endpoint delays only its own lane — never matching,
  never other endpoints;
* retries transient failures with **exponential backoff + seeded
  jitter** up to ``max_attempts`` (extra attempts counted in
  ``DeliveryStats.retried``);
* trips a **per-endpoint circuit breaker** after ``breaker_threshold``
  consecutive task failures: an *open* breaker fails tasks fast to the
  dead-letter queue until ``breaker_cooldown`` elapses, then lets one
  *half-open probe* through — success closes the circuit, failure
  re-opens it;
* parks exhausted or fast-failed tasks on a bounded **dead-letter
  queue** (``DeliveryStats.dead_lettered``; inspect via
  :meth:`WebhookDeliveryExecutor.dead_letters`).

Accounting: a webhook task settles as ``delivered`` or
``dead_lettered`` (or ``dropped`` by a non-draining close) —
never ``failed`` — so the at-most-once conservation law
``dispatched == delivered + failed + dropped + dead_lettered + pending``
holds across mixed-executor services.

Determinism for tests: ``transport``, ``sleep``, ``clock`` and ``seed``
are all injectable through :class:`WebhookConfig`, which is what the
fault harness (:mod:`repro.testing.faults`) plugs into.
"""

from __future__ import annotations

import json
import random
import threading
import urllib.request
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.errors import DeliveryError
from repro.service.delivery.base import enqueue_in_order
from repro.service.delivery.stats import DeliveryCounters, DeliveryStats

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.service.delivery.base import Task
    from repro.service.notifications import Notification
    from repro.service.subscriptions import Subscription

__all__ = [
    "DeadLetter",
    "WebhookConfig",
    "WebhookDeliveryExecutor",
    "WebhookSink",
    "notification_payload",
]

#: ``transport(endpoint, payload, timeout)`` delivers one serialised
#: notification; any exception marks the attempt failed.
WebhookTransport = Callable[[str, bytes, float], None]


def notification_payload(notification: "Notification") -> bytes:
    """Serialise one notification to its webhook JSON body."""
    event = notification.event
    return json.dumps(
        {
            "profile_id": notification.profile_id,
            "subscriber": notification.subscriber,
            "broker_id": notification.broker_id,
            "delivered_at": notification.delivered_at,
            "event": {
                "values": dict(event.values),
                "timestamp": event.timestamp,
                "source": event.source,
            },
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def _urllib_transport(endpoint: str, payload: bytes, timeout: float) -> None:
    request = urllib.request.Request(
        endpoint,
        data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    # urlopen raises HTTPError on >= 400 and URLError on transport
    # failure; both are ordinary attempt failures to the retry loop.
    with urllib.request.urlopen(request, timeout=timeout):
        pass


@dataclass(frozen=True)
class WebhookSink:
    """A durable sink: POST notifications to ``endpoint``.

    Callable like any sink (a synchronous POST through the default
    transport), so it also works on the inline/threadpool executors —
    but only ``delivery="webhook"`` adds the retry budget, circuit
    breaker and dead-letter queue.
    """

    endpoint: str
    timeout: float = 5.0

    def __call__(self, notification: "Notification") -> None:
        _urllib_transport(self.endpoint, notification_payload(notification), self.timeout)


@dataclass(frozen=True)
class WebhookConfig:
    """Tuning and injection points of the webhook executor."""

    #: Per-attempt transport timeout (seconds).
    timeout: float = 5.0
    #: Attempt budget per task (1 = never retry).
    max_attempts: int = 3
    #: First retry delay; doubles per attempt (exponential backoff).
    backoff_base: float = 0.05
    #: Backoff ceiling (seconds).
    backoff_max: float = 2.0
    #: Multiplicative jitter: each delay is scaled by ``1 + U(0, jitter)``.
    jitter: float = 0.1
    #: Consecutive task failures that open an endpoint's breaker.
    breaker_threshold: int = 5
    #: Seconds an open breaker fails fast before the half-open probe.
    breaker_cooldown: float = 1.0
    #: Dead letters retained per executor (older ones are evicted).
    dlq_capacity: int = 256
    #: Seed of the jitter RNG (deterministic backoff schedules in tests).
    seed: int = 0
    #: Injected transport; ``None`` uses :mod:`urllib.request` POST.
    transport: WebhookTransport | None = None
    #: Injected backoff sleep; ``None`` uses :func:`time.sleep` (inject
    #: a recorder in tests to assert schedules without waiting them out).
    sleep: Callable[[float], None] | None = None
    #: Injected monotonic clock for breaker cooldowns.
    clock: Callable[[], float] | None = None


@dataclass(frozen=True)
class DeadLetter:
    """One task that settled on the dead-letter queue."""

    subscription_id: str
    endpoint: str
    notification: "Notification"
    #: ``"retries-exhausted"`` or ``"circuit-open"``.
    reason: str
    #: Transport attempts actually made (0 when failed fast).
    attempts: int


class _CircuitBreaker:
    """Per-endpoint breaker: closed → open → half-open probe → closed.

    Counts *task* failures (a task's whole retry budget, not individual
    attempts).  Not thread-safe on its own — each breaker is touched
    only by its endpoint's single worker thread.
    """

    __slots__ = (
        "_clock", "_cooldown", "_failures", "_opened_at", "_probing", "_threshold", "state",
    )

    def __init__(self, *, threshold: int, cooldown: float, clock: Callable[[], float]) -> None:
        self._threshold = threshold
        self._cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.state = "closed"

    def allow(self) -> str:
        """Return ``"ok"``, ``"probe"`` (half-open) or ``"open"``."""
        if self.state == "closed":
            return "ok"
        if self._clock() - self._opened_at < self._cooldown:
            return "open"
        self.state = "half-open"
        self._probing = True
        return "probe"

    def on_success(self) -> None:
        self._failures = 0
        self._probing = False
        self.state = "closed"

    def on_failure(self) -> None:
        if self._probing:  # failed probe: restart the cooldown
            self._probing = False
            self._opened_at = self._clock()
            self.state = "open"
            return
        self._failures += 1
        if self._failures >= self._threshold:
            self._opened_at = self._clock()
            self.state = "open"


class _EndpointLane:
    """One endpoint's FIFO queue, worker thread and breaker."""

    __slots__ = ("breaker", "condition", "queue", "worker")

    def __init__(self, breaker: _CircuitBreaker) -> None:
        self.condition = threading.Condition()
        self.queue: deque[Task] = deque()
        self.breaker = breaker
        self.worker: threading.Thread | None = None


def _condition_of(lane: _EndpointLane) -> threading.Condition:
    return lane.condition


class WebhookDeliveryExecutor:
    """Deliver notifications to HTTP endpoints, one FIFO lane each."""

    name = "webhook"

    def __init__(
        self,
        *,
        config: WebhookConfig | None = None,
        queue_capacity: int = 1024,
        counters: DeliveryCounters | None = None,
    ) -> None:
        if queue_capacity < 1:
            raise DeliveryError("queue_capacity must be at least 1")
        config = config if config is not None else WebhookConfig()
        if config.max_attempts < 1:
            raise DeliveryError("max_attempts must be at least 1")
        if config.breaker_threshold < 1:
            raise DeliveryError("breaker_threshold must be at least 1")
        self._config = config
        self._capacity = queue_capacity
        self._counters = counters if counters is not None else DeliveryCounters()
        self._transport = config.transport if config.transport is not None else _urllib_transport
        self._sleep = config.sleep if config.sleep is not None else _default_sleep
        self._clock = config.clock if config.clock is not None else _default_clock
        self._rng = random.Random(config.seed)
        self._rng_lock = threading.Lock()
        self._lanes: dict[str, _EndpointLane] = {}
        self._lanes_lock = threading.Lock()
        self._dead: deque[DeadLetter] = deque(maxlen=config.dlq_capacity)
        self._closed = False

    # -- publisher side ---------------------------------------------------------
    def _lane_for(self, endpoint: str) -> _EndpointLane:
        with self._lanes_lock:
            lane = self._lanes.get(endpoint)
            if lane is None:
                lane = _EndpointLane(
                    _CircuitBreaker(
                        threshold=self._config.breaker_threshold,
                        cooldown=self._config.breaker_cooldown,
                        clock=self._clock,
                    )
                )
                lane.worker = threading.Thread(
                    target=self._work,
                    args=(endpoint, lane),
                    name=f"repro-webhook-{len(self._lanes)}",
                    daemon=True,
                )
                self._lanes[endpoint] = lane
                lane.worker.start()
            return lane

    def submit_all(
        self, subscriptions: Sequence[Subscription], notifications: Sequence[Notification]
    ) -> None:
        """Queue each task on its endpoint's lane, in list order.

        Tasks before a non-webhook sink are queued; that task raises and
        the rest are not submitted, exactly as one task at a time.
        """
        lanes: list[_EndpointLane] = []
        rejected = None
        for subscription in subscriptions:
            if not isinstance(subscription.sink, WebhookSink):
                rejected = subscription
                break
            lanes.append(self._lane_for(subscription.sink.endpoint))
        enqueue_in_order(
            zip(subscriptions, notifications),  # stops with the lanes
            lanes,
            condition_of=_condition_of,
            offer=self._offer,
            is_closed=self._is_closed,
            counters=self._counters,
            name=self.name,
        )
        if rejected is not None:
            raise DeliveryError(
                "the webhook executor delivers WebhookSink subscriptions only; "
                f"got {type(rejected.sink).__name__} for subscription "
                f"{rejected.subscription_id!r}"
            )

    def _is_closed(self) -> bool:
        return self._closed

    def _offer(self, lane: _EndpointLane, task: Task) -> bool:
        """Queue ``task`` unless its endpoint's lane is full (lock held)."""
        if len(lane.queue) >= self._capacity:
            return False
        lane.queue.append(task)
        return True

    # -- worker side ------------------------------------------------------------
    def _work(self, endpoint: str, lane: _EndpointLane) -> None:
        while True:
            with lane.condition:
                while not lane.queue and not self._closed:
                    lane.condition.wait()
                if not lane.queue:
                    return  # closed and fully drained
                task = lane.queue.popleft()
                lane.condition.notify_all()
            self._deliver(endpoint, lane, task)

    def _deliver(self, endpoint: str, lane: _EndpointLane, task: Task) -> None:
        gate = lane.breaker.allow()
        if gate == "open":
            self._dead_letter(task, endpoint, "circuit-open", attempts=0)
            return
        # A half-open probe risks exactly one attempt: the endpoint has
        # to earn its retry budget back by surviving the probe.
        budget = 1 if gate == "probe" else self._config.max_attempts
        payload = notification_payload(task[1])
        attempt = 0
        while True:
            attempt += 1
            try:
                self._transport(endpoint, payload, self._config.timeout)
            except Exception:
                if attempt >= budget:
                    lane.breaker.on_failure()
                    self._dead_letter(task, endpoint, "retries-exhausted", attempts=attempt)
                    return
                self._counters.retrying()
                self._sleep(self._backoff(attempt))
            else:
                lane.breaker.on_success()
                self._counters.executed(delivered=1)
                return

    def _backoff(self, attempt: int) -> float:
        delay = min(
            self._config.backoff_max,
            self._config.backoff_base * (2 ** (attempt - 1)),
        )
        with self._rng_lock:
            scale = 1.0 + self._config.jitter * self._rng.random()
        return delay * scale

    def _dead_letter(self, task: Task, endpoint: str, reason: str, *, attempts: int) -> None:
        subscription, notification = task
        self._dead.append(
            DeadLetter(
                subscription_id=subscription.subscription_id,
                endpoint=endpoint,
                notification=notification,
                reason=reason,
                attempts=attempts,
            )
        )
        self._counters.dead_letter()

    # -- introspection ----------------------------------------------------------
    def dead_letters(self) -> tuple[DeadLetter, ...]:
        """Return the retained dead letters, oldest first."""
        with self._lanes_lock:
            return tuple(self._dead)

    def breaker_state(self, endpoint: str) -> str | None:
        """Return an endpoint breaker's state (``None``: never used)."""
        with self._lanes_lock:
            lane = self._lanes.get(endpoint)
        return lane.breaker.state if lane is not None else None

    # -- life-cycle -------------------------------------------------------------
    def drain(self) -> None:
        """Block until every accepted task settled."""
        self._counters.wait_idle()

    def close(self, *, drain: bool = True) -> None:
        """Stop the lanes; by default each worker finishes its queue."""
        with self._lanes_lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            with lane.condition:
                if not drain:
                    self._counters.discarded(len(lane.queue))
                    lane.queue.clear()
                self._closed = True
                lane.condition.notify_all()
        self._closed = True  # also when no lane was ever created
        for lane in lanes:
            if lane.worker is not None:
                lane.worker.join()

    def stats(self) -> DeliveryStats:
        return self._counters.snapshot(mode=self.name, executors=(self.name,))


def _default_sleep(delay: float) -> None:
    import time

    time.sleep(delay)


def _default_clock() -> float:
    import time

    return time.monotonic()
