"""``repro.service.delivery`` — pluggable notification-delivery executors.

The broker's matching path produces one
:class:`~repro.service.delivery.base.DeliveryPlan` per publish call (a
subscription and a notification column) and hands it to the
:class:`DeliveryDispatcher`, which submits it in plan order
(``DeliveryExecutor.submit_all``) to one of three executors:

* :class:`~repro.service.delivery.inline.InlineExecutor` — run the sink
  synchronously on the publishing thread (the historical default; sink
  errors propagate to the publisher);
* :class:`~repro.service.delivery.threadpool.ThreadPoolDeliveryExecutor`
  — a bounded worker pool with per-subscription FIFO lanes and a
  backpressure queue;
* :class:`~repro.service.delivery.webhook.WebhookDeliveryExecutor` —
  remote HTTP delivery of :class:`~repro.service.delivery.webhook.WebhookSink`
  subscriptions, with per-endpoint FIFO lanes, a retry budget
  (exponential backoff + jitter), a per-endpoint circuit breaker and a
  dead-letter queue.

The service default is selected per
:class:`~repro.api.FilterService` (``delivery="threadpool"``) and can be
pinned per subscription (``subscribe(..., delivery="threadpool")``); all
executors guarantee per-subscription FIFO ordering (strictly: per
(subscription, executor) — re-pinning a live subscription to a new
executor starts a fresh lane; drain first for a clean handover),
at-most-once dispatch, bounded queues that block the publisher when
full, and a graceful draining ``close()``.  Matching results
are bit-identical whichever executor delivers — the executors consume
*already matched* plans and the matcher hot path never blocks inside a
sink.  An ``async def`` sink takes the same path on every in-process
executor: :func:`~repro.service.delivery.base.invoke_sink` drives it to
completion on the calling thread.
"""

from __future__ import annotations

from repro.core.errors import DeliveryError
from repro.service.delivery.base import (
    DELIVERY_MODES,
    DeliveryExecutor,
    DeliveryPlan,
    validate_delivery_mode,
)
from repro.service.delivery.inline import InlineExecutor
from repro.service.delivery.stats import DeliveryCounters, DeliveryStats
from repro.service.delivery.threadpool import ThreadPoolDeliveryExecutor
from repro.service.delivery.webhook import (
    DeadLetter,
    WebhookConfig,
    WebhookDeliveryExecutor,
    WebhookSink,
)

__all__ = [
    "DELIVERY_MODES",
    "DeadLetter",
    "DeliveryCounters",
    "DeliveryDispatcher",
    "DeliveryExecutor",
    "DeliveryPlan",
    "DeliveryStats",
    "InlineExecutor",
    "ThreadPoolDeliveryExecutor",
    "WebhookConfig",
    "WebhookDeliveryExecutor",
    "WebhookSink",
    "validate_delivery_mode",
]


class DeliveryDispatcher:
    """Route delivery plans to executors, lazily building each mode.

    One dispatcher per broker: it owns the service-default mode, builds
    each executor with its *own*
    :class:`~repro.service.delivery.stats.DeliveryCounters` (so an
    executor's ``stats()`` reports exactly its own work) and fans the
    tasks of a plan out by their subscriptions' pinned modes, one call
    per run of same-mode tasks;
    :meth:`stats` aggregates the per-executor snapshots into one
    service-level view.
    """

    def __init__(
        self,
        *,
        delivery: str = "inline",
        max_workers: int | None = None,
        queue_capacity: int | None = None,
        webhook: WebhookConfig | None = None,
    ) -> None:
        self._default_mode = validate_delivery_mode(delivery)
        if max_workers is not None and max_workers < 1:
            raise DeliveryError("max_workers must be at least 1")
        if queue_capacity is not None and queue_capacity < 1:
            raise DeliveryError("queue_capacity must be at least 1")
        self._max_workers = max_workers if max_workers is not None else 4
        self._queue_capacity = queue_capacity if queue_capacity is not None else 1024
        self._webhook = webhook
        self._executors: dict[str, DeliveryExecutor] = {}
        self._closed = False

    # -- introspection ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Return ``True`` once :meth:`close` ran."""
        return self._closed

    def ensure_open(self) -> None:
        """Raise :class:`~repro.core.errors.DeliveryError` once closed."""
        if self._closed:
            raise DeliveryError(
                "the delivery subsystem is closed; create a new service to publish"
            )

    # -- executor roster --------------------------------------------------------
    def _build_executor(self, mode: str) -> DeliveryExecutor:
        if mode == "inline":
            return InlineExecutor()
        if mode == "threadpool":
            return ThreadPoolDeliveryExecutor(
                max_workers=self._max_workers,
                queue_capacity=self._queue_capacity,
            )
        return WebhookDeliveryExecutor(
            config=self._webhook,
            queue_capacity=self._queue_capacity,
        )

    def executor_for(self, mode: str | None) -> DeliveryExecutor:
        """Return (building on first use) the executor of ``mode``."""
        resolved = self._default_mode if mode is None else validate_delivery_mode(mode)
        executor = self._executors.get(resolved)
        if executor is None:
            self.ensure_open()
            executor = self._executors[resolved] = self._build_executor(resolved)
        return executor

    # -- dispatch ---------------------------------------------------------------
    def dispatch(self, plan: DeliveryPlan) -> None:
        """Submit a plan in order, one call per run of same-mode tasks.

        A ``default_only`` plan is one ``submit_all`` of both columns.
        Otherwise sink-less subscriptions are skipped, and consecutive
        tasks bound for the same (pinned or default) executor go to it as
        one call.  An executor that raises (a closed executor, an
        ``inline`` sink error) stops the dispatch there: every task
        before the failing one in plan order was submitted, none after
        it is.
        """
        subscriptions, notifications = plan.subscriptions, plan.notifications
        if plan.default_only:
            if subscriptions:
                self.executor_for(None).submit_all(subscriptions, notifications)
            return
        default = self._default_mode
        run_mode, run_subscriptions, run_notifications = None, [], []
        for subscription, notification in zip(subscriptions, notifications):
            if subscription.sink is None:
                continue
            mode = default if subscription.delivery is None else subscription.delivery
            if mode != run_mode:
                if run_subscriptions:
                    self.executor_for(run_mode).submit_all(run_subscriptions, run_notifications)
                run_mode, run_subscriptions, run_notifications = mode, [], []
            run_subscriptions.append(subscription)
            run_notifications.append(notification)
        if run_subscriptions:
            self.executor_for(run_mode).submit_all(run_subscriptions, run_notifications)

    # -- life-cycle -------------------------------------------------------------
    # drain, close and stats walk a copy of the roster: a publisher may
    # build an executor on first use meanwhile (for instance while one
    # executor's drain blocks this thread).
    def drain(self) -> None:
        """Block until no executor holds queued or in-flight deliveries."""
        for executor in list(self._executors.values()):
            executor.drain()

    def close(self, *, drain: bool = True) -> None:
        """Close every executor (idempotent); drains by default."""
        if self._closed:
            return
        self._closed = True
        for executor in list(self._executors.values()):
            executor.close(drain=drain)

    def stats(self) -> DeliveryStats:
        """Return one aggregated snapshot across every instantiated executor.

        Counts are summed; ``max_pending`` is the sum of the per-executor
        high-water marks (an upper bound of the true combined backlog
        peak, since the executors peak independently).
        """
        executors = dict(self._executors)
        snapshots = [executor.stats() for executor in executors.values()]
        return DeliveryStats(
            mode=self._default_mode,
            dispatched=sum(s.dispatched for s in snapshots),
            delivered=sum(s.delivered for s in snapshots),
            failed=sum(s.failed for s in snapshots),
            dropped=sum(s.dropped for s in snapshots),
            pending=sum(s.pending for s in snapshots),
            max_pending=sum(s.max_pending for s in snapshots),
            retried=sum(s.retried for s in snapshots),
            dead_lettered=sum(s.dead_lettered for s in snapshots),
            executors=tuple(executors),
        )

    def dead_letters(self) -> tuple["DeadLetter", ...]:
        """Return the webhook executor's dead letters (empty if unused)."""
        executor = self._executors.get("webhook")
        if executor is None:
            return ()
        return executor.dead_letters()
