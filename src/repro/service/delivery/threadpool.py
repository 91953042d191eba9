"""Bounded worker-pool delivery with per-subscription FIFO lanes.

``max_workers`` daemon threads each serve a fixed subset of
subscriptions: a subscription id is hashed to one worker, so every
notification of one subscription runs on the same thread in submission
order — the per-subscription FIFO guarantee falls out of the routing,
with no cross-lane synchronisation on the delivery path.  A worker
executes its subscriptions' tasks in arrival order (one shared run
queue per worker).

``submit_all`` queues whole columns as ``(subscription, notification)``
pairs with one acquisition of each lane lock it touches, one
``accepted(n)`` and one wake-up per lane
(:func:`~repro.service.delivery.base.enqueue_in_order`).  A worker pops
one task at a time — a task it has not started stays on the queue,
where a non-draining ``close`` can discard it — and counts it on its
own lock-free :class:`~repro.service.delivery.stats.WorkerTally` the
moment the sink returns, so ``pending`` counts exactly the tasks queued
or in flight without a counters round trip per task.

Capacity is **per subscription**: each subscription may have at most
``queue_capacity`` tasks queued (not yet started).  A full subscription
lane parks the publisher at submit time, task by task, until the worker
frees a slot — backpressure on that subscription alone, never on others
sharing the worker (the matcher is throttled by delivery, never blocked
*inside* a sink).

Each task is attempted once.  Sink exceptions are swallowed and counted
(``failed``): a broken subscriber must not take down a worker shared
with other subscriptions.  Retrying is the remote ``webhook`` executor's
business, where transient failure is the normal case.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import TYPE_CHECKING, Sequence

from repro.core.errors import DeliveryError
from repro.service.delivery.base import (
    close_bridge_loop,
    enqueue_in_order,
    invoke_sink,
)
from repro.service.delivery.stats import DeliveryCounters, DeliveryStats

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.service.delivery.base import Task
    from repro.service.notifications import Notification
    from repro.service.subscriptions import Subscription

__all__ = ["ThreadPoolDeliveryExecutor"]


class _Lane:
    """One worker's run queue, per-subscription occupancy and wakeup."""

    __slots__ = ("condition", "queue", "queued_per_subscription")

    def __init__(self) -> None:
        self.condition = threading.Condition()
        #: Tasks in arrival order across the worker's subscriptions.
        self.queue: deque[Task] = deque()
        #: Queued tasks per subscription (the capacity unit).
        self.queued_per_subscription: Counter = Counter()


def _condition_of(lane: _Lane) -> threading.Condition:
    return lane.condition


class ThreadPoolDeliveryExecutor:
    """Deliver notifications on a bounded pool of worker threads."""

    name = "threadpool"

    def __init__(
        self,
        *,
        max_workers: int = 4,
        queue_capacity: int = 1024,
        counters: DeliveryCounters | None = None,
    ) -> None:
        if max_workers < 1:
            raise DeliveryError("max_workers must be at least 1")
        if queue_capacity < 1:
            raise DeliveryError("queue_capacity must be at least 1")
        self._capacity = queue_capacity
        self._counters = counters if counters is not None else DeliveryCounters()
        self._closed = False
        self._lanes = [_Lane() for _ in range(max_workers)]
        self._workers = [
            threading.Thread(
                target=self._work,
                args=(lane,),
                name=f"repro-delivery-{index}",
                daemon=True,
            )
            for index, lane in enumerate(self._lanes)
        ]
        for worker in self._workers:
            worker.start()

    # -- publisher side ---------------------------------------------------------
    def submit_all(
        self, subscriptions: Sequence[Subscription], notifications: Sequence[Notification]
    ) -> None:
        lanes = self._lanes
        # Stable within the process is all FIFO needs; hash() is stable
        # per run (per-subscription ordering never crosses processes).
        enqueue_in_order(
            zip(subscriptions, notifications),
            [lanes[hash(s.subscription_id) % len(lanes)] for s in subscriptions],
            condition_of=_condition_of,
            offer=self._offer,
            is_closed=self._is_closed,
            counters=self._counters,
            name=self.name,
        )

    def _is_closed(self) -> bool:
        return self._closed

    def _offer(self, lane: _Lane, task: Task) -> bool:
        """Queue ``task`` unless its subscription is full (lock held)."""
        queued = lane.queued_per_subscription
        subscription_id = task[0].subscription_id
        count = queued.get(subscription_id, 0)
        if count >= self._capacity:
            return False
        lane.queue.append(task)
        queued[subscription_id] = count + 1
        return True

    # -- worker side ------------------------------------------------------------
    def _work(self, lane: _Lane) -> None:
        try:
            self._serve(lane)
        finally:
            close_bridge_loop()  # async-sink bridge loop dies with the thread

    def _serve(self, lane: _Lane) -> None:
        queued = lane.queued_per_subscription
        capacity = self._capacity
        tally = self._counters.tally()
        while True:
            with lane.condition:
                if not lane.queue:
                    self._counters.worker_idle()  # drain() may be waiting
                while not lane.queue and not self._closed:
                    lane.condition.wait()
                if not lane.queue:
                    return  # closed and fully drained
                subscription, notification = lane.queue.popleft()
                subscription_id = subscription.subscription_id
                remaining = queued[subscription_id] - 1
                if remaining > 0:
                    queued[subscription_id] = remaining
                else:
                    del queued[subscription_id]
                if remaining == capacity - 1:
                    # The subscription was full: a publisher may be
                    # blocked on it (no one waits on any other).
                    lane.condition.notify_all()
            try:
                invoke_sink(subscription.sink, notification)
            except BaseException:
                # BaseException included: a sink calling sys.exit must
                # neither kill the worker (orphaning its lane) nor leak
                # the pending count (hanging every later drain()).
                tally.failed += 1
            else:
                tally.delivered += 1

    # -- life-cycle -------------------------------------------------------------
    def drain(self) -> None:
        """Block until every accepted task was delivered or dropped."""
        self._counters.wait_idle()

    def close(self, *, drain: bool = True) -> None:
        """Stop the pool; by default the workers finish their queues first."""
        if self._closed and not any(worker.is_alive() for worker in self._workers):
            return
        for lane in self._lanes:
            with lane.condition:
                if not drain:
                    self._counters.discarded(len(lane.queue))
                    lane.queue.clear()
                    lane.queued_per_subscription.clear()
                self._closed = True
                lane.condition.notify_all()
        for worker in self._workers:
            worker.join()

    def stats(self) -> DeliveryStats:
        return self._counters.snapshot(mode=self.name, executors=(self.name,))
