"""Delivery-subsystem value objects and the executor protocol.

The matching hot path produces a :class:`DeliveryPlan` — the pure *what*
of one publish call's fan-out, as two columns: each notification and
the resolved subscription (id, sink, delivery pin) it goes to — and
hands it to a :class:`~repro.service.delivery.DeliveryDispatcher`,
which submits it through :meth:`DeliveryExecutor.submit_all` (the
*how*: inline, bounded thread pool or webhook lanes).  The split is
the seam the ROADMAP called out on ``FilterService.publish_batch``:
matching never waits on a sink, and a slow subscriber stalls at most
its own delivery lane.

Executor contract
-----------------

A *task* is one ``(subscription, notification)`` entry of the columns.

* **Per-subscription FIFO** — for one subscription id, sinks observe
  notifications in submission order (list order within one
  ``submit_all``), whatever the executor.
* **At-most-once settlement** — a submitted task settles exactly once:
  delivered, failed, dropped, or dead-lettered (counted in
  :class:`~repro.service.delivery.stats.DeliveryStats`), never
  duplicated.  The webhook executor, the one with a retry budget, may
  *attempt* a sink more than once before settling; extra attempts are
  counted in ``retried``.  The in-process executors attempt once.
* **Bounded backpressure** — asynchronous executors bound each delivery
  lane at ``queue_capacity`` waiting tasks; a publisher that finds a lane
  full waits for space.  The bound applies per task, in list order, even
  when whole columns are submitted (:func:`enqueue_in_order`).  It counts
  the tasks still waiting, not the ones a worker took: a threadpool
  worker takes its whole lane at once, so up to 2 × ``queue_capacity``
  of a subscription's tasks can be unstarted.
* **Prefix acceptance** — a submission that fails part-way (closed
  executor, closed while waiting for space, an inline sink error) leaves
  exactly the tasks *before* the failing one accepted, in list order,
  across every lane — as if the tasks had been submitted one at a time.
* **Graceful close** — ``close(drain=True)`` delivers everything queued
  before returning; ``drain()`` waits for in-flight work without
  closing.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from repro.core.errors import DeliveryError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.service.delivery.stats import DeliveryCounters, DeliveryStats
    from repro.service.notifications import Notification, NotificationSink
    from repro.service.subscriptions import Subscription

    #: One queued delivery: a subscription (with a sink) and its notification.
    Task = tuple[Subscription, Notification]

__all__ = [
    "DELIVERY_MODES",
    "DeliveryExecutor",
    "DeliveryPlan",
    "enqueue_in_order",
    "invoke_sink",
    "validate_delivery_mode",
]

#: Selectable delivery executors, in documentation order.  ``"inline"``
#: is the historical synchronous behaviour and the default.
DELIVERY_MODES = ("inline", "threadpool", "webhook")

#: Whatever an executor queues a task on (see :func:`enqueue_in_order`).
Lane = TypeVar("Lane")


def validate_delivery_mode(mode: str) -> str:
    """Return ``mode`` or raise the standard unknown-mode error."""
    if mode not in DELIVERY_MODES:
        raise DeliveryError(
            f"unknown delivery mode {mode!r}; available modes: "
            f"{', '.join(DELIVERY_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class DeliveryPlan:
    """The complete fan-out of one publish call, in delivery order.

    Built by the broker once per ``publish`` / ``publish_batch`` call,
    *after* matching, statistics recording and the notification log:
    ``notifications[i]`` goes to ``subscriptions[i]``'s sink, event by
    event and within an event in matched-profile order, sink-less
    subscriptions included.  ``default_only``: every subscription has a
    sink and no delivery pin.  Everything concurrency-sensitive starts
    downstream of this object, so matching results are bit-identical
    whatever executor consumes it.
    """

    subscriptions: Sequence[Subscription]
    notifications: Sequence[Notification]
    default_only: bool = False


@runtime_checkable
class DeliveryExecutor(Protocol):
    """Protocol implemented by all delivery executors."""

    #: Executor mode name (one of :data:`DELIVERY_MODES`).
    name: str

    def submit_all(
        self, subscriptions: Sequence[Subscription], notifications: Sequence[Notification]
    ) -> None:
        """Deliver ``notifications[i]`` to ``subscriptions[i]``'s sink
        (it has one), in list order (raises once closed).

        The dispatcher's entry point.  Capacity applies per task exactly
        as if each were submitted alone.  An error (closed executor, an
        inline sink) propagates:
        the tasks before the failing one in list order stay accepted,
        whatever lane they ride, and no task after it is submitted.
        """
        ...

    def drain(self) -> None:
        """Block until every accepted task was executed or dropped."""
        ...

    def close(self, *, drain: bool = True) -> None:
        """Stop the executor; ``drain=False`` discards queued tasks."""
        ...

    def stats(self) -> "DeliveryStats":
        """Return a consistent snapshot of the delivery accounting."""
        ...


def enqueue_in_order(
    tasks: Iterable[Task],
    lanes: Sequence[Lane],
    *,
    condition_of: Callable[[Lane], threading.Condition],
    offer: Callable[[Lane, Task], bool],
    is_closed: Callable[[], bool],
    counters: "DeliveryCounters",
    name: str,
) -> None:
    """Queue the i-th task on ``lanes[i]``, in list order, as one submission.

    A task is a ``(subscription, notification)`` pair; the walk stops
    with the lanes.

    The shared publisher side of the queueing executors.  Every lock the
    list touches (``condition_of`` of each lane, deduplicated) is taken
    once, in one global order so two publishers cannot deadlock, and held
    for the whole walk; the accepted tasks are counted with one
    ``accepted(n)`` and each lock is notified once.  ``offer`` queues a
    task when its lane has room and answers ``False`` when it is full;
    the publisher then waits on the lane's condition with every other
    lock released, and fails once the executor closes meanwhile.  The
    tasks queued so far are announced before it waits, so the counters
    never run behind a worker.  A failure leaves exactly the tasks
    before the failing one queued, whatever their lanes.
    """
    if not lanes:
        return
    held = sorted({condition_of(lane) for lane in dict.fromkeys(lanes)}, key=id)
    for condition in held:
        condition.acquire()
    added = 0
    try:
        if is_closed():
            raise DeliveryError(f"the {name} delivery executor is closed")
        for task, lane in zip(tasks, lanes):
            while not offer(lane, task):
                if added:
                    counters.accepted(added)
                    added = 0
                    for other in held:
                        other.notify_all()
                # Wait for the lane's consumer to free a slot.
                _wait_alone(held, condition_of(lane))
                if is_closed():
                    raise DeliveryError(
                        f"the {name} delivery executor closed while "
                        "waiting for queue space"
                    )
            added += 1
    finally:
        if added:
            counters.accepted(added)
            for condition in held:
                condition.notify_all()
        for condition in reversed(held):
            condition.release()


def _wait_alone(held: list[threading.Condition], condition: threading.Condition) -> None:
    """Wait on ``condition`` with every lock in ``held`` released.

    The other lanes' consumers keep running meanwhile; the locks are
    re-taken in ``held`` order, so the global order is never violated.
    """
    others = [other for other in held if other is not condition]
    for other in others:
        other.release()
    try:
        condition.wait()
    finally:
        if others:
            condition.release()
            for lock in held:
                lock.acquire()


async def _drive(awaitable) -> None:
    await awaitable


#: One long-lived bridge loop per thread for async sinks on synchronous
#: executors (a fresh loop per notification would be hot-path overhead).
_BRIDGE = threading.local()


def _bridge_loop() -> asyncio.AbstractEventLoop:
    loop = getattr(_BRIDGE, "loop", None)
    if loop is None or loop.is_closed():
        loop = asyncio.new_event_loop()
        _BRIDGE.loop = loop
    return loop


def close_bridge_loop() -> None:
    """Close the calling thread's bridge loop, if one was ever created.

    Called by executor worker threads on exit so the loop's selector
    file descriptors do not outlive the thread.  Safe to call on threads
    that never bridged an async sink.
    """
    loop = getattr(_BRIDGE, "loop", None)
    if loop is not None and not loop.is_closed():
        loop.close()
    _BRIDGE.loop = None


def invoke_sink(sink: "NotificationSink", notification: "Notification") -> None:
    """Run one sink to completion, bridging async sinks from sync code.

    Plain callables are invoked directly.  A coroutine (or any awaitable)
    returned by an ``async def`` sink is driven on a long-lived
    per-thread bridge loop — the one path for async sinks, on every
    in-process executor.  Raises
    :class:`~repro.core.errors.DeliveryError` when the calling thread
    already runs an event loop (driving a nested loop would deadlock):
    pin such subscriptions to ``delivery="threadpool"``, whose workers
    run no loop of their own.
    """
    result = sink(notification)
    # A plain sink returns None: skip the awaitable probe for it.
    if result is not None:
        settle_sink_result(result)


def settle_sink_result(result: object) -> None:
    """:func:`invoke_sink`'s async bridge for what a sink returned."""
    if inspect.isawaitable(result):
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            _bridge_loop().run_until_complete(_drive(result))
        else:
            if inspect.iscoroutine(result):
                result.close()  # silence the never-awaited warning
            raise DeliveryError(
                "an async sink cannot be driven synchronously from inside a "
                "running event loop; pin the subscription to delivery='threadpool'"
            )
