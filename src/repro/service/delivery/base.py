"""Delivery-subsystem value objects and the executor protocol.

The matching hot path produces a :class:`DeliveryPlan` — the pure *what*
of one publish call's fan-out (which sink receives which notification,
in what per-subscription order) — and hands it to a
:class:`~repro.service.delivery.DeliveryDispatcher`, which walks the
plan's tasks (:class:`DeliveryTask`) in order and hands each run of
consecutive tasks bound for one :class:`DeliveryExecutor` (the *how*:
inline, bounded thread pool or webhook lanes) to it
as one list through :meth:`DeliveryExecutor.submit_all`.  The split is
the seam the ROADMAP called out on ``FilterService.publish_batch``:
matching never waits on a sink, and a slow subscriber stalls at most
its own delivery lane.

Executor contract
-----------------

* **Per-subscription FIFO** — for one subscription id, sinks observe
  notifications in submission order (list order within one
  ``submit_all``), whatever the executor.
* **At-most-once settlement** — a submitted task settles exactly once:
  delivered, failed, dropped, or dead-lettered (counted in
  :class:`~repro.service.delivery.stats.DeliveryStats`), never
  duplicated.  Executors with a retry budget may *attempt* a sink more
  than once before settling; extra attempts are counted in ``retried``
  and the default budget (one attempt) preserves the historical
  never-retried semantics.
* **Bounded backpressure** — asynchronous executors bound each delivery
  lane at ``queue_capacity`` tasks and apply one of the
  :data:`OVERFLOW_POLICIES` when a lane is full: ``"block"`` (the
  publisher waits for space — backpressure), ``"drop_oldest"`` (the
  oldest queued task of that lane is discarded) or ``"raise"``
  (:class:`~repro.core.errors.DeliveryOverflowError`).  The policy
  applies per task, in list order, even when a whole list is submitted
  (:func:`enqueue_in_order`).
* **Prefix acceptance** — a submission that fails part-way (closed
  executor, ``raise`` overflow, an inline sink error) leaves exactly the
  tasks *before* the failing one accepted, in list order, across every
  lane — as if the tasks had been submitted one at a time.
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
    NamedTuple,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from repro.core.errors import DeliveryError, DeliveryOverflowError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.service.delivery.stats import DeliveryCounters, DeliveryStats
    from repro.service.notifications import Notification, NotificationSink

__all__ = [
    "DELIVERY_MODES",
    "OVERFLOW_POLICIES",
    "DeliveryExecutor",
    "DeliveryPlan",
    "DeliveryTask",
    "enqueue_in_order",
    "invoke_sink",
    "validate_delivery_mode",
    "validate_overflow_policy",
]

#: Selectable delivery executors, in documentation order.  ``"inline"``
#: is the historical synchronous behaviour and the default.
DELIVERY_MODES = ("inline", "threadpool", "webhook")

#: Reactions of a full bounded delivery lane.
OVERFLOW_POLICIES = ("block", "drop_oldest", "raise")

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


def validate_overflow_policy(policy: str) -> str:
    """Return ``policy`` or raise the standard unknown-policy error."""
    if policy not in OVERFLOW_POLICIES:
        raise DeliveryError(
            f"unknown overflow policy {policy!r}; available policies: "
            f"{', '.join(OVERFLOW_POLICIES)}"
        )
    return policy


class DeliveryTask(NamedTuple):
    """One sink invocation: deliver ``notification`` to ``sink``.

    ``delivery`` carries the subscription's pinned executor mode
    (``None``: the service default) so one dispatcher can fan a single
    event out across several executors.  A named tuple, like
    :class:`~repro.service.notifications.Notification` (one task per
    notification with a sink): immutable, equal to a plain tuple of the
    same values, indexable and unpackable, and changed with
    ``task._replace(...)``, not ``dataclasses.replace``.
    """

    subscription_id: str
    sink: "NotificationSink"
    notification: "Notification"
    delivery: str | None = None


@dataclass(frozen=True)
class DeliveryPlan:
    """The complete fan-out of one publish call, in delivery order.

    Built by the broker once per ``publish`` / ``publish_batch`` call,
    *after* matching, statistics recording and the notification log;
    tasks appear event by event, and within an event in matched-profile
    order.  Everything concurrency-sensitive starts downstream of this
    object, so matching results are bit-identical whatever executor
    consumes it.  (Each matched event lives on its tasks' notifications.)
    """

    tasks: tuple[DeliveryTask, ...]

    def __len__(self) -> int:
        return len(self.tasks)


@runtime_checkable
class DeliveryExecutor(Protocol):
    """Protocol implemented by all delivery executors."""

    #: Executor mode name (one of :data:`DELIVERY_MODES`).
    name: str

    def submit_all(self, tasks: Sequence[DeliveryTask]) -> None:
        """Accept tasks for delivery, in list order (raises once closed).

        The dispatcher's entry point: one call per run of same-mode tasks
        of a :class:`DeliveryPlan`.  Capacity and the overflow policy
        apply per task exactly as if each were submitted alone.  An error
        (closed executor, ``raise`` overflow, an inline sink) propagates:
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
    tasks: Sequence[DeliveryTask],
    lanes: Sequence[Lane],
    *,
    condition_of: Callable[[Lane], threading.Condition],
    offer: Callable[[Lane, DeliveryTask], bool],
    drop_oldest: Callable[[Lane, DeliveryTask], None],
    full_message: Callable[[Lane, DeliveryTask], str],
    is_closed: Callable[[], bool],
    overflow: str,
    counters: "DeliveryCounters",
    name: str,
) -> None:
    """Queue ``tasks[i]`` on ``lanes[i]``, in list order, as one submission.

    The shared publisher side of the queueing executors.  Every lock the
    list touches (``condition_of`` of each lane, deduplicated) is taken
    once, in one global order so two publishers cannot deadlock, and held
    for the whole walk; the accepted tasks are counted with one
    ``accepted(n)`` and each lock is notified once.  ``offer`` queues a
    task when its lane has room and answers ``False`` when it is full;
    the overflow policy then applies to that task: ``drop_oldest`` makes
    room, ``raise`` raises ``full_message``, ``block`` waits on the
    lane's condition with every other lock released.  The tasks queued
    so far are announced before any of these, so the counters never run
    behind a worker.  A failure leaves exactly the tasks before the
    failing one queued, whatever their lanes.
    """
    if not tasks:
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
                if overflow == "drop_oldest":
                    drop_oldest(lane, task)
                    counters.discarded()
                elif overflow == "raise":
                    raise DeliveryOverflowError(full_message(lane, task))
                else:  # block: wait for the lane's consumer to free a slot
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
    if result is not None and inspect.isawaitable(result):
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
