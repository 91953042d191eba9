"""Asyncio delivery: async sinks on an event loop owned by the service.

The executor owns one long-lived event loop on a background thread.
Every subscription gets its own FIFO lane (a bounded deque) with one
consumer coroutine that pops tasks and ``await``s async sinks (plain
callables are invoked directly on the loop) — per-subscription FIFO is a
consequence of the single consumer per lane, while *different*
subscriptions' sinks interleave cooperatively on the loop, which is the
point: a thousand slow ``await``-ing subscribers cost one thread.

Publisher-side backpressure mirrors the threadpool executor: each lane
holds at most ``queue_capacity`` tasks and a full lane applies the
``block`` / ``drop_oldest`` / ``raise`` overflow policy at ``submit``
time, on the publishing thread — task by task, even when
``submit_all`` queues a whole list under one hold of the executor's
condition with one ``accepted(n)``.  Sink exceptions are swallowed and
counted (``failed``), never propagated into the loop.  With
``retry_attempts > 1`` an ordinary :class:`Exception` is re-attempted
after an ``await asyncio.sleep(retry_backoff * 2**n)`` — the lane's
consumer yields during the backoff, so other subscriptions keep flowing
on the loop; extra attempts are counted in ``retried``.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
import time
from collections import deque
from typing import Sequence

from repro.core.errors import DeliveryError
from repro.service.delivery.base import (
    DeliveryTask,
    enqueue_in_order,
    validate_overflow_policy,
)
from repro.service.delivery.stats import DeliveryCounters, DeliveryStats

__all__ = ["AsyncioDeliveryExecutor"]


class AsyncioDeliveryExecutor:
    """Deliver notifications on a service-owned asyncio event loop."""

    name = "asyncio"

    def __init__(
        self,
        *,
        queue_capacity: int = 1024,
        overflow: str = "block",
        retry_attempts: int = 1,
        retry_backoff: float = 0.0,
        counters: DeliveryCounters | None = None,
    ) -> None:
        if queue_capacity < 1:
            raise DeliveryError("queue_capacity must be at least 1")
        if retry_attempts < 1:
            raise DeliveryError("retry_attempts must be at least 1")
        if retry_backoff < 0.0:
            raise DeliveryError("retry_backoff must not be negative")
        self._retry_attempts = retry_attempts
        self._retry_backoff = retry_backoff
        self._overflow = validate_overflow_policy(overflow)
        self._capacity = queue_capacity
        self._counters = counters if counters is not None else DeliveryCounters()
        #: Guards the lanes, the consumer roster and the closed flag; the
        #: condition is notified whenever a lane frees a slot.
        self._condition = threading.Condition()
        self._lanes: dict[str, deque[DeliveryTask]] = {}
        self._consuming: set[str] = set()
        #: Tasks popped by a consumer but not yet executed; a
        #: non-draining close reconciles them as dropped (the stopped
        #: loop will never resume the suspended coroutine).
        self._in_flight = 0
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-delivery-asyncio", daemon=True
        )
        self._thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # -- publisher side ---------------------------------------------------------
    def submit(self, task: DeliveryTask) -> None:
        self.submit_all((task,))

    def submit_all(self, tasks: Sequence[DeliveryTask]) -> None:
        """Queue tasks under one hold of the condition, one ``accepted``."""
        # Every lane shares the one condition; a lane is looked up by
        # subscription id under it (a consumer retires its empty lane).
        enqueue_in_order(
            tasks,
            [task.subscription_id for task in tasks],
            condition_of=self._condition_of,
            offer=self._offer,
            drop_oldest=self._drop_oldest,
            full_message=self._full_message,
            is_closed=self._is_closed,
            overflow=self._overflow,
            counters=self._counters,
            name=self.name,
        )

    def _condition_of(self, subscription_id: str) -> threading.Condition:
        return self._condition

    def _is_closed(self) -> bool:
        return self._closed

    def _offer(self, subscription_id: str, task: DeliveryTask) -> bool:
        """Queue ``task`` unless its lane is full (condition held)."""
        lane = self._lanes.get(subscription_id)
        if lane is None:
            lane = self._lanes[subscription_id] = deque()
        elif len(lane) >= self._capacity:
            return False
        lane.append(task)
        if subscription_id not in self._consuming:
            self._consuming.add(subscription_id)
            # Scheduled while still holding the condition (the call only
            # enqueues a loop callback): close() cannot stop the loop
            # between acceptance and scheduling.
            asyncio.run_coroutine_threadsafe(self._consume(subscription_id), self._loop)
        return True

    def _drop_oldest(self, subscription_id: str, task: DeliveryTask) -> None:
        self._lanes[subscription_id].popleft()

    def _full_message(self, subscription_id: str, task: DeliveryTask) -> str:
        return (
            f"delivery lane full ({self._capacity} tasks) for "
            f"subscription {subscription_id!r}"
        )

    # -- loop side --------------------------------------------------------------
    async def _consume(self, subscription_id: str) -> None:
        """Drain one subscription's lane serially (the FIFO guarantee)."""
        while True:
            with self._condition:
                lane = self._lanes.get(subscription_id)
                if not lane:
                    self._consuming.discard(subscription_id)
                    self._lanes.pop(subscription_id, None)
                    self._condition.notify_all()  # close() awaits consumer exit
                    return
                task = lane.popleft()
                self._in_flight += 1
                self._condition.notify_all()
            ok = True
            attempt = 0
            while True:
                attempt += 1
                try:
                    result = task.sink(task.notification)
                    if result is not None and inspect.isawaitable(result):
                        await result
                    break
                except Exception:
                    # Transient sink failures are retried within the
                    # budget; the backoff awaits, so the loop (and every
                    # other lane) keeps running during it.
                    if attempt >= self._retry_attempts:
                        ok = False
                        break
                    self._counters.retrying()
                    if self._retry_backoff > 0.0:
                        await asyncio.sleep(
                            self._retry_backoff * (2 ** (attempt - 1))
                        )
                except BaseException:
                    # BaseException included: a sink raising SystemExit must
                    # neither kill the lane's consumer nor leak the pending
                    # count (hanging every later drain()).  Never retried.
                    ok = False
                    break
            with self._condition:
                self._in_flight -= 1
                self._counters.executed(int(ok), int(not ok))

    # -- life-cycle -------------------------------------------------------------
    def drain(self) -> None:
        """Block until every accepted task was delivered or dropped."""
        self._counters.wait_idle()

    def close(self, *, drain: bool = True) -> None:
        """Stop the loop; by default queued deliveries complete first.

        ``_closed`` is set *before* draining (as on the threadpool), so
        a publish racing the close either completes its submit first —
        and the task is drained — or gets the contractual
        :class:`~repro.core.errors.DeliveryError`; an accepted task can
        never slip in behind the drain and be silently discarded.
        """
        if not self._thread.is_alive():
            return
        with self._condition:
            self._closed = True  # no further submissions from here on
            if not drain:
                for lane in self._lanes.values():
                    self._counters.discarded(len(lane))
                    lane.clear()
            self._condition.notify_all()
        if drain:
            # The loop still runs: the consumers empty their lanes.
            self._counters.wait_idle()
        with self._condition:
            # Let the consumer coroutines observe their empty/cleared
            # lanes and deregister before the loop stops (bounded: an
            # async sink hung mid-await must not hang close forever).
            deadline = time.monotonic() + 1.0
            while self._consuming and time.monotonic() < deadline:
                self._condition.wait(timeout=0.05)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        with self._condition:
            if self._in_flight:
                # A consumer died suspended mid-await when the loop
                # stopped (non-draining close); its task will never
                # execute — account it as dropped so the at-most-once
                # invariant holds and drain() can never hang.
                self._counters.discarded(self._in_flight)
                self._in_flight = 0

    def stats(self) -> DeliveryStats:
        return self._counters.snapshot(mode=self.name, executors=(self.name,))
