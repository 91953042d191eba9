"""Thread-safe delivery accounting.

Executors mutate one :class:`DeliveryCounters` under its lock (the
publisher side once per submitted list of tasks); a thread-pool worker
instead counts the tasks it executed on its own :class:`WorkerTally`,
which the counters read under their lock.
:meth:`DeliveryCounters.snapshot` freezes the numbers into the
:class:`DeliveryStats` value object that
:class:`repro.api.ServiceStats` exposes as its ``delivery`` field.

The counters obey one invariant the tests pin down (at-most-once
dispatch)::

    dispatched == delivered + failed + dropped + dead_lettered + pending

``retried`` counts *extra attempts*, not tasks — a task retried twice
and then delivered contributes 1 to ``delivered`` and 2 to ``retried``
— so it sits outside the conservation law.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["DeliveryCounters", "DeliveryStats", "WorkerTally"]


@dataclass(frozen=True)
class DeliveryStats:
    """One consistent snapshot of a service's notification delivery.

    All-zero (with ``mode="inline"`` and no instantiated executors) for a
    service that never delivered through a sink.
    """

    #: Default executor mode of the service (``"inline"`` historically).
    mode: str = "inline"
    #: Tasks accepted by an executor.
    dispatched: int = 0
    #: Sinks that ran to completion.
    delivered: int = 0
    #: Sinks that raised; asynchronous executors swallow the error (a bad
    #: subscriber must not kill a worker), count it here and move on.
    failed: int = 0
    #: Queued tasks discarded by a non-draining ``close``.
    dropped: int = 0
    #: Tasks accepted but not yet executed (queued or in flight).
    pending: int = 0
    #: High-water mark of ``pending`` (backpressure visibility).
    max_pending: int = 0
    #: Extra sink attempts beyond each task's first (the webhook
    #: executor's retry budget); not part of the at-most-once
    #: conservation law.
    retried: int = 0
    #: Tasks parked on a dead-letter queue after exhausting their retry
    #: budget or hitting an open circuit breaker (webhook executor).
    dead_lettered: int = 0
    #: Executor modes actually instantiated, in first-use order.
    executors: tuple[str, ...] = ()


class WorkerTally:
    """The tasks one worker thread has executed, kept without a lock.

    Only its worker writes a tally (one ``+= 1`` per task, the moment the
    sink returns); :class:`DeliveryCounters` reads it, under its own
    lock, whenever it computes ``pending`` or a snapshot.  A worker task
    is therefore settled as soon as it ran, without a lock round trip
    per task.
    """

    __slots__ = ("delivered", "failed")

    def __init__(self) -> None:
        self.delivered = 0
        self.failed = 0


@dataclass
class DeliveryCounters:
    """Mutable, lock-guarded accumulator behind :class:`DeliveryStats`.

    ``pending`` is derived — dispatched minus every settled task,
    including those on the workers' :class:`WorkerTally` objects — so the
    conservation law holds by construction in every snapshot.  The lock
    doubles as the condition notified whenever ``pending`` drops to zero,
    which is what ``drain()`` waits for.
    """

    dispatched: int = 0
    delivered: int = 0
    failed: int = 0
    dropped: int = 0
    max_pending: int = 0
    retried: int = 0
    dead_lettered: int = 0
    _tallies: list[WorkerTally] = field(default_factory=list, repr=False)
    _condition: threading.Condition = field(
        default_factory=threading.Condition, repr=False
    )

    def tally(self) -> WorkerTally:
        """Register and return a worker thread's own :class:`WorkerTally`."""
        with self._condition:
            tally = WorkerTally()
            self._tallies.append(tally)
            return tally

    def _executed(self) -> tuple[int, int]:
        """Return ``(delivered, failed)`` including every tally (lock held)."""
        delivered, failed = self.delivered, self.failed
        for tally in self._tallies:
            delivered += tally.delivered
            failed += tally.failed
        return delivered, failed

    def _pending(self, delivered: int, failed: int) -> int:
        return self.dispatched - delivered - failed - self.dropped - self.dead_lettered

    def _wake_if_idle(self) -> None:
        """Notify ``wait_idle`` once nothing is pending (lock held)."""
        if self._pending(*self._executed()) <= 0:
            self._condition.notify_all()

    def accepted(self, count: int = 1) -> None:
        """Record tasks entering an executor's queue."""
        with self._condition:
            self.dispatched += count
            pending = self._pending(*self._executed())
            if pending > self.max_pending:
                self.max_pending = pending

    def executed(self, delivered: int = 0, failed: int = 0) -> None:
        """Record tasks that left the queue through their sinks."""
        with self._condition:
            self.delivered += delivered
            self.failed += failed
            self._wake_if_idle()

    def worker_idle(self) -> None:
        """Called by a tally's worker when it runs out of work."""
        with self._condition:
            self._wake_if_idle()

    def retrying(self, count: int = 1) -> None:
        """Record extra attempts on a task that has not yet settled."""
        with self._condition:
            self.retried += count

    def dead_letter(self) -> None:
        """Record one task settling on the dead-letter queue."""
        with self._condition:
            self.dead_lettered += 1
            self._wake_if_idle()

    def discarded(self, count: int) -> None:
        """Record queued tasks dropped before execution."""
        if count <= 0:
            return
        with self._condition:
            self.dropped += count
            self._wake_if_idle()

    def wait_idle(self) -> None:
        """Block until no task is queued or in flight."""
        with self._condition:
            while self._pending(*self._executed()) > 0:
                self._condition.wait()

    def snapshot(self, *, mode: str, executors: tuple[str, ...] = ()) -> DeliveryStats:
        """Freeze the counters into a :class:`DeliveryStats`."""
        with self._condition:
            delivered, failed = self._executed()
            return DeliveryStats(
                mode=mode,
                dispatched=self.dispatched,
                delivered=delivered,
                failed=failed,
                dropped=self.dropped,
                pending=self._pending(delivered, failed),
                max_pending=self.max_pending,
                retried=self.retried,
                dead_lettered=self.dead_lettered,
                executors=executors,
            )
