"""Synchronous in-publisher-thread delivery (the historical default).

``submit_all`` runs the sinks in list order before returning, on the
publishing thread, so ``publish()`` keeps today's semantics exactly:
when it returns, every sink has observed its notification, and a sink
exception propagates to the publisher (asynchronous executors instead
swallow and count sink failures — a subscriber bug must not kill a
shared worker).  The sinks after a raising one do not run and are never
counted as dispatched.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import DeliveryError
from repro.service.delivery.base import DeliveryTask, invoke_sink
from repro.service.delivery.stats import DeliveryCounters, DeliveryStats

__all__ = ["InlineExecutor"]


class InlineExecutor:
    """Run every sink synchronously on the publishing thread."""

    name = "inline"

    def __init__(self, counters: DeliveryCounters | None = None) -> None:
        self._counters = counters if counters is not None else DeliveryCounters()
        self._closed = False

    def submit_all(self, tasks: Sequence[DeliveryTask]) -> None:
        if self._closed:
            raise DeliveryError("the inline delivery executor is closed")
        delivered = 0
        ok = False
        try:
            for task in tasks:
                invoke_sink(task.sink, task.notification)
                delivered += 1
            ok = True
        finally:
            # try/finally so even a BaseException-raising sink (e.g.
            # sys.exit) is settled as failed; inline semantics: the
            # publisher sees the sink error.  Nothing stays pending, so
            # both counts land together.
            failed = 0 if ok else 1
            if delivered or failed:
                self._counters.accepted(delivered + failed)
                self._counters.executed(delivered, failed)

    def drain(self) -> None:
        """Nothing is ever pending: ``submit_all`` already ran the sinks."""

    def close(self, *, drain: bool = True) -> None:
        self._closed = True

    def stats(self) -> DeliveryStats:
        return self._counters.snapshot(mode=self.name, executors=(self.name,))
