"""Synchronous in-publisher-thread delivery (the historical default).

``submit_all`` calls the sinks in list order before returning, on the
publishing thread — directly, through the async bridge only when a sink
returns something other than ``None`` — so ``publish()`` keeps today's
semantics exactly:
when it returns, every sink has observed its notification, and a sink
exception propagates to the publisher (asynchronous executors instead
swallow and count sink failures — a subscriber bug must not kill a
shared worker).  The sinks after a raising one do not run and are never
counted as dispatched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.errors import DeliveryError
from repro.service.delivery.base import settle_sink_result
from repro.service.delivery.stats import DeliveryCounters, DeliveryStats

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.service.notifications import Notification
    from repro.service.subscriptions import Subscription

__all__ = ["InlineExecutor"]


class InlineExecutor:
    """Run every sink synchronously on the publishing thread."""

    name = "inline"

    def __init__(self, counters: DeliveryCounters | None = None) -> None:
        self._counters = counters if counters is not None else DeliveryCounters()
        self._closed = False

    def submit_all(
        self, subscriptions: Sequence[Subscription], notifications: Sequence[Notification]
    ) -> None:
        if self._closed:
            raise DeliveryError("the inline delivery executor is closed")
        delivered = 0
        try:
            for delivered, subscription in enumerate(subscriptions):
                result = subscription.sink(notifications[delivered])
                if result is not None:
                    settle_sink_result(result)
        except BaseException:
            # Even a BaseException-raising sink (e.g. sys.exit) is settled
            # as failed; inline semantics: the publisher sees the sink
            # error.  Nothing stays pending, so both counts land together.
            self._counters.accepted(delivered + 1)
            self._counters.executed(delivered, 1)
            raise
        if subscriptions:
            self._counters.accepted(len(subscriptions))
            self._counters.executed(len(subscriptions), 0)

    def drain(self) -> None:
        """Nothing is ever pending: ``submit_all`` already ran the sinks."""

    def close(self, *, drain: bool = True) -> None:
        self._closed = True

    def stats(self) -> DeliveryStats:
        return self._counters.snapshot(mode=self.name, executors=(self.name,))
