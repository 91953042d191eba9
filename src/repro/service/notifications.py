"""Notifications delivered by the event notification service.

An ENS "informs its users about new events that occurred on providers'
sites" — a notification pairs one matched event with one profile (and hence
one subscriber).  :class:`Notification` is a small value object (a named
tuple: the broker builds one per matched (event, profile) pair) and
:class:`NotificationLog` an in-memory delivery log used by the examples,
the tests and the service statistics.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Awaitable, Callable, Iterator, Mapping, NamedTuple, Sequence

from repro.core.events import Event

__all__ = ["AsyncNotificationSink", "Notification", "NotificationLog", "NotificationSink"]

#: Callback type invoked for every delivered notification.  A sink may
#: also be an ``async def`` returning an awaitable
#: (:data:`AsyncNotificationSink`); the in-process delivery executors of
#: :mod:`repro.service.delivery` drive either kind — an async sink runs
#: to completion on a private per-thread loop of the delivering thread.
NotificationSink = Callable[["Notification"], None]

#: An ``async def`` notification sink (awaited by the delivery layer).
AsyncNotificationSink = Callable[["Notification"], Awaitable[None]]


class Notification(NamedTuple):
    """One delivered notification: ``event`` matched ``profile_id``.

    A named tuple, because the broker builds one per match and a tuple
    costs a third of a frozen dataclass to construct.  Fields are read
    by name; a notification is immutable, equals (and hashes like) a
    plain tuple of the same values, can be indexed and unpacked, and is
    changed with ``notification._replace(...)``, not
    ``dataclasses.replace``.
    """

    event: Event
    profile_id: str
    subscriber: str | None = None
    broker_id: str | None = None
    delivered_at: float = 0.0
    #: Comparison operations the filter spent on the event that produced
    #: this notification (used for the per-profile statistics of Fig. 5(b)).
    filter_operations: int = 0


class NotificationLog:
    """In-memory sink collecting notifications for inspection.

    Thread-safe: a log may serve as the sink of subscriptions delivered
    through the threadpool executor, whose sinks run off the publishing
    thread.  Recording only appends; the per-profile and
    per-subscriber counts are brought up to date when they are read, so
    the publish path never pays for them.
    """

    def __init__(self) -> None:
        self._notifications: list[Notification] = []
        self._per_profile: Counter = Counter()
        self._per_subscriber: Counter = Counter()
        #: Notifications already folded into the two counters.
        self._counted = 0
        self._lock = threading.Lock()

    def __call__(self, notification: Notification) -> None:
        self.deliver(notification)

    def deliver(self, notification: Notification) -> None:
        """Record one notification."""
        self.deliver_all((notification,))

    def deliver_all(self, notifications: Sequence[Notification]) -> None:
        """Record notifications in order, under one lock acquisition."""
        with self._lock:
            self._notifications.extend(notifications)

    def _count(self) -> None:
        """Fold the notifications recorded since the last read (lock held)."""
        fresh = self._notifications[self._counted :]
        self._counted = len(self._notifications)
        self._per_profile.update(n.profile_id for n in fresh)
        self._per_subscriber.update(n.subscriber for n in fresh if n.subscriber is not None)

    # -- access ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._notifications)

    def __iter__(self) -> Iterator[Notification]:
        return iter(self.all())

    def all(self) -> list[Notification]:
        """Return every recorded notification in delivery order."""
        with self._lock:
            return list(self._notifications)

    def for_profile(self, profile_id: str) -> list[Notification]:
        """Return the notifications of one profile."""
        return [n for n in self.all() if n.profile_id == profile_id]

    def for_subscriber(self, subscriber: str) -> list[Notification]:
        """Return the notifications of one subscriber."""
        return [n for n in self.all() if n.subscriber == subscriber]

    def count_per_profile(self) -> Mapping[str, int]:
        """Return the notification counts keyed by profile id."""
        with self._lock:
            self._count()
            return dict(self._per_profile)

    def count_per_subscriber(self) -> Mapping[str, int]:
        """Return the notification counts keyed by subscriber."""
        with self._lock:
            self._count()
            return dict(self._per_subscriber)

    def clear(self) -> None:
        """Forget all recorded notifications."""
        with self._lock:
            self._notifications.clear()
            self._per_profile.clear()
            self._per_subscriber.clear()
            self._counted = 0
