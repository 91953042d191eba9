"""Subscription management.

A subscription binds a profile to a subscriber and a delivery callback.  The
registry keeps the authoritative :class:`~repro.core.profiles.ProfileSet`
the filter component is built from and supports the subscribe/unsubscribe
life-cycle of the service; a :class:`SubscriptionHandle` is a client's
view of one registered subscription.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from repro.core.builder import ProfileBuilder
from repro.core.errors import ProfileError, SubscriptionError
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Schema
from repro.service.notifications import NotificationSink

if TYPE_CHECKING:
    from repro.service.broker import Broker

__all__ = ["KEEP_DELIVERY", "Subscription", "SubscriptionHandle", "SubscriptionRegistry"]

#: Sentinel for :meth:`SubscriptionRegistry.replace_sink`: keep the
#: subscription's current delivery pin (``None`` would *reset* it to the
#: service default, which is a distinct, deliberate action).
KEEP_DELIVERY = object()


@dataclass(frozen=True)
class Subscription:
    """One active subscription."""

    subscription_id: str
    profile: Profile
    subscriber: str
    sink: NotificationSink | None = None
    #: Pinned delivery mode for this subscription's sink (one of
    #: :data:`repro.service.delivery.DELIVERY_MODES`); ``None`` rides the
    #: service-default executor.
    delivery: str | None = None


class SubscriptionRegistry:
    """Registry of the subscriptions known to one broker."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._subscriptions: dict[str, Subscription] = {}
        self._by_profile_id: dict[str, str] = {}
        self._counter = 0

    # -- life-cycle -----------------------------------------------------------
    def subscribe(
        self,
        profile: Profile,
        subscriber: str,
        *,
        sink: NotificationSink | None = None,
        delivery: str | None = None,
        subscription_id: str | None = None,
    ) -> Subscription:
        """Register a subscription for ``profile`` on behalf of ``subscriber``."""
        profile.validate(self._schema)
        if profile.profile_id in self._by_profile_id:
            raise SubscriptionError(
                f"profile id {profile.profile_id!r} already has a subscription"
            )
        if subscription_id is None:
            # Skip taken ids: after a durable replay registers explicit
            # ids ("sub-7"), fresh auto-generated ids must not collide.
            self._counter += 1
            subscription_id = f"sub-{self._counter}"
            while subscription_id in self._subscriptions:
                self._counter += 1
                subscription_id = f"sub-{self._counter}"
        else:
            # An explicit "sub-N" (durable replay) advances the counter so
            # later auto ids never resurrect a replayed handle's id.
            match = re.fullmatch(r"sub-(\d+)", subscription_id)
            if match:
                self._counter = max(self._counter, int(match.group(1)))
        if subscription_id in self._subscriptions:
            raise SubscriptionError(f"duplicate subscription id {subscription_id!r}")
        subscription = Subscription(subscription_id, profile, subscriber, sink, delivery)
        self._subscriptions[subscription_id] = subscription
        self._by_profile_id[profile.profile_id] = subscription_id
        return subscription

    def replace_sink(
        self,
        subscription_id: str,
        sink: NotificationSink | None,
        *,
        delivery: object = KEEP_DELIVERY,
    ) -> Subscription:
        """Re-pin a subscription's sink and delivery mode in place.

        The subscription keeps its id, subscriber and profile; only the
        delivery target changes.  ``delivery`` defaults to the
        :data:`KEEP_DELIVERY` sentinel — swapping only the sink preserves
        an existing executor pin; pass ``None`` explicitly to reset the
        subscription to the service-default executor.  Notifications
        already queued with the old sink still reach it (at-most-once
        dispatch is per task).  Returns the updated subscription record.
        """
        subscription = self.get(subscription_id)
        if delivery is KEEP_DELIVERY:
            updated = replace(subscription, sink=sink)
        else:
            updated = replace(subscription, sink=sink, delivery=delivery)
        self._subscriptions[subscription_id] = updated
        return updated

    def replace_profile(self, subscription_id: str, profile: Profile) -> Subscription:
        """Swap the profile of an existing subscription (modify life-cycle).

        The subscription keeps its id, subscriber and sink; only the
        profile changes.  The new profile is validated against the schema
        and its id must not collide with another subscription's profile.
        Returns the updated subscription record.
        """
        subscription = self.get(subscription_id)
        profile.validate(self._schema)
        old_profile_id = subscription.profile.profile_id
        existing = self._by_profile_id.get(profile.profile_id)
        if existing is not None and existing != subscription_id:
            raise SubscriptionError(
                f"profile id {profile.profile_id!r} already has a subscription"
            )
        updated = replace(subscription, profile=profile)
        self._subscriptions[subscription_id] = updated
        del self._by_profile_id[old_profile_id]
        self._by_profile_id[profile.profile_id] = subscription_id
        return updated

    def unsubscribe(self, subscription_id: str) -> Subscription:
        """Remove a subscription and return it."""
        try:
            subscription = self._subscriptions.pop(subscription_id)
        except KeyError as exc:
            raise SubscriptionError(f"unknown subscription id {subscription_id!r}") from exc
        del self._by_profile_id[subscription.profile.profile_id]
        return subscription

    # -- access -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._subscriptions)

    def __iter__(self) -> Iterator[Subscription]:
        return iter(self._subscriptions.values())

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._subscriptions

    def get(self, subscription_id: str) -> Subscription:
        try:
            return self._subscriptions[subscription_id]
        except KeyError as exc:
            raise SubscriptionError(f"unknown subscription id {subscription_id!r}") from exc

    def has_profile_id(self, profile_id: str) -> bool:
        """Return ``True`` when some subscription registers ``profile_id``."""
        return profile_id in self._by_profile_id

    def by_profile_id(self, profile_id: str) -> Subscription:
        """Return the subscription registered for a profile id."""
        try:
            return self._subscriptions[self._by_profile_id[profile_id]]
        except KeyError as exc:
            raise SubscriptionError(f"no subscription for profile id {profile_id!r}") from exc

    def subscribers(self) -> list[str]:
        """Return the distinct subscriber names."""
        return sorted({s.subscriber for s in self._subscriptions.values()})

    def profile_set(self) -> ProfileSet:
        """Return a fresh profile set of all subscribed profiles."""
        return ProfileSet(self._schema, (s.profile for s in self._subscriptions.values()))

    @property
    def schema(self) -> Schema:
        return self._schema


class SubscriptionHandle:
    """Durable handle of one subscription (returned by ``subscribe``).

    A handle is a view: its home broker's registry and paused set own the
    subscription's state, so a change made through the broker shows here
    too, and two handles of one subscription compare equal.  Pause,
    resume, modify and cancel go through the owning service's hooks —
    broker calls for :class:`~repro.api.FilterService`, broker calls plus
    routing propagation for :class:`~repro.service.routing.NetworkService`
    — and ride the engine's incremental maintenance, so the filter
    structures and the adaptation history survive any amount of churn.
    Handles are idempotent where it is safe (pausing a paused handle is a
    no-op) and strict where it is not (anything on a cancelled handle
    raises :class:`~repro.core.errors.SubscriptionError`).
    """

    def __init__(self, service, broker: "Broker", subscription_id: str) -> None:
        self._service = service
        self._broker = broker
        self._subscription_id = subscription_id
        #: The record :meth:`cancel` returned (``None`` until then).
        self._cancelled: Subscription | None = None

    # -- introspection ---------------------------------------------------------
    @property
    def subscription_id(self) -> str:
        return self._subscription_id

    def _record(self) -> Subscription:
        if self._cancelled is not None:
            return self._cancelled
        return self._broker.subscriptions.get(self._subscription_id)

    @property
    def profile(self) -> Profile:
        """Return the registered profile.

        After :meth:`cancel` it is the profile the subscription held
        then; a subscription cancelled through the broker instead has
        no record left, and reading it raises
        :class:`~repro.core.errors.SubscriptionError`.
        """
        return self._record().profile

    @property
    def subscriber(self) -> str:
        return self._record().subscriber

    @property
    def home_broker(self) -> str:
        """Return the id of the broker this subscription is registered at."""
        return self._broker.broker_id

    @property
    def state(self) -> str:
        """Return ``"active"``, ``"paused"`` or ``"cancelled"``."""
        if self.is_cancelled:
            return "cancelled"
        return "paused" if self.is_paused else "active"

    @property
    def is_active(self) -> bool:
        return not (self.is_cancelled or self.is_paused)

    @property
    def is_paused(self) -> bool:
        return self._broker.is_paused(self._subscription_id)

    @property
    def is_cancelled(self) -> bool:
        return self._subscription_id not in self._broker.subscriptions

    def notifications_received(self) -> int:
        """Return how many notifications this handle's profile received."""
        return self._broker.statistics.notifications_of(self.profile.profile_id)

    # -- life-cycle ------------------------------------------------------------
    def _require_live(self, operation: str) -> None:
        if self.is_cancelled:
            raise SubscriptionError(
                f"cannot {operation} subscription {self._subscription_id!r}: "
                "the handle was cancelled"
            )

    def pause(self) -> "SubscriptionHandle":
        """Stop deliveries (idempotent); the registration survives."""
        self._require_live("pause")
        if not self.is_paused:
            self._service._pause(self._broker, self._subscription_id)
        return self

    def resume(self) -> "SubscriptionHandle":
        """Re-enable deliveries (idempotent)."""
        self._require_live("resume")
        if self.is_paused:
            self._service._resume(self._broker, self._subscription_id)
        return self

    def modify(self, profile: Profile | ProfileBuilder) -> "SubscriptionHandle":
        """Replace the subscribed profile in place.

        A :class:`~repro.core.builder.ProfileBuilder` compiles under the
        *current* profile id (same subscription, new predicates); a
        ready-made :class:`~repro.core.profiles.Profile` is registered
        as given.  Works while paused — the new profile attaches on
        resume.
        """
        self._require_live("modify")
        if isinstance(profile, ProfileBuilder):
            current = self.profile
            profile = profile.build(
                current.profile_id,
                subscriber=current.subscriber,
                priority=current.priority,
            )
        elif not isinstance(profile, Profile):
            raise ProfileError(
                f"modify() needs a Profile or ProfileBuilder, got {type(profile).__name__}"
            )
        self._service._modify(self._broker, self._subscription_id, profile)
        return self

    def deliver_to(
        self,
        sink: NotificationSink | None,
        *,
        delivery: object = KEEP_DELIVERY,
    ) -> "SubscriptionHandle":
        """Pin this subscription's sink (and, optionally, delivery mode).

        ``sink=None`` detaches the sink (the notification log still
        records matches).  ``delivery`` routes this subscription's
        notifications through the named executor (``"inline"``,
        ``"threadpool"``, ``"webhook"``); omitted, an existing pin is
        kept, while an explicit ``None`` resets the subscription to the
        service-default executor.  Notifications already queued for the
        old sink still reach it — and when the re-pin *changes executor*,
        new notifications may run before that backlog (FIFO holds per
        (subscription, executor); call the service's ``drain()`` first
        for a clean handover).
        """
        self._require_live("redirect")
        self._broker.set_subscription_sink(self._subscription_id, sink, delivery=delivery)
        return self

    def cancel(self) -> Subscription:
        """Unsubscribe for good; further operations on the handle raise."""
        self._require_live("cancel")
        self._cancelled = self._service._cancel(self._broker, self._subscription_id)
        return self._cancelled

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubscriptionHandle):
            return NotImplemented
        return self._broker is other._broker and self._subscription_id == other._subscription_id

    def __hash__(self) -> int:
        return hash(self._subscription_id)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"SubscriptionHandle({self._subscription_id!r}, "
            f"home={self.home_broker!r}, state={self.state!r})"
        )
