"""The :class:`FilterService` facade and its subscription handles.

This module is the implementation behind :mod:`repro.api`; see the
package docstring for the API tour.  The facade owns one
:class:`~repro.service.broker.Broker` (and through it the adaptive
engine) and exposes the paper's *service* framing: users subscribe
profiles and receive durable :class:`SubscriptionHandle` objects whose
pause/resume/modify/cancel life-cycle rides the engine's incremental
maintenance path — subscription churn never rebuilds the filter.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.builder import ProfileBuilder, ProfileCompiler
from repro.core.errors import ProfileError, SubscriptionError
from repro.core.events import Event, as_event
from repro.core.profiles import Profile
from repro.core.schema import Schema
from repro.matching.index.kernel import KernelStats
from repro.matching.registry import ENGINES
from repro.matching.statistics import FilterStatistics
from repro.service.adaptive import (
    AdaptationPolicy,
    AdaptationRecord,
    resolve_policy_engine,
)
from repro.service.broker import Broker, PublishOutcome
from repro.service.delivery import DeliveryStats, WebhookConfig
from repro.service.durability.store import DurabilityStats, SubscriptionStore
from repro.service.notifications import NotificationSink
from repro.service.subscriptions import KEEP_DELIVERY, Subscription

__all__ = ["FilterService", "ServiceStats", "SubscriptionHandle"]

#: States of a subscription handle.
_ACTIVE, _PAUSED, _CANCELLED = "active", "paused", "cancelled"


@dataclass(frozen=True)
class ServiceStats:
    """One unified snapshot of a :class:`FilterService`'s observability.

    Merges the three accounting layers that previously had to be read
    separately: the broker's
    :class:`~repro.matching.statistics.FilterStatistics` (events,
    operations, notifications), the index family's aggregated
    :class:`~repro.matching.index.kernel.KernelStats` (columnar
    batch-kernel executed work, across replans), and the adaptive
    engine's :class:`~repro.service.adaptive.AdaptationRecord` history.
    """

    #: Events published.
    events: int
    #: Events that matched at least one profile.
    matched_events: int
    #: Notifications delivered in total.
    notifications: int
    #: Total comparison operations the filter spent.
    operations: int
    #: The paper's primary metric (0.0 before the first event).
    average_operations_per_event: float
    #: Average notified profiles per event (0.0 before the first event).
    average_matches_per_event: float
    #: Fraction of events matching at least one profile.
    match_rate: float
    #: Registered subscriptions (paused ones included).
    subscriptions: int
    #: Subscriptions currently paused.
    paused_subscriptions: int
    #: Engine the policy selects (a family name or ``"auto"``).
    engine: str
    #: Family of the matcher currently running (``None`` until the first
    #: subscription builds an engine).
    engine_family: str | None
    #: Aggregated columnar batch-kernel accounting (all-zero when the
    #: batch path never ran).
    kernel: KernelStats
    #: Every re-optimisation decision taken so far, oldest first.
    adaptations: tuple[AdaptationRecord, ...]
    #: Notification-delivery accounting across every executor the
    #: service instantiated (all-zero with ``mode="inline"`` when no
    #: sink ever received a notification).
    delivery: DeliveryStats = DeliveryStats()
    #: Durable subscription-store accounting — journal sequence,
    #: snapshots taken, records replayed at boot (``None`` when the
    #: service runs without a store).
    durability: DurabilityStats | None = None

    @property
    def batch_dedup_factor(self) -> float:
        """Return charged/executed kernel operations (1.0 = no batch runs)."""
        return self.kernel.dedup_factor

    @property
    def applied_adaptations(self) -> int:
        """Return how many re-optimisation decisions were applied."""
        return sum(1 for record in self.adaptations if record.applied)


class SubscriptionHandle:
    """Durable handle of one subscription (returned by ``subscribe``).

    The handle outlives engine replans and restructures: pause,
    resume, modify and cancel all route through the broker's incremental
    maintenance, so the filter structures and the adaptation history
    survive any amount of handle churn.  Handles are idempotent where it
    is safe (pausing a paused handle is a no-op) and strict where it is
    not (anything on a cancelled handle raises
    :class:`~repro.core.errors.SubscriptionError`).
    """

    def __init__(self, service: "FilterService", subscription: Subscription) -> None:
        self._service = service
        self._subscription = subscription
        self._state = _ACTIVE

    # -- introspection ---------------------------------------------------------
    @property
    def subscription_id(self) -> str:
        return self._subscription.subscription_id

    @property
    def profile(self) -> Profile:
        """Return the currently registered profile."""
        return self._subscription.profile

    @property
    def subscriber(self) -> str:
        return self._subscription.subscriber

    @property
    def state(self) -> str:
        """Return ``"active"``, ``"paused"`` or ``"cancelled"``."""
        return self._state

    @property
    def is_active(self) -> bool:
        return self._state == _ACTIVE

    @property
    def is_paused(self) -> bool:
        return self._state == _PAUSED

    @property
    def is_cancelled(self) -> bool:
        return self._state == _CANCELLED

    def notifications_received(self) -> int:
        """Return how many notifications this handle's profile received."""
        return self._service.broker.statistics.notifications_of(self.profile.profile_id)

    # -- life-cycle ------------------------------------------------------------
    def _require_live(self, operation: str) -> None:
        if self._state == _CANCELLED:
            raise SubscriptionError(
                f"cannot {operation} subscription {self.subscription_id!r}: "
                "the handle was cancelled"
            )

    def pause(self) -> "SubscriptionHandle":
        """Stop deliveries (idempotent); the registration survives."""
        self._require_live("pause")
        if self._state != _PAUSED:
            self._service.broker.pause_subscription(self.subscription_id)
            self._state = _PAUSED
        return self

    def resume(self) -> "SubscriptionHandle":
        """Re-enable deliveries (idempotent)."""
        self._require_live("resume")
        if self._state == _PAUSED:
            self._service.broker.resume_subscription(self.subscription_id)
            self._state = _ACTIVE
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
            current = self._subscription.profile
            profile = profile.build(
                current.profile_id,
                subscriber=current.subscriber,
                priority=current.priority,
            )
        elif not isinstance(profile, Profile):
            raise ProfileError(
                f"modify() needs a Profile or ProfileBuilder, got {type(profile).__name__}"
            )
        self._subscription = self._service.broker.modify_subscription(
            self.subscription_id, profile
        )
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
        (subscription, executor); call :meth:`FilterService.drain` first
        for a clean handover).
        """
        self._require_live("redirect")
        self._subscription = self._service.broker.set_subscription_sink(
            self.subscription_id, sink, delivery=delivery
        )
        return self

    def cancel(self) -> Subscription:
        """Unsubscribe for good; further operations on the handle raise."""
        self._require_live("cancel")
        subscription = self._service.broker.unsubscribe(self.subscription_id)
        self._state = _CANCELLED
        self._service._forget(self.subscription_id)
        return subscription

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"SubscriptionHandle({self.subscription_id!r}, "
            f"profile={self.profile.profile_id!r}, state={self._state!r})"
        )


class FilterService:
    """Unified client facade of the event notification service.

    One object bundles what previously took four (broker, registry,
    engine, statistics): subscribe and get a durable handle, publish
    events or batches, read one merged :meth:`stats` snapshot.  The
    engine roster is the closed table of :mod:`repro.matching.registry`;
    pick a family (or ``"auto"``) by name.
    """

    def __init__(
        self,
        schema: Schema,
        *,
        engine: str | None = None,
        adaptive: bool = True,
        policy: AdaptationPolicy | None = None,
        delivery: str = "inline",
        max_workers: int | None = None,
        queue_capacity: int | None = None,
        webhook: WebhookConfig | None = None,
        store: SubscriptionStore | None = None,
    ) -> None:
        """Create a service over ``schema``.

        ``engine`` names a matcher family (``"tree"``, ``"index"``,
        ``"naive"``) or ``"auto"``
        (the default when no policy is given: the facade serves the
        paper's adaptive-service framing).  ``policy`` carries the full
        adaptation knobs and must agree with ``engine`` when both are
        given.

        ``delivery`` selects the default notification executor
        (``"inline"``: sinks run synchronously inside ``publish``, the
        historical semantics; ``"threadpool"``: a bounded pool of
        ``max_workers`` threads; ``"webhook"``: remote
        :class:`~repro.service.delivery.WebhookSink` endpoints).  An
        ``async def`` sink runs to completion on whichever thread
        delivers it.  Asynchronous executors bound each delivery lane at
        ``queue_capacity`` waiting tasks; a publisher that finds a lane
        full waits for space (backpressure).  A ``threadpool`` worker
        takes its lane whole, so up to 2 × ``queue_capacity`` of a
        subscription's tasks can be unstarted.  Use the
        service as a context manager — or call :meth:`close` — to drain
        in-flight deliveries on shutdown.

        A threadpool sink is attempted once; ``webhook`` tunes the remote
        :class:`~repro.service.delivery.WebhookDeliveryExecutor`
        (timeouts, backoff, circuit breaker, dead-letter capacity).

        ``store`` makes subscriptions durable: every life-cycle
        operation journals to the
        :class:`~repro.api.SubscriptionStore` before returning, and a
        service booted over a non-empty store replays snapshot + tail
        into the engine and resumes the durable handles —
        ``service.handle("sub-7")`` works after a restart (webhook
        sinks reconstructed; in-process sinks must be re-attached via
        :meth:`SubscriptionHandle.deliver_to`).
        """
        if policy is None and engine is None:
            engine = "auto"  # the facade serves the paper's adaptive framing
        policy = resolve_policy_engine(policy, engine)
        self._broker = Broker(
            schema,
            broker_id="filter-service",
            adaptive=adaptive,
            adaptation_policy=policy,
            delivery=delivery,
            max_workers=max_workers,
            queue_capacity=queue_capacity,
            webhook=webhook,
            store=store,
        )
        self._handles: dict[str, SubscriptionHandle] = {}
        self._closed = False
        self._compiler = ProfileCompiler(self._broker.subscriptions.has_profile_id)
        # A store replayed subscriptions into the broker before we got
        # here: resume a durable handle for each, in original order.
        for subscription in self._broker.subscriptions:
            handle = self._remember(subscription)
            if self._broker.is_paused(subscription.subscription_id):
                handle._state = _PAUSED

    @classmethod
    def from_profile(cls, name_or_path, *, engine: str | None = None, **overrides):
        """Construct a service pre-configured from a scenario profile.

        ``name_or_path`` is a corpus profile name, a path to a profile
        file, or an already-loaded
        :class:`~repro.workloads.profiles.ScenarioProfile`.  The
        profile's engine hints become the service configuration — engine
        family and adaptation knobs (via a
        generated :class:`~repro.service.adaptive.AdaptationPolicy`),
        delivery mode from the run shape — so examples, benchmarks and
        the corpus runner stop duplicating setup code.  ``engine``
        overrides the hinted family (the corpus runner sweeps it), and
        so does an overriding ``policy`` (an explicit ``engine`` must
        then agree with it); any other constructor keyword can be
        overridden too.
        """
        from repro.workloads.profiles import ScenarioProfile, load_profile

        if isinstance(name_or_path, ScenarioProfile):
            profile = name_or_path
        else:
            profile = load_profile(name_or_path)
        hints = profile.engine
        policy = overrides.get("policy")
        if engine is None and policy is None:
            engine = hints.engine
        kwargs: dict = {"engine": engine, "delivery": profile.run.delivery}
        pinned = hints.policy_overrides()
        if pinned and policy is None:
            kwargs["policy"] = AdaptationPolicy(engine=engine, **pinned)
        kwargs.update(overrides)
        return cls(profile.spec.schema, **kwargs)

    # -- introspection ---------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._broker.schema

    @property
    def broker(self) -> Broker:
        """Return the underlying broker (service-layer escape hatch)."""
        return self._broker

    @property
    def policy(self) -> AdaptationPolicy:
        """Return the resolved adaptation policy."""
        return self._broker.adaptation_policy

    def engines(self) -> tuple[str, ...]:
        """Return every selectable engine name (families + ``"auto"``)."""
        return ENGINES

    def handles(self) -> list[SubscriptionHandle]:
        """Return the live (non-cancelled) handles, oldest first."""
        return list(self._handles.values())

    def handle(self, subscription_id: str) -> SubscriptionHandle:
        """Return the handle of a subscription id."""
        try:
            return self._handles[subscription_id]
        except KeyError as exc:
            raise SubscriptionError(
                f"unknown subscription id {subscription_id!r}"
            ) from exc

    def _remember(self, subscription: Subscription) -> SubscriptionHandle:
        """Create and keep the handle of a new subscription.

        A closed service's handles reach it through a weak proxy (see
        :meth:`close`).
        """
        owner = weakref.proxy(self) if self._closed else self
        handle = self._handles[subscription.subscription_id] = SubscriptionHandle(
            owner, subscription
        )
        return handle

    def _forget(self, subscription_id: str) -> None:
        self._handles.pop(subscription_id, None)

    # -- subscribing -----------------------------------------------------------
    def subscribe(
        self,
        profile: Profile | ProfileBuilder,
        *,
        subscriber: str = "anonymous",
        profile_id: str | None = None,
        sink: NotificationSink | None = None,
        delivery: str | None = None,
    ) -> SubscriptionHandle:
        """Register a profile (or fluent builder) and return its handle.

        Builders compile under ``profile_id`` (auto-generated
        ``profile-N`` when omitted).  The subscription attaches through
        the engine's incremental maintenance; ``sink`` is invoked for
        every delivered notification (an ``async def`` sink works too —
        publishing from inside a running event loop needs
        ``delivery="threadpool"`` for it).  ``delivery`` pins this
        subscription to one executor mode, overriding the service
        default.
        """
        compiled = self._compiler.compile(profile, profile_id, subscriber)
        subscription = self._broker.subscribe(
            compiled, subscriber, sink=sink, delivery=delivery
        )
        return self._remember(subscription)

    def subscribe_all(
        self,
        profiles: Iterable[Profile | ProfileBuilder],
        *,
        subscriber: str = "anonymous",
    ) -> list[SubscriptionHandle]:
        """Subscribe many profiles/builders (one engine build, atomic)."""
        compiled = [self._compiler.compile(profile, None, subscriber) for profile in profiles]
        subscriptions = self._broker.subscribe_all(compiled, subscriber)
        return [self._remember(subscription) for subscription in subscriptions]

    # -- publishing ------------------------------------------------------------
    def publish(self, event: Event | Mapping[str, object]) -> PublishOutcome:
        """Publish one event (plain mappings are wrapped into events)."""
        return self._broker.publish(as_event(event))

    def publish_batch(
        self, events: Iterable[Event | Mapping[str, object]]
    ) -> list[PublishOutcome]:
        """Publish a batch atomically through the engine's batch kernel."""
        return self._broker.publish_batch(
            [as_event(event) for event in events]
        )

    # -- delivery life-cycle ---------------------------------------------------
    def drain(self) -> None:
        """Block until every queued notification reached (or missed) its sink.

        A no-op under pure inline delivery; with ``threadpool`` /
        ``webhook`` executors this is the barrier tests and shutdown
        paths use before reading sink-side state.
        """
        self._broker.drain_deliveries()

    def dead_letters(self):
        """Return the webhook dead-letter queue, oldest first.

        Tasks that exhausted their retry budget or were failed fast by
        an open circuit breaker; empty when no webhook executor ran.
        """
        return self._broker.dead_letters()

    def close(self, *, drain: bool = True) -> None:
        """Shut the delivery subsystem down (idempotent).

        Drains the asynchronous executors by default so no accepted
        notification is lost; ``drain=False`` discards queued deliveries
        (counted as ``dropped`` in :attr:`ServiceStats.delivery`).  A
        closed service rejects further publishing with
        :class:`~repro.core.errors.DeliveryError`; statistics and
        handles stay readable.

        Closing also re-points every handle at a weak proxy of the
        service, which breaks the service ↔ handle reference cycle: a
        closed service is freed by reference counting as soon as its
        last outside reference goes, without waiting for the cycle
        collector.  A handle used after that raises ``ReferenceError``.
        """
        self._broker.close(drain=drain)
        if not self._closed:
            self._closed = True
            owner = weakref.proxy(self)
            for handle in self._handles.values():
                handle._service = owner

    def __enter__(self) -> "FilterService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # Deliver what was accepted on a clean exit; on an exception
        # prefer a fast shutdown over blocking on a backlog.
        self.close(drain=exc_type is None)

    # -- observability ---------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Return one merged observability snapshot (see :class:`ServiceStats`)."""
        statistics: FilterStatistics = self._broker.statistics
        events = statistics.events
        if self._broker.has_engine:
            engine = self._broker.engine
            kernel = engine.kernel_stats()
            adaptations = tuple(engine.adaptations())
            engine_family = engine.engine_family
        else:
            kernel = KernelStats()
            adaptations = ()
            engine_family = None
        return ServiceStats(
            events=events,
            matched_events=statistics.matched_events,
            notifications=statistics.total_notifications,
            operations=statistics.total_operations,
            average_operations_per_event=(
                statistics.average_operations_per_event() if events else 0.0
            ),
            average_matches_per_event=(
                statistics.average_matches_per_event() if events else 0.0
            ),
            match_rate=statistics.match_rate() if events else 0.0,
            subscriptions=len(self._broker.subscriptions),
            paused_subscriptions=len(self._broker.paused_subscription_ids),
            engine=self.policy.engine,
            engine_family=engine_family,
            kernel=kernel,
            adaptations=adaptations,
            delivery=self._broker.delivery_stats(),
            durability=self._broker.durability_stats(),
        )

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"FilterService(engine={self.policy.engine!r}, "
            f"subscriptions={len(self._broker.subscriptions)})"
        )
