"""The :class:`NetworkService` facade over the distributed broker overlay.

Mirrors :class:`repro.api.FilterService` for the multi-broker case: build
a topology (``add_broker`` / ``connect``), subscribe a profile at its
*home* broker and get a durable :class:`NetworkSubscriptionHandle` whose
pause/resume/modify/cancel life-cycle keeps the overlay's routing tables
in sync incrementally, publish anywhere (events are routed to every
interested subscriber, suppressed as close to the publisher as covering
allows), and read one merged :meth:`NetworkService.stats` snapshot —
per-broker and network-wide: hops, forwarded vs suppressed events,
routing-table sizes, cover hit rate and the interest matchers' batch
kernel accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.builder import ProfileBuilder, ProfileCompiler
from repro.core.errors import ProfileError, RoutingError, SubscriptionError
from repro.core.events import Event, as_event
from repro.core.profiles import Profile
from repro.core.schema import Schema
from repro.matching.index.kernel import KernelStats
from repro.service.adaptive import AdaptationPolicy
from repro.service.notifications import NotificationSink
from repro.service.routing.latency import LatencyModel
from repro.service.routing.overlay import (
    NetworkDeliveryReport,
    OverlayBroker,
    OverlayNetwork,
)
from repro.service.subscriptions import Subscription

__all__ = [
    "BrokerStats",
    "NetworkService",
    "NetworkStats",
    "NetworkSubscriptionHandle",
    "build_topology",
]

#: States of a network subscription handle.
_ACTIVE, _PAUSED, _CANCELLED = "active", "paused", "cancelled"


@dataclass(frozen=True)
class BrokerStats:
    """Observability snapshot of one overlay broker."""

    broker_id: str
    #: Engine name the broker's policy selects (a family name or ``"auto"``).
    engine: str
    #: Family of the local matcher currently running (``None`` until the
    #: first local subscription builds an engine).
    engine_family: str | None
    #: Local subscriptions registered at this broker (paused included).
    subscriptions: int
    paused_subscriptions: int
    #: Events that arrived here (published locally or forwarded in).
    events_in: int
    #: Local notifications delivered.
    notifications: int
    #: Comparison operations the local filter spent.
    operations: int
    #: Stored routing entries per link (active + covered).
    routing_table: Mapping[str, int]
    #: Active (covering-reduced, forwarded) entries per link.
    active_interest: Mapping[str, int]
    #: Per-link forwarding decisions taken at this broker.
    events_forwarded: int
    events_suppressed: int

    @property
    def routing_table_size(self) -> int:
        return sum(self.routing_table.values())


@dataclass(frozen=True)
class NetworkStats:
    """One network-wide snapshot (plus the per-broker breakdown)."""

    brokers: Mapping[str, BrokerStats]
    links: int
    #: Events handed to :meth:`NetworkService.publish` / ``publish_batch``.
    events_published: int
    #: Local notifications delivered across all brokers.
    notifications: int
    #: Total event-link crossings (lower is better routing).
    hops: int
    #: Distinct batched link transfers carrying those hops.
    link_transfers: int
    #: Per-link forwarding decisions, summed over brokers.
    forwarded_events: int
    suppressed_events: int
    #: Network-wide subscriptions (paused included).
    subscriptions: int
    paused_subscriptions: int
    #: Stored routing entries across all links (active + covered).
    routing_table_entries: int
    #: Active (forwarded) routing entries across all links.
    active_routing_entries: int
    #: Covering-maintenance accounting, summed over every covering table.
    cover_checks: int
    cover_hits: int
    #: Fraction of propagated inserts absorbed by an existing coverer.
    cover_hit_rate: float
    #: Batch-kernel accounting of the per-link interest matchers.
    interest_kernel: KernelStats

    @property
    def suppression_rate(self) -> float:
        """Fraction of per-link decisions that suppressed the event."""
        total = self.forwarded_events + self.suppressed_events
        return self.suppressed_events / total if total else 0.0


class NetworkSubscriptionHandle:
    """Durable handle of one network subscription.

    The same life-cycle as :class:`repro.api.SubscriptionHandle`, with a
    network twist: pause and cancel *retract* the profile from every
    routing table it reached (uncovering the entries it covered), and
    resume/modify re-propagate — all through the covering tables'
    incremental maintenance, never a rebuild.
    """

    def __init__(
        self,
        service: "NetworkService",
        broker_id: str,
        subscription: Subscription,
    ) -> None:
        self._service = service
        self._broker_id = broker_id
        self._subscription = subscription
        self._state = _ACTIVE

    # -- introspection ---------------------------------------------------------
    @property
    def subscription_id(self) -> str:
        return self._subscription.subscription_id

    @property
    def profile(self) -> Profile:
        return self._subscription.profile

    @property
    def subscriber(self) -> str:
        return self._subscription.subscriber

    @property
    def home_broker(self) -> str:
        """Return the broker id this subscription is registered at."""
        return self._broker_id

    @property
    def state(self) -> str:
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
        """Return how many notifications this profile received."""
        local = self._service.network.broker(self._broker_id).local
        return local.statistics.notifications_of(self.profile.profile_id)

    # -- life-cycle ------------------------------------------------------------
    def _require_live(self, operation: str) -> None:
        if self._state == _CANCELLED:
            raise SubscriptionError(
                f"cannot {operation} subscription {self.subscription_id!r}: "
                "the handle was cancelled"
            )

    def pause(self) -> "NetworkSubscriptionHandle":
        """Stop deliveries and retract the profile's routing state."""
        self._require_live("pause")
        if self._state != _PAUSED:
            self._service.network.pause(self._broker_id, self.subscription_id)
            self._state = _PAUSED
        return self

    def resume(self) -> "NetworkSubscriptionHandle":
        """Re-enable deliveries and re-propagate the profile."""
        self._require_live("resume")
        if self._state == _PAUSED:
            self._service.network.resume(self._broker_id, self.subscription_id)
            self._state = _ACTIVE
        return self

    def modify(self, profile: Profile | ProfileBuilder) -> "NetworkSubscriptionHandle":
        """Replace the subscribed profile; routing follows the delta."""
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
        self._subscription = self._service._modify(
            self._broker_id, self.subscription_id, profile
        )
        return self

    def cancel(self) -> Subscription:
        """Unsubscribe for good; further operations on the handle raise."""
        self._require_live("cancel")
        subscription = self._service._cancel(self._broker_id, self.subscription_id)
        self._state = _CANCELLED
        return subscription

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"NetworkSubscriptionHandle({self.subscription_id!r}, "
            f"home={self._broker_id!r}, profile={self.profile.profile_id!r}, "
            f"state={self._state!r})"
        )


class NetworkService:
    """Client facade of the distributed event-notification service."""

    def __init__(
        self,
        schema: Schema,
        *,
        engine: str | None = None,
        latency: LatencyModel | None = None,
        delivery: str = "inline",
    ) -> None:
        """Create a service over ``schema``.

        ``engine`` is the default engine family for brokers added without
        an explicit choice (``None`` resolves to ``"auto"`` per broker);
        ``latency`` delays every link crossing on the network's clock;
        ``delivery`` is the default notification executor of every
        broker's local engine.
        """
        self._network = OverlayNetwork(schema, latency=latency)
        self._default_engine = engine
        self._default_delivery = delivery
        self._handles: dict[str, NetworkSubscriptionHandle] = {}
        self._compiler = ProfileCompiler(self._network.has_profile)

    # -- topology ----------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._network.schema

    @property
    def network(self) -> OverlayNetwork:
        """Return the underlying overlay (service-layer escape hatch)."""
        return self._network

    def add_broker(
        self,
        broker_id: str,
        *,
        engine: str | None = None,
        policy: AdaptationPolicy | None = None,
    ) -> OverlayBroker:
        """Create a broker node; ``engine`` overrides the service default."""
        return self._network.add_broker(
            broker_id,
            engine=engine if engine is not None else self._default_engine,
            policy=policy,
            delivery=self._default_delivery,
        )

    def connect(self, first: str, second: str) -> None:
        """Link two brokers (the overlay stays acyclic)."""
        self._network.connect(first, second)

    def brokers(self) -> list[str]:
        return self._network.brokers()

    def neighbours(self, broker_id: str) -> list[str]:
        return self._network.neighbours(broker_id)

    # -- subscribing -------------------------------------------------------------
    def subscribe(
        self,
        profile: Profile | ProfileBuilder,
        *,
        at: str,
        subscriber: str = "anonymous",
        profile_id: str | None = None,
        sink: NotificationSink | None = None,
        delivery: str | None = None,
    ) -> NetworkSubscriptionHandle:
        """Subscribe at home broker ``at`` and return a durable handle.

        The profile registers with ``at``'s local engine (incremental
        maintenance) and floods away from it through the overlay's
        covering tables, pruned wherever an already-forwarded profile
        covers it.
        """
        compiled = self._compiler.compile(profile, profile_id, subscriber)
        self._require_free(compiled.profile_id)
        subscription = self._network.subscribe(
            at, compiled, subscriber, sink=sink, delivery=delivery
        )
        handle = NetworkSubscriptionHandle(self, at, subscription)
        self._handles[subscription.subscription_id] = handle
        return handle

    def handles(self) -> list[NetworkSubscriptionHandle]:
        """Return the live (non-cancelled) handles, oldest first."""
        return list(self._handles.values())

    def handle(self, subscription_id: str) -> NetworkSubscriptionHandle:
        try:
            return self._handles[subscription_id]
        except KeyError as exc:
            raise SubscriptionError(
                f"unknown subscription id {subscription_id!r}"
            ) from exc

    # Handle internals.  Profile-id uniqueness is the overlay's: it holds
    # every registered id, paused ones included.
    def _require_free(self, profile_id: str) -> None:
        if self._network.has_profile(profile_id):
            raise SubscriptionError(f"profile id {profile_id!r} is already subscribed")

    def _modify(self, broker_id: str, subscription_id: str, profile: Profile) -> Subscription:
        current = self._network.broker(broker_id).local.subscriptions.get(subscription_id)
        if profile.profile_id != current.profile.profile_id:
            self._require_free(profile.profile_id)
        return self._network.modify(broker_id, subscription_id, profile)

    def _cancel(self, broker_id: str, subscription_id: str) -> Subscription:
        subscription = self._network.unsubscribe(broker_id, subscription_id)
        self._handles.pop(subscription_id, None)
        return subscription

    # -- publishing --------------------------------------------------------------
    def publish(
        self, event: Event | Mapping[str, object], *, at: str
    ) -> NetworkDeliveryReport:
        """Publish one event at broker ``at`` (mappings are wrapped)."""
        return self._network.publish(at, as_event(event))

    def publish_batch(
        self, events: Iterable[Event | Mapping[str, object]], *, at: str
    ) -> NetworkDeliveryReport:
        """Publish a batch at ``at``; it rides ``publish_batch`` end to end."""
        return self._network.publish_batch(at, [as_event(event) for event in events])

    # -- observability -----------------------------------------------------------
    def broker_stats(self, broker_id: str) -> BrokerStats:
        """Return one broker's snapshot (see :class:`BrokerStats`)."""
        broker = self._network.broker(broker_id)
        local = broker.local
        engine_family = (
            local.engine.engine_family if local.has_engine else None
        )
        return BrokerStats(
            broker_id=broker_id,
            engine=local.adaptation_policy.engine,
            engine_family=engine_family,
            subscriptions=len(local.subscriptions),
            paused_subscriptions=len(local.paused_subscription_ids),
            events_in=broker.events_in,
            notifications=local.statistics.total_notifications,
            operations=local.statistics.total_operations,
            routing_table={
                neighbour: len(link.table) for neighbour, link in broker.links.items()
            },
            active_interest={
                neighbour: link.interest_size
                for neighbour, link in broker.links.items()
            },
            events_forwarded=sum(
                link.events_forwarded for link in broker.links.values()
            ),
            events_suppressed=sum(
                link.events_suppressed for link in broker.links.values()
            ),
        )

    def stats(self) -> NetworkStats:
        """Return one merged snapshot (see :class:`NetworkStats`)."""
        network = self._network
        per_broker = {bid: self.broker_stats(bid) for bid in network.brokers()}
        links = sum(len(network.broker(b).links) for b in network.brokers()) // 2
        inserts = checks = hits = active_entries = 0
        for bid in network.brokers():
            for link in network.broker(bid).links.values():
                checks += link.table.cover_checks
                hits += link.table.cover_hits
                inserts += link.table.inserts
                active_entries += link.table.active_count
        return NetworkStats(
            brokers=per_broker,
            links=links,
            events_published=network.events_published,
            notifications=sum(s.notifications for s in per_broker.values()),
            hops=network.total_hops,
            link_transfers=network.total_link_transfers,
            forwarded_events=sum(s.events_forwarded for s in per_broker.values()),
            suppressed_events=sum(s.events_suppressed for s in per_broker.values()),
            subscriptions=sum(s.subscriptions for s in per_broker.values()),
            paused_subscriptions=sum(
                s.paused_subscriptions for s in per_broker.values()
            ),
            routing_table_entries=network.routing_table_entries(),
            active_routing_entries=active_entries,
            cover_checks=checks,
            cover_hits=hits,
            cover_hit_rate=hits / inserts if inserts else 0.0,
            interest_kernel=network.interest_kernel_stats(),
        )

    # -- life-cycle --------------------------------------------------------------
    def drain(self) -> None:
        """Block until every broker's queued notifications are delivered."""
        self._network.drain()

    def close(self, *, drain: bool = True) -> None:
        """Shut every broker's delivery subsystem down (idempotent)."""
        self._network.close(drain=drain)

    def __enter__(self) -> "NetworkService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close(drain=exc_type is None)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"NetworkService(brokers={len(self._network.brokers())}, "
            f"subscriptions={len(self._handles)})"
        )


_TOPOLOGIES = ("chain", "star", "tree")


def build_topology(
    service: NetworkService,
    *,
    brokers: int,
    topology: str = "chain",
    engine: str | None = None,
) -> list[str]:
    """Create ``brokers`` nodes named ``b0..bN-1`` and link them.

    ``"chain"`` is the worst case for hop counts (and the benchmark's
    shape), ``"star"`` routes everything through ``b0``, ``"tree"`` is a
    balanced binary tree rooted at ``b0``.
    """
    if topology not in _TOPOLOGIES:
        raise RoutingError(f"unknown topology {topology!r}; pick one of {_TOPOLOGIES}")
    if brokers < 1:
        raise RoutingError("need at least one broker")
    names = [f"b{i}" for i in range(brokers)]
    for name in names:
        service.add_broker(name, engine=engine)
    for i in range(1, brokers):
        if topology == "chain":
            service.connect(names[i - 1], names[i])
        elif topology == "star":
            service.connect(names[0], names[i])
        else:  # balanced binary tree
            service.connect(names[(i - 1) // 2], names[i])
    return names
