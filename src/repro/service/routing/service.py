"""The :class:`NetworkService`: the distributed broker overlay and its facade.

Mirrors :class:`repro.api.FilterService` for the multi-broker case: build
a topology (``add_broker`` / ``connect``), subscribe a profile at its
*home* broker and get a durable
:class:`~repro.service.subscriptions.SubscriptionHandle` whose
pause/resume/modify/cancel life-cycle keeps the overlay's routing tables
in sync incrementally, publish anywhere (events are routed to every
interested subscriber, suppressed as close to the publisher as covering
allows), and read one merged :meth:`NetworkService.stats` snapshot —
per-broker and network-wide: hops, forwarded vs suppressed events,
routing-table sizes, cover hit rate and the interest matchers' batch
kernel accounting.  The routing protocol itself is described in
:mod:`repro.service.routing.overlay`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.builder import ProfileBuilder, ProfileCompiler
from repro.core.errors import RoutingError, SubscriptionError
from repro.core.events import Event, as_event
from repro.core.profiles import Profile
from repro.core.schema import Schema
from repro.matching.index.kernel import KernelStats
from repro.service.adaptive import AdaptationPolicy
from repro.service.broker import Broker
from repro.service.notifications import Notification, NotificationSink
from repro.service.routing.latency import ConstantLatency, LatencyModel
from repro.service.routing.overlay import (
    LinkState,
    NetworkDeliveryReport,
    OverlayBroker,
)
from repro.service.subscriptions import Subscription, SubscriptionHandle

__all__ = [
    "BrokerStats",
    "NetworkService",
    "NetworkStats",
    "build_topology",
]


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


class NetworkService:
    """Client facade of the distributed event-notification service.

    An acyclic overlay of :class:`OverlayBroker` nodes: acyclicity is
    enforced and links are bidirectional; subscription state is
    maintained incrementally and events are routed in batches (see
    :mod:`repro.service.routing.overlay` for the protocol).  A network
    subscription is identified by its home broker and that broker's
    subscription id.
    """

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
        self._schema = schema
        self._default_engine = engine
        self._default_delivery = delivery
        self._latency = latency or ConstantLatency(1.0)
        self._brokers: dict[str, OverlayBroker] = {}
        self._adjacency: dict[str, set[str]] = {}
        #: Home broker of every registered profile id, paused ones
        #: included (network-wide unique), in (re-)subscription order.
        self._homes: dict[str, str] = {}
        self._compiler = ProfileCompiler(self._homes.__contains__)
        self._events_published = 0
        self._total_hops = 0
        self._total_link_transfers = 0
        self._clock = 0.0

    # -- topology ----------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    def add_broker(
        self,
        broker_id: str,
        *,
        engine: str | None = None,
        policy: AdaptationPolicy | None = None,
    ) -> OverlayBroker:
        """Create a broker node; ``engine`` overrides the service default."""
        if broker_id in self._brokers:
            raise RoutingError(f"duplicate broker id {broker_id!r}")
        broker = OverlayBroker(
            broker_id,
            self._schema,
            engine=engine if engine is not None else self._default_engine,
            policy=policy,
            delivery=self._default_delivery,
        )
        self._brokers[broker_id] = broker
        self._adjacency[broker_id] = set()
        return broker

    def connect(self, first: str, second: str) -> None:
        """Create a bidirectional overlay link between two brokers.

        The overlay stays acyclic.  Linking two components *after*
        subscriptions exist replays the live interest across the new
        link: every live (not paused) profile homed on one side floods
        into the other (in original subscription order, with the usual
        covering pruning), so a grown topology routes exactly like one
        built up front.
        """
        a, b = self.broker(first), self.broker(second)
        if first == second:
            raise RoutingError("cannot connect a broker to itself")
        if second in self._adjacency[first]:
            raise RoutingError(f"link {first!r} - {second!r} already exists")
        first_side = self._component(first)
        if second in first_side:
            raise RoutingError(
                f"link {first!r} - {second!r} would create a cycle in the overlay"
            )
        self._adjacency[first].add(second)
        self._adjacency[second].add(first)
        a.links[second] = LinkState(self._schema)
        b.links[first] = LinkState(self._schema)
        for pid, home in list(self._homes.items()):
            local = self._brokers[home].local
            subscription = local.subscriptions.by_profile_id(pid)
            if local.is_paused(subscription.subscription_id):
                continue
            if home in first_side:
                self._flood_add(subscription.profile, deque([(second, first)]))
            else:
                self._flood_add(subscription.profile, deque([(first, second)]))

    def _component(self, start: str) -> set[str]:
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbour in self._adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return seen

    def broker(self, broker_id: str) -> OverlayBroker:
        """Return a broker node (its local engine and per-link routing state)."""
        try:
            return self._brokers[broker_id]
        except KeyError as exc:
            raise RoutingError(f"unknown broker {broker_id!r}") from exc

    def brokers(self) -> list[str]:
        return list(self._brokers)

    def neighbours(self, broker_id: str) -> list[str]:
        self.broker(broker_id)
        return sorted(self._adjacency[broker_id])

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
    ) -> SubscriptionHandle:
        """Subscribe at home broker ``at`` and return a durable handle.

        The profile registers with ``at``'s local engine (incremental
        maintenance) and floods away from it through the overlay's
        covering tables, pruned wherever an already-forwarded profile
        covers it.
        """
        compiled = self._compiler.compile(profile, profile_id, subscriber)
        self._require_free(compiled.profile_id)
        home = self.broker(at).local
        subscription = home.subscribe(compiled, subscriber, sink=sink, delivery=delivery)
        self._homes[compiled.profile_id] = at
        self._propagate_add(at, compiled)
        return SubscriptionHandle(self, home, subscription.subscription_id)

    def handles(self) -> list[SubscriptionHandle]:
        """Return a handle of every live (non-cancelled) subscription.

        Grouped by home broker in the order the brokers were added,
        oldest first within each.
        """
        return [
            SubscriptionHandle(self, broker.local, subscription.subscription_id)
            for broker in self._brokers.values()
            for subscription in broker.local.subscriptions
        ]

    def handle(self, subscription_id: str, *, at: str) -> SubscriptionHandle:
        """Return the handle of subscription ``subscription_id`` homed at ``at``."""
        home = self.broker(at).local
        if subscription_id not in home.subscriptions:
            raise SubscriptionError(
                f"unknown subscription id {subscription_id!r} at broker {at!r}"
            )
        return SubscriptionHandle(self, home, subscription_id)

    # Handle hooks: each broker call is followed by the routing delta.
    # Whether a profile is routed is read off its home broker's first-hop
    # link tables, never off the registry: a pause or resume made on the
    # home broker directly moves no routing state, and ``_propagate_add``
    # / ``_propagate_remove`` skip a first hop that already holds / lacks
    # the profile.  Profile-id uniqueness is network-wide: ``_homes``
    # holds every registered id, paused ones included.
    def _require_free(self, pid: str) -> None:
        if pid in self._homes:
            raise SubscriptionError(
                f"profile id {pid!r} is already subscribed in the network "
                f"(home broker {self._homes[pid]!r})"
            )

    def _pause(self, broker: Broker, subscription_id: str) -> None:
        """Pause delivery *and* withdraw the profile from routing tables.

        The profile id stays reserved for the paused subscription.
        """
        subscription = broker.pause_subscription(subscription_id)
        self._propagate_remove(broker.broker_id, subscription.profile.profile_id)

    def _resume(self, broker: Broker, subscription_id: str) -> None:
        subscription = broker.resume_subscription(subscription_id)
        pid = subscription.profile.profile_id
        # Re-queue the id last: connect replays in (re-)subscription order.
        self._homes[pid] = self._homes.pop(pid)
        self._propagate_add(broker.broker_id, subscription.profile)

    def _modify(self, broker: Broker, subscription_id: str, profile: Profile) -> None:
        old_pid = broker.subscriptions.get(subscription_id).profile.profile_id
        if profile.profile_id != old_pid:
            self._require_free(profile.profile_id)
        broker.modify_subscription(subscription_id, profile)
        del self._homes[old_pid]
        self._homes[profile.profile_id] = broker.broker_id
        self._propagate_remove(broker.broker_id, old_pid)
        if not broker.is_paused(subscription_id):
            self._propagate_add(broker.broker_id, profile)

    def _cancel(self, broker: Broker, subscription_id: str) -> Subscription:
        """Cancel a subscription and retract (or uncover) its routing state."""
        removed = broker.unsubscribe(subscription_id)
        pid = removed.profile.profile_id
        del self._homes[pid]
        self._propagate_remove(broker.broker_id, pid)
        return removed

    def _propagate_add(
        self, start_id: str, profile: Profile, *, exclude: str | None = None
    ) -> None:
        """Flood ``profile`` away from ``start_id``, pruning at covers.

        Iterative BFS: each visited broker inserts the profile into the
        covering table of the link it arrived on; a covered insert stores
        the entry inactive and stops the flood on that branch.  A first
        hop whose table already holds the profile is routed already and is
        skipped.
        """
        pid = profile.profile_id
        self._flood_add(
            profile,
            deque(
                (neighbour, start_id)
                for neighbour in sorted(self._adjacency[start_id])
                if neighbour != exclude
                and pid not in self._brokers[neighbour].link(start_id).table
            ),
        )

    def _flood_add(self, profile: Profile, frontier: deque[tuple[str, str]]) -> None:
        while frontier:
            broker_id, came_from = frontier.popleft()
            broker = self._brokers[broker_id]
            link = broker.link(came_from)
            outcome = link.table.add(profile)
            if not outcome.active:
                continue  # covered here: the flood stops on this branch
            link.table.entry(profile.profile_id).forwarded = True
            link.activate(profile)
            for covered in outcome.newly_covered:
                # The newcomer subsumes them in the interest index; their
                # table entries (and ``forwarded`` flags) survive for
                # uncovering.  No downstream retraction: forwarding a
                # covered profile is redundant, never wrong.
                link.deactivate(covered.profile_id)
            for neighbour in sorted(self._adjacency[broker_id]):
                if neighbour != came_from:
                    frontier.append((neighbour, broker_id))

    def _propagate_remove(self, start_id: str, pid: str) -> None:
        """Retract ``pid`` away from ``start_id``, uncovering as needed.

        At each broker the removal frees the entries the profile covered
        (O(affected covers) via the table's reverse index); a freed entry
        that was never forwarded downstream is re-propagated now — the
        uncovering rule that keeps pruning sound under churn.
        """
        frontier: deque[tuple[str, str]] = deque(
            (neighbour, start_id) for neighbour in sorted(self._adjacency[start_id])
        )
        while frontier:
            broker_id, came_from = frontier.popleft()
            broker = self._brokers[broker_id]
            link = broker.link(came_from)
            if pid not in link.table:
                continue  # the add never reached this branch
            outcome = link.table.remove(pid)
            if outcome.was_active:
                link.deactivate(pid)
            for orphan in outcome.uncovered:
                link.activate(orphan.profile)
                if not orphan.forwarded:
                    orphan.forwarded = True
                    self._propagate_add(
                        broker_id, orphan.profile, exclude=came_from
                    )
            if outcome.was_forwarded:
                for neighbour in sorted(self._adjacency[broker_id]):
                    if neighbour != came_from:
                        frontier.append((neighbour, broker_id))

    # -- publishing --------------------------------------------------------------
    def publish(
        self, event: Event | Mapping[str, object], *, at: str
    ) -> NetworkDeliveryReport:
        """Publish one event at broker ``at`` (a batch of one)."""
        return self.publish_batch([event], at=at)

    def publish_batch(
        self, events: Iterable[Event | Mapping[str, object]], *, at: str
    ) -> NetworkDeliveryReport:
        """Publish a batch at ``at`` and route it to all subscribers.

        The batch stays together per link: each broker delivers locally
        via its engine's ``publish_batch`` and forwards to a neighbour
        exactly the subset its interest matcher accepts.  Partial events
        are accepted, matching the central service's semantics.  The
        batch enters at :attr:`clock`; each link adds the latency model's
        delay to the delivery stamps behind it, and the clock ends at the
        latest arrival.
        """
        batch = [as_event(event) for event in events]
        for event in batch:
            event.validate(self._schema, require_all=False)
        origin = self.broker(at)
        notifications: dict[str, list[Notification]] = {}
        event_hops = [0] * len(batch)
        hops = 0
        link_transfers = 0
        clock = self._clock
        self._events_published += len(batch)
        # Iterative breadth-first traversal: an explicit frontier deque,
        # one entry per (broker, incoming link, event subset) — chain
        # length never touches the Python stack.
        frontier: deque[tuple[OverlayBroker, str | None, Sequence[int], int, float]]
        frontier = deque([(origin, None, range(len(batch)), 0, clock)])
        while frontier:
            broker, came_from, indices, depth, timestamp = frontier.popleft()
            broker.events_in += len(indices)
            sub_batch = [batch[i] for i in indices]
            outcomes = broker.local.publish_batch(
                sub_batch, timestamps=[timestamp] * len(indices)
            )
            delivered = [n for outcome in outcomes for n in outcome.notifications]
            if delivered:
                notifications.setdefault(broker.broker_id, []).extend(delivered)
            for neighbour in sorted(self._adjacency[broker.broker_id]):
                if neighbour == came_from:
                    continue
                link = broker.link(neighbour)
                if link.interest_size == 0:
                    link.events_suppressed += len(indices)
                    continue
                results = link.interest.match_batch(sub_batch)
                forward = [
                    index
                    for index, result in zip(indices, results)
                    if result.is_match
                ]
                link.events_forwarded += len(forward)
                link.events_suppressed += len(indices) - len(forward)
                if not forward:
                    continue
                hops += len(forward)
                link_transfers += 1
                for index in forward:
                    event_hops[index] = max(event_hops[index], depth + 1)
                arrival = timestamp + self._latency.delay(broker.broker_id, neighbour)
                clock = max(clock, arrival)
                frontier.append(
                    (self._brokers[neighbour], broker.broker_id, forward, depth + 1, arrival)
                )
        self._clock = clock
        self._total_hops += hops
        self._total_link_transfers += link_transfers
        return NetworkDeliveryReport(
            origin=at,
            events=tuple(batch),
            notifications={
                broker: tuple(delivered)
                for broker, delivered in notifications.items()
            },
            event_hops=tuple(event_hops),
            hops=hops,
            link_transfers=link_transfers,
        )

    @property
    def clock(self) -> float:
        """Return the network time: the latest arrival of any publish so far."""
        return self._clock

    # -- observability -----------------------------------------------------------
    def broker_stats(self, broker_id: str) -> BrokerStats:
        """Return one broker's snapshot (see :class:`BrokerStats`)."""
        broker = self.broker(broker_id)
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
        per_broker = {bid: self.broker_stats(bid) for bid in self._brokers}
        links = sum(len(broker.links) for broker in self._brokers.values()) // 2
        inserts = checks = hits = active_entries = 0
        interest_kernel = KernelStats()
        for broker in self._brokers.values():
            for link in broker.links.values():
                checks += link.table.cover_checks
                hits += link.table.cover_hits
                inserts += link.table.inserts
                active_entries += link.table.active_count
                interest_kernel.merge(link.interest.kernel_stats)
        return NetworkStats(
            brokers=per_broker,
            links=links,
            events_published=self._events_published,
            notifications=sum(s.notifications for s in per_broker.values()),
            hops=self._total_hops,
            link_transfers=self._total_link_transfers,
            forwarded_events=sum(s.events_forwarded for s in per_broker.values()),
            suppressed_events=sum(s.events_suppressed for s in per_broker.values()),
            subscriptions=sum(s.subscriptions for s in per_broker.values()),
            paused_subscriptions=sum(
                s.paused_subscriptions for s in per_broker.values()
            ),
            routing_table_entries=sum(
                broker.routing_table_size() for broker in self._brokers.values()
            ),
            active_routing_entries=active_entries,
            cover_checks=checks,
            cover_hits=hits,
            cover_hit_rate=hits / inserts if inserts else 0.0,
            interest_kernel=interest_kernel,
        )

    # -- life-cycle --------------------------------------------------------------
    def drain(self) -> None:
        """Block until every broker's queued notifications are delivered."""
        for broker in self._brokers.values():
            broker.local.drain_deliveries()

    def close(self, *, drain: bool = True) -> None:
        """Shut every broker's delivery subsystem down (idempotent)."""
        for broker in self._brokers.values():
            broker.local.close(drain=drain)

    def __enter__(self) -> "NetworkService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close(drain=exc_type is None)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"NetworkService(brokers={len(self._brokers)}, "
            f"subscriptions={len(self._homes)})"
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
