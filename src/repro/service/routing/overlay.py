"""The distributed broker overlay: incremental, covering-based routing.

Every :class:`OverlayBroker` hosts a full
:class:`~repro.service.broker.Broker` for its local subscribers — any
engine family of the :class:`~repro.matching.registry.EngineRegistry`
(``tree`` / ``index`` / ``auto``…), per-broker
choice, with statistics, notification log and the delivery pipeline —
plus, per overlay link, two routing structures:

* a :class:`~repro.service.routing.table.CoveringTable` holding every
  profile received over that link, covering-reduced **incrementally**
  (subscribe, unsubscribe, modify, pause and resume all apply
  O(affected-covers) deltas; removal *uncovers* the entries the removed
  profile covered and re-propagates the ones that were never forwarded);
* a :class:`~repro.matching.index.matcher.PredicateIndexMatcher` over the
  covering-reduced active set — the per-link *interest matcher* — so the
  forwarding decision is an indexed match (with the columnar batch kernel
  on batches), never a linear ``any(p.matches(e))`` scan.

Events travel in **batches**: :meth:`OverlayNetwork.publish_batch` walks
the overlay breadth-first with an explicit frontier deque (no recursion,
arbitrarily long chains are fine), delivers locally through each broker's
``publish_batch`` (columnar kernel) and forwards to each neighbour only
the subset of the batch its interest matcher accepts — early rejection
as close to the publisher as possible, the paper's idea "used for a
distributed service".  Every forwarded batch arrives after the link's
latency (:mod:`~repro.service.routing.latency`) on the network's own
:attr:`OverlayNetwork.clock`: a publish starts at the clock, and the clock
then moves to the batch's latest arrival.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.errors import RoutingError
from repro.core.events import Event
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Schema
from repro.matching.index.kernel import KernelStats
from repro.matching.index.matcher import PredicateIndexMatcher
from repro.service.adaptive import AdaptationPolicy, resolve_policy_engine
from repro.service.broker import Broker
from repro.service.notifications import Notification, NotificationSink
from repro.service.routing.latency import ConstantLatency, LatencyModel
from repro.service.routing.table import CoveringTable
from repro.service.subscriptions import Subscription

__all__ = ["LinkState", "NetworkDeliveryReport", "OverlayBroker", "OverlayNetwork"]


class LinkState:
    """Routing state one broker keeps for one overlay link.

    ``table`` stores every profile that arrived over the link (the
    covering bookkeeping lives there); ``interest`` indexes exactly the
    table's *active* set and answers "does anyone behind this link want
    this event?" through the engine stack.
    """

    def __init__(self, schema: Schema) -> None:
        self.table = CoveringTable(schema)
        self._interest_profiles = ProfileSet(schema)
        self.interest = PredicateIndexMatcher(self._interest_profiles)
        #: Per-link forwarding decisions (event granularity).
        self.events_forwarded = 0
        self.events_suppressed = 0

    def activate(self, profile: Profile) -> None:
        self.interest.add_profile(profile)

    def deactivate(self, profile_id: str) -> None:
        self.interest.remove_profile(profile_id)

    @property
    def interest_size(self) -> int:
        return len(self._interest_profiles)


class OverlayBroker:
    """One broker node: a full local engine plus per-link routing state."""

    def __init__(
        self,
        broker_id: str,
        schema: Schema,
        *,
        engine: str | None = None,
        policy: AdaptationPolicy | None = None,
        delivery: str = "inline",
    ) -> None:
        if policy is None and engine is None:
            engine = "auto"
        self.broker_id = broker_id
        self.schema = schema
        self.local = Broker(
            schema,
            broker_id=broker_id,
            adaptive=True,
            adaptation_policy=resolve_policy_engine(policy, engine),
            delivery=delivery,
        )
        #: Routing state per neighbouring broker id.
        self.links: dict[str, LinkState] = {}
        #: Events that arrived at this broker (local publishes included).
        self.events_in = 0

    def link(self, neighbour: str) -> LinkState:
        try:
            return self.links[neighbour]
        except KeyError as exc:
            raise RoutingError(
                f"broker {self.broker_id!r} has no link to {neighbour!r}"
            ) from exc

    def routing_table_size(self) -> int:
        """Return the total stored (active + covered) entries, all links."""
        return sum(len(state.table) for state in self.links.values())


@dataclass(frozen=True)
class NetworkDeliveryReport:
    """Summary of publishing one batch into the overlay."""

    origin: str
    events: tuple[Event, ...]
    #: Local notifications per broker id (only brokers that delivered).
    notifications: Mapping[str, tuple[Notification, ...]]
    #: Per event: the furthest hop distance from the origin it travelled
    #: (0 = suppressed at the publisher's own broker).
    event_hops: tuple[int, ...]
    #: Total event-link crossings (one event over one link = one hop).
    hops: int
    #: Distinct link transfers (a forwarded batch counts once however
    #: many events it carries) — what batching saves over per-event sends.
    link_transfers: int

    @property
    def total_notifications(self) -> int:
        return sum(len(batch) for batch in self.notifications.values())

    @property
    def max_hops(self) -> int:
        return max(self.event_hops, default=0)

    def suppressed_within(self, radius: int) -> int:
        """Return how many events never travelled past ``radius`` hops."""
        return sum(1 for distance in self.event_hops if distance <= radius)


class OverlayNetwork:
    """An acyclic overlay of :class:`OverlayBroker` nodes.

    Acyclicity is enforced and links are bidirectional; subscription
    state is maintained incrementally and events are routed in batches
    — see the module docstring for the protocol.
    """

    def __init__(
        self,
        schema: Schema,
        *,
        latency: LatencyModel | None = None,
    ) -> None:
        self._schema = schema
        self._brokers: dict[str, OverlayBroker] = {}
        self._adjacency: dict[str, set[str]] = {}
        self._latency = latency or ConstantLatency(1.0)
        #: Home broker of every registered profile id, paused ones
        #: included (network-wide unique).
        self._homes: dict[str, str] = {}
        self._events_published = 0
        self._total_hops = 0
        self._total_link_transfers = 0
        self._clock = 0.0

    # -- topology ---------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    def add_broker(
        self,
        broker_id: str,
        *,
        engine: str | None = None,
        policy: AdaptationPolicy | None = None,
        delivery: str = "inline",
    ) -> OverlayBroker:
        """Create a broker node (``engine`` picks its local family)."""
        if broker_id in self._brokers:
            raise RoutingError(f"duplicate broker id {broker_id!r}")
        broker = OverlayBroker(
            broker_id, self._schema, engine=engine, policy=policy, delivery=delivery
        )
        self._brokers[broker_id] = broker
        self._adjacency[broker_id] = set()
        return broker

    def connect(self, first: str, second: str) -> None:
        """Create a bidirectional overlay link between two brokers.

        Linking two components *after* subscriptions exist replays the
        live interest across the new link: every live (not paused)
        profile homed on one side floods into the other (in original
        subscription order, with the usual covering pruning), so a grown
        topology routes exactly like one built up front.
        """
        a, b = self.broker(first), self.broker(second)
        if first == second:
            raise RoutingError("cannot connect a broker to itself")
        if second in self._adjacency[first]:
            raise RoutingError(f"link {first!r} - {second!r} already exists")
        if self._connected(first, second):
            raise RoutingError(
                f"link {first!r} - {second!r} would create a cycle in the overlay"
            )
        first_side = self._component(first)
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

    def _connected(self, first: str, second: str) -> bool:
        return second in self._component(first)

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
        try:
            return self._brokers[broker_id]
        except KeyError as exc:
            raise RoutingError(f"unknown broker {broker_id!r}") from exc

    def brokers(self) -> list[str]:
        return list(self._brokers)

    def neighbours(self, broker_id: str) -> list[str]:
        self.broker(broker_id)
        return sorted(self._adjacency[broker_id])

    # -- subscription churn -----------------------------------------------------
    def has_profile(self, profile_id: str) -> bool:
        """Return ``True`` while any subscription, live or paused, holds the id."""
        return profile_id in self._homes

    def subscribe(
        self,
        broker_id: str,
        profile: Profile,
        subscriber: str,
        *,
        sink: NotificationSink | None = None,
        delivery: str | None = None,
    ) -> Subscription:
        """Register a subscription at its home broker and propagate it."""
        pid = profile.profile_id
        self._require_free(pid)
        home = self.broker(broker_id)
        subscription = home.local.subscribe(
            profile, subscriber, sink=sink, delivery=delivery
        )
        self._homes[pid] = broker_id
        self._propagate_add(broker_id, profile)
        return subscription

    def unsubscribe(self, broker_id: str, subscription_id: str) -> Subscription:
        """Cancel a subscription and retract (or uncover) its routing state."""
        home = self.broker(broker_id)
        subscription = home.local.subscriptions.get(subscription_id)
        pid = subscription.profile.profile_id
        removed = home.local.unsubscribe(subscription_id)
        del self._homes[pid]
        self._propagate_remove(broker_id, pid)
        return removed

    def pause(self, broker_id: str, subscription_id: str) -> Subscription:
        """Pause delivery *and* withdraw the profile from routing tables.

        The profile id stays reserved for the paused subscription.
        """
        home = self.broker(broker_id)
        subscription = home.local.pause_subscription(subscription_id)
        self._propagate_remove(broker_id, subscription.profile.profile_id)
        return subscription

    def resume(self, broker_id: str, subscription_id: str) -> Subscription:
        """Resume delivery and re-propagate the profile."""
        home = self.broker(broker_id)
        subscription = home.local.resume_subscription(subscription_id)
        pid = subscription.profile.profile_id
        # Re-queue the id last: connect replays in (re-)subscription order.
        self._homes[pid] = self._homes.pop(pid)
        self._propagate_add(broker_id, subscription.profile)
        return subscription

    def modify(
        self, broker_id: str, subscription_id: str, profile: Profile
    ) -> Subscription:
        """Swap a subscription's profile; routing state follows the delta."""
        home = self.broker(broker_id)
        old_pid = home.local.subscriptions.get(subscription_id).profile.profile_id
        if profile.profile_id != old_pid:
            self._require_free(profile.profile_id)
        was_paused = home.local.is_paused(subscription_id)
        updated = home.local.modify_subscription(subscription_id, profile)
        del self._homes[old_pid]
        self._homes[profile.profile_id] = broker_id
        if not was_paused:
            self._propagate_remove(broker_id, old_pid)
            self._propagate_add(broker_id, profile)
        return updated

    def _require_free(self, pid: str) -> None:
        """Raise unless ``pid`` is free network-wide (paused ids are not)."""
        if pid in self._homes:
            raise RoutingError(
                f"profile id {pid!r} is already subscribed in the network "
                f"(home broker {self._homes[pid]!r})"
            )

    def _propagate_add(
        self, start_id: str, profile: Profile, *, exclude: str | None = None
    ) -> None:
        """Flood ``profile`` away from ``start_id``, pruning at covers.

        Iterative BFS: each visited broker inserts the profile into the
        covering table of the link it arrived on; a covered insert stores
        the entry inactive and stops the flood on that branch.
        """
        self._flood_add(
            profile,
            deque(
                (neighbour, start_id)
                for neighbour in sorted(self._adjacency[start_id])
                if neighbour != exclude
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

    # -- event routing ----------------------------------------------------------
    def publish(self, broker_id: str, event: Event) -> NetworkDeliveryReport:
        """Publish a single event (a batch of one)."""
        return self.publish_batch(broker_id, [event])

    def publish_batch(
        self, broker_id: str, events: Iterable[Event]
    ) -> NetworkDeliveryReport:
        """Publish a batch at ``broker_id`` and route it to all subscribers.

        The batch stays together per link: each broker delivers locally
        via its engine's ``publish_batch`` and forwards to a neighbour
        exactly the subset its interest matcher accepts.  Partial events
        are accepted, matching the central service's semantics.  The
        batch enters at :attr:`clock`; each link adds the latency model's
        delay to the delivery stamps behind it, and the clock ends at the
        latest arrival.
        """
        batch = list(events)
        for event in batch:
            event.validate(self._schema, require_all=False)
        origin = self.broker(broker_id)
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
            origin=broker_id,
            events=tuple(batch),
            notifications={
                broker: tuple(delivered)
                for broker, delivered in notifications.items()
            },
            event_hops=tuple(event_hops),
            hops=hops,
            link_transfers=link_transfers,
        )

    # -- accounting -------------------------------------------------------------
    @property
    def clock(self) -> float:
        """Return the network time: the latest arrival of any publish so far."""
        return self._clock

    @property
    def events_published(self) -> int:
        return self._events_published

    @property
    def total_hops(self) -> int:
        """Return cumulative event-link crossings across all publishes."""
        return self._total_hops

    @property
    def total_link_transfers(self) -> int:
        """Return cumulative batched link transfers across all publishes."""
        return self._total_link_transfers

    def interest_kernel_stats(self) -> KernelStats:
        """Aggregate the per-link interest matchers' kernel accounting."""
        total = KernelStats()
        for broker in self._brokers.values():
            for link in broker.links.values():
                total.merge(link.interest.kernel_stats)
        return total

    def routing_table_entries(self) -> int:
        return sum(b.routing_table_size() for b in self._brokers.values())

    # -- life-cycle -------------------------------------------------------------
    def drain(self) -> None:
        for broker in self._brokers.values():
            broker.local.drain_deliveries()

    def close(self, *, drain: bool = True) -> None:
        for broker in self._brokers.values():
            broker.local.close(drain=drain)
