"""The distributed broker overlay: incremental, covering-based routing.

Every :class:`OverlayBroker` hosts a full
:class:`~repro.service.broker.Broker` for its local subscribers — any
engine of the closed roster in :mod:`repro.matching.registry`
(``tree`` / ``index`` / ``naive`` / ``auto``), per-broker
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

The overlay itself — topology, subscription propagation and event
routing — is :class:`~repro.service.routing.service.NetworkService`.
Events travel in **batches**: :meth:`NetworkService.publish_batch` walks
the overlay breadth-first with an explicit frontier deque (no recursion,
arbitrarily long chains are fine), delivers locally through each broker's
``publish_batch`` (columnar kernel) and forwards to each neighbour only
the subset of the batch its interest matcher accepts — early rejection
as close to the publisher as possible, the paper's idea "used for a
distributed service".  Every forwarded batch arrives after the link's
latency (:mod:`~repro.service.routing.latency`) on the network's own
:attr:`NetworkService.clock`: a publish starts at the clock, and the clock
then moves to the batch's latest arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import RoutingError
from repro.core.events import Event
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Schema
from repro.matching.index.matcher import PredicateIndexMatcher
from repro.service.adaptive import AdaptationPolicy, resolve_policy_engine
from repro.service.broker import Broker
from repro.service.notifications import Notification
from repro.service.routing.table import CoveringTable

__all__ = ["LinkState", "NetworkDeliveryReport", "OverlayBroker"]


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
