"""Distributed broker-overlay routing (Siena-style, with covering).

:class:`OverlayNetwork` / :class:`NetworkService`: every broker hosts a
full engine of its own choice, covering relations are maintained
**incrementally** under churn (with correct uncovering on removal),
per-link interest is an indexed matcher, and events are forwarded in
batches through the columnar kernel on the network's own clock, each
link delayed by a :class:`LatencyModel`.  See ``docs/routing.md``.
"""

from repro.service.routing.covering import minimal_cover, predicate_covers, profile_covers
from repro.service.routing.latency import ConstantLatency, LatencyModel, UniformLatency
from repro.service.routing.overlay import (
    LinkState,
    NetworkDeliveryReport,
    OverlayBroker,
    OverlayNetwork,
)
from repro.service.routing.service import (
    BrokerStats,
    NetworkService,
    NetworkStats,
    NetworkSubscriptionHandle,
    build_topology,
)
from repro.service.routing.table import (
    AddOutcome,
    CoveringTable,
    RemoveOutcome,
    TableEntry,
)

__all__ = [
    "AddOutcome",
    "BrokerStats",
    "ConstantLatency",
    "CoveringTable",
    "LatencyModel",
    "LinkState",
    "NetworkDeliveryReport",
    "NetworkService",
    "NetworkStats",
    "NetworkSubscriptionHandle",
    "OverlayBroker",
    "OverlayNetwork",
    "RemoveOutcome",
    "TableEntry",
    "UniformLatency",
    "build_topology",
    "minimal_cover",
    "predicate_covers",
    "profile_covers",
]
