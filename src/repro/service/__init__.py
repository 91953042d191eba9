"""The event notification service layer.

Operational components built on top of the matching engines: a broker with
subscribe/publish/notify, the adaptive filter component that restructures
the profile tree from the observed event history, and a Siena-style
multi-broker routing overlay.
"""

from repro.service.adaptive import AdaptationPolicy, AdaptationRecord, AdaptiveFilterEngine
from repro.service.broker import Broker, PublishOutcome
from repro.service.notifications import Notification, NotificationLog
from repro.service.routing import (
    CoveringTable,
    NetworkDeliveryReport,
    NetworkService,
    NetworkStats,
    OverlayBroker,
    minimal_cover,
    predicate_covers,
    profile_covers,
)
from repro.service.subscriptions import Subscription, SubscriptionRegistry

__all__ = [
    "AdaptationPolicy",
    "AdaptationRecord",
    "AdaptiveFilterEngine",
    "Broker",
    "CoveringTable",
    "NetworkDeliveryReport",
    "NetworkService",
    "NetworkStats",
    "Notification",
    "NotificationLog",
    "OverlayBroker",
    "PublishOutcome",
    "Subscription",
    "SubscriptionRegistry",
    "minimal_cover",
    "predicate_covers",
    "profile_covers",
]
