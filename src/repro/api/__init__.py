"""``repro.api`` — the stable, ergonomic surface of the filtering service.

The paper frames content-based filtering as a *service* users subscribe
to; this package is that service boundary.  Engines, statistics and the
subscription life-cycle keep evolving underneath
(:mod:`repro.matching`, :mod:`repro.service`), while the names exported
here — locked, with signatures, by ``tests/test_public_api.py`` — stay
put.

API tour
--------

**1. Build a service.**  One :class:`FilterService` per schema; pick an
engine family by name (``"tree"``, ``"index"``, ``"naive"``) or keep the
default ``"auto"``, the index family replanning itself from the observed
event distributions::

    from repro.api import FilterService, where
    from repro.workloads import environmental_schema

    service = FilterService(environmental_schema())   # engine="auto"

**2. Subscribe with the fluent builder** (or any hand-built
:class:`~repro.core.profiles.Profile` — the two compile bit-identically)
and keep the returned durable handle::

    alarm = service.subscribe(
        where("temperature").at_least(40) & where("humidity").between(80, 100),
        subscriber="alice",
    )

**3. Publish** events one at a time or in batches (batches reach the
index family's columnar kernel)::

    outcome = service.publish({"temperature": 45, "humidity": 90, ...})
    outcomes = service.publish_batch(ticks)

**4. Manage the subscription through its handle.**  Pause, resume,
modify and cancel all ride the engine's incremental maintenance — no
filter rebuild, and the adaptation history survives::

    alarm.pause()
    alarm.modify(where("temperature").at_least(50))
    alarm.resume()
    alarm.cancel()

**5. Observe** everything through one snapshot merging the filter
statistics, the batch-kernel accounting and the adaptation history::

    snapshot = service.stats()
    snapshot.average_operations_per_event
    snapshot.batch_dedup_factor
    snapshot.adaptations[-1].engine

**6. Take delivery off the hot path.**  The default executor runs sinks
inline (synchronously); a heavy-traffic service hands them to a bounded
worker pool — per-subscription FIFO order, bounded backpressure queues,
and a draining close are guaranteed either way.  An ``async def`` sink
works on either executor (each notification is awaited to completion
on the delivering thread)::

    with FilterService(schema, delivery="threadpool", max_workers=8) as service:
        service.subscribe(where("symbol").eq("MSFT"), sink=slow_webhook)
        service.subscribe(where("price").at_least(100), sink=an_async_def_sink)
        service.publish_batch(ticks)      # matching never waits on a sink
        service.drain()                   # barrier: all sinks caught up
        service.stats().delivery          # dispatched/delivered/dropped/...

**7. Survive restarts and leave the process.**  A
:class:`SubscriptionStore` journals every subscription operation
(a JSONL write-ahead log, snapshot + log compaction); booting a service
over the same store replays the state and resumes the durable handles
by id.  A :class:`WebhookSink` pins a subscription to the remote
``webhook`` executor — per-endpoint FIFO lanes, retry budget with
exponential backoff, circuit breaker, dead-letter queue::

    store = JsonlWalStore("state/subscriptions")
    with FilterService(schema, store=store) as service:
        service.subscribe(where("price").at_least(100),
                          sink=WebhookSink("https://example.test/hook"),
                          delivery="webhook")
    # after a restart: same directory, same subscriptions
    service = FilterService(schema, store=JsonlWalStore("state/subscriptions"))
    service.stats().durability            # seq/snapshots/replayed/...

**8. Go distributed.**  :class:`NetworkService` is the same facade over
a Siena-style broker overlay: subscribe at a *home* broker, publish
anywhere, and covering-reduced routing tables (maintained incrementally
under churn) suppress events as close to the publisher as possible —
see ``docs/routing.md``.  It hands out the same
:class:`SubscriptionHandle`; a network subscription is its home broker
plus that broker's subscription id::

    net = NetworkService(schema)
    for b in ("edge", "core", "hub"):
        net.add_broker(b)
    net.connect("edge", "core"); net.connect("core", "hub")
    alarm = net.subscribe(where("temperature").at_least(40), at="hub")
    net.publish({"temperature": 45, ...}, at="edge")
    net.handle(alarm.subscription_id, at=alarm.home_broker).pause()
    net.stats().suppression_rate
"""

from repro.core.builder import AttributeClause, ProfileBuilder, build_profiles, where
from repro.core.events import Event
from repro.core.profiles import Profile
from repro.core.schema import Attribute, Schema
from repro.service.adaptive import AdaptationPolicy, AdaptationRecord
from repro.service.broker import PublishOutcome
from repro.service.delivery import (
    DeliveryStats,
    WebhookConfig,
    WebhookSink,
)
from repro.service.durability import (
    DurabilityStats,
    InMemorySubscriptionStore,
    JsonlWalStore,
    SubscriptionStore,
)
from repro.service.routing import (
    BrokerStats,
    NetworkDeliveryReport,
    NetworkService,
    NetworkStats,
)
from repro.api.service import FilterService, ServiceStats, SubscriptionHandle

__all__ = [
    "AdaptationPolicy",
    "AdaptationRecord",
    "Attribute",
    "AttributeClause",
    "BrokerStats",
    "DeliveryStats",
    "DurabilityStats",
    "Event",
    "FilterService",
    "InMemorySubscriptionStore",
    "JsonlWalStore",
    "NetworkDeliveryReport",
    "NetworkService",
    "NetworkStats",
    "Profile",
    "ProfileBuilder",
    "PublishOutcome",
    "Schema",
    "ServiceStats",
    "SubscriptionHandle",
    "SubscriptionStore",
    "WebhookConfig",
    "WebhookSink",
    "build_profiles",
    "where",
]
