"""Quickstart: the paper's toy example through the ``repro.api`` facade.

Builds the environmental-monitoring schema of Example 1, subscribes the
five profiles P1-P5 (via the fluent builder where the paper writes
predicates, via ready-made profiles elsewhere), publishes the event of
Eq. (1), exercises the durable subscription handles and reads the merged
service statistics — including the adaptive re-optimisation history the
service keeps underneath (Section 4).  A second act shows asynchronous
notification delivery: the same subscriptions fed through an ``async
def`` sink and a slow webhook, both on the bounded thread pool, with a
draining context-manager shutdown.

Run with:  python examples/quickstart.py
"""

import asyncio
import time

from repro.api import FilterService, where
from repro.workloads import environmental_profiles, environmental_schema, example_event


def main() -> None:
    schema = environmental_schema()
    service = FilterService(schema)  # engine="auto": the service picks the filter
    print(f"schema: {schema!r}")
    print(f"engines on the roster: {', '.join(service.engines())}")
    print()

    # --- 1. Subscribe the five profiles of Example 1 -------------------------
    handles = service.subscribe_all(list(environmental_profiles(schema)))
    print(f"subscribed: {', '.join(h.profile.profile_id for h in handles)}")

    # The fluent builder compiles to exactly the same Profile objects the
    # paper's hand-written predicate mappings produce:
    alarm = service.subscribe(
        where("temperature").at_least(40) & where("humidity").between(80, 100),
        subscriber="alice",
        profile_id="alarm",
    )
    print(f"plus a fluent one: {alarm.profile}")
    print()

    # --- 2. Publish the event of Eq. (1) --------------------------------------
    event = example_event()
    outcome = service.publish(event)
    print(f"{event}")
    print(
        f"  matched profiles: {', '.join(outcome.match_result.matched_profile_ids)} "
        f"({outcome.match_result.operations} comparison operations, "
        f"{outcome.delivered} notifications)"
    )
    print()

    # --- 3. The handle life-cycle ---------------------------------------------
    # Pause/resume/modify ride the engine's incremental maintenance: the
    # filter is never rebuilt, and matching reflects the latest state.
    p2 = handles[1]
    p2.pause()
    without = service.publish(event)
    p2.resume()
    print(
        f"with {p2.profile.profile_id} paused the same event matches only: "
        f"{', '.join(without.match_result.matched_profile_ids)}"
    )
    alarm.modify(where("temperature").at_least(25))
    with_alarm = service.publish(event)
    print(
        f"after lowering the alarm threshold it matches: "
        f"{', '.join(with_alarm.match_result.matched_profile_ids)}"
    )
    print()

    # --- 4. One merged statistics snapshot ------------------------------------
    snapshot = service.stats()
    print("service statistics (filter + kernel + adaptation, one snapshot):")
    print(f"  events filtered      : {snapshot.events}")
    print(f"  notifications        : {snapshot.notifications}")
    print(f"  ops/event            : {snapshot.average_operations_per_event:6.2f}")
    print(f"  match rate           : {snapshot.match_rate:6.1%}")
    print(
        f"  engine               : {snapshot.engine} "
        f"(currently running the {snapshot.engine_family} family)"
    )
    print(f"  subscriptions        : {snapshot.subscriptions}")
    print(f"  re-optimisations     : {len(snapshot.adaptations)} considered")
    print()

    # --- 5. Asynchronous delivery (the async-sink variant) --------------------
    async_delivery()


def async_delivery() -> None:
    """Notification sinks off the matching hot path.

    The service default here is the bounded ``threadpool`` executor: a
    slow webhook must not stall the publisher or anyone else, and an
    ``async def`` sink is awaited to completion on the worker that
    delivers it.  Every subscription keeps its FIFO order, and the
    ``with`` block drains every queued notification on exit.
    """
    schema = environmental_schema()
    alerts: list[str] = []

    async def alert_feed(notification) -> None:
        # An ``async def`` sink: awaited on the delivering worker thread.
        await asyncio.sleep(0.001)
        alerts.append(notification.profile_id)

    def slow_webhook(notification) -> None:
        time.sleep(0.002)  # a sluggish subscriber, safely off the hot path

    with FilterService(schema, delivery="threadpool", max_workers=4) as service:
        for item in environmental_profiles(schema):
            service.subscribe(item, subscriber="ops", sink=alert_feed)
        service.subscribe(
            where("temperature").at_least(10), subscriber="audit", sink=slow_webhook
        )
        started = time.perf_counter()
        service.publish_batch([example_event()] * 20)
        publish_ms = (time.perf_counter() - started) * 1e3
        service.drain()  # barrier: every sink has caught up
        delivery = service.stats().delivery
        print("asynchronous delivery (async sinks + a slow sink on the thread pool):")
        print(f"  publish_batch wall   : {publish_ms:6.1f} ms (sinks run behind it)")
        print(f"  async alerts         : {len(alerts)} notifications awaited")
        print(
            f"  delivery stats       : {delivery.delivered} delivered / "
            f"{delivery.dispatched} dispatched via {', '.join(delivery.executors)}"
        )


if __name__ == "__main__":
    main()
