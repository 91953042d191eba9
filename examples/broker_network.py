"""Distributed filtering over a Siena-style broker overlay.

The paper positions its filter inside distributed event notification
services (Siena, Elvin): "unnecessary event information is rejected as early
as possible".  This example builds a :class:`~repro.api.NetworkService`
overlay of five brokers — each hosting a full engine of its own choice —
spreads facility-management subscriptions across them (the generated
workload mix plus fluent-builder alarm profiles wired the same way
:class:`~repro.api.FilterService` clients write them), publishes sensor
events at the edge brokers through a network with random per-link
latency, and reports how the incrementally maintained covering tables
limit both the hops an event travels and the subscription state forwarded
upstream.  A final check publishes the same events through one central
``FilterService`` and verifies the overlay delivered exactly the same
matches.

Run with:  python examples/broker_network.py
"""

import random
from collections import Counter

from repro.api import FilterService, NetworkService, build_profiles, where
from repro.service.routing import UniformLatency
from repro.workloads import build_workload, get_profile


def alarm_profiles():
    """Fluent-builder alarms, same syntax a FilterService client uses."""
    builders = [
        where("sensor").eq("smoke") & where("reading").at_least(60),
        where("building").eq(3) & where("sensor").one_of("door", "power"),
        where("reading").between(90, 99),
    ]
    return build_profiles(builders, id_prefix="alarm", subscriber="facilities-ops")


def main() -> None:
    workload = build_workload(
        get_profile("facility").spec.with_counts(profile_count=120, event_count=600)
    )
    schema = workload.schema
    profiles = list(workload.profiles) + alarm_profiles()

    #            hub
    #           /   \
    #        west   east
    #        /         \
    #    sensors-a   sensors-b
    network = NetworkService(
        schema, engine="index", latency=UniformLatency(0.5, 2.0, seed=7)
    )
    for name in ["hub", "west", "east", "sensors-a", "sensors-b"]:
        network.add_broker(name)
    network.connect("hub", "west")
    network.connect("hub", "east")
    network.connect("west", "sensors-a")
    network.connect("east", "sensors-b")

    # Subscribers attach to the three non-sensor brokers.
    rng = random.Random(11)
    homes = ["hub", "west", "east"]
    for item in profiles:
        network.subscribe(item, at=rng.choice(homes), subscriber=item.subscriber)

    print("routing state after covering-based propagation:")
    for broker_id, broker in sorted(network.stats().brokers.items()):
        active = sum(broker.active_interest.values())
        print(
            f"  {broker_id:10s} local subscriptions = {broker.subscriptions:4d}   "
            f"stored routing entries = {broker.routing_table_size:4d}   "
            f"forwarded (covering-reduced) = {active}"
        )
    print()

    # Publish events at the sensor brokers; each publish starts at the
    # network's clock, which ends at the latest arrival.
    hops_counter: Counter = Counter()
    delivered = 0
    overlay_matches: list[frozenset] = []
    for index, event in enumerate(workload.events):
        origin = "sensors-a" if index % 2 == 0 else "sensors-b"
        report = network.publish(event, at=origin)
        hops_counter[report.max_hops] += 1
        delivered += report.total_notifications
        overlay_matches.append(
            frozenset(
                notification.profile_id
                for notifications in report.notifications.values()
                for notification in notifications
            )
        )

    stats = network.stats()
    print(f"published {len(workload.events)} events from the sensor brokers")
    print(f"delivered notifications : {delivered}")
    print("hops travelled per event (early rejection at work):")
    for hops, count in sorted(hops_counter.items()):
        print(f"  {hops} hop(s): {count} events")
    print(
        f"per-link decisions: {stats.forwarded_events} forwarded, "
        f"{stats.suppressed_events} suppressed "
        f"(suppression rate {stats.suppression_rate:.2f}, "
        f"cover hit rate {stats.cover_hit_rate:.2f})"
    )
    print(f"network clock at the end of the run: {network.network.clock:.1f} time units")
    print()

    # --- The overlay delivers exactly what one central service would ---------
    with FilterService(schema, engine="index", adaptive=False) as central:
        central.subscribe_all(profiles)
        outcomes = central.publish_batch(list(workload.events))
    central_matches = [
        frozenset(outcome.match_result.matched_profile_ids) for outcome in outcomes
    ]
    assert overlay_matches == central_matches, "overlay lost or invented notifications"
    print(
        "equivalence check: the 5-broker overlay delivered the same "
        f"{sum(map(len, central_matches))} matches as one central FilterService"
    )
    network.close()


if __name__ == "__main__":
    main()
