"""Tests for the distributed broker overlay and its service facade.

Covers the incremental routing protocol (covering prune, uncovering on
removal, connect-replay), the churn-cost guarantees, the batch forwarding
path, and — strictest of all — a hypothesis-locked end-to-end delivery
equivalence between a :class:`NetworkService` over arbitrary acyclic
topologies under churn and a single central :class:`FilterService`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FilterService, NetworkService, where
from repro.core.domains import IntegerDomain
from repro.core.errors import RoutingError, SubscriptionError
from repro.core.events import Event
from repro.core.predicates import Equals, RangePredicate
from repro.core.profiles import profile
from repro.core.schema import Attribute, Schema
from repro.service.routing import (
    ConstantLatency,
    LatencyModel,
    UniformLatency,
    build_topology,
)


def price_schema() -> Schema:
    return Schema(
        [
            Attribute("price", IntegerDomain(0, 199)),
            Attribute("volume", IntegerDomain(0, 49)),
        ]
    )


def chain_service(*broker_ids: str, engine: str | None = "index") -> NetworkService:
    service = NetworkService(price_schema(), engine=engine)
    previous = None
    for broker_id in broker_ids:
        service.add_broker(broker_id)
        if previous is not None:
            service.connect(previous, broker_id)
        previous = broker_id
    return service


class TestTopology:
    def test_duplicate_broker_rejected(self):
        service = NetworkService(price_schema())
        service.add_broker("a")
        with pytest.raises(RoutingError):
            service.add_broker("a")

    def test_self_link_rejected(self):
        service = NetworkService(price_schema())
        service.add_broker("a")
        with pytest.raises(RoutingError):
            service.connect("a", "a")

    def test_connect_requires_existing_brokers(self):
        service = NetworkService(price_schema())
        service.add_broker("a")
        with pytest.raises(RoutingError):
            service.connect("a", "ghost")

    def test_duplicate_link_rejected(self):
        service = chain_service("a", "b")
        with pytest.raises(RoutingError):
            service.connect("b", "a")

    def test_cycle_rejected(self):
        service = chain_service("a", "b", "c")
        with pytest.raises(RoutingError):
            service.connect("c", "a")

    def test_unknown_broker_rejected(self):
        service = NetworkService(price_schema())
        with pytest.raises(RoutingError):
            service.publish({"price": 10}, at="ghost")

    def test_neighbours_are_sorted(self):
        service = NetworkService(price_schema())
        for b in ("hub", "z", "a", "m"):
            service.add_broker(b)
        for b in ("z", "a", "m"):
            service.connect("hub", b)
        assert service.neighbours("hub") == ["a", "m", "z"]
        assert service.brokers() == ["hub", "z", "a", "m"]


class TestRoutingPropagation:
    def test_covered_subscription_is_pruned_en_route(self):
        service = chain_service("a", "b", "c")
        service.subscribe(profile("wide", price=RangePredicate.at_least(100)), at="c")
        service.subscribe(
            profile("narrow", price=RangePredicate.between(150, 180)), at="c"
        )
        # The narrow profile is absorbed at b — the first broker where
        # the already-forwarded wide one covers it — and the flood stops
        # there: a only ever hears about wide.
        at_b = service.broker("b").link("c")
        assert len(at_b.table) == 2
        assert [p.profile_id for p in at_b.table.active_profiles()] == ["wide"]
        at_a = service.broker("a").link("b")
        assert [p.profile_id for p in at_a.table.profiles()] == ["wide"]
        stats = service.stats()
        assert stats.cover_hits > 0
        assert stats.active_routing_entries < stats.routing_table_entries

    def test_events_are_suppressed_at_the_publisher(self):
        service = chain_service("a", "b", "c")
        service.subscribe(profile("high", price=RangePredicate.at_least(100)), at="c")
        report = service.publish({"price": 5}, at="a")
        # Nobody wants a low price: the event never leaves broker a.
        assert report.event_hops == (0,)
        assert report.total_notifications == 0
        matched = service.publish({"price": 150}, at="a")
        assert matched.event_hops == (2,)
        assert matched.max_hops == 2
        assert [n.profile_id for n in matched.notifications["c"]] == ["high"]

    def test_event_is_not_forwarded_to_uninterested_branches(self):
        service = NetworkService(price_schema())
        for b in ("hub", "left", "right"):
            service.add_broker(b)
        service.connect("hub", "left")
        service.connect("hub", "right")
        service.subscribe(profile("low", price=RangePredicate.at_most(50)), at="left")
        service.subscribe(profile("high", price=RangePredicate.at_least(150)), at="right")
        report = service.publish({"price": 10}, at="hub")
        assert [n.profile_id for n in report.notifications["left"]] == ["low"]
        assert "right" not in report.notifications
        assert service.broker_stats("left").events_in == 1
        assert service.broker_stats("right").events_in == 0

    def test_event_reaches_a_remote_subscriber(self):
        service = chain_service("a", "b", "c")
        service.subscribe(
            profile("cheap", price=RangePredicate.at_most(50)), at="c", subscriber="carol"
        )
        report = service.publish({"price": 10}, at="a")
        assert report.total_notifications == 1
        assert [n.subscriber for n in report.notifications["c"]] == ["carol"]
        assert service.broker_stats("b").events_in == 1
        assert service.broker_stats("c").events_in == 1

    def test_random_ranges_match_centralised_filtering(self):
        """Routing over the chain delivers exactly what one central
        filter would, from whichever broker the event enters."""
        rng = random.Random(3)
        brokers = ("a", "b", "c")
        service = chain_service(*brokers)
        subscribed = []
        for i in range(30):
            low = rng.randint(0, 180)
            item = profile(f"P{i}", price=RangePredicate.between(low, low + rng.randint(0, 20)))
            subscribed.append(item)
            service.subscribe(item, at=rng.choice(brokers))
        for _ in range(100):
            event = Event({"price": rng.randint(0, 199)})
            report = service.publish(event, at=rng.choice(brokers))
            expected = sorted(p.profile_id for p in subscribed if p.matches(event))
            delivered = sorted(
                n.profile_id for batch in report.notifications.values() for n in batch
            )
            assert delivered == expected

    def test_local_subscription_is_delivered_at_its_home_broker(self):
        service = chain_service("a", "b", "c")
        service.subscribe(
            profile("all", price=RangePredicate.at_least(0)), at="a", subscriber="alice"
        )
        report = service.publish({"price": 5}, at="a")
        assert report.event_hops == (0,)
        assert [n.subscriber for n in report.notifications["a"]] == ["alice"]

    def test_uncovering_repropagates_the_pruned_profile(self):
        # The ISSUE's uncovering criterion: after the coverer dies, the
        # profile it covered must take over its routing role.
        service = chain_service("a", "b", "c")
        coverer = service.subscribe(
            profile("wide", price=RangePredicate.at_least(100)), at="c"
        )
        service.subscribe(
            profile("narrow", price=RangePredicate.between(150, 180)), at="c"
        )
        link = service.broker("a").link("b")
        assert [p.profile_id for p in link.table.active_profiles()] == ["wide"]
        coverer.cancel()
        # narrow was never forwarded past its cover point; the removal
        # must have re-propagated it all the way to a.
        assert [p.profile_id for p in link.table.active_profiles()] == ["narrow"]
        report = service.publish({"price": 160}, at="a")
        assert [n.profile_id for n in report.notifications["c"]] == ["narrow"]
        # And events only the dead coverer wanted stop travelling.
        assert service.publish({"price": 120}, at="a").event_hops == (0,)

    def test_pause_retracts_and_resume_repropagates(self):
        service = chain_service("a", "b")
        handle = service.subscribe(
            profile("high", price=RangePredicate.at_least(100)), at="b"
        )
        assert service.publish({"price": 150}, at="a").total_notifications == 1
        handle.pause()
        assert "high" not in service.broker("a").link("b").table
        report = service.publish({"price": 150}, at="a")
        assert report.total_notifications == 0
        assert report.event_hops == (0,)
        handle.resume()
        assert service.publish({"price": 150}, at="a").total_notifications == 1
        assert handle.notifications_received() == 2

    def test_modify_moves_the_routing_interest(self):
        service = chain_service("a", "b")
        handle = service.subscribe(
            profile("p", price=RangePredicate.at_least(100)), at="b"
        )
        handle.modify(profile("p", price=RangePredicate.at_most(10)))
        assert service.publish({"price": 150}, at="a").total_notifications == 0
        assert service.publish({"price": 5}, at="a").total_notifications == 1

    def test_connect_replays_existing_interest(self):
        # Subscriptions precede the link: connecting two live components
        # must replay their interest across the new edge.
        service = NetworkService(price_schema(), engine="index")
        service.add_broker("a")
        service.add_broker("b")
        service.subscribe(profile("high", price=RangePredicate.at_least(100)), at="b")
        service.subscribe(
            profile("higher", price=RangePredicate.at_least(150)), at="b"
        )
        service.connect("a", "b")
        link = service.broker("a").link("b")
        # Replay floods in subscription order, covering included.
        assert [p.profile_id for p in link.table.active_profiles()] == ["high"]
        report = service.publish({"price": 180}, at="a")
        assert sorted(n.profile_id for n in report.notifications["b"]) == [
            "high",
            "higher",
        ]

    def test_batch_rides_links_together(self):
        service = chain_service("a", "b", "c")
        service.subscribe(profile("high", price=RangePredicate.at_least(100)), at="c")
        events = [Event({"price": p}) for p in (150, 5, 160, 10, 170)]
        report = service.publish_batch(events, at="a")
        # Three events travel, but each link is crossed exactly once.
        assert report.hops == 6
        assert report.link_transfers == 2
        assert report.event_hops == (2, 0, 2, 0, 2)
        assert report.suppressed_within(0) == 2


class TestChurnCost:
    def test_isolated_removal_touches_no_unrelated_entries(self):
        # Deterministic churn-cost evidence at network level: cancelling
        # a subscription whose profile covers nothing performs zero
        # cover re-checks, however many unrelated entries the tables hold.
        service = chain_service("a", "b")
        for i in range(40):
            service.subscribe(profile(f"p{i}", price=Equals(2 * i)), at="b")
        victim = service.subscribe(profile("victim", price=Equals(199)), at="b")
        checks_before = service.stats().cover_checks
        victim.cancel()
        checks_after = service.stats().cover_checks
        assert checks_after == checks_before

    def test_removal_cost_scales_with_covered_set(self):
        service = chain_service("a", "b")
        coverer = service.subscribe(
            profile("wide", price=RangePredicate.at_least(100)), at="b"
        )
        for i in range(5):
            service.subscribe(profile(f"n{i}", price=Equals(150 + i)), at="b")
        for i in range(40):
            service.subscribe(profile(f"u{i}", volume=Equals(i)), at="b")
        link = service.broker("a").link("b")
        outcome = link.table.remove("wide")
        # Manually driving the table: only wide's own cover set is
        # re-examined (5 orphans), not the 40 unrelated entries.
        assert outcome.touched == 5
        # Restore consistency for close().
        coverer  # noqa: B018 - keep the handle alive for clarity


class TestNetworkServiceFacade:
    def test_builder_subscription_and_mapping_publish(self):
        service = chain_service("a", "b")
        handle = service.subscribe(where("price").at_least(100), at="b", subscriber="x")
        assert handle.home_broker == "b"
        report = service.publish({"price": 150}, at="a")
        assert report.total_notifications == 1
        assert handle.notifications_received() == 1

    def test_duplicate_profile_id_rejected_network_wide(self):
        service = chain_service("a", "b")
        service.subscribe(profile("p", price=Equals(1)), at="a")
        with pytest.raises(SubscriptionError):
            service.subscribe(profile("p", price=Equals(2)), at="b")

    def test_a_paused_profile_id_is_still_taken(self):
        service = chain_service("a", "b")
        paused = service.subscribe(profile("p", price=Equals(1)), at="a").pause()
        with pytest.raises(SubscriptionError):
            service.subscribe(profile("p", price=Equals(2)), at="b")
        other = service.subscribe(profile("q", price=Equals(3)), at="b")
        with pytest.raises(SubscriptionError):
            other.modify(profile("p", price=Equals(3)))
        paused.cancel()
        service.subscribe(profile("p", price=Equals(2)), at="b")
        assert service.publish({"price": 2}, at="a").total_notifications == 1

    def test_cancelled_handle_refuses_operations(self):
        service = chain_service("a", "b")
        handle = service.subscribe(profile("p", price=Equals(1)), at="a")
        handle.cancel()
        for operation in (handle.pause, handle.resume, handle.cancel):
            with pytest.raises(SubscriptionError):
                operation()

    def test_partial_events_match_central_semantics(self):
        # Satellite: the network accepts the same events the central
        # service accepts — including partial ones.
        service = chain_service("a", "b")
        service.subscribe(profile("price-only", price=RangePredicate.at_least(100)), at="b")
        service.subscribe(profile("volume-only", volume=Equals(3)), at="b")
        report = service.publish(Event({"price": 150}), at="a")
        assert [n.profile_id for n in report.notifications["b"]] == ["price-only"]
        with pytest.raises(Exception):
            service.publish(Event({"price": 10_000}), at="a")

    def test_sinks_receive_notifications(self):
        service = chain_service("a", "b")
        received = []
        service.subscribe(
            profile("p", price=RangePredicate.at_least(100)),
            at="b",
            sink=received.append,
            subscriber="alice",
        )
        service.publish({"price": 150}, at="a")
        assert len(received) == 1
        assert received[0].subscriber == "alice"

    def test_stats_merge_per_broker_and_network_wide(self):
        service = chain_service("a", "b", "c")
        service.subscribe(profile("high", price=RangePredicate.at_least(100)), at="c")
        service.subscribe(
            profile("higher", price=RangePredicate.at_least(150)), at="c"
        )
        service.publish_batch(
            [Event({"price": p}) for p in (150, 5, 170)], at="a"
        )
        stats = service.stats()
        assert stats.links == 2
        assert stats.events_published == 3
        assert stats.subscriptions == 2
        assert stats.hops == 4
        assert stats.link_transfers == 2
        assert 0.0 < stats.suppression_rate < 1.0
        assert stats.cover_hit_rate > 0
        per_broker = stats.brokers
        assert set(per_broker) == {"a", "b", "c"}
        assert per_broker["c"].subscriptions == 2
        assert per_broker["c"].notifications == stats.notifications
        assert per_broker["a"].events_in == 3
        # higher was pruned at b; only wide reached a.
        assert per_broker["a"].routing_table == {"b": 1}
        assert per_broker["b"].routing_table == {"a": 0, "c": 2}
        assert stats.routing_table_entries == 3
        assert stats.active_routing_entries == 2
        broker_a = service.broker_stats("a")
        assert broker_a.active_interest == {"b": 1}
        assert broker_a.events_forwarded == 2
        assert broker_a.events_suppressed == 1

    def test_per_broker_engine_choice(self):
        service = NetworkService(price_schema(), engine="tree")
        service.add_broker("t")
        service.add_broker("i", engine="index")
        service.connect("t", "i")
        service.subscribe(profile("a", price=Equals(1)), at="t")
        service.subscribe(profile("b", price=Equals(1)), at="i")
        service.publish({"price": 1, "volume": 0}, at="t")
        assert service.broker_stats("t").engine_family == "tree"
        assert service.broker_stats("i").engine_family == "index"

    def test_context_manager_closes_brokers(self):
        with chain_service("a", "b") as service:
            service.subscribe(profile("p", price=Equals(1)), at="b")
            service.publish({"price": 1}, at="a")
        # After close the local delivery executors are shut down.
        assert service.stats().notifications == 1

    def test_network_clock_accumulates_latency(self):
        service = NetworkService(price_schema(), latency=ConstantLatency(2.0))
        for b in ("a", "b", "c"):
            service.add_broker(b)
        service.connect("a", "b")
        service.connect("b", "c")
        service.subscribe(profile("p", price=RangePredicate.at_least(100)), at="c")
        report = service.publish({"price": 150}, at="a")
        assert report.total_notifications == 1
        # Two hops at 2.0 each on the network's clock.
        assert service.clock == pytest.approx(4.0)
        notification = report.notifications["c"][0]
        assert notification.delivered_at == pytest.approx(4.0)

    def test_each_publish_starts_at_the_network_clock(self):
        service = NetworkService(price_schema(), latency=ConstantLatency(2.0))
        service.add_broker("a")
        service.add_broker("b")
        service.connect("a", "b")
        service.subscribe(profile("pa", price=RangePredicate.at_least(100)), at="a")
        service.subscribe(profile("pb", price=RangePredicate.at_least(100)), at="b")
        stamps = []
        for _ in range(3):
            report = service.publish({"price": 150}, at="a")
            stamps.append(
                {
                    broker: batch[0].delivered_at
                    for broker, batch in report.notifications.items()
                }
            )
        assert stamps == [
            {"a": 0.0, "b": 2.0},
            {"a": 2.0, "b": 4.0},
            {"a": 4.0, "b": 6.0},
        ]
        assert service.clock == 6.0

    def test_a_suppressed_publish_leaves_the_clock_alone(self):
        service = NetworkService(price_schema(), latency=ConstantLatency(2.0))
        service.add_broker("a")
        service.add_broker("b")
        service.connect("a", "b")
        service.subscribe(profile("pb", price=RangePredicate.at_least(100)), at="b")
        service.publish({"price": 150}, at="a")
        report = service.publish({"price": 5}, at="a")
        assert report.hops == 0
        assert service.clock == 2.0


class LinkLatency(LatencyModel):
    """Per-direction delays; records every ``(source, destination)`` asked."""

    def __init__(self, delays: dict[tuple[str, str], float], default: float = 1.0):
        self.delays = delays
        self.default = default
        self.asked: list[tuple[str, str]] = []

    def delay(self, source: str, destination: str) -> float:
        self.asked.append((source, destination))
        return self.delays.get((source, destination), self.default)


def delivery_stamps(report) -> list[tuple[str, str, float]]:
    return sorted(
        (broker, n.profile_id, n.delivered_at)
        for broker, batch in report.notifications.items()
        for n in batch
    )


class TestNetworkClock:
    def test_a_fresh_network_starts_at_zero(self):
        service = chain_service("a", "b")
        assert service.clock == 0.0
        service.subscribe(profile("pa", price=Equals(1)), at="a")
        report = service.publish({"price": 1}, at="a")
        assert report.notifications["a"][0].delivered_at == 0.0
        assert service.clock == 0.0

    def test_the_clock_is_read_only(self):
        service = NetworkService(price_schema())
        with pytest.raises(AttributeError):
            service.clock = 5.0
        assert service.clock == 0.0

    def test_a_batch_moves_the_clock_once(self):
        service = NetworkService(price_schema(), latency=ConstantLatency(2.0))
        service.add_broker("a")
        service.add_broker("b")
        service.connect("a", "b")
        service.subscribe(profile("pb", price=RangePredicate.at_least(100)), at="b")
        events = [Event({"price": p}) for p in (150, 160, 170)]
        first = service.publish_batch(events, at="a")
        assert [n.delivered_at for n in first.notifications["b"]] == [2.0, 2.0, 2.0]
        assert first.link_transfers == 1
        assert service.clock == 2.0
        second = service.publish_batch(events, at="a")
        assert [n.delivered_at for n in second.notifications["b"]] == [4.0, 4.0, 4.0]
        assert service.clock == 4.0

    def test_the_clock_ends_at_the_latest_arrival_not_the_last_visited(self):
        # The frontier visits b before c, but c's link is the faster one:
        # the clock must take the slow branch's arrival.
        latency = LinkLatency({("a", "b"): 5.0, ("a", "c"): 1.0})
        service = NetworkService(price_schema(), latency=latency)
        for broker_id in ("a", "b", "c"):
            service.add_broker(broker_id)
        service.connect("a", "b")
        service.connect("a", "c")
        service.subscribe(profile("pb", price=RangePredicate.at_least(100)), at="b")
        service.subscribe(profile("pc", price=RangePredicate.at_least(100)), at="c")
        report = service.publish({"price": 150}, at="a")
        assert delivery_stamps(report) == [("b", "pb", 5.0), ("c", "pc", 1.0)]
        assert service.clock == 5.0
        report = service.publish({"price": 150}, at="a")
        assert delivery_stamps(report) == [("b", "pb", 10.0), ("c", "pc", 6.0)]
        assert service.clock == 10.0

    def test_a_local_only_publish_stamps_the_clock_and_leaves_it(self):
        service = NetworkService(price_schema(), latency=ConstantLatency(2.0))
        service.add_broker("a")
        service.add_broker("b")
        service.connect("a", "b")
        service.subscribe(profile("pb", price=RangePredicate.at_least(100)), at="b")
        service.publish({"price": 150}, at="a")
        report = service.publish({"price": 150}, at="b")
        assert report.hops == 0
        assert report.notifications["b"][0].delivered_at == 2.0
        assert service.clock == 2.0

    def test_delivery_time_is_hops_times_latency_on_a_chain(self):
        service = NetworkService(price_schema(), latency=ConstantLatency(3.0))
        names = build_topology(service, brokers=4, topology="chain")
        for name in names:
            service.subscribe(
                profile(f"at-{name}", price=RangePredicate.at_least(0)), at=name
            )
        report = service.publish({"price": 10}, at=names[0])
        assert report.max_hops == 3
        assert delivery_stamps(report) == [
            (name, f"at-{name}", 3.0 * hop) for hop, name in enumerate(names)
        ]
        assert service.clock == pytest.approx(9.0)

    def test_seeded_uniform_latency_repeats_exactly(self):
        def run() -> tuple[list, list[float]]:
            service = NetworkService(
                price_schema(), engine="index", latency=UniformLatency(1, 2, seed=7)
            )
            names = build_topology(service, brokers=5, topology="tree")
            rng = random.Random(3)
            for i in range(30):
                low = rng.randrange(0, 180)
                service.subscribe(
                    profile(f"p{i}", price=RangePredicate.between(low, low + 20)),
                    at=names[i % len(names)],
                )
            stamps, clocks = [], []
            for round_ in range(3):
                events = [Event({"price": rng.randrange(0, 200)}) for _ in range(20)]
                report = service.publish_batch(events, at=names[round_ % len(names)])
                stamps.append((delivery_stamps(report), report.hops, report.event_hops))
                clocks.append(service.clock)
            return stamps, clocks

        first_stamps, first_clocks = run()
        second_stamps, second_clocks = run()
        assert first_stamps == second_stamps
        assert first_clocks == second_clocks
        assert first_clocks == sorted(first_clocks)
        assert first_clocks[-1] > 0.0
        for (stamps, _, _), clock in zip(first_stamps, first_clocks):
            assert all(stamp <= clock for _, _, stamp in stamps)


class TestLatencyModels:
    def test_constant(self):
        assert ConstantLatency(3.0).delay("a", "b") == 3.0
        with pytest.raises(RoutingError):
            ConstantLatency(-1)

    def test_uniform_is_seeded_and_bounded(self):
        first = UniformLatency(1, 2, seed=5)
        second = UniformLatency(1, 2, seed=5)
        values = [first.delay("a", "b") for _ in range(20)]
        assert values == [second.delay("a", "b") for _ in range(20)]
        assert all(1 <= v <= 2 for v in values)
        with pytest.raises(RoutingError):
            UniformLatency(3, 1)
        with pytest.raises(RoutingError):
            UniformLatency(-1, 1)

    def test_a_model_is_asked_once_per_link_transfer_and_direction(self):
        latency = LinkLatency({("a", "b"): 5.0, ("c", "b"): 0.5})
        service = NetworkService(price_schema(), latency=latency)
        for broker_id in ("a", "b", "c"):
            service.add_broker(broker_id)
        service.connect("a", "b")
        service.connect("b", "c")
        service.subscribe(profile("pa", price=RangePredicate.at_least(100)), at="a")
        service.subscribe(profile("pc", price=RangePredicate.at_least(100)), at="c")
        events = [Event({"price": p}) for p in (150, 160)]
        report = service.publish_batch(events, at="a")
        assert latency.asked == [("a", "b"), ("b", "c")]
        assert report.notifications["c"][0].delivered_at == 6.0
        latency.asked.clear()
        report = service.publish_batch(events, at="c")
        assert latency.asked == [("c", "b"), ("b", "a")]
        assert report.notifications["a"][0].delivered_at == 6.0 + 1.5

    def test_the_default_is_one_unit_per_link(self):
        service = chain_service("a", "b", "c")
        service.subscribe(profile("pc", price=RangePredicate.at_least(100)), at="c")
        report = service.publish({"price": 150}, at="a")
        assert report.notifications["c"][0].delivered_at == 2.0
        assert service.clock == 2.0


class TestBuildTopology:
    def test_chain_links_consecutive_brokers(self):
        service = NetworkService(price_schema())
        names = build_topology(service, brokers=5, topology="chain")
        assert names == ["b0", "b1", "b2", "b3", "b4"]
        assert service.neighbours("b0") == ["b1"]
        assert service.neighbours("b2") == ["b1", "b3"]
        assert service.stats().links == 4

    def test_star_routes_through_the_hub(self):
        service = NetworkService(price_schema())
        build_topology(service, brokers=5, topology="star")
        assert service.neighbours("b0") == ["b1", "b2", "b3", "b4"]
        assert service.neighbours("b3") == ["b0"]

    def test_tree_is_balanced_and_acyclic(self):
        service = NetworkService(price_schema())
        build_topology(service, brokers=7, topology="tree")
        assert service.neighbours("b0") == ["b1", "b2"]
        assert service.neighbours("b1") == ["b0", "b3", "b4"]
        assert service.neighbours("b2") == ["b0", "b5", "b6"]

    def test_unknown_topology_rejected(self):
        service = NetworkService(price_schema())
        with pytest.raises(RoutingError):
            build_topology(service, brokers=3, topology="ring")
        with pytest.raises(RoutingError):
            build_topology(service, brokers=0, topology="chain")

    def test_a_single_broker_has_no_links(self):
        service = NetworkService(price_schema())
        assert build_topology(service, brokers=1, topology="star") == ["b0"]
        assert service.neighbours("b0") == []
        assert service.stats().links == 0

    def test_the_engine_is_set_on_every_broker(self):
        service = NetworkService(price_schema(), engine="index")
        names = build_topology(service, brokers=3, topology="tree", engine="tree")
        for name in names:
            service.subscribe(profile(f"p-{name}", price=Equals(1)), at=name)
        service.publish({"price": 1, "volume": 0}, at="b0")
        assert {service.broker_stats(name).engine_family for name in names} == {"tree"}


class TestOverlayProtocol:
    """Routing-state rules of the overlay that the facade tests above do
    not reach: reserved ids of paused profiles and the connect replay."""

    def test_a_paused_profile_id_stays_reserved(self):
        service = NetworkService(price_schema(), engine="index")
        for broker_id in ("a", "b", "c"):
            service.add_broker(broker_id)
        service.connect("a", "b")
        held = service.subscribe(
            profile("P1", price=RangePredicate.at_least(10)), at="a", subscriber="ann"
        )
        held.pause()
        with pytest.raises(SubscriptionError, match="home broker 'a'"):
            service.subscribe(
                profile("P1", price=RangePredicate.at_most(5)), at="b", subscriber="bob"
            )
        held.resume()
        # The new component learns of a's P1 only through the replay.
        service.connect("b", "c")
        report = service.publish(Event({"price": 50}), at="c")
        assert [n.profile_id for n in report.notifications["a"]] == ["P1"]

    def test_connect_replays_only_live_profiles(self):
        service = NetworkService(price_schema(), engine="index")
        service.add_broker("a")
        service.add_broker("b")
        held = service.subscribe(
            profile("P1", price=RangePredicate.at_least(10)), at="a", subscriber="ann"
        )
        held.pause()
        service.connect("a", "b")
        assert "P1" not in service.broker("b").link("a").table
        assert service.publish(Event({"price": 50}), at="b").total_notifications == 0
        held.resume()
        assert service.publish(Event({"price": 50}), at="b").total_notifications == 1

    def test_a_pause_made_on_the_home_broker_leaves_the_handle_working(self):
        """A pause made on the home broker's own engine withdraws nothing
        from routing.  The handle's resume and modify read the routing off
        the first-hop tables, so resume routes the profile once and modify
        retracts the old one, as in a network paused through the handle."""
        events = [Event({"price": price, "volume": 1}) for price in (5, 50, 120, 170)]

        def run(detour):
            network = chain_service("a", "b", "c")
            central = FilterService(price_schema(), engine="index")
            handles = []
            for service, at in ((network, {"at": "b"}), (central, {})):
                handle = service.subscribe(profile("p", price=RangePredicate.at_least(100)), **at)
                service.subscribe(profile("q", price=RangePredicate.at_least(150)), **at)
                handles.append(handle)
            states = []

            def step(verb, *args):
                for handle in handles:
                    if verb == "pause" and detour and handle.home_broker == "b":
                        network.broker("b").local.pause_subscription(handle.subscription_id)
                    else:
                        getattr(handle, verb)(*args)
                if verb != "pause":  # a direct pause leaves the routing as it was
                    stats = network.stats().brokers
                    states.append(
                        {name: (s.routing_table, s.active_interest) for name, s in stats.items()}
                    )
                for at in ("a", "b", "c"):
                    report = network.publish_batch(events, at=at)
                    delivered = sorted(
                        n.profile_id for batch in report.notifications.values() for n in batch
                    )
                    assert delivered == sorted(
                        n.profile_id
                        for outcome in central.publish_batch(events)
                        for n in outcome.notifications
                    )

            step("pause")
            step("resume")
            step("pause")
            step("modify", profile("p", price=RangePredicate.at_most(10)))
            step("resume")
            assert [h.state for h in handles] == ["active", "active"]
            return states

        assert run(detour=True) == run(detour=False)


class TestHandlesAcrossBrokers:
    """Every broker numbers its own subscriptions, so two brokers both
    hand out ``sub-1``: a network subscription is its home broker plus
    that id, and the handles read each broker's own registry."""

    def two_homes(self):
        service = chain_service("b0", "b1")
        first = service.subscribe(profile("p0", price=Equals(1)), at="b0")
        second = service.subscribe(profile("p1", price=Equals(1)), at="b1")
        assert first.subscription_id == second.subscription_id == "sub-1"
        return service, first, second

    def test_handles_lists_both_with_their_home(self):
        service, first, second = self.two_homes()
        assert [(h.home_broker, h.profile.profile_id) for h in service.handles()] == [
            ("b0", "p0"),
            ("b1", "p1"),
        ]
        assert service.handles() == [first, second]
        assert first != second
        assert service.stats().subscriptions == len(service.handles())

    def test_cancelling_one_leaves_the_other_listed_and_active(self):
        service, first, second = self.two_homes()
        second.cancel()
        assert service.handles() == [first]
        assert first.state == "active"
        assert second.state == "cancelled"
        assert service.stats().subscriptions == len(service.handles()) == 1
        assert service.publish({"price": 1}, at="b1").total_notifications == 1

    def test_lookup_is_by_home_broker_and_id(self):
        service, first, second = self.two_homes()
        assert service.handle("sub-1", at="b0").home_broker == "b0"
        assert service.handle("sub-1", at="b0") == first
        assert service.handle("sub-1", at="b1").profile.profile_id == "p1"
        with pytest.raises(SubscriptionError):
            service.handle("sub-2", at="b0")
        with pytest.raises(RoutingError):
            service.handle("sub-1", at="ghost")

    def test_a_view_sees_a_pause_made_through_another(self):
        service, first, _ = self.two_homes()
        service.handle("sub-1", at="b0").pause()
        assert first.state == "paused"
        first.resume()
        assert service.publish({"price": 1}, at="b1").total_notifications == 2

    def test_the_facade_keeps_no_handle_table(self):
        service, _, _ = self.two_homes()
        assert not any(
            isinstance(value, dict) and "sub-1" in value for value in vars(service).values()
        )


# -- hypothesis: the network delivers exactly like the central service --------
#
# An arbitrary acyclic topology, subscriptions homed at arbitrary
# brokers, a churn script (pause/resume/modify/cancel) interleaved with
# single and batched publishes at arbitrary brokers: after every publish
# the set of (profile id) deliveries must equal a central FilterService
# fed the same script.  This is the subsystem's correctness bar.

_EQ_DOMAIN = 8
_EQ_ATTRIBUTES = ("x", "y")


def _eq_schema() -> Schema:
    return Schema(
        [Attribute(n, IntegerDomain(0, _EQ_DOMAIN - 1)) for n in _EQ_ATTRIBUTES]
    )


@st.composite
def _eq_profile_predicates(draw):
    predicates = {}
    for name in _EQ_ATTRIBUTES:
        kind = draw(st.sampled_from(["skip", "eq", "range"]))
        if kind == "eq":
            predicates[name] = Equals(draw(st.integers(0, _EQ_DOMAIN - 1)))
        elif kind == "range":
            low = draw(st.integers(0, _EQ_DOMAIN - 1))
            predicates[name] = RangePredicate.between(
                low, draw(st.integers(low, _EQ_DOMAIN - 1))
            )
    if not predicates:
        predicates["x"] = Equals(draw(st.integers(0, _EQ_DOMAIN - 1)))
    return predicates


@st.composite
def _eq_events(draw):
    # Partial events included: drop an attribute with some probability.
    values = {
        name: draw(st.integers(0, _EQ_DOMAIN - 1))
        for name in _EQ_ATTRIBUTES
        if draw(st.integers(0, 3)) > 0
    }
    if not values:
        values["x"] = draw(st.integers(0, _EQ_DOMAIN - 1))
    return Event(values)


@st.composite
def _eq_scripts(draw):
    broker_count = draw(st.integers(min_value=1, max_value=5))
    # A random tree: broker i hangs off a random earlier broker.
    parents = [draw(st.integers(0, i - 1)) for i in range(1, broker_count)]
    subscription_count = draw(st.integers(min_value=1, max_value=6))
    subscriptions = [
        (draw(_eq_profile_predicates()), draw(st.integers(0, broker_count - 1)))
        for _ in range(subscription_count)
    ]
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("publish"),
                    st.integers(0, broker_count - 1),
                    st.lists(_eq_events(), min_size=1, max_size=4),
                ),
                st.tuples(
                    st.just("pause"), st.integers(0, subscription_count - 1), st.none()
                ),
                st.tuples(
                    st.just("resume"), st.integers(0, subscription_count - 1), st.none()
                ),
                st.tuples(
                    st.just("cancel"), st.integers(0, subscription_count - 1), st.none()
                ),
                st.tuples(
                    st.just("modify"),
                    st.integers(0, subscription_count - 1),
                    _eq_profile_predicates(),
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return parents, subscriptions, steps


@given(_eq_scripts())
@settings(max_examples=60, deadline=None)
def test_network_delivery_equals_central_service(script):
    parents, subscriptions, steps = script
    schema = _eq_schema()
    network = NetworkService(schema, engine="index")
    central = FilterService(schema, engine="index")
    broker_ids = [f"b{i}" for i in range(len(parents) + 1)]
    for broker_id in broker_ids:
        network.add_broker(broker_id)
    for child, parent in enumerate(parents, start=1):
        network.connect(broker_ids[parent], broker_ids[child])

    network_handles, central_handles = [], []
    for index, (predicates, home) in enumerate(subscriptions):
        p = profile(f"P{index}", **predicates)
        network_handles.append(
            network.subscribe(p, at=broker_ids[home], subscriber=f"s{index}")
        )
        central_handles.append(central.subscribe(p, subscriber=f"s{index}"))

    for step, target, payload in steps:
        net_handle = network_handles[target] if target < len(network_handles) else None
        cen_handle = central_handles[target] if target < len(central_handles) else None
        if step == "publish":
            events = payload
            report = network.publish_batch(events, at=broker_ids[target])
            delivered_network = sorted(
                n.profile_id
                for batch in report.notifications.values()
                for n in batch
            )
            delivered_central = sorted(
                n.profile_id
                for outcome in central.publish_batch(events)
                for n in outcome.notifications
            )
            assert delivered_network == delivered_central
        elif net_handle is None or net_handle.is_cancelled:
            pass
        elif step == "pause":
            net_handle.pause()
            cen_handle.pause()
        elif step == "resume":
            net_handle.resume()
            cen_handle.resume()
        elif step == "cancel":
            net_handle.cancel()
            cen_handle.cancel()
        elif step == "modify":
            new_profile = profile(f"P{target}", **payload)
            net_handle.modify(new_profile)
            cen_handle.modify(new_profile)
        assert _live_states(network) == _live_states(central)


def _live_states(service) -> list[tuple[str, str]]:
    """Return the sorted ``(profile id, state)`` of a service's handles."""
    return sorted((handle.profile.profile_id, handle.state) for handle in service.handles())
