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
from repro.service.routing import OverlayNetwork
from repro.simulation import ConstantLatency, SimulationEngine


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
        at_b = service.network.broker("b").link("c")
        assert len(at_b.table) == 2
        assert [p.profile_id for p in at_b.table.active_profiles()] == ["wide"]
        at_a = service.network.broker("a").link("b")
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
        link = service.network.broker("a").link("b")
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
        assert "high" not in service.network.broker("a").link("b").table
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
        link = service.network.broker("a").link("b")
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
        checks_before, _ = service.network.cover_counters()
        victim.cancel()
        checks_after, _ = service.network.cover_counters()
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
        link = service.network.broker("a").link("b")
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

    def test_simulated_time_accumulates_latency(self):
        service = NetworkService(price_schema(), latency=ConstantLatency(2.0))
        for b in ("a", "b", "c"):
            service.add_broker(b)
        service.connect("a", "b")
        service.connect("b", "c")
        service.subscribe(profile("p", price=RangePredicate.at_least(100)), at="c")
        simulation = SimulationEngine()
        report = service.publish({"price": 150}, at="a", simulation=simulation)
        assert report.total_notifications == 1
        # Two hops at 2.0 each on the simulated clock.
        assert simulation.clock.now == pytest.approx(4.0)
        notification = report.notifications["c"][0]
        assert notification.delivered_at == pytest.approx(4.0)


class TestOverlayNetworkDirect:
    def test_overlay_is_usable_without_the_facade(self):
        network = OverlayNetwork(price_schema())
        network.add_broker("a", engine="index")
        network.add_broker("b", engine="index")
        network.connect("a", "b")
        subscription = network.subscribe(
            "b", profile("p", price=RangePredicate.at_least(10)), "bob"
        )
        report = network.publish("a", Event({"price": 50}))
        assert report.total_notifications == 1
        network.unsubscribe("b", subscription.subscription_id)
        assert network.publish("a", Event({"price": 50})).total_notifications == 0

    def test_a_paused_profile_id_stays_reserved(self):
        network = OverlayNetwork(price_schema())
        for broker_id in ("a", "b", "c"):
            network.add_broker(broker_id, engine="index")
        network.connect("a", "b")
        held = network.subscribe("a", profile("P1", price=RangePredicate.at_least(10)), "ann")
        network.pause("a", held.subscription_id)
        with pytest.raises(RoutingError):
            network.subscribe("b", profile("P1", price=RangePredicate.at_most(5)), "bob")
        network.resume("a", held.subscription_id)
        # The new component learns of a's P1 only through the replay.
        network.connect("b", "c")
        report = network.publish("c", Event({"price": 50}))
        assert [n.profile_id for n in report.notifications["a"]] == ["P1"]

    def test_connect_replays_only_live_profiles(self):
        network = OverlayNetwork(price_schema())
        network.add_broker("a", engine="index")
        network.add_broker("b", engine="index")
        held = network.subscribe("a", profile("P1", price=RangePredicate.at_least(10)), "ann")
        network.pause("a", held.subscription_id)
        network.connect("a", "b")
        assert "P1" not in network.broker("b").link("a").table
        assert network.publish("b", Event({"price": 50})).total_notifications == 0
        network.resume("a", held.subscription_id)
        assert network.publish("b", Event({"price": 50})).total_notifications == 1


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
            continue
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
