"""Tests for the multi-broker fan-out scenario driver."""

import pytest

from repro.core.errors import SimulationError
from repro.core.predicates import RangePredicate
from repro.core.profiles import profile
from repro.service.routing import NetworkService
from repro.simulation import (
    ConstantLatency,
    SimulationEngine,
    build_topology,
    run_fanout_scenario,
)
from repro.workloads.profiles import get_profile


class TestBuildTopology:
    def test_chain_links_consecutive_brokers(self):
        service = NetworkService(get_profile("stock-ticker").spec.schema)
        names = build_topology(service, brokers=5, topology="chain")
        assert names == ["b0", "b1", "b2", "b3", "b4"]
        assert service.neighbours("b0") == ["b1"]
        assert service.neighbours("b2") == ["b1", "b3"]
        assert service.stats().links == 4

    def test_star_routes_through_the_hub(self):
        service = NetworkService(get_profile("stock-ticker").spec.schema)
        build_topology(service, brokers=5, topology="star")
        assert service.neighbours("b0") == ["b1", "b2", "b3", "b4"]
        assert service.neighbours("b3") == ["b0"]

    def test_tree_is_balanced_and_acyclic(self):
        service = NetworkService(get_profile("stock-ticker").spec.schema)
        build_topology(service, brokers=7, topology="tree")
        assert service.neighbours("b0") == ["b1", "b2"]
        assert service.neighbours("b1") == ["b0", "b3", "b4"]
        assert service.neighbours("b2") == ["b0", "b5", "b6"]

    def test_unknown_topology_rejected(self):
        service = NetworkService(get_profile("stock-ticker").spec.schema)
        with pytest.raises(SimulationError):
            build_topology(service, brokers=3, topology="ring")
        with pytest.raises(SimulationError):
            build_topology(service, brokers=0, topology="chain")


class TestFanOutScenario:
    def test_runs_are_deterministic_per_seed(self):
        first = run_fanout_scenario(
            brokers=4, subscriptions=60, event_batches=3, batch_size=20,
            churn_operations=30, seed=5,
        )
        second = run_fanout_scenario(
            brokers=4, subscriptions=60, event_batches=3, batch_size=20,
            churn_operations=30, seed=5,
        )
        assert first.notifications == second.notifications
        assert first.network.hops == second.network.hops
        assert first.simulated_time == second.simulated_time
        assert first.churn_operations == second.churn_operations

    def test_report_is_internally_consistent(self):
        report = run_fanout_scenario(
            brokers=5, subscriptions=80, event_batches=4, batch_size=25,
            churn_operations=40, topology="star", seed=2,
        )
        assert report.brokers == 5
        assert report.events_published == 100
        assert report.churn_operations <= 40
        assert report.network.suppression_rate >= 0.0
        assert report.network.routing_table_entries >= report.network.active_routing_entries
        # The sim clock only advances when events cross links.
        assert (report.simulated_time > 0) == (report.network.hops > 0)

    def test_latency_model_drives_the_simulated_clock(self):
        # One far-end subscriber on a chain: delivery time must equal
        # hop count times the constant per-link latency.
        spec = (
            get_profile("stock-ticker")
            .spec.with_counts(profile_count=1, event_count=1)
            .with_seed(1)
        )
        service = NetworkService(spec.schema, engine="index",
                                 latency=ConstantLatency(3.0))
        names = build_topology(service, brokers=4, topology="chain")
        service.subscribe(
            profile("everything", price=RangePredicate.at_least(0)),
            at=names[-1],
        )
        simulation = SimulationEngine()
        report = service.publish({"symbol": "S01", "price": 10, "volume": 1},
                                 at=names[0], simulation=simulation)
        assert report.total_notifications == 1
        assert report.max_hops == 3
        assert simulation.clock.now == pytest.approx(9.0)

    def test_simulated_and_synchronous_runs_deliver_identically(self):
        def build():
            spec = (
                get_profile("stock-ticker")
                .spec.with_counts(profile_count=40, event_count=30)
                .with_seed(9)
            )
            service = NetworkService(spec.schema, engine="index")
            names = build_topology(service, brokers=4, topology="tree")
            return spec, service, names

        from repro.workloads.generators import build_workload

        reports = []
        for simulated in (False, True):
            spec, service, names = build()
            workload = build_workload(spec)
            for index, item in enumerate(workload.profiles):
                service.subscribe(item, at=names[index % len(names)])
            simulation = SimulationEngine() if simulated else None
            report = service.publish_batch(
                workload.events, at=names[0], simulation=simulation
            )
            reports.append(report)
        sync, simulated = reports
        assert sorted(
            n.profile_id for batch in sync.notifications.values() for n in batch
        ) == sorted(
            n.profile_id for batch in simulated.notifications.values() for n in batch
        )
        assert sync.hops == simulated.hops
        assert sync.event_hops == simulated.event_hops
