"""Multi-broker fan-out scenarios on simulated time.

This module drives the :class:`~repro.service.routing.NetworkService`
overlay at scale: N brokers in a chain / star / balanced-tree topology,
a workload-generated subscription population spread over the brokers,
high subscription churn (pause/resume/modify/cancel against live
covering tables) interleaved with batched event publishes — all on the
:class:`~repro.simulation.engine.SimulationEngine` clock under a
configurable latency model.

Defaults are CI-sized; the same driver runs the ROADMAP's 10-broker /
100k-subscription fan-out by turning the knobs up (generation is the
only superlinear cost — routing state stays covering-reduced)::

    from repro.simulation import run_fanout_scenario

    report = run_fanout_scenario(brokers=10, subscriptions=100_000,
                                 event_batches=50, batch_size=200,
                                 churn_operations=10_000)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import SimulationError
from repro.simulation.engine import SimulationEngine
from repro.simulation.latency import LatencyModel
from repro.workloads.generators import build_workload
from repro.workloads.profiles import get_profile
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.service.routing.service import NetworkService, NetworkStats

__all__ = ["FanOutReport", "build_topology", "run_fanout_scenario"]

_TOPOLOGIES = ("chain", "star", "tree")


@dataclass(frozen=True)
class FanOutReport:
    """Outcome of one fan-out scenario run."""

    topology: str
    brokers: int
    subscriptions: int
    #: Pause/resume/modify/cancel operations applied during the run.
    churn_operations: int
    events_published: int
    notifications: int
    #: Simulated time consumed by the event traversal.
    simulated_time: float
    #: Scheduler events executed on the simulation engine.
    scheduled_events: int
    #: Final network-wide snapshot (hops, suppression, cover hit rate…).
    network: NetworkStats


def build_topology(
    service: NetworkService,
    *,
    brokers: int,
    topology: str = "chain",
    engine: str | None = None,
) -> list[str]:
    """Create ``brokers`` nodes named ``b0..bN-1`` and link them.

    ``"chain"`` is the worst case for hop counts (and the benchmark's
    shape), ``"star"`` routes everything through ``b0``, ``"tree"`` is a
    balanced binary tree rooted at ``b0``.
    """
    if topology not in _TOPOLOGIES:
        raise SimulationError(
            f"unknown topology {topology!r}; pick one of {_TOPOLOGIES}"
        )
    if brokers < 1:
        raise SimulationError("need at least one broker")
    names = [f"b{i}" for i in range(brokers)]
    for name in names:
        service.add_broker(name, engine=engine)
    for i in range(1, brokers):
        if topology == "chain":
            service.connect(names[i - 1], names[i])
        elif topology == "star":
            service.connect(names[0], names[i])
        else:  # balanced binary tree
            service.connect(names[(i - 1) // 2], names[i])
    return names


def run_fanout_scenario(
    *,
    brokers: int = 10,
    subscriptions: int = 500,
    event_batches: int = 10,
    batch_size: int = 50,
    churn_operations: int = 100,
    topology: str = "chain",
    engine: str | None = "index",
    latency: LatencyModel | None = None,
    spec: WorkloadSpec | None = None,
    seed: int = 7,
) -> FanOutReport:
    """Run one fan-out scenario and return its report.

    The workload (profiles and events) comes from ``spec`` (default:
    the stock-ticker scenario scaled to the requested sizes).  Profiles
    subscribe at seeded-random home brokers; between event batches the
    driver applies ``churn_operations`` seeded pause/resume/modify/
    cancel operations against live handles, exercising the covering
    tables' incremental maintenance while traffic flows.
    """
    # Imported here: the overlay schedules on this package's engine and
    # latency modules, so a module-level import would be circular.
    from repro.service.routing.service import NetworkService

    rng = random.Random(seed)
    spec = spec or (
        get_profile("stock-ticker")
        .spec.with_counts(
            profile_count=subscriptions,
            event_count=max(1, event_batches * batch_size),
        )
        .with_seed(seed)
    )
    workload = build_workload(spec)
    service = NetworkService(spec.schema, engine=engine, latency=latency)
    names = build_topology(service, brokers=brokers, topology=topology)
    handles = []
    for item in workload.profiles:
        handles.append(
            service.subscribe(
                item,
                at=rng.choice(names),
                subscriber=item.subscriber or item.profile_id,
            )
        )
    simulation = SimulationEngine()
    events = list(workload.events)
    batches = [
        events[start : start + batch_size]
        for start in range(0, len(events), batch_size)
    ][:event_batches]
    churn_per_gap = churn_operations // max(1, len(batches))
    churn_applied = 0
    for batch in batches:
        for _ in range(churn_per_gap):
            handle = rng.choice(handles)
            action = rng.random()
            if handle.is_cancelled:
                continue
            if action < 0.35 and handle.is_active:
                handle.pause()
            elif action < 0.70 and handle.is_paused:
                handle.resume()
            elif action < 0.85 and handle.is_active:
                # Tighten the profile in place: same id, same routing
                # delta machinery as an unsubscribe + resubscribe.
                handle.modify(handle.profile)
            else:
                handle.cancel()
            churn_applied += 1
        service.publish_batch(batch, at=rng.choice(names), simulation=simulation)
    stats = service.stats()
    return FanOutReport(
        topology=topology,
        brokers=brokers,
        subscriptions=subscriptions,
        churn_operations=churn_applied,
        events_published=stats.events_published,
        notifications=stats.notifications,
        simulated_time=simulation.clock.now,
        scheduled_events=simulation.executed,
        network=stats,
    )
