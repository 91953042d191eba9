"""Workload definitions and seeded input generation of the e2e benchmark.

A workload is a corpus scenario profile plus the way the benchmark
drives it (engine, batch shape, delivery mode, churn).  Everything the
program under test receives is generated here, in the benchmark process.
The **subscriptions are the scenario's own** (the population and, for the
churn workload, its replacements, drawn under the corpus profile's
committed seed): they decide fan-out and index shape, so redrawing them
per run would make two seeds two different workloads (``social-fanout``
ranges 13-22 notifications/event across seeds).  ``--seed`` draws the
**traffic**: the event stream and the warm-up batch.  The program never
sees a workload name.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from repro.core.events import Event
from repro.core.profiles import Profile
from repro.distributions.library import make_distribution
from repro.workloads.generators import build_workload, generate_events, generate_profiles
from repro.workloads.profiles import ScenarioProfile, get_profile

__all__ = ["Inputs", "WORKLOADS", "WorkloadDef", "generate"]


@dataclass(frozen=True)
class WorkloadDef:
    """One benchmark workload: a corpus profile and how it is driven."""

    name: str
    why: str
    #: Corpus scenario profile the population and the stream come from.
    profile: str
    #: Engine the facade is pinned to; ``None`` drives the bare
    #: ``PredicateIndexMatcher`` (no facade, broker, engine or delivery).
    engine: str | None
    #: Events published per pass (fixed: a pass is the same work on both
    #: sides of a comparison; ``--seconds`` only decides how many passes).
    events: int
    #: Events per ``publish_batch`` call; 1 publishes one at a time.
    batch: int
    #: Overrides the corpus profile's population size.
    profile_count: int | None = None
    #: After every second event: cancel the oldest subscription and
    #: subscribe one pre-generated replacement (churn rate 1.0).
    churn: bool = False
    #: Extra ``FilterService.from_profile`` keywords (delivery shape).
    service_kwargs: dict = field(default_factory=dict)


WORKLOADS: dict[str, WorkloadDef] = {
    definition.name: definition
    for definition in (
        WorkloadDef(
            name="ticker-batch",
            why="reject-heavy (0.002 matches/event): per-event fixed costs dominate - "
            "history keeping, broker bookkeeping, re-optimisation checks that never apply",
            profile="stock-ticker",
            engine="index",
            events=150_000,
            batch=250,
        ),
        WorkloadDef(
            name="widerange-batch",
            why="hit-heavy ranges (20 matches/event): index replan costing is most of the "
            "loop and the slowest call is the replan stall; bypasses tree code",
            profile="wide-range",
            engine="index",
            events=2_048,
            batch=256,
        ),
        WorkloadDef(
            name="fanout-threadpool",
            why="13 notifications/event through 2 delivery threads: notification "
            "construction and dispatch dominate; a control-plane change must not move it",
            profile="social-fanout",
            engine="index",
            events=16_000,
            batch=200,
            # The executor default of 4 workers would oversubscribe the
            # 2-core benchmark host.
            service_kwargs={"delivery": "threadpool", "max_workers": 2},
        ),
        WorkloadDef(
            name="flash-churn",
            why="per-event publish with one cancel+subscribe per 2 events: the per-event "
            "match path and index maintenance writes, which the batch workloads bypass",
            profile="flash-crowd",
            engine="index",
            events=60_000,
            batch=1,
            churn=True,
        ),
        WorkloadDef(
            name="aml-auto",
            why="engine=auto (the facade default): every arbitration check builds a "
            "candidate tree to cost it; ticker/fanout never call build_tree",
            profile="aml-transactions",
            engine="auto",
            events=2_000,
            batch=250,
            # The committed 400 profiles give one 17 s stall per check.
            profile_count=100,
        ),
        WorkloadDef(
            name="matcher-direct",
            why="bare PredicateIndexMatcher.match_batch, no facade: the only workload where "
            "the matcher kernel is ~100% of the work; setup_s is the index build",
            profile="wide-range",
            engine=None,
            events=40_000,
            batch=256,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program, generated from the seed."""

    definition: WorkloadDef
    corpus: ScenarioProfile
    profiles: tuple[Profile, ...]
    #: The timed stream, pre-sliced into publish calls (a single event
    #: when ``definition.batch == 1``, else a list of events).
    calls: tuple
    events: tuple[Event, ...]
    #: One discarded batch, disjoint from ``events``.
    warmup: list[Event]
    #: Replacement subscriptions of the churn script, in arrival order.
    replacements: tuple[Profile, ...]
    generate_s: float


#: Offsets that keep the rng streams of one run apart.
_EVENT_STREAM = 0xE7E47
_CHURN_STREAM = 0x5EED


def _replacements(corpus: ScenarioProfile, count: int) -> tuple[Profile, ...]:
    """Generate churn replacements under an rng independent of the stream.

    Same construction as the corpus runner's churn pool (own rng stream,
    distinct spec name so ids never collide with the population), but
    materialised before timing instead of lazily inside the loop.
    """
    spec = replace(corpus.spec, name=f"{corpus.spec.name}-churn", profile_count=count)
    distributions = {
        attribute.name: make_distribution(
            spec.spec_for(attribute.name).profile_distribution, attribute.domain
        )
        for attribute in spec.schema
    }
    rng = random.Random(spec.seed + _CHURN_STREAM)
    return tuple(generate_profiles(spec, rng, distributions))


def generate(definition: WorkloadDef, seed: int, scale: float = 1.0) -> Inputs:
    """Generate a workload's inputs; the same seed gives the same inputs.

    ``scale`` shrinks the event count (the smoke test runs at 1/50); the
    population is never scaled, it defines the workload.
    """
    started = time.perf_counter()
    batch = definition.batch
    # Whole publish calls only, at least two of them.
    event_count = max(2, round(definition.events * scale / batch)) * batch
    warmup_count = max(batch, 2)
    corpus = get_profile(definition.profile)
    spec = corpus.spec.with_counts(profile_count=definition.profile_count, event_count=1)
    population = build_workload(spec)
    stream = generate_events(
        spec,
        random.Random(spec.seed + _EVENT_STREAM + seed),
        population.event_distributions,
        count=event_count + warmup_count,
    )
    events = stream[:event_count]
    if batch == 1:
        calls = events
    else:
        calls = tuple(
            list(events[start : start + batch]) for start in range(0, event_count, batch)
        )
    replacements = _replacements(corpus, event_count // 2) if definition.churn else ()
    return Inputs(
        definition=definition,
        corpus=corpus,
        profiles=tuple(population.profiles),
        calls=calls,
        events=events,
        warmup=list(stream[event_count:]),
        replacements=replacements,
        generate_s=time.perf_counter() - started,
    )
