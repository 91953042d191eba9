"""Corpus runner: drive declarative scenario profiles through the facade.

One :func:`run_profile` call executes a corpus profile through one
engine family end to end — build the workload, construct a
:class:`~repro.api.FilterService` from the profile's hints, publish the
event stream in the profile's batch shape while applying its churn
schedule — and returns a :class:`CorpusRecord` of deterministic metrics
(ops/event, matches/event; wall-clock only on explicit timing runs).

Determinism is the whole point: the workload seeds and the pinned
adaptation knobs make ``ops_per_event``
and ``matches_per_event`` bit-stable across machines, so the corpus can
gate engine-family wins in CI and the appended ``BENCH_history.jsonl``
records are comparable across commits.  The churn schedule is part of
that contract: replacement subscriptions come from a generator seeded
independently of the event stream, and the schedule depends only on the
profile — never on the family under test — so ``matches_per_event`` is
identical across families even mid-churn.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterator

from repro.workloads.generators import build_workload, generate_profiles
from repro.workloads.profiles import ScenarioProfile
from repro.distributions.library import make_distribution

__all__ = ["CorpusRecord", "append_history", "iter_history", "run_profile"]

#: Fields every BENCH_history.jsonl record must carry (well-formedness gate).
_HISTORY_FIELDS = (
    "profile",
    "family",
    "events",
    "profiles",
    "ops_per_event",
    "matches_per_event",
    "churn_ops",
)


@dataclass(frozen=True)
class CorpusRecord:
    """One profile x family corpus run, ready for ``BENCH_history.jsonl``.

    ``ops_per_event`` and ``matches_per_event`` are deterministic under
    the profile's seeds; ``wall_clock_seconds`` is present only on
    timing runs and never gated in CI.  ``timestamp`` (epoch seconds)
    and ``revision`` are stamped by the caller appending to history.
    """

    profile: str
    family: str
    events: int
    profiles: int
    ops_per_event: float
    matches_per_event: float
    churn_ops: int = 0
    wall_clock_seconds: float | None = None
    timestamp: float | None = None
    revision: str | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = asdict(self)
        extra = payload.pop("extra")
        payload.update(extra)
        return {key: value for key, value in payload.items() if value is not None}


def _churn_pool(profile: ScenarioProfile) -> Iterator:
    """Yield replacement subscriptions for the churn schedule, forever.

    The pool draws from the profile's own distributions but through an
    rng stream independent of the one that built the initial population
    and the events (``seed + 0x5EED``), and under a distinct spec name so
    replacement profile ids never collide with the initial ones.
    """
    spec = profile.spec
    rng = random.Random(spec.seed + 0x5EED)
    batch = 0
    while True:
        batch += 1
        pool_spec = replace(
            spec,
            name=f"{spec.name}-churn{batch}",
            profile_count=max(1, min(spec.profile_count, 256)),
        )
        distributions = {
            attribute.name: make_distribution(
                pool_spec.spec_for(attribute.name).profile_distribution, attribute.domain
            )
            for attribute in pool_spec.schema
        }
        yield from generate_profiles(pool_spec, rng, distributions)


def run_profile(
    profile: ScenarioProfile,
    family: str,
    *,
    event_count: int | None = None,
    timing: bool = False,
) -> CorpusRecord:
    """Run one corpus profile through one engine family via the facade.

    ``event_count`` caps the published stream (CI-sized runs); the full
    profile stream is used when omitted.  With ``timing=True`` the
    record additionally carries wall-clock seconds for the publish loop
    (never deterministic, never gated).
    """
    from repro.api import FilterService

    spec = profile.spec
    if event_count is not None:
        spec = spec.with_counts(event_count=min(event_count, spec.event_count))
    workload = build_workload(spec)
    events = list(workload.events)
    run = profile.run

    service = FilterService.from_profile(profile, engine=family)
    try:
        handles = service.subscribe_all(workload.profiles)
        active = list(handles)
        pool = _churn_pool(profile) if run.churn_rate > 0.0 else None
        churn_ops = 0
        churn_credit = 0.0
        started = time.perf_counter() if timing else 0.0
        for start in range(0, len(events), run.batch_size):
            batch = events[start : start + run.batch_size]
            if run.batch_size == 1:
                service.publish(batch[0])
            else:
                service.publish_batch(batch)
            if pool is not None:
                # One cancel + one replacement subscribe per two units of
                # churn credit; the oldest subscription leaves first.
                churn_credit += run.churn_rate * len(batch)
                while churn_credit >= 2.0 and active:
                    churn_credit -= 2.0
                    active.pop(0).cancel()
                    active.append(service.subscribe(next(pool)))
                    churn_ops += 2
        service.drain()
        elapsed = time.perf_counter() - started if timing else None
        stats = service.stats()
    finally:
        service.close()

    return CorpusRecord(
        profile=profile.name,
        family=family,
        events=len(events),
        profiles=spec.profile_count,
        ops_per_event=stats.average_operations_per_event,
        matches_per_event=stats.average_matches_per_event,
        churn_ops=churn_ops,
        wall_clock_seconds=elapsed,
    )


def append_history(records, path: str | Path, *, timestamp: float | None = None,
                   revision: str | None = None) -> int:
    """Append corpus records to a ``BENCH_history.jsonl`` file.

    Each record becomes one JSON line; ``timestamp``/``revision`` stamp
    every appended record (the runner CLI passes the current time and
    the git revision).  Returns the number of lines appended.
    """
    target = Path(path)
    count = 0
    with open(target, "a", encoding="utf-8") as handle:
        for record in records:
            stamped = replace(record, timestamp=timestamp, revision=revision)
            handle.write(json.dumps(stamped.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def iter_history(path: str | Path) -> Iterator[dict]:
    """Yield the records of a ``BENCH_history.jsonl`` file as dicts.

    Raises ``ValueError`` naming the line number when a line is not a
    JSON object or misses one of the required fields — the
    well-formedness contract the corpus bench gates.
    """
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: expected a JSON object")
            missing = [key for key in _HISTORY_FIELDS if key not in record]
            if missing:
                raise ValueError(f"{path}:{number}: missing fields {missing}")
            yield record
