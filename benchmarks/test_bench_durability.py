"""Durability benchmarks: WAL overhead, replay time, webhook throughput.

Three questions the ROADMAP's robustness item asks of the durable path:

* **What does journaling cost on subscribe?**  The stock-ticker profile
  set is subscribed once without a store and once over the JSONL WAL;
  timing runs report the per-subscribe overhead, smoke runs gate the
  journal accounting (records appended, snapshots taken)
  deterministically.
* **How fast is recovery?**  A journal of ``--benchmark`` size (50k
  subscriptions on timing runs, 2k in smoke) boots a fresh
  ``FilterService(store=...)``; the recovered service must match
  bit-identically to a never-restarted one (gated via ops/event).
* **Does a failing endpoint tax the healthy ones?**  The webhook
  executor fans the ticker out across eight endpoints with 5% seeded
  failures on one of them (and then with that endpoint fully dark);
  the healthy lanes' delivered counts must be exact, and on timing
  runs matching throughput must stay within 10% of the no-webhook
  baseline (the isolation gate).
"""

from __future__ import annotations

import random
import threading
import time

from repro.api import (
    FilterService,
    JsonlWalStore,
    WebhookConfig,
    WebhookSink,
)
from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.predicates import RangePredicate
from repro.core.profiles import profile
from repro.core.schema import Attribute, Schema
from repro.testing import InjectedFault
from repro.workloads import build_workload, get_profile

_STOCK = build_workload(
    get_profile("stock-ticker").spec.with_counts(profile_count=400, event_count=1500)
)
_EVENTS = list(_STOCK.events)
_PROFILES = list(_STOCK.profiles)

#: Replay-size knobs: smoke runs stay small (and deterministic for the
#: baseline gate); timing runs take the 50k-subscription measurement.
_REPLAY_SMOKE = 2_000
_REPLAY_TIMING = 50_000


def _timing_enabled(request) -> bool:
    return not request.config.getoption("benchmark_disable", default=False)


def _subscribe_all(service: FilterService) -> float:
    start = time.perf_counter()
    service.subscribe_all(_PROFILES, subscriber="bench")
    return time.perf_counter() - start


def test_wal_append_overhead_per_subscribe(tmp_path, record_durability, request):
    """Journaling cost of the subscribe path."""
    bare = FilterService(_STOCK.schema, engine="index", adaptive=False)
    bare_elapsed = _subscribe_all(bare)
    bare.close()

    store = JsonlWalStore(tmp_path / "wal", snapshot_every=1000)
    durable = FilterService(_STOCK.schema, engine="index", adaptive=False,
                            store=store)
    durable_elapsed = _subscribe_all(durable)
    stats = durable.stats().durability
    assert stats.appended == len(_PROFILES)
    assert stats.last_seq == len(_PROFILES)
    durable.close()

    extra: dict[str, float] = {
        "records_appended": float(stats.appended),
        "snapshots": float(stats.snapshots),
    }
    if _timing_enabled(request):
        overhead = max(0.0, durable_elapsed - bare_elapsed) / len(_PROFILES)
        extra["wall_clock_seconds"] = durable_elapsed
        extra["append_overhead_us_per_subscribe"] = overhead * 1e6
        print(
            f"\ndurability[jsonl]: {overhead * 1e6:.1f} us journaling "
            f"overhead per subscribe ({len(_PROFILES)} profiles)"
        )
    record_durability("append-overhead[jsonl]", **extra)


def test_replay_time(tmp_path, record_durability, request):
    """Boot-from-journal latency and post-replay matching equivalence."""
    count = _REPLAY_TIMING if _timing_enabled(request) else _REPLAY_SMOKE
    spec = get_profile("stock-ticker").spec.with_counts(profile_count=count, event_count=1)
    profiles = list(build_workload(spec).profiles)

    # Seed the journal directly (the subscribe-path cost is measured
    # above); compaction folds it into one snapshot plus a short tail.
    store = JsonlWalStore(tmp_path / "wal", snapshot_every=count)
    store.open()
    for index, item in enumerate(profiles):
        store.append("subscribe", f"sub-{index + 1}", profile=item,
                     subscriber=item.subscriber or "bench")
    store.close()

    start = time.perf_counter()
    service = FilterService(
        _STOCK.schema, engine="index", adaptive=False,
        store=JsonlWalStore(tmp_path / "wal", snapshot_every=count),
    )
    elapsed = time.perf_counter() - start
    stats = service.stats().durability
    assert stats.recovered_subscriptions == count

    # The recovered service matches exactly like a never-restarted one.
    oracle = FilterService(_STOCK.schema, engine="index", adaptive=False)
    oracle.subscribe_all(profiles, subscriber="bench")
    for event in _EVENTS[:500]:
        assert (
            sorted(service.publish(event).match_result.matched_profile_ids)
            == sorted(oracle.publish(event).match_result.matched_profile_ids)
        )
    statistics = service.broker.statistics
    oracle.close()

    extra: dict[str, float] = {
        "recovered_subscriptions": float(stats.recovered_subscriptions),
    }
    if _timing_enabled(request):
        extra["wall_clock_seconds"] = elapsed
        extra["replay_subscriptions_per_second"] = count / elapsed
        print(
            f"\ndurability-replay[jsonl]: {count} subscriptions in "
            f"{elapsed:.2f}s ({count / elapsed:,.0f}/s)"
        )
        record_durability("replay-50k[jsonl]", statistics, **extra)
    else:
        record_durability("replay[jsonl]", statistics, **extra)
    service.close()


_ENDPOINTS = [f"https://endpoint-{index}.test/hook" for index in range(8)]

# The ticker workload is too selective to stress delivery (a handful of
# notifications per thousand events); the webhook benchmarks use a dense
# seeded band workload instead: 32 price-band profiles, ~3 matches/event.
_HOOK_PRICES = IntegerDomain(0, 9_999)
_HOOK_SCHEMA = Schema([Attribute("price", _HOOK_PRICES)])
_HOOK_PROFILES = [
    profile(f"H{index:02d}",
            price=RangePredicate.between((index * 300) % 9_000,
                                         (index * 300) % 9_000 + 999))
    for index in range(32)
]
_HOOK_RNG = random.Random(7)
_HOOK_EVENTS = [Event({"price": _HOOK_RNG.randrange(10_000)})
                for _ in range(1_500)]


class _SeededFlakyTransport:
    """Fail every 20th post (5%) to the designated flaky endpoint."""

    def __init__(self, flaky_endpoint: str, *, dead: bool = False) -> None:
        self._flaky = flaky_endpoint
        self._dead = dead
        self._lock = threading.Lock()
        self.posts: dict[str, int] = {}
        self.failures = 0

    def __call__(self, endpoint: str, payload: bytes, timeout: float) -> None:
        with self._lock:
            count = self.posts.get(endpoint, 0) + 1
            self.posts[endpoint] = count
            if endpoint == self._flaky and (self._dead or count % 20 == 0):
                self.failures += 1
                raise InjectedFault(f"injected failure #{self.failures}")


def _webhook_service(transport, **config_kwargs) -> FilterService:
    service = FilterService(
        _HOOK_SCHEMA, engine="index", adaptive=False, delivery="webhook",
        webhook=WebhookConfig(transport=transport, max_attempts=2,
                              backoff_base=0.0, jitter=0.0,
                              breaker_cooldown=9e9, **config_kwargs),
        queue_capacity=len(_HOOK_EVENTS) * len(_HOOK_PROFILES),
    )
    for index, item in enumerate(_HOOK_PROFILES):
        service.subscribe(
            item,
            subscriber="bench",
            sink=WebhookSink(_ENDPOINTS[index % len(_ENDPOINTS)]),
        )
    return service


def test_webhook_throughput_with_injected_failures(record_durability, request):
    """5% seeded failures on one endpoint: healthy lanes unaffected."""
    transport = _SeededFlakyTransport(_ENDPOINTS[0])
    service = _webhook_service(transport)
    start = time.perf_counter()
    for event in _HOOK_EVENTS:
        service.publish(event)
    matching_elapsed = time.perf_counter() - start
    service.drain()
    stats = service.stats().delivery
    statistics = service.broker.statistics

    # The retry budget absorbs every 5% transient: nothing is lost, and
    # the healthy lanes deliver their exact notification counts.
    assert stats.delivered == stats.dispatched
    assert stats.dead_lettered == 0
    assert stats.retried == transport.failures > 0
    per_endpoint = {
        endpoint: count
        for endpoint, count in transport.posts.items()
        if endpoint != _ENDPOINTS[0]
    }
    assert sum(per_endpoint.values()) + transport.posts[_ENDPOINTS[0]] \
        == stats.dispatched + transport.failures
    service.close()

    extra = {
        "delivered": float(stats.delivered),
        "injected_failures": float(transport.failures),
    }
    if _timing_enabled(request):
        extra["wall_clock_seconds"] = matching_elapsed
        extra["events_per_second"] = len(_HOOK_EVENTS) / matching_elapsed
    record_durability("webhook-flaky-5pct", statistics, **extra)


def test_dead_endpoint_isolation_gate(record_durability, request):
    """One dark endpoint: its lane dead-letters, the other seven lanes
    deliver everything, and matching stays within 10% of no-webhook."""
    transport = _SeededFlakyTransport(_ENDPOINTS[0], dead=True)
    service = _webhook_service(transport, breaker_threshold=5)
    start = time.perf_counter()
    for event in _HOOK_EVENTS:
        service.publish(event)
    webhook_elapsed = time.perf_counter() - start
    service.drain()
    stats = service.stats().delivery
    statistics = service.broker.statistics
    dead = len(service.dead_letters())
    service.close()

    # Healthy lanes: every post of the seven live endpoints landed.
    healthy_posts = sum(
        count for endpoint, count in transport.posts.items()
        if endpoint != _ENDPOINTS[0]
    )
    assert stats.delivered == healthy_posts
    assert stats.delivered + stats.dead_lettered == stats.dispatched
    assert dead == min(stats.dead_lettered, 256)  # DLQ capacity

    extra = {
        "delivered": float(stats.delivered),
        "dead_lettered": float(stats.dead_lettered),
    }
    if _timing_enabled(request):
        # The no-webhook matching baseline: same subscriptions, no sinks
        # leaving the process.
        baseline = FilterService(_HOOK_SCHEMA, engine="index", adaptive=False)
        baseline.subscribe_all(_HOOK_PROFILES, subscriber="bench")
        start = time.perf_counter()
        for event in _HOOK_EVENTS:
            baseline.publish(event)
        baseline_elapsed = time.perf_counter() - start
        baseline.close()
        slowdown = webhook_elapsed / baseline_elapsed
        print(
            f"\nwebhook-isolation: matching {webhook_elapsed:.2f}s with a dark "
            f"endpoint vs {baseline_elapsed:.2f}s bare ({slowdown:.2f}x)"
        )
        # The acceptance gate, with a small absolute floor so micro-run
        # jitter on a fast machine cannot trip it.
        assert webhook_elapsed <= baseline_elapsed * 1.10 + 0.25
        extra["wall_clock_seconds"] = webhook_elapsed
        extra["baseline_wall_clock_seconds"] = baseline_elapsed
    record_durability("webhook-dead-endpoint", statistics, **extra)
