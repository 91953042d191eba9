"""Delivery-throughput benchmark: inline vs threadpool.

The stock-ticker batch flows through a :class:`~repro.api.FilterService`
whose 400 subscriptions all carry sinks, once per delivery executor.
Two kinds of numbers feed ``BENCH_summary.json``'s ``delivery`` section:

* **deterministic** (gated by ``compare_to_baseline.py`` in CI):
  ops/event and matches/event per mode — matching is strictly upstream
  of delivery, so these must be *identical* across executors (asserted
  in-test, too: same per-subscription notification sets and order);
* **timing** (local runs only, loose ``--wall-tolerance`` gate):
  ``wall_clock_seconds`` per mode plus an informational
  ``events_per_second``, the executor-overhead comparison the ROADMAP
  asked for on the ``publish_batch`` seam.
"""

from __future__ import annotations

import time

import pytest

from repro.api import FilterService
from repro.workloads import build_workload, get_profile

_STOCK = build_workload(
    get_profile("stock-ticker").spec.with_counts(profile_count=400, event_count=1500)
)
_EVENTS = list(_STOCK.events)
_PROFILES = list(_STOCK.profiles)

#: Executor configurations under comparison.
_MODES = {
    "inline": {},
    "threadpool": {"max_workers": 4, "queue_capacity": 4096},
}


def _timing_enabled(request) -> bool:
    return not request.config.getoption("benchmark_disable", default=False)


def _run_mode(mode: str):
    """Publish the whole batch under one executor; return the evidence."""
    kwargs = _MODES[mode]
    received: dict[str, list[float]] = {}
    with FilterService(
        _STOCK.schema, engine="index", adaptive=False, delivery=mode, **kwargs
    ) as service:
        for item in _PROFILES:
            log: list[float] = []
            received[item.profile_id] = log
            service.subscribe(
                item,
                subscriber=item.subscriber or "bench",
                sink=lambda n, log=log: log.append(n.event["price"]),
            )
        start = time.perf_counter()
        service.publish_batch(_EVENTS)
        service.drain()
        elapsed = time.perf_counter() - start
        statistics = service.broker.statistics
        delivery = service.stats().delivery
    return received, statistics, delivery, elapsed


#: The inline run every mode is compared against (computed once).
_INLINE_REFERENCE = None


def _inline_reference():
    global _INLINE_REFERENCE
    if _INLINE_REFERENCE is None:
        _INLINE_REFERENCE = _run_mode("inline")
    return _INLINE_REFERENCE


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_delivery_throughput(mode, record_delivery, request):
    """Per-mode summary numbers + the cross-mode equivalence gate."""
    if mode == "inline":
        received, statistics, delivery, elapsed = _inline_reference()
    else:
        received, statistics, delivery, elapsed = _run_mode(mode)
    inline_received, inline_statistics, _, _ = _inline_reference()

    # Delivery is downstream of matching: per-subscription notification
    # sets and order are identical whatever executor ran the sinks.
    assert received == inline_received
    assert (
        statistics.average_operations_per_event()
        == inline_statistics.average_operations_per_event()
    )
    assert delivery.pending == 0
    assert delivery.delivered == statistics.total_notifications

    extra: dict[str, float] = {
        "notifications_per_event": statistics.total_notifications / statistics.events,
    }
    if _timing_enabled(request):
        extra["wall_clock_seconds"] = elapsed
        extra["events_per_second"] = len(_EVENTS) / elapsed
    record_delivery(f"stock-ticker[{mode}]", statistics, **extra)
    print(
        f"\ndelivery[{mode}]: {len(_EVENTS) / elapsed:,.0f} events/s, "
        f"{delivery.delivered} notifications delivered"
    )


def test_slow_sink_does_not_stall_the_matcher(request):
    """The tentpole latency claim: a slow subscriber stalls inline
    publishing but not the threadpool's matching path."""
    if not _timing_enabled(request):
        pytest.skip("timing-sensitive: skipped in smoke runs")
    from repro.core.predicates import RangePredicate
    from repro.core.profiles import profile

    delay = 0.002
    events = _EVENTS[:150]
    # A catch-all subscriber turns every event into one slow delivery,
    # so the inline cost is deterministic: len(events) * delay.
    catch_all = profile("bench-tape", price=RangePredicate.at_least(0))

    def measure(mode: str) -> float:
        with FilterService(
            _STOCK.schema,
            engine="index",
            adaptive=False,
            delivery=mode,
            max_workers=8,
            queue_capacity=4096,
        ) as service:
            service.subscribe(
                catch_all, subscriber="bench", sink=lambda n: time.sleep(delay)
            )
            start = time.perf_counter()
            service.publish_batch(events)
            publish_seconds = time.perf_counter() - start
            service.drain()
        return publish_seconds

    inline_seconds = measure("inline")
    pooled_seconds = measure("threadpool")
    print(
        f"\npublish wall-clock with a {delay * 1e3:.0f}ms sink: "
        f"inline {inline_seconds * 1e3:.0f}ms, threadpool {pooled_seconds * 1e3:.0f}ms"
    )
    # Inline pays every sink delay inside publish_batch (>= 300ms here);
    # the pool hands the backlog to its workers and returns.
    assert inline_seconds >= len(events) * delay
    assert pooled_seconds < inline_seconds / 2


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_delivery_benchmark(benchmark, mode):
    """pytest-benchmark visibility of the per-mode end-to-end sweep."""
    benchmark.pedantic(lambda: _run_mode(mode), rounds=1, iterations=1)
