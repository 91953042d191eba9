"""Columnar batch-kernel benchmark: per-event loop vs columnar execution.

Two scenarios bracket the kernel's design space:

* **stock ticker** — reject-heavy, hit-sparse: most events die on the
  first probe.  The columnar win here is *dedup* — a 1500-event batch
  observes ~40 symbols, so the kernel executes a fraction of the probe
  work the per-event loop pays.  Gated deterministically via
  :class:`~repro.matching.index.kernel.KernelStats` (charged/executed
  operations), which is exact under the fixed workload seeds: the kernel
  must execute >=2x fewer comparison operations per event than the
  per-event loop on a 256-event batch (the tentpole acceptance claim).
* **wide range** — hit-heavy: every event satisfies hundreds of broad
  range entries, so per-event cost is resolving slab covers into profile
  masks.  The columnar win here is *cover dedup* (many distinct values
  share one slab cover); gated at >=2x wall-clock where timing is trusted
  (skipped in ``--benchmark-disable`` smoke runs, like every other
  wall-clock gate in this suite).

Deterministic per-scenario numbers (ops/event, matches/event, dedup
factor) feed ``BENCH_summary.json``'s ``batch`` section through the
``record_batch`` fixture; timing runs additionally record
``wall_clock_seconds`` keys, which ``compare_to_baseline.py`` gates with
the loose ``--wall-tolerance`` only when both summaries carry them —
i.e. on developer machines, not in CI smoke.
"""

import time

import pytest

from repro.matching import FilterStatistics, PredicateIndexMatcher
from repro.matching.index import kernel
from repro.workloads import build_workload, get_profile

_STOCK = build_workload(
    get_profile("stock-ticker").spec.with_counts(profile_count=400, event_count=1500)
)
_WIDE = build_workload(get_profile("wide-range").spec)

#: The acceptance batch size of the stock-ticker dedup gate.
_STOCK_GATE_BATCH = 256

_SCENARIOS = {
    "stock-ticker": _STOCK,
    "wide-range": _WIDE,
}


def _statistics(results) -> FilterStatistics:
    statistics = FilterStatistics()
    for result in results:
        statistics.record(result)
    return statistics


def _wall_clock(runner, *, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        runner()
        best = min(best, time.perf_counter() - start)
    return best


def _timing_enabled(request) -> bool:
    return not request.config.getoption("benchmark_disable", default=False)


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_columnar_kernel_equals_per_event_loop(scenario, record_batch, request):
    """Correctness guard + the deterministic summary numbers per scenario."""
    workload = _SCENARIOS[scenario]
    matcher = PredicateIndexMatcher(workload.profiles)
    events = list(workload.events)
    sequential = [matcher.match(event) for event in events]
    stats = kernel.KernelStats()
    columnar = kernel.match_batch_columnar(matcher, events, stats=stats)
    assert [r.matched_profile_ids for r in columnar] == [
        r.matched_profile_ids for r in sequential
    ]
    assert [r.operations for r in columnar] == [r.operations for r in sequential]

    extra = {
        "executed_operations_per_event": stats.executed_operations / stats.events,
        "dedup_factor": stats.dedup_factor,
    }
    if _timing_enabled(request):
        extra["wall_clock_seconds"] = _wall_clock(
            lambda: kernel.match_batch_columnar(matcher, events)
        )
        extra["wall_clock_seconds_event_loop"] = _wall_clock(
            lambda: [matcher.match(event) for event in events]
        )
    record_batch(f"{scenario}[columnar]", _statistics(columnar), **extra)
    print(
        f"\n{scenario}: charged {stats.charged_operations / stats.events:.2f} "
        f"ops/event, executed {stats.executed_operations / stats.events:.2f} "
        f"ops/event ({stats.dedup_factor:.1f}x dedup)"
    )


def test_columnar_dedup_is_2x_on_stock_batch():
    """The tentpole ops/event acceptance gate, deterministic (runs in CI).

    On a 256-event stock-ticker batch the columnar kernel must *execute*
    at least 2x fewer comparison operations per event than the per-event
    loop charges — the per-batch probe dedup factor.  Larger batches
    dedupe harder.
    """
    matcher = PredicateIndexMatcher(_STOCK.profiles)
    events = list(_STOCK.events)

    stats_256 = kernel.KernelStats()
    kernel.match_batch_columnar(matcher, events[:_STOCK_GATE_BATCH], stats=stats_256)
    print(f"\nstock-ticker[{_STOCK_GATE_BATCH}]: dedup {stats_256.dedup_factor:.2f}x")
    assert stats_256.dedup_factor >= 2.0

    stats_full = kernel.KernelStats()
    kernel.match_batch_columnar(matcher, events, stats=stats_full)
    print(f"stock-ticker[{len(events)}]: dedup {stats_full.dedup_factor:.2f}x")
    assert stats_full.dedup_factor >= 4.0
    assert stats_full.dedup_factor >= stats_256.dedup_factor


def test_columnar_cover_dedup_wins_on_range_heavy_batch():
    """Executed-ops gate of the slab-cover dedup, deterministic (runs in CI).

    The wide-range workload is range-heavy: many distinct event values
    resolve to the same interval-slab cover, whose mask resolves once
    per cover.  Charging the executed side per *cover* instead of per
    *distinct value* is worth ~1.46x here; per-distinct-value accounting
    alone topped out at ~1.06x on this workload, so the 1.3x gate proves
    the cover dedup specifically.
    """
    matcher = PredicateIndexMatcher(_WIDE.profiles)
    stats = kernel.KernelStats()
    kernel.match_batch_columnar(matcher, list(_WIDE.events), stats=stats)
    print(f"\nwide-range: dedup {stats.dedup_factor:.2f}x")
    assert stats.executed_operations < stats.charged_operations
    assert stats.dedup_factor >= 1.3


def test_columnar_wall_clock_2x_on_wide_range(request):
    """The tentpole wall-clock gate on hit-heavy batches.  Timing-trusted
    runs only."""
    if not _timing_enabled(request):
        pytest.skip("wall-clock gate skipped in timing-free (smoke) runs")
    matcher = PredicateIndexMatcher(_WIDE.profiles)
    events = list(_WIDE.events)
    per_event = _wall_clock(lambda: [matcher.match(event) for event in events])
    columnar = _wall_clock(lambda: kernel.match_batch_columnar(matcher, events))
    print(
        f"\nwide-range wall clock: per-event {per_event * 1e3:.1f}ms "
        f"columnar {columnar * 1e3:.1f}ms ({per_event / columnar:.2f}x)"
    )
    assert columnar * 2.0 < per_event


def test_columnar_wall_clock_competitive_on_stock(request):
    """Reject-heavy batches must not regress behind the per-event loop.

    The stock workload is the kernel's worst case (almost nothing to
    count or dedupe pays off per event); the full-batch sweep is ~1.4x
    faster locally, asserted here with generous slack against noise.
    """
    if not _timing_enabled(request):
        pytest.skip("wall-clock gate skipped in timing-free (smoke) runs")
    matcher = PredicateIndexMatcher(_STOCK.profiles)
    events = list(_STOCK.events)
    per_event = _wall_clock(lambda: [matcher.match(event) for event in events])
    columnar = _wall_clock(lambda: kernel.match_batch_columnar(matcher, events))
    print(
        f"\nstock-ticker wall clock: per-event {per_event * 1e3:.1f}ms "
        f"columnar {columnar * 1e3:.1f}ms ({per_event / columnar:.2f}x)"
    )
    assert columnar < per_event * 1.25


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_columnar_batch_throughput(benchmark, scenario):
    """pytest-benchmark visibility for the columnar sweep per scenario."""
    workload = _SCENARIOS[scenario]
    matcher = PredicateIndexMatcher(workload.profiles)
    events = list(workload.events)
    benchmark.pedantic(
        lambda: kernel.match_batch_columnar(matcher, events), rounds=2, iterations=1
    )
