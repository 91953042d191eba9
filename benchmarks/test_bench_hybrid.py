"""Mixed-workload benchmark: calibrated ``auto`` vs every fixed family.

The mixed-structure workload (the ``"mixed-structure"`` corpus profile)
combines an equality-sparse attribute, a range-heavy mixed attribute whose
broad ranges nearly all match, and a narrow-band attribute — so the best
per-attribute structures disagree and no single fixed family is optimal:

* the **tree** walks its root edges sequentially, paying for the 2000-way
  symbol spread,
* **counting** evaluates every distinct range predicate per event,
* the binary **index** keeps the metric interval index coupled to the
  winning hash and pays the probe overhead on near-total covers,
* only the **hybrid** per-attribute plan keeps the metric hash while
  demoting the overlapping interval side to a scan.

The gate is deterministic: under the fixed workload seeds the charged
comparison ops/event of every engine — including the calibrated ``auto``
run, whose arbitration reads op counters, never the clock — are exact, so
``auto`` must land on the hybrid plan and strictly beat each fixed family.
Wall-clock numbers are recorded for timing-trusted runs only and are never
part of the acceptance comparison (the ``auto`` run spends real time
*building* candidates at every arbitration, which the op metric rightly
ignores).
"""

import time

from repro.matching import CountingMatcher, FilterStatistics, PredicateIndexMatcher
from repro.matching.index import IndexPlanner
from repro.service import AdaptationPolicy, AdaptiveFilterEngine
from repro.workloads import build_workload, get_profile

_WORKLOAD = build_workload(get_profile("mixed-structure").spec)
_EVENTS = list(_WORKLOAD.events)

#: One engine run per family, shared across the tests of this module.
_RUNS: dict[str, tuple[FilterStatistics, float, object]] = {}

_FIXED_FAMILIES = ("index", "tree", "counting")

_POLICY = dict(reoptimize_interval=1000, warmup_events=1000)


def _run(engine_name: str) -> tuple[FilterStatistics, float, object]:
    if engine_name not in _RUNS:
        profiles = build_workload(get_profile("mixed-structure").spec).profiles
        if engine_name == "counting":
            # The predicate-counting baseline is a bare matcher, not a
            # registered engine family.
            engine = CountingMatcher(profiles)
        else:
            engine = AdaptiveFilterEngine(
                profiles, policy=AdaptationPolicy(engine=engine_name, **_POLICY)
            )
        statistics = FilterStatistics()
        start = time.perf_counter()
        for event in _EVENTS:
            statistics.record(engine.match(event))
        wall = time.perf_counter() - start
        _RUNS[engine_name] = (statistics, wall, engine)
    return _RUNS[engine_name]


def _timing_enabled(request) -> bool:
    return not request.config.getoption("benchmark_disable", default=False)


def test_hybrid_plan_demotes_only_the_overlapping_interval():
    """Plan shape on the mixed workload: a genuinely per-attribute mix."""
    matcher = PredicateIndexMatcher(
        _WORKLOAD.profiles,
        planner=IndexPlanner(dict(_WORKLOAD.event_distributions), hybrid=True),
    )
    symbol = matcher.plan.plan_for("symbol")
    metric = matcher.plan.plan_for("metric")
    band = matcher.plan.plan_for("band")
    assert symbol.use_hash
    # The near-total-overlap ranges are demoted to a scan while the
    # selective equalities on the *same attribute* keep their hash.
    assert metric.is_hybrid and metric.use_hash and not metric.use_interval
    # The narrow alert bands stay on the interval index.
    assert band.use_interval


def test_calibrated_auto_beats_every_fixed_family(record_hybrid, request):
    """The acceptance gate: deterministic ops/event, auto wins outright."""
    auto_stats, auto_wall, auto_engine = _run("auto")
    auto_ops = auto_stats.average_operations_per_event()

    fixed_ops = {}
    for family in _FIXED_FAMILIES:
        statistics, wall, _ = _run(family)
        fixed_ops[family] = statistics.average_operations_per_event()
        extra = {}
        if _timing_enabled(request):
            extra["wall_clock_seconds"] = wall
        record_hybrid(family, statistics, **extra)

    records = auto_engine.adaptations()
    extra = {
        "correction_factor_final": records[-1].correction_factor,
        "adaptations_applied": float(sum(1 for r in records if r.applied)),
    }
    if _timing_enabled(request):
        extra["wall_clock_seconds"] = auto_wall
    record_hybrid("auto[calibrated]", auto_stats, **extra)

    print(f"\nauto[calibrated]: {auto_ops:.2f} ops/event")
    for family, ops in fixed_ops.items():
        print(f"{family}: {ops:.2f} ops/event ({ops / auto_ops:.2f}x of auto)")

    # auto must have arbitrated its way onto the hybrid plan…
    assert any(r.engine == "hybrid" and r.applied for r in records)
    matcher = auto_engine.matcher
    assert isinstance(matcher, PredicateIndexMatcher) and matcher.planner.hybrid
    # …and strictly beat every fixed family on the exact op metric.
    for family, ops in fixed_ops.items():
        assert auto_ops < ops, f"auto {auto_ops:.3f} did not beat {family} {ops:.3f}"
    # The scan-family margins are not marginal.
    assert fixed_ops["tree"] > 10 * auto_ops
    assert fixed_ops["counting"] > 10 * auto_ops


def test_calibration_error_shrinks_across_intervals():
    """Measured feedback drives the hybrid misprediction down interval by
    interval — the model claims ~58 ops/event, reality is ~7, and the
    EWMA factor closes the gap geometrically (deterministic under the
    fixed seeds: op counters, not clocks, feed the calibrator)."""
    _, _, engine = _run("auto")
    samples = [s for s in engine.calibration().recent if s.family == "hybrid"]
    assert len(samples) >= 4
    errors = [s.error for s in samples]
    assert all(late < early for early, late in zip(errors, errors[1:])), (
        f"calibrated misprediction not strictly decreasing: {errors}"
    )
    assert errors[-1] < errors[0] / 8
    assert 0.0 < engine.calibrator.factor("hybrid") < 0.3


def test_hybrid_matcher_throughput(benchmark):
    """pytest-benchmark visibility for the hybrid matcher on the mixed mix."""
    matcher = PredicateIndexMatcher(
        _WORKLOAD.profiles,
        planner=IndexPlanner(dict(_WORKLOAD.event_distributions), hybrid=True),
    )
    benchmark.pedantic(lambda: matcher.match_batch(_EVENTS), rounds=2, iterations=1)
