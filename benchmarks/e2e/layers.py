"""Per-layer metrics of one traced pass.

Times are span self times (see :mod:`tracing`) summed per layer over the
timed loop; counts come from the same spans or from the program's public
snapshots (``ServiceStats``, ``DeliveryStats``, ``KernelStats``,
``AdaptationRecord``).  Two metrics also cover set-up, because that is
where the work they watch happens: ``api.subscribe_all_s`` and
``matching.index.maintain_*`` (the constructor is the bulk index build).
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from driver import Pass
from tracing import TARGETS, Span
from workloads import Inputs

__all__ = ["PER_LAYER", "layer_metrics"]

#: Every per-layer metric the runner emits, with its unit.
PER_LAYER: dict[str, str] = {
    "workloads.generate_s": "s",
    "workloads.events": "count",
    "workloads.profiles": "count",
    "workloads.driver_s": "s",
    "api.self_s": "s",
    "api.calls": "count",
    "api.subscribe_all_s": "s",
    "api.churn_op_p50_us": "us",
    "service.broker.self_s": "s",
    "service.broker.calls": "count",
    "service.broker.notifications": "count",
    "service.broker.self_us_per_notification": "us",
    "service.adaptive.self_s": "s",
    "service.adaptive.reopt_checks": "count",
    "service.adaptive.reopt_applied": "count",
    "service.adaptive.applied_ratio": "ratio",
    "service.adaptive.family_switches": "count",
    "service.adaptive.stall_max_s": "s",
    "distributions.history_s": "s",
    "distributions.history_calls": "count",
    "matching.index.match_s": "s",
    "matching.index.match_calls": "count",
    "matching.index.events_per_s": "events/s",
    "matching.index.ops": "count",
    "matching.index.kernel_dedup": "ratio",
    "matching.index.matcher_share": "ratio",
    "matching.index.maintain_s": "s",
    "matching.index.maintain_calls": "count",
    "matching.index.plan_s": "s",
    "matching.index.plan_calls": "count",
    "matching.tree.build_s": "s",
    "matching.tree.build_calls": "count",
    "matching.tree.match_s": "s",
    "service.delivery.dispatch_s": "s",
    "service.delivery.dispatched": "count",
    "service.delivery.delivered": "count",
    "service.delivery.failed": "count",
    "service.delivery.max_pending": "count",
    "service.delivery.drain_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

_MATCHERS = ("matching.index", "matching.tree")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(inputs: Inputs, run: Pass, spans: list[Span]) -> dict[str, float]:
    """Return every per-layer metric (``trace.overhead_ratio`` is the caller's)."""
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    subscribe_all_s = maintain_s = covered_s = 0.0
    maintain_calls = index_ops = 0
    churn_ops: list[float] = []
    #: Engine match span -> time its matcher-match children cover.
    engine_spans: dict[int, float] = {}

    for index, span in enumerate(spans):
        target = TARGETS[span.target]
        key = (target.layer, target.kind)
        if key == ("matching.index", "maintain"):
            maintain_s += span.self_s
            maintain_calls += 1
        if span.start < run.loop_started:
            if target.name == "FilterService.subscribe_all":
                subscribe_all_s += span.duration
            continue
        self_s[key] += span.self_s
        calls[key] += 1
        index_ops += span.count
        if span.parent < 0:
            covered_s += span.duration
            if target.layer == "api" and target.kind != "publish":
                churn_ops.append(span.duration)
        if key == ("service.adaptive", "match"):
            engine_spans[index] = span.duration
        elif target.layer in _MATCHERS and target.kind == "match" and span.parent in engine_spans:
            engine_spans[span.parent] -= span.duration

    def layer_s(layer: str) -> float:
        return sum(value for (name, _), value in self_s.items() if name == layer)

    def layer_calls(layer: str) -> int:
        return sum(value for (name, _), value in calls.items() if name == layer)

    events = len(inputs.events)
    match_s = self_s["matching.index", "match"]
    # Layers a workload never enters (and counts without a facade) read 0.
    metrics: dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    metrics |= {
        "workloads.generate_s": inputs.generate_s,
        "workloads.events": events,
        "workloads.profiles": len(inputs.profiles),
        # Loop wall outside every root span: the benchmark's own loop.
        "workloads.driver_s": run.loop_s - covered_s,
        "api.self_s": layer_s("api"),
        "api.calls": layer_calls("api"),
        "api.subscribe_all_s": subscribe_all_s,
        "api.churn_op_p50_us": median(churn_ops) * 1e6 if churn_ops else 0.0,
        "service.broker.self_s": layer_s("service.broker"),
        "service.broker.calls": layer_calls("service.broker"),
        "service.adaptive.self_s": layer_s("service.adaptive"),
        "service.adaptive.stall_max_s": max(engine_spans.values(), default=0.0),
        "distributions.history_s": layer_s("distributions"),
        "distributions.history_calls": layer_calls("distributions"),
        "matching.index.match_s": match_s,
        "matching.index.match_calls": calls["matching.index", "match"],
        "matching.index.events_per_s": _ratio(events, match_s),
        "matching.index.ops": index_ops,
        "matching.index.matcher_share": match_s / run.loop_s,
        "matching.index.maintain_s": maintain_s,
        "matching.index.maintain_calls": maintain_calls,
        "matching.index.plan_s": self_s["matching.index", "plan"],
        "matching.index.plan_calls": calls["matching.index", "plan"],
        "matching.tree.build_s": self_s["matching.tree", "build"],
        "matching.tree.build_calls": calls["matching.tree", "build"],
        "matching.tree.match_s": self_s["matching.tree", "match"],
        "service.delivery.dispatch_s": self_s["service.delivery", "dispatch"],
        "service.delivery.drain_s": self_s["service.delivery", "drain"],
        "trace.coverage": covered_s / run.loop_s,
    }
    if run.after is None:
        metrics["matching.index.kernel_dedup"] = run.kernel.dedup_factor
    else:
        metrics |= _snapshot_metrics(run, metrics["service.broker.self_s"])
    return metrics


def _snapshot_metrics(run: Pass, broker_self_s: float) -> dict[str, float]:
    """Return the counts read from the program's public snapshots."""
    before, after = run.before, run.after
    notifications = after.notifications - before.notifications
    records = after.adaptations[len(before.adaptations) :]
    applied = [record for record in records if record.applied]
    family, switches = before.engine_family, 0
    for record in applied:
        if record.engine != family:
            family, switches = record.engine, switches + 1
    delivery = after.delivery
    return {
        "service.broker.notifications": notifications,
        "service.broker.self_us_per_notification": _ratio(broker_self_s * 1e6, notifications),
        "service.adaptive.reopt_checks": len(records),
        "service.adaptive.reopt_applied": len(applied),
        "service.adaptive.applied_ratio": _ratio(len(applied), len(records)),
        "service.adaptive.family_switches": switches,
        "matching.index.kernel_dedup": after.kernel.dedup_factor,
        "service.delivery.dispatched": delivery.dispatched - before.delivery.dispatched,
        "service.delivery.delivered": delivery.delivered - before.delivery.delivered,
        "service.delivery.failed": delivery.failed,
        "service.delivery.max_pending": delivery.max_pending,
    }
