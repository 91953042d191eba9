"""Environmental monitoring / catastrophe warning scenario.

The introduction of the paper motivates distribution-aware filtering with
environmental monitoring: sensors produce roughly uniform readings, but the
subscriptions concentrate on narrow catastrophe ranges, so almost every
event falls into the zero-subdomain and should be rejected as early as
possible.  This example

* generates the environmental workload (profiles peaked on alarm ranges,
  Gauss/uniform sensor readings),
* runs it through the :class:`~repro.api.FilterService` facade with a
  fluent-builder catastrophe alarm wired to a notification sink,
* compares the fixed engine families (tree, index) on the same
  batch, operation-for-operation, and
* compares natural order, the distribution-based reordering (V1 + A2)
  and binary search on the same event stream.

Run with:  python examples/environmental_monitoring.py
"""

from repro.api import FilterService, where
from repro.experiments import (
    STRATEGY_BINARY,
    STRATEGY_EVENT,
    STRATEGY_NATURAL,
    evaluate_by_simulation,
)
from repro.workloads import build_workload, get_profile


def main() -> None:
    spec = get_profile("environmental").spec.with_counts(profile_count=300, event_count=3000)
    workload = build_workload(spec)
    print(
        f"workload: {len(workload.profiles)} profiles, {len(workload.events)} events, "
        f"schema {workload.schema!r}"
    )
    print()

    # --- 1. The full service: a fluent alarm + batch publish -----------------
    alarms = []
    with FilterService(workload.schema) as service:
        service.subscribe_all(list(workload.profiles))
        # The crisis center's profile, written the fluent way and wired to
        # a sink — catastrophic heat with elevated radiation.
        service.subscribe(
            where("temperature").at_least(30) & where("radiation").at_least(40),
            subscriber="crisis-center",
            profile_id="catastrophe-alarm",
            sink=alarms.append,
        )
        service.publish_batch(list(workload.events))
        snapshot = service.stats()

    print("service run (adaptive filter, batched publish):")
    print(f"  published events      : {snapshot.events}")
    print(f"  delivered notifications: {snapshot.notifications}")
    print(f"  avg operations/event  : {snapshot.average_operations_per_event:.2f}")
    print(f"  match rate            : {snapshot.match_rate:.1%}")
    print(f"  engine                : {snapshot.engine} -> {snapshot.engine_family} family")
    print(f"  catastrophe alarms    : {len(alarms)} notifications to the crisis center")
    print()

    # --- 2. Engine families on the same batch ---------------------------------
    # Same events, same profiles, same operation accounting — only the
    # filtering structure differs.
    print("engine families on the same 3000-event batch (fixed, no adaptation):")
    matched_reference: list[tuple[str, ...]] | None = None
    for engine in ("tree", "index"):
        with FilterService(workload.schema, engine=engine, adaptive=False) as fixed:
            fixed.subscribe_all(list(workload.profiles))
            outcomes = fixed.publish_batch(list(workload.events))
            # Families report matches in their own internal order (tree
            # order vs insertion order), so compare the match *sets*.
            matched = [tuple(sorted(o.match_result.matched_profile_ids)) for o in outcomes]
            if matched_reference is None:
                matched_reference = matched
            assert matched == matched_reference, "families must agree on matches"
            stats = fixed.stats()
            print(
                f"  {engine:8s} ops/event = {stats.average_operations_per_event:8.2f}"
                f"   notifications = {stats.notifications}"
            )
    print("  (identical matches across all families, checked event-for-event)")
    print()

    # --- 3. Ordering strategies on the same stream ---------------------------
    strategies = (STRATEGY_NATURAL, STRATEGY_EVENT, STRATEGY_BINARY)
    evaluations = evaluate_by_simulation(workload, strategies)
    print("ordering strategies on the raw event stream:")
    for evaluation in evaluations:
        print(
            f"  {evaluation.strategy.name:24s} "
            f"ops/event = {evaluation.operations_per_event:6.2f}   "
            f"tree nodes = {evaluation.tree_nodes}"
        )
    best = min(evaluations, key=lambda e: e.operations_per_event)
    print(f"  best strategy for this workload: {best.strategy.name}")


if __name__ == "__main__":
    main()
