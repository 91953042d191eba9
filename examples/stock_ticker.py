"""Stock ticker scenario through the ``repro.api`` facade.

The paper's first motivating application is a stock ticker where "users are
mainly interested in a small range of values for certain shares".  This
example generates such a workload, serves it through a
:class:`~repro.api.FilterService` per engine — tree, index, and ``auto``
(the index family replanning itself) — and compares comparison
operations and wall-clock throughput, publishing in batches so the index
family's columnar batch kernel (per-batch probe dedup) gets to work.  The merged
:meth:`~repro.api.FilterService.stats` snapshot reports the kernel's
executed-work accounting and the adaptive engine's decisions alongside
the paper's ops/event metric.

Run with:  python examples/stock_ticker.py
"""

import time

from repro.api import AdaptationPolicy, FilterService
from repro.workloads import build_workload, get_profile

BATCH = 500


def run(name: str, engine: str, workload, events) -> None:
    service = FilterService(
        workload.schema,
        policy=AdaptationPolicy(engine=engine, reoptimize_interval=1000, warmup_events=500),
    )
    service.subscribe_all(list(workload.profiles))
    started = time.perf_counter()
    for position in range(0, len(events), BATCH):
        service.publish_batch(events[position : position + BATCH])
    elapsed = time.perf_counter() - started
    snapshot = service.stats()
    adapted = sum(1 for record in snapshot.adaptations if record.applied)
    print(
        f"  {name:24s} ops/event = {snapshot.average_operations_per_event:8.2f}   "
        f"events/s = {len(events) / elapsed:8.0f}   "
        f"notifications = {snapshot.notifications}   "
        f"batch dedup = {snapshot.batch_dedup_factor:4.1f}x   "
        f"adaptations = {adapted}"
    )


def main() -> None:
    workload = build_workload(
        get_profile("stock-ticker").spec.with_counts(profile_count=500, event_count=3000)
    )
    events = list(workload.events)
    print(
        f"stock ticker workload: {len(workload.profiles)} subscriptions, "
        f"{len(events)} ticks, published in batches of {BATCH}"
    )
    print()
    print("engine comparison (identical event stream, one FilterService each):")

    run("profile tree", "tree", workload, events)
    run("predicate index", "index", workload, events)
    run("auto (index, replanning)", "auto", workload, events)

    print()
    print(
        "The index family touches ~1-2 predicates per tick and its columnar\n"
        "kernel executes each distinct (symbol, price) probe once per batch,\n"
        "so the executed work shrinks by the dedup factor; 'auto' is the\n"
        "index family, replanned from the observed tick distribution."
    )


if __name__ == "__main__":
    main()
