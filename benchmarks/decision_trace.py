"""Dump every re-optimisation decision of the corpus, for cross-commit diffs.

A control-plane refactor must leave the decisions and the matched profile
ids as they were.  Run the script from each checkout's root, then diff::

    PYTHONPATH=src python benchmarks/decision_trace.py > /tmp/change.json
    (cd ../parent && PYTHONPATH=src python benchmarks/decision_trace.py) > /tmp/parent.json
    python benchmarks/decision_trace.py --diff /tmp/parent.json /tmp/change.json

Covers every corpus profile x every pinned family it declares, plus
``engine="auto"`` (the ``index`` family under its default name) on
every corpus profile at 100 subscriptions.  Those runs publish in the
profile's batches; one more pinned-``index`` run per profile (``<name>/index/one-by-one``)
publishes the same events one ``publish`` call at a time, so the
per-event path into the event history is traced too.  One rule for every
run: the decision fields (``event_count``, ``engine``, ``applied``) and
the matched-id digest compare exactly, the two predicted
costs within :data:`COST_REL_TOL` relative — cost models may sum in a
different order (the tree is costed per distinct node), a decision may not
move.  A run present in only one file (a family added or deleted) is
labelled ``NEW`` or ``GONE`` and counted apart; only runs on both sides
that differ make ``--diff`` exit non-zero.  The tail line reports the worst
relative cost deviation seen.

Each record also carries the check's own stall,
``AdaptationRecord.check_seconds``.  ``--diff`` never compares it — it is a
clock, not a decision — but prints the slowest check of each side on the
line before the tail line ("not recorded" for a trace written before the
field was).  A trace written while records still carried a fourth
decision field, the boolean ``suppressed`` of the retired family-switch
cooldown, is read without it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace

#: Relative tolerance on ``predicted_current`` / ``predicted_candidate``.
COST_REL_TOL = 1e-9


def trace(profile, engine: str, *, one_by_one: bool = False) -> dict:
    from repro.api import FilterService
    from repro.workloads.generators import build_workload

    workload = build_workload(profile.spec)
    events = list(workload.events)
    size = 1 if one_by_one else profile.run.batch_size
    digest = hashlib.sha256()
    with FilterService.from_profile(profile, engine=engine, delivery="inline") as service:
        service.subscribe_all(workload.profiles)
        for start in range(0, len(events), size):
            if one_by_one:
                outcomes = [service.publish(events[start])]
            else:
                outcomes = service.publish_batch(events[start : start + size])
            for outcome in outcomes:
                digest.update(repr(outcome.match_result.matched_profile_ids).encode())
        records = service.broker.engine.adaptations()
    return {
        "matched": digest.hexdigest(),
        "records": [
            [
                r.event_count,
                r.engine,
                r.applied,
                r.predicted_current,
                r.predicted_candidate,
                r.check_seconds,
            ]
            for r in records
        ],
    }


def _records(run: dict) -> list[list]:
    """Return a run's records, each without a retired ``suppressed`` field."""
    return [
        record[:3] + record[4:] if len(record) > 3 and isinstance(record[3], bool) else record
        for record in run["records"]
    ]


def collect() -> dict:
    from repro.workloads.profiles import get_profile, list_profiles

    traces = {}
    for name in list_profiles():
        profile = get_profile(name)
        for family in profile.engine.families:
            traces[f"{name}/{family}"] = trace(profile, family)
        traces[f"{name}/index/one-by-one"] = trace(profile, "index", one_by_one=True)
        small = replace(profile, spec=profile.spec.with_counts(profile_count=100))
        traces[f"{name}@100/auto"] = trace(small, "auto")
    return traces


def cost_deviation(before: dict, after: dict) -> float:
    """Worst relative difference between the two runs' predicted costs."""
    return max(
        (
            abs(x - y) / max(abs(x), abs(y))
            for a, b in zip(_records(before), _records(after))
            for x, y in zip(a[3:5], b[3:5])
            if x != y
        ),
        default=0.0,
    )


def same_run(before: dict, after: dict) -> bool:
    return (
        before["matched"] == after["matched"]
        and len(before["records"]) == len(after["records"])
        and all(a[:3] == b[:3] for a, b in zip(_records(before), _records(after)))
        and cost_deviation(before, after) <= COST_REL_TOL
    )


def slowest_check(traces: dict) -> str:
    """Describe the slowest recorded check of one side's traces."""
    timed = [
        (record[5], key, record[0])
        for key, run in traces.items()
        for record in _records(run)
        if len(record) > 5 and record[5] is not None
    ]
    if not timed:
        return "not recorded"
    seconds, key, events = max(timed)
    return f"{seconds * 1e3:.1f} ms ({key}, check at {events} events)"


def diff(parent_path: str, change_path: str) -> int:
    with open(parent_path) as handle:
        parent = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    counts = {"same": 0, "DIFF": 0, "GONE": 0, "NEW": 0}
    worst = 0.0
    for key in sorted(set(parent) | set(change)):
        before, after = parent.get(key), change.get(key)
        if before is None:
            verdict = "NEW"
        elif after is None:
            verdict = "GONE"
        else:
            worst = max(worst, cost_deviation(before, after))
            verdict = "same" if same_run(before, after) else "DIFF"
        counts[verdict] += 1
        records = (after or before)["records"]
        applied = sum(1 for record in records if record[2])
        print(f"{verdict:4}  {key:32} {len(records):3} checks, {applied} applied")
    checks = sum(len(run["records"]) for run in change.values())
    print(f"slowest check: parent {slowest_check(parent)}; change {slowest_check(change)}")
    print(
        f"{len(change)} runs, {checks} checks, {counts['DIFF']} differing, "
        f"{counts['GONE']} gone, {counts['NEW']} new "
        f"(worst relative cost deviation {worst:.1e})"
    )
    return 1 if counts["DIFF"] else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--diff"]:
        sys.exit(diff(*sys.argv[2:4]))
    json.dump(collect(), sys.stdout, indent=1)
