#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its metrics.

::

    python3 benchmarks/e2e/run.py --workload ticker-batch --seed 0 --seconds 10 --trace 0

generates the workload from the seed, runs whole passes (set-up + timed
loop, see :mod:`driver`) for ``--seconds`` (at least :data:`MIN_PASSES`),
verifies the outputs against a naive scan (:mod:`verify`) and prints
every metric by name with its unit; the last line of standard output is
one JSON object.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (:mod:`layers`).  Exits non-zero when any
operation failed verification.

The timed end-to-end metrics are reported **at the reference host
speed**: each pass's times are multiplied by the host speed read around
that pass (:mod:`hostspeed`), which takes the container's minutes-long
slow phases out of the numbers; the values as measured are printed
beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from statistics import median

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from driver import Pass, run_pass  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from tracing import tracing, write_spans  # noqa: E402
from verify import (  # noqa: E402
    delivery_failures,
    head_results,
    match_failures,
    naive_results,
)
from workloads import WORKLOADS, Inputs, generate  # noqa: E402

__all__ = ["END_TO_END", "MIN_PASSES", "PER_LAYER", "run_workload"]

#: Every end-to-end metric the runner emits, with its unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "publish_p50_ms": "ms",
    "publish_p99_ms": "ms",
    "notify_p50_ms": "ms",
    "ops_per_event": "ops",
    "peak_rss_mb": "MB",
}

#: Passes per run whatever ``--seconds`` says, so ``setup_s`` and
#: ``events_per_s`` are medians of at least three.
MIN_PASSES = 3

TRACE_DIR = os.path.join(_REPO_ROOT, "benchmarks", "output")


def _nearest_rank(ordered: list[float], share: float) -> float:
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def _notify_latencies(inputs: Inputs, run: Pass) -> list[float]:
    """Join sink times to the start of the publish call of their event."""
    if inputs.definition.engine is None:
        # Without a facade the "notification" is the returned result.
        return run.call_latencies
    started: dict[int, float] = {}
    for call, start in zip(inputs.calls, run.call_starts):
        if inputs.definition.batch == 1:
            started[id(call)] = start
        else:
            for event in call:
                started[id(event)] = start
    return [at - started[event_id] for event_id, at in run.sink_log]


def _end_to_end(records: list[dict], events: int, *, normalise: bool) -> dict[str, float]:
    """Return the timed end-to-end metrics: the median pass of each.

    With ``normalise`` every pass's times are first multiplied by the
    host speed read around that pass (as a share of the reference), i.e.
    expressed at the reference host speed.
    """

    def passes(metric: str, speed: str = "loop_speed") -> list[float]:
        return [record[metric] * (record[speed] if normalise else 1.0) for record in records]

    return {
        "setup_s": median(passes("setup_s", "setup_speed")),
        "events_per_s": median(events / wall for wall in passes("loop_s")),
        "publish_p50_ms": median(passes("publish_p50_ms")),
        "publish_p99_ms": median(passes("publish_p99_ms")),
        "notify_p50_ms": median(passes("notify_p50_ms")),
    }


def _ops_per_event(inputs: Inputs, run: Pass) -> float:
    if run.after is not None:
        events = run.after.events - run.before.events
        return (run.after.operations - run.before.operations) / events
    operations = sum(result.operations for results in run.returned for result in results)
    return operations / len(inputs.events)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    min_passes: int = MIN_PASSES,
) -> dict:
    """Run one workload and return the result object the CLI prints."""
    inputs = generate(WORKLOADS[name], seed, scale)
    events = len(inputs.events)

    # One record per untraced pass; the run reports the median pass.
    records: list[dict[str, float]] = []
    traced_loop_s: list[float] = []
    ops: set[float] = set()
    heads: list[list] = []
    layer_runs: list[dict[str, float]] = []
    first_spans = None
    attempted = failed = 0
    passes = 0
    window_started = time.perf_counter()
    while time.perf_counter() - window_started < seconds or passes < min_passes:
        traced_pass = trace and passes % 2 == 1
        if traced_pass:
            with tracing() as tracer:
                run = run_pass(inputs)
            spans = tracer.spans()
            layer_runs.append(layer_metrics(inputs, run, spans))
            traced_loop_s.append(run.loop_s)
            if first_spans is None:
                first_spans = spans
            del spans
        else:
            run = run_pass(inputs)
            publish = sorted(run.call_latencies)
            notify = _notify_latencies(inputs, run)
            before, between, after = run.speeds
            records.append(
                {
                    "setup_s": run.setup_s,
                    "loop_s": run.loop_s,
                    "publish_p50_ms": median(publish) * 1e3,
                    "publish_p99_ms": _nearest_rank(publish, 0.99) * 1e3,
                    "notify_p50_ms": median(notify) * 1e3,
                    "setup_speed": (before + between) / 2,
                    "loop_speed": (between + after) / 2,
                    "publish_samples": len(publish),
                    "notify_samples": len(notify),
                }
            )
        passes += 1
        attempted += events + run.churn_ops
        failed += delivery_failures(inputs, run)
        if not run.raised:
            ops.add(_ops_per_event(inputs, run))
            heads.append(head_results(inputs, run))
        del run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Verification is untimed and runs after the RSS reading, so the
    # naive replay's memory is not billed to the program.
    expected = naive_results(inputs)
    failed += sum(match_failures(expected, head) for head in heads)
    if len(ops) > 1:
        # Identical inputs must cost identical comparison operations.
        failed += len(ops) - 1

    if trace:
        values = {
            metric: median(layers[metric] for layers in layer_runs) for metric in PER_LAYER
        }
        values["trace.overhead_ratio"] = median(traced_loop_s) / median(
            record["loop_s"] for record in records
        )
        units = PER_LAYER
        os.makedirs(TRACE_DIR, exist_ok=True)
        write_spans(os.path.join(TRACE_DIR, f"e2e-trace-{name}.jsonl"), name, first_spans)
    else:
        values = _end_to_end(records, events, normalise=True)
        values["ops_per_event"] = min(ops) if ops else 0.0
        values["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()
        },
        "detail": {
            "workload": name,
            "seed": seed,
            "passes": passes,
            "publish_samples": sum(record["publish_samples"] for record in records),
            "notify_samples": sum(record["notify_samples"] for record in records),
            "host_speed": median(record["loop_speed"] for record in records),
            "as_measured": {} if trace else _end_to_end(records, events, normalise=False),
        },
    }


def _pin_to_one_cpu() -> None:
    """Pin the process, and every thread it will start, to one CPU.

    With its threads spread over two vCPUs ``fanout-threadpool`` ran at
    3.7 k instead of 6.8 k events/s for half an hour while every
    single-threaded workload was normal (GIL hand-offs across a vCPU the
    hypervisor keeps descheduling); on one CPU it loses nothing - the GIL
    serialises the threads anyway - and the host-speed readings are taken
    on the very CPU the workload runs on.  The highest-numbered CPU is
    the one least busy with the guest's interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="draws the event stream")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to make passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    print(
        f"{args.workload} seed={args.seed}: {detail['passes']} passes, "
        f"{detail['publish_samples']} publish / {detail['notify_samples']} notify samples, "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for metric, reading in result["metrics"].items():
        measured = detail["as_measured"].get(metric)
        print(
            f"  {metric:42s} {reading['value']:>16.6g} {reading['unit']}"
            + (f"  (as measured {measured:.6g})" if measured is not None else "")
        )
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
